"""Shared test helpers: an independent profile construction and the
grid-refinement sweep behind the convergence-order tests.

The logistic profile here is written from scratch so tests do not lean on
the library's own profile code when checking library output.
"""

import itertools

import numpy as np

from fiberflow import calabi_flow
from fiberflow.harness_cli import parse_config, run_sweep


def make_logistic(lower, width):
    def prof(rho):
        sig = 1.0 / (1.0 + np.exp(-rho))
        s1 = sig * (1.0 - sig)
        s2 = s1 * (1.0 - 2.0 * sig)
        s3 = s2 * (1.0 - 2.0 * sig) - 2.0 * s1 * s1
        return lower + width * sig, width * s1, width * s2, width * s3
    return prof


def reject_steps_after(monkeypatch, calls, grid_points=None):
    """Make every step solve after the first `calls` raise StepRejected,
    with no step halving to retry it, so a run stops at its next step;
    with `grid_points`, only the solves on grids of that many nodes."""
    real = calabi_flow.FlowProblem.step_once
    count = itertools.count()

    def step_once(self, *args):
        if (grid_points in (None, self.params.grid_points)
                and next(count) >= calls):
            raise calabi_flow.StepRejected("injected rejection")
        return real(self, *args)

    monkeypatch.setattr(calabi_flow.FlowProblem, "step_once", step_once)
    monkeypatch.setattr(calabi_flow, "MAX_HALVINGS", 0)


def grid_member(n):
    """Config text of a grid-refinement sweep member on n nodes, with dt
    tied to 0.35 drho^2 (written with repr, so it parses to that float)."""
    drho = 40.0 / (n - 1)
    return (f"[run]\nscenario = hirzebruch\n\n"
            f"[params]\ngrid_points = {n}\n\n"
            f"[flow]\ndt_fixed = {0.35 * drho ** 2!r}\n"
            f"stop_margin = 0.25\n\n"
            f"[analysis]\nheat_tol = 0.05\nchecks = monitors,time_ratio\n")


def grid_sweep(base_dir, grids=(128, 256, 512), workers=1):
    """The summary of `run_sweep` over the `grid_member` configs of grids,
    with its members in the order of grids."""
    configs = [(f"grid_{n}.cfg", parse_config(grid_member(n))) for n in grids]
    summary, _ = run_sweep(configs, base_dir, workers=workers)
    return summary


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance scoreboard after the test summary, uncaptured."""
    import sys

    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance gate")
        for line in lines:
            terminalreporter.write_line(line)
