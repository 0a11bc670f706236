"""The three benchmark workloads: seeded input generation, one op, and the
correctness check of the op's output.

Every workload has the same shape:

* `prepare(seed)` builds the inputs that do not change from op to op
  (`seed` is anything `numpy.random.default_rng` accepts);
* `ops(ctx)` yields op inputs forever, in an order fixed by the seed, in
  cycles of `cycle` ops;
* `warmup(ctx)` is one fixed op (independent of the seed) run before
  timing;
* `execute(op, ctx, out_dir)` is the timed part: calls into fiberflow only;
* `check(op, ctx, raw, out_dir)` is untimed and returns an `Outcome`.

The generators stratify their draws in short cycles (a Latin-hypercube
design per cycle), so every run sees nearly the same mix of sizes and
only the positions inside each stratum depend on the seed.  That keeps
the per-run medians steady without narrowing the ranges.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fiberflow import calabi_flow as cf
from fiberflow import chart_geometry as cg
from fiberflow import harness_cli as hc
from fiberflow import oneill_curvature as oc

# acceptance-gate tolerances (tests/test_acceptance.py), and the closed-form
# versus stencil tolerance of tests/test_oneill_curvature.py for vhc
RICCI_REL_TOL = 1e-4
MIXED_TOL = 1e-3
VHC_TOL = 1e-3
A_NORM_REL_TOL = 1e-8
STRUCTURE_TOL = 1e-8
HEAT_ORDER_MIN = 1.9
FD_STEP = 1e-3


@dataclass
class Outcome:
    """`error`: the op raised or the program reported a runtime error (exit
    code 3).  `wrong`: the output failed the benchmark's correctness
    check.  `accepted`: the program's own acceptance verdict passed."""

    error: str | None = None
    wrong: str | None = None
    accepted: bool = False
    info: dict = field(default_factory=dict)


def _emitted_bytes(run_dir: Path) -> int:
    """Bytes of the deterministic outputs (CSVs and report.json); the
    manifest is left out because it carries wall-clock times."""
    return sum(p.stat().st_size for p in run_dir.iterdir()
               if p.suffix == ".csv" or p.name == "report.json")


def csv_bytes(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}


# ---------------------------------------------------------------------------
# collapse: parse_config -> execute -> check_run_dir on generated configs

COLLAPSE_CYCLE = 10
COLLAPSE_K = (1,) * 8 + (2, 3)  # k >= 2 keeps ROADMAP defect 1 in view
COLLAPSE_GRID = (384, 2048)
COLLAPSE_B0 = {1: (2.0, 2.8), 2: (2.0, 4.0), 3: (2.0, 4.0)}  # a0 = 1


def collapse_config(grid: int, k: int, b0: float, shape: str) -> str:
    """Config text; with (512, 1, 2.0, "tanh") it matches
    configs/hirzebruch.cfg key for key."""
    return (
        "[run]\nscenario = hirzebruch\n\n"
        f"[params]\na0 = 1.0\nb0 = {b0!r}\nn = 1\nk = {k}\nL = 20.0\n"
        f"grid_points = {grid}\n\n"
        "[flow]\ndt_max = 0.01\ntime_frac = 0.1\nstop_margin = 0.001\n"
        f"shape = {shape}\n\n"
        "[analysis]\nmode = typeI_max_curvature\nmax_picks = 8\n")


@dataclass(frozen=True)
class CollapseOp:
    text: str
    k: int
    seed: int


class Collapse:
    name = "collapse"
    cycle = COLLAPSE_CYCLE
    # re-running one generated config must give byte-identical CSVs
    rerun_identical = True

    @staticmethod
    def prepare(seed) -> dict:
        return {"rng": np.random.default_rng(seed)}

    @staticmethod
    def warmup(ctx: dict) -> CollapseOp:
        return CollapseOp(collapse_config(512, 1, 2.0, "tanh"), 1, 0)

    @staticmethod
    def ops(ctx: dict):
        rng = ctx["rng"]
        lo, hi = COLLAPSE_GRID
        c = COLLAPSE_CYCLE
        while True:
            u_grid = (rng.permutation(c) + rng.random(c)) / c
            u_b0 = (rng.permutation(c) + rng.random(c)) / c
            ks = rng.permutation(COLLAPSE_K)
            shapes = rng.permutation(["tanh", "skew"] * (c // 2))
            for i in range(c):
                grid = int(round(lo * (hi / lo) ** u_grid[i]))
                k = int(ks[i])
                b_lo, b_hi = COLLAPSE_B0[k]
                b0 = round(b_lo + (b_hi - b_lo) * float(u_b0[i]), 6)
                text = collapse_config(grid, k, b0, str(shapes[i]))
                yield CollapseOp(text, k, int(rng.integers(2 ** 31)))

    @staticmethod
    def execute(op: CollapseOp, ctx: dict, out_dir: Path):
        config = hc.parse_config(op.text)
        manifest, code = hc.execute(config, out_dir, op.seed)
        summary, check_code = hc.check_run_dir(out_dir)
        return manifest, code, summary, check_code

    @staticmethod
    def check(op: CollapseOp, ctx: dict, raw, out_dir: Path) -> Outcome:
        manifest, code, summary, check_code = raw
        out = Outcome(accepted=code == 0)
        if code == 3 or manifest.get("error") is not None:
            out.error = f"execute exit {code}: {manifest.get('error')}"
        elif code not in (0, 1):
            out.wrong = f"unexpected exit code {code}"
        elif check_code != code or not summary.get("consistent"):
            out.wrong = (f"check_run_dir disagrees: exit {check_code} vs "
                         f"{code}, consistent={summary.get('consistent')}")
        elif code == 1 and op.k == 1:
            # every k = 1 draw passes its own acceptance gate; exit 1 is
            # tolerated only for k >= 2, which fails monitors and
            # splitting until ROADMAP defect 1 is fixed
            failing = sorted(name for name, ok
                             in manifest.get("acceptance", {}).items()
                             if not ok)
            out.wrong = f"k=1 run failed its acceptance gate: {failing}"
        out.info = {"k": op.k, "emit_bytes": _emitted_bytes(out_dir)}
        return out


# ---------------------------------------------------------------------------
# refine: run_sweep(workers=1) over a seeded grid ladder, sweep regime

REFINE_CYCLE = 3  # a 30 s run gets through about three cycles
# The top grid carries most of a sweep's cost (steps grow like N^2), so it
# is kept in the ~1,900-step regime and the ladder descends from it by one
# seeded ratio: sweeps then cost about the same and a run's median is
# steady, while every grid still lies in 256-2048.
REFINE_TOP = (1984, 2048)
REFINE_RATIO = (1.5, 1.6)


def refine_config(grid: int) -> str:
    """Member config in the regime of configs/sweep/*.cfg: dt tied to the
    grid spacing squared, stopped 0.25 before the predicted collapse."""
    h = 2.0 * 20.0 / (grid - 1)
    return (
        "[run]\nscenario = hirzebruch\n\n"
        f"[params]\ngrid_points = {grid}\n\n"
        f"[flow]\ndt_fixed = {0.35 * h * h!r}\nstop_margin = 0.25\n\n"
        "[analysis]\nheat_tol = 0.05\nchecks = monitors,time_ratio\n")


class Refine:
    name = "refine"
    cycle = REFINE_CYCLE
    rerun_identical = False

    @staticmethod
    def prepare(seed) -> dict:
        return {"rng": np.random.default_rng(seed)}

    @staticmethod
    def warmup(ctx: dict) -> tuple[int, ...]:
        return (256, 384, 512)

    @staticmethod
    def ops(ctx: dict):
        rng = ctx["rng"]
        lo, hi = REFINE_TOP
        r_lo, r_hi = REFINE_RATIO
        c = REFINE_CYCLE
        while True:
            u_top = (rng.permutation(c) + rng.random(c)) / c
            u_ratio = (rng.permutation(c) + rng.random(c)) / c
            for i in range(c):
                top = lo + (hi - lo) * u_top[i]
                ratio = r_lo + (r_hi - r_lo) * u_ratio[i]
                length = int(rng.integers(3, 5))
                yield tuple(int(round(top / ratio ** j))
                            for j in reversed(range(length)))

    @staticmethod
    def execute(ladder, ctx: dict, out_dir: Path):
        configs = [(f"grid_{g:04d}.cfg", hc.parse_config(refine_config(g)))
                   for g in ladder]
        return hc.run_sweep(configs, out_dir, workers=1, seed=0)

    @staticmethod
    def check(ladder, ctx: dict, raw, out_dir: Path) -> Outcome:
        summary, code = raw
        passed = bool(summary.get("all_passed"))
        order = summary.get("heat_residual_order")
        out = Outcome(accepted=code == 0 and passed)
        if code == 3:
            out.error = "a sweep member raised"
        elif not passed or code != 0:
            out.wrong = f"sweep members failed (exit {code})"
        elif order is None or order < HEAT_ORDER_MIN:
            out.wrong = f"heat residual order {order} below {HEAT_ORDER_MIN}"
        node_steps = emit = 0
        for member in summary.get("members", []):
            run_dir = Path(member["output_dir"])
            manifest = json.loads((run_dir / "manifest.json").read_text())
            steps = int(manifest.get("steps_recorded") or 1) - 1
            node_steps += int(member.get("grid_points", 0)) * steps
            emit += _emitted_bytes(run_dir)
        out.info = {"node_steps": node_steps, "emit_bytes": emit}
        return out


# ---------------------------------------------------------------------------
# oracles: one chart point per op, structured formulas vs stencil oracles


class Oracles:
    name = "oracles"
    cycle = 3
    rerun_identical = False

    @staticmethod
    def prepare(seed) -> dict:
        samplers = {}
        for n in (1, 2, 3):
            params = cf.HirzebruchParams(n=n)
            state = cf.init_hirzebruch_profile(params)
            samplers[n] = cf.sampler_from_state(state, params)
        return {"rng": np.random.default_rng(seed), "samplers": samplers}

    @staticmethod
    def warmup(ctx: dict):
        sampler = ctx["samplers"][1]
        return 1, sampler.random_points(np.random.default_rng(0), 1)[0]

    @staticmethod
    def ops(ctx: dict):
        rng = ctx["rng"]
        samplers = ctx["samplers"]
        while True:
            for n in rng.permutation([1, 2, 3]):
                n = int(n)
                yield n, samplers[n].random_points(rng, 1)[0]

    @staticmethod
    def execute(op, ctx: dict, out_dir: Path):
        n, point = op
        sampler = ctx["samplers"][n]
        fp = oc.frame_point(sampler, point)
        blocks = fp.blocks
        ric = cg.ricci_blocks(blocks).assemble()
        oracle = cg.fd_ricci_oracle(sampler, point, richardson=True).assemble()
        rlow = cg.riemann_fd(sampler.metric_fn(), point, FD_STEP)
        hhv, vvh = oc.mixed_curvature_residuals(fp, step=FD_STEP, rlow=rlow)
        vhc = oc.vertical_horizontal_curvature(fp, step=FD_STEP)
        a_sq = oc.a_norm_sq(fp)
        grad_sq = oc.grad_ln_f_norm_sq(fp)
        kahler = cg.check_kahler_compatibility(blocks)
        geodesic = cg.check_totally_geodesic(blocks)
        return fp, ric, oracle, rlow, hhv, vvh, vhc, a_sq, grad_sq, kahler, \
            geodesic

    @staticmethod
    def check(op, ctx: dict, raw, out_dir: Path) -> Outcome:
        n, _ = op
        fp, ric, oracle, rlow, hhv, vvh, vhc, a_sq, grad_sq, kahler, \
            geodesic = raw
        vhc_fd = np.array([[cg.riem4(rlow, x, u, u, x) for x in fp.horizontal]
                           for u in fp.vertical])
        errors = {
            "ricci": (float(np.max(np.abs(ric - oracle))
                            / np.max(np.abs(ric))), RICCI_REL_TOL),
            "mixed": (max(hhv, vvh), MIXED_TOL),
            "vhc": (float(np.max(np.abs(vhc - vhc_fd))), VHC_TOL),
            "a_norm": (abs(a_sq - 2 * n * grad_sq) / abs(2 * n * grad_sq),
                       A_NORM_REL_TOL),
            "kahler": (kahler, STRUCTURE_TOL),
            "geodesic": (geodesic, STRUCTURE_TOL),
        }
        bad = [f"{k} {v:.2e} > {tol:g}" for k, (v, tol) in errors.items()
               if not v <= tol]
        out = Outcome(accepted=not bad, info={"n": n})
        if bad:
            out.wrong = f"n={n}: " + ", ".join(bad)
        return out


WORKLOADS = {w.name: w for w in (Collapse, Refine, Oracles)}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
