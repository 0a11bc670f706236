"""Outside-in tracing of fiberflow's layers.

The package itself is never edited: `Tracer.install` replaces public
functions (and two private ones that the per-layer metrics need) as
module attributes with wrappers, and `Tracer.uninstall` puts the
originals back.  Two kinds of wrapper exist:

* span wrappers record (name, layer, start, end, parent span, op id) in
  memory; self time is a span's duration minus the time its child spans
  cover;
* counter wrappers only bump a count, for calls too small and too many
  to time one by one (chart evaluations, banded solves, stage solves).

A count is attributed both to the op that made it and to the innermost
span open at the time, so "evaluations per riemann_fd call" can be read
off the spans directly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("harness_cli", "calabi_flow", "singularity_analyzer",
          "chart_geometry", "oneill_curvature")

# (module, attribute, layer, span name).  The module is the namespace the
# caller looks the name up in, so a function imported into harness_cli is
# wrapped there as well as at home where both call sites matter.
SPAN_TARGETS = (
    ("harness_cli", "parse_config", "harness_cli", "parse_config"),
    ("harness_cli", "execute", "harness_cli", "execute"),
    ("harness_cli", "check_run_dir", "harness_cli", "check_run_dir"),
    ("harness_cli", "run_sweep", "harness_cli", "run_sweep"),
    ("harness_cli", "run_flow", "calabi_flow", "run_flow"),
    ("harness_cli", "sampler_from_state", "calabi_flow", "sampler_from_state"),
    ("calabi_flow", "step_flow", "calabi_flow", "step_flow"),
    ("calabi_flow", "init_hirzebruch_profile", "calabi_flow",
     "init_hirzebruch_profile"),
    ("calabi_flow", "build_monitors", "calabi_flow", "build_monitors"),
    ("calabi_flow", "profile_diagnostics", "calabi_flow",
     "profile_diagnostics"),
    ("harness_cli", "classify_type", "singularity_analyzer", "classify_type"),
    ("harness_cli", "pick_blowup_sequence", "singularity_analyzer",
     "pick_blowup_sequence"),
    ("harness_cli", "rescale_series", "singularity_analyzer",
     "rescale_series"),
    ("harness_cli", "splitting_report", "singularity_analyzer",
     "splitting_report"),
    ("harness_cli", "classify_sup_series", "singularity_analyzer",
     "classify_sup_series"),
    ("harness_cli", "_check_chart_residuals", "chart_geometry",
     "chart_residuals"),
    ("chart_geometry", "ricci_blocks", "chart_geometry", "ricci_blocks"),
    ("chart_geometry", "fd_ricci_oracle", "chart_geometry", "fd_ricci_oracle"),
    ("chart_geometry", "riemann_fd", "chart_geometry", "riemann_fd"),
    ("oneill_curvature", "riemann_fd", "chart_geometry", "riemann_fd"),
    ("chart_geometry", "check_kahler_compatibility", "chart_geometry",
     "check_kahler_compatibility"),
    ("chart_geometry", "check_totally_geodesic", "chart_geometry",
     "check_totally_geodesic"),
    ("oneill_curvature", "frame_point", "oneill_curvature", "frame_point"),
    ("oneill_curvature", "vertical_horizontal_curvature", "oneill_curvature",
     "vertical_horizontal_curvature"),
    ("oneill_curvature", "mixed_curvature_residuals", "oneill_curvature",
     "mixed_curvature_residuals"),
    ("oneill_curvature", "a_norm_sq", "oneill_curvature", "a_norm_sq"),
    ("oneill_curvature", "grad_ln_f_norm_sq", "oneill_curvature",
     "grad_ln_f_norm_sq"),
)

# (module, attribute, count key).  fubini_study_base runs once per chart
# sampler evaluation, so its count is the number of evaluations.
COUNTER_TARGETS = (
    ("chart_geometry", "fubini_study_base", "evaluate"),
    ("calabi_flow", "solve_banded", "solve_banded"),
    ("singularity_analyzer", "curvature_profiles", "analyzer_profiles"),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """In-memory span and count recorder; nothing is written until the
    caller asks for the records after the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_counts: dict[int, Counter] = {}
        self.runs: list[tuple[int, int, int]] = []  # (op, states, grid)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.op_counts.setdefault(self.op, Counter())[key] += amount
        if self._stack:
            self.spans[self._stack[-1]].counts[key] += amount

    def _span_wrapper(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, layer, time.perf_counter(), parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if name == "run_flow" and result.scenario == "hirzebruch":
                self.runs.append((self.op, len(result.states),
                                  result.params.grid_points))
            return result
        return wrapper

    def _counter_wrapper(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _step_once_wrapper(self, fn, rejected_type):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count("step_once")
            try:
                return fn(*args, **kwargs)
            except rejected_type:
                self.count("step_rejected")
                raise
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            return
        mods = {name: importlib.import_module(f"fiberflow.{name}")
                for name in LAYERS}
        for mod, attr, layer, name in SPAN_TARGETS:
            self._replace(mods[mod], attr,
                          lambda fn, l=layer, n=name:
                          self._span_wrapper(fn, l, n))
        for mod, attr, key in COUNTER_TARGETS:
            self._replace(mods[mod], attr,
                          lambda fn, k=key: self._counter_wrapper(fn, k))
        cf = mods["calabi_flow"]
        self._replace(cf.FlowProblem, "step_once",
                      lambda fn: self._step_once_wrapper(fn,
                                                         cf.StepRejected))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- analysis ----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per line: name, layer, start, end (perf_counter
        seconds), parent (line index, -1 for none), op, counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "op": s.op,
                    "counts": dict(s.counts)}) + "\n")

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children (children
        never overlap, so the union is their sum)."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out


def deferred_import_s(importtime_log: str, module: str,
                      shared: set[str]) -> float:
    """Seconds that deferring `module` could save at import: the self time
    of the modules first loaded under its import, leaving out those in
    `shared` (modules the program loads anyway).  `importtime_log` is the
    standard error of a process run with `python -X importtime`, which
    logs every first import however and whenever it happens; the log is
    in post-order, so a module's subtree is the run of deeper lines just
    before it.  0.0 when the process never loaded `module`."""
    rows = []  # (depth, name, self seconds)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(self_us) * 1e-6))
    for i, (depth, name, own_s) in enumerate(rows):
        if name != module:
            continue
        total = own_s
        for sub_depth, sub_name, sub_s in reversed(rows[:i]):
            if sub_depth <= depth:
                break
            if sub_name not in shared:
                total += sub_s
        return total
    return 0.0


# ---------------------------------------------------------------------------
# per-layer metrics

ORACLE_SPANS = (
    ("chart_geometry.riemann_fd_s", "riemann_fd"),
    ("chart_geometry.fd_ricci_s", "fd_ricci_oracle"),
    ("oneill_curvature.frame_point_s", "frame_point"),
    ("oneill_curvature.vhc_s", "vertical_horizontal_curvature"),
    ("oneill_curvature.mixed_residuals_s", "mixed_curvature_residuals"),
    ("oneill_curvature.a_norm_s", "a_norm_sq"),
)


def per_layer_metrics(tracer: Tracer, window: list[int],
                      op_n: dict[int, int], emit_bytes: int
                      ) -> dict[str, tuple[float, str]]:
    """Totals over the ops in `window` (op ids).  Times are wall seconds
    inside the named spans; `_self_s` and `self_s` subtract child spans.
    `op_n` maps an oracle op to its base dimension n."""
    inside = set(window)
    selfs = tracer.self_times()
    mine = [(s, selfs[i]) for i, s in enumerate(tracer.spans)
            if s.op in inside]

    def dur(name: str, ops=inside) -> float:
        return float(sum(s.end - s.start for s, _ in mine
                         if s.name == name and s.op in ops))

    def self_time(name: str) -> float:
        return float(sum(st for s, st in mine if s.name == name))

    counts: Counter = Counter()
    for op in window:
        counts.update(tracer.op_counts.get(op, {}))
    runs = [(states, grid) for op, states, grid in tracer.runs
            if op in inside]
    attempts = counts["step_once"]
    out = {
        "calabi_flow.step_s": (dur("step_flow"), "s"),
        "calabi_flow.steps": (sum(1 for s, _ in mine
                                  if s.name == "step_flow"), "count"),
        "calabi_flow.stage_solves": (2 * attempts, "count"),
        "calabi_flow.newton_solves": (counts["solve_banded"], "count"),
        "calabi_flow.stage_accept_ratio": (
            (attempts - counts["step_rejected"]) / attempts if attempts
            else 0.0, "ratio"),
        "calabi_flow.init_s": (dur("init_hirzebruch_profile"), "s"),
        "calabi_flow.diagnostics_s": (dur("profile_diagnostics"), "s"),
        "calabi_flow.monitors_s": (dur("build_monitors"), "s"),
        "calabi_flow.states_recorded": (sum(st for st, _ in runs), "count"),
        "calabi_flow.state_bytes": (sum(st * 2 * g * 8 for st, g in runs),
                                    "bytes"),
        "calabi_flow.sampler_s": (dur("sampler_from_state"), "s"),
        "chart_geometry.residual_checks_s": (self_time("chart_residuals"),
                                             "s"),
        "singularity_analyzer.classify_s": (dur("classify_type"), "s"),
        "singularity_analyzer.pick_s": (dur("pick_blowup_sequence"), "s"),
        "singularity_analyzer.rescale_s": (dur("rescale_series"), "s"),
        "singularity_analyzer.split_s": (dur("splitting_report"), "s"),
        "singularity_analyzer.curvature_profile_calls": (
            counts["analyzer_profiles"], "count"),
        "harness_cli.parse_s": (dur("parse_config"), "s"),
        "harness_cli.execute_self_s": (self_time("execute"), "s"),
        "harness_cli.emit_bytes": (emit_bytes, "bytes"),
        "harness_cli.check_s": (dur("check_run_dir"), "s"),
        "harness_cli.sweep_self_s": (self_time("run_sweep"), "s"),
    }
    for n in (1, 2, 3):
        ops_n = {op for op in window if op_n.get(op) == n}
        out[f"chart_geometry.evaluate_calls.n{n}"] = (
            sum(tracer.op_counts.get(op, {}).get("evaluate", 0)
                for op in ops_n), "count")
        for metric, name in ORACLE_SPANS:
            out[f"{metric}.n{n}"] = (dur(name, ops_n), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (float(sum(st for s, st in mine
                                            if s.layer == layer)), "s")
    return out
