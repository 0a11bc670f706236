"""Checks the benchmark's own counting against fixed anchors.

    python3 perfbench/selfcheck.py

1. Traced `execute` of configs/hirzebruch.cfg: 84 accepted steps, 84
   step_once calls (168 stage solves), 223 banded Newton solves, 16
   analyzer curvature_profiles calls.
2. Chart evaluations per riemann_fd call: 82 / 170 / 290 at n = 1 / 2 / 3;
   per vertical_horizontal_curvature call: 200 / 784 / 1944.
3. Two traced runs with one seed report identical counts, per workload.
4. The metric names the runs print are the ones BENCHMARK.json lists.

The anchors describe the program as it was when the benchmark was
written; an optimisation that changes them should update them here.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fiberflow import harness_cli as hc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_ANCHORS = {"steps": 84, "step_once": 84, "solve_banded": 223,
               "analyzer_profiles": 16}
EVALS_PER_RIEMANN_FD = {1: 82, 2: 170, 3: 290}
EVALS_PER_VHC = {1: 200, 2: 784, 3: 1944}
COUNT_UNITS = ("count", "bytes", "ratio")


def _traced(fn):
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def check_default_run() -> list[str]:
    config = hc.load_config(ROOT / "configs" / "hirzebruch.cfg")
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tracer = _traced(lambda: hc.execute(config, tmp, 0))
    got = dict(tracer.op_counts[0])
    got["steps"] = sum(1 for s in tracer.spans if s.name == "step_flow")
    return [f"hirzebruch.cfg {key}: {got.get(key, 0)} != {want}"
            for key, want in RUN_ANCHORS.items() if got.get(key, 0) != want]


def check_oracle_point() -> list[str]:
    ctx = workloads.Oracles.prepare(0)
    bad = []
    for n in (1, 2, 3):
        rng = np.random.default_rng(n)
        point = ctx["samplers"][n].random_points(rng, 1)[0]
        tracer = _traced(
            lambda: workloads.Oracles.execute((n, point), ctx, ROOT))
        for name, want in (("riemann_fd", EVALS_PER_RIEMANN_FD[n]),
                           ("vertical_horizontal_curvature",
                            EVALS_PER_VHC[n])):
            got = [s.counts["evaluate"] for s in tracer.spans
                   if s.name == name]
            if got != [want]:
                bad.append(f"n={n} evaluations per {name}: {got} != {want}")
    return bad


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    bad = []
    if set(_run("collapse", 0)["metrics"]) != end_to_end:
        bad.append("end-to-end metric names differ from BENCHMARK.json")
    for workload in ("collapse", "refine", "oracles"):
        first, second = _run(workload, 1), _run(workload, 1)
        if set(first["metrics"]) != per_layer:
            bad.append(f"{workload}: per-layer names differ from "
                       "BENCHMARK.json")
        for name, m in first["metrics"].items():
            if (m["unit"] in COUNT_UNITS
                    and m["value"] != second["metrics"][name]["value"]):
                bad.append(f"{workload}: {name} {m['value']} then "
                           f"{second['metrics'][name]['value']}")
    return bad


def main() -> int:
    failures = []
    for check in (check_default_run, check_oracle_point, check_runs):
        bad = check()
        print(f"[{'FAIL' if bad else 'PASS'}] {check.__name__}")
        for line in bad:
            print(f"  {line}")
        failures += bad
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
