"""fiberflow benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 30

Run from the root of a source checkout (the package is imported from
./src).  Workloads: collapse, refine, oracles (see perfbench/README.md).

--trace 0  starts SETUP_PROCESSES fresh workload processes one after the
           other; each times its set-up (cold import, input generation,
           one warm-up op), and the first then runs the seeded ops for
           --seconds.  Prints the end-to-end metrics, every output
           checked.
--trace 1  one process; ops run traced and untraced in pairs and the
           per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when the run
completed (whether or not every check passed) and non-zero, with no JSON
line, when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import deferred_import_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("collapse", "refine", "oracles")
# set-up is timed in this many fresh processes and the median reported
SETUP_PROCESSES = 3
# workers still running this long after the start are killed, so the
# command ends within the 180 s a run may take
RUN_DEADLINE_S = 170
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 50)
# the figures each workload prints under its own names; the rest read n/a
WORKLOAD_FIGURES = {
    "collapse": ("run_p50_s", "run_tail_s", "runs_per_s"),
    "refine": ("node_steps_per_s", "sweep_p50_s"),
    "oracles": ("point_n1_s", "point_n2_s", "point_n3_s"),
}


def _spawn(mode: str, args, seconds: float, work: Path,
           deadline: float, python_flags: tuple[str, ...] = ()
           ) -> tuple[float, dict, str]:
    """Start one worker; return (monotonic spawn time, its record, its
    standard error)."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / f"{mode}.json"
    cmd = [sys.executable, *python_flags, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--work",
           str(work / mode), "--out", str(out)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, timeout=deadline - t_spawn,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + "".join(
            line for line in proc.stderr.splitlines(keepends=True)
            if not line.startswith("import time:")))
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    return t_spawn, json.loads(out.read_text()), proc.stderr


def _tail(times: list[float]) -> tuple[int, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(times) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100,
                                           method="inclusive")[p - 1]
    return None


def _setup_s(t_spawn: float, rec: dict) -> tuple[float, float]:
    """(wall, reference) seconds from spawn to the first timed op."""
    wall = rec["t_first"] - t_spawn
    return wall, (wall - rec["setup_stolen_s"]) * rec["setup_factor"]


def _workload_table(workload: str, setups: list[float],
                    rec: dict) -> list[str]:
    """The workload's end-to-end figures under their per-workload names."""
    ops = rec["ops"]
    times = [o["t"] for o in ops]
    attempted = len(ops)
    errors = sum(1 for o in ops if o["error"])
    rejected = sum(1 for o in ops if not o["error"]
                   and (o["wrong"] or not o["accepted"]))
    lines = [
        f"setup_s {statistics.median(setups):.4f} s "
        f"(median of {len(setups)}: "
        + ", ".join(f"{s:.4f}" for s in setups) + ")",
        f"peak_rss_mb {rec['peak_rss_mb']:.1f} MB",
        f"error_frac {errors / attempted:.4f} fraction "
        f"({errors} of {attempted})",
        f"acceptance_fail_frac {rejected / attempted:.4f} fraction "
        f"({rejected} of {attempted})",
    ]
    if workload == "collapse":
        ks = [o["info"].get("k", 1) for o in ops]
        fail_k = sum(1 for o, k in zip(ops, ks) if k >= 2
                     and not o["accepted"])
        lines.append(f"  of which k>=2: {fail_k} ({sum(k >= 2 for k in ks)} "
                     "k>=2 ops attempted)")
        lines.append(f"run_p50_s {statistics.median(times):.4f} s "
                     f"(n={attempted})")
        tail = _tail(times)
        lines.append(f"run_tail_s p{tail[0]} {tail[1]:.4f} s (n={attempted})"
                     if tail else f"run_tail_s n/a (n={attempted} < 20)")
        lines.append(f"runs_per_s {attempted / sum(times):.4f} 1/s")
    if workload == "refine":
        node_steps = sum(o["info"].get("node_steps", 0) for o in ops)
        lines.append(f"node_steps_per_s {node_steps / sum(times):.1f} 1/s")
        lines.append(f"sweep_p50_s {statistics.median(times):.4f} s "
                     f"(n={attempted})")
    if workload == "oracles":
        for n in (1, 2, 3):
            tn = [o["t"] for o in ops if o["info"].get("n") == n]
            lines.append(f"point_n{n}_s {statistics.median(tn):.4f} s "
                         f"(n={len(tn)})" if tn else f"point_n{n}_s n/a")
    lines += [f"{name} n/a (measured on {other} only)"
              for other, names in WORKLOAD_FIGURES.items()
              if other != workload for name in names]
    return lines


def _measure(args, work: Path, deadline: float) -> tuple[dict, dict]:
    setups, recs = [], []
    for part in range(SETUP_PROCESSES):
        # only the first process runs ops; the others stop after set-up
        t_spawn, rec, _ = _spawn("measure", args,
                                 args.seconds if part == 0 else 0,
                                 work / f"m{part}", deadline)
        setups.append(_setup_s(t_spawn, rec))
        recs.append(rec)
    rec = dict(recs[0], final_error=next(
        (r["final_error"] for r in recs if r["final_error"]), None))
    for line in _workload_table(args.workload, [w for w, _ in setups], rec):
        print(line)
    refs = [o["t_ref"] for o in rec["ops"]]
    print("reference seconds: set-up "
          + ", ".join(f"{r:.4f}" for _, r in setups)
          + f"; op kernel median {rec['kernel_median_s'] * 1e3:.4f} ms")
    metrics = {
        "setup_s": (statistics.median(r for _, r in setups), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "op_p50_ref_s": (statistics.median(refs), "s"),
        "ops_per_ref_s": (len(refs) / sum(refs), "1/s"),
    }
    return rec, metrics


def _trace(args, work: Path, deadline: float) -> tuple[dict, dict]:
    _, rec, log = _spawn("trace", args, args.seconds, work / "t",
                         deadline, ("-X", "importtime"))
    metrics = {name: tuple(v) for name, v in rec["per_layer"].items()}
    # modules scipy.linalg loads are loaded by calabi_flow in any case
    linalg = subprocess.run(
        [sys.executable, "-c",
         "import sys, scipy.linalg; print(*sys.modules, sep='\\n')"],
        cwd=ROOT, timeout=deadline - time.monotonic(), check=True,
        stdout=subprocess.PIPE, text=True).stdout.split()
    metrics["import.scipy_interpolate_s"] = (
        deferred_import_s(log, "scipy.interpolate", set(linalg)), "s")
    print(f"trace window: the first {rec['window']} ops")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    return rec, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fiberflow" / "__init__.py").is_file():
        print(f"no fiberflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        rec, metrics = (_trace if args.trace else _measure)(args, work,
                                                             deadline)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()

    ops = rec["ops"]
    bad = [o for o in ops if o["error"] or o["wrong"]]
    for o in bad[:5]:
        print(f"FAILED op: {o['error'] or o['wrong']}")
    if rec["final_error"]:
        print(f"FAILED: {rec['final_error']}")
    print(json.dumps({
        "correct": not bad and not rec["final_error"],
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
