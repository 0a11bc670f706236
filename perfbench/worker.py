"""One workload process: cold import, input generation, warm-up, timed ops.

Started by run.py, never by hand.  Writes one JSON record to --out:

  measure mode  times its set-up, then ops one at a time (closed loop,
                one client) until --seconds have passed and the current
                cycle of the input mix is complete, checking each op's
                output; times are also rescaled for host speed (speed.py).
                With --seconds 0 it stops after set-up;
  trace mode    as measure, but every op runs twice, once with the layer
                wrappers installed and once without, alternating which
                goes first; per-layer metrics come from the traced copies
                of the first ops (a fixed window, so counts repeat exactly
                for one seed) and the overhead from the pairs.  The
                spans go to .perfbench_spans/<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import (NUMPY_REF_S, PYTHON_REF_S, SpeedSampler, numpy_kernel,
                   python_kernel)

ROOT = Path(__file__).resolve().parent.parent

# ops whose traced copies feed the per-layer metrics
TRACE_WINDOW = {"collapse": 20, "refine": 2, "oracles": 6}

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="0: stop after set-up")
    ap.add_argument("--mode", choices=("measure", "trace"),
                    required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    trace = args.mode == "trace"

    # times are rescaled for host speed (speed.py), except when tracing
    setup_speed = (None if trace
                   else SpeedSampler(python_kernel, PYTHON_REF_S))
    if setup_speed:
        setup_speed.start()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import fiberflow  # noqa: F401  (the cold import is what is timed)
    import_s = time.perf_counter() - t0

    import workloads
    from tracing import Tracer, per_layer_metrics

    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    ctx = wl.prepare(args.seed)
    gen = wl.ops(ctx)
    tracer = Tracer() if trace else None

    warm_dir = work / "warmup"
    warm_op = wl.warmup(ctx)
    if tracer:
        tracer.install()
    warm = wl.check(warm_op, ctx, wl.execute(warm_op, ctx, warm_dir),
                    warm_dir)
    if tracer:
        tracer.uninstall()
    workloads.clear(warm_dir)
    if setup_speed:
        setup_speed.stop()
    t_first = time.monotonic()
    record = {"t_first": t_first}
    if setup_speed:
        record["setup_stolen_s"] = setup_speed.stolen
        record["setup_factor"] = setup_speed.factor()
    final_error = warm.error or warm.wrong
    if args.seconds == 0:
        record["final_error"] = final_error
        Path(args.out).write_text(json.dumps(record))
        return 0

    sampler = None if trace else SpeedSampler(numpy_kernel, NUMPY_REF_S)

    def run_one(op, i: int, traced: bool, keep: bool):
        out_dir = work / f"op{i}{'t' if traced else ''}"
        if traced:
            tracer.op = i
            tracer.install()
        stolen = sampler.stolen if sampler else 0.0
        start = time.perf_counter()
        try:
            raw = wl.execute(op, ctx, out_dir)
            error = None
        except Exception as exc:  # counted as a failed op, run goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        seconds = end - start - ((sampler.stolen - stolen) if sampler else 0.0)
        if traced:
            tracer.uninstall()
        if error is None:
            outcome = wl.check(op, ctx, raw, out_dir)
        else:
            outcome = workloads.Outcome(error=error)
        if not keep:
            workloads.clear(out_dir)
        return seconds, (start, end), outcome

    ops, spans, pairs, emit_bytes, op_n = [], [], [], 0, {}
    first_op = None
    window = TRACE_WINDOW[args.workload]
    if sampler:
        sampler.start()
    # stop on a cycle boundary, so every run sees whole cycles of the mix
    while (time.monotonic() - t_first < args.seconds
           or len(ops) % wl.cycle or (trace and len(ops) < window)):
        i = len(ops)
        op = next(gen)
        keep = i == 0 and wl.rerun_identical
        if i == 0:
            first_op = op
        if trace:
            order = (True, False) if i % 2 == 0 else (False, True)
            timed = {traced: run_one(op, i, traced, keep) for traced in order}
            seconds, _, outcome = timed[True]
            untraced_s, _, untraced = timed[False]
            pairs.append((seconds, untraced_s))
            if untraced.error or untraced.wrong:
                outcome = untraced
            if i < window:
                emit_bytes += outcome.info.get("emit_bytes", 0)
                if "n" in outcome.info:
                    op_n[i] = outcome.info["n"]
        else:
            seconds, span, outcome = run_one(op, i, False, keep)
            spans.append(span)
        ops.append({"t": seconds, "error": outcome.error,
                    "wrong": outcome.wrong, "accepted": outcome.accepted,
                    "info": outcome.info})
    if sampler:
        sampler.stop()
        for o, (start, end) in zip(ops, spans):
            o["t_ref"] = o["t"] * sampler.factor(start, end)

    if wl.rerun_identical:
        first_dir = work / "op0t" if trace else work / "op0"
        again_dir = work / "op0"
        if not trace:
            again_dir = work / "op0_again"
            wl.execute(first_op, ctx, again_dir)
        if workloads.csv_bytes(first_dir) != workloads.csv_bytes(again_dir):
            final_error = "re-running one config changed its CSV bytes"

    record.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": ops,
        "kernel_median_s": (statistics.median(t for _, t in sampler.samples)
                            if sampler else None),
        "final_error": final_error,
    })
    if trace:
        layers = per_layer_metrics(tracer, list(range(window)), op_n,
                                   emit_bytes)
        layers["import.fiberflow_s"] = (import_s, "s")
        layers["trace.overhead_s"] = (
            statistics.median(t - u for t, u in pairs), "s")
        layers["trace.overhead_frac"] = (
            statistics.median((t - u) / u for t, u in pairs), "fraction")
        record["per_layer"] = layers
        record["window"] = window
        tracer.write_spans(ROOT / ".perfbench_spans"
                           / f"{args.workload}-{args.seed}.jsonl")
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
