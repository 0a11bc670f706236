"""Zoom into the fiber collapse: rescaled curvature table at the picked times.

Runs the collapsing scenario, picks a curvature-anchored time ladder, and
prints one row per pick with the rescaled quantities that decide the
splitting verdict.  Useful for eyeballing how fast the horizontal part
drains relative to the fiber direction as the singular time approaches.
"""

import argparse
import json

from fiberflow import HirzebruchParams, RunSettings, run_flow
from fiberflow.harness_cli import AnalysisConfig, ValidationError, analyze


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=512)
    ap.add_argument("--picks", type=int, default=8)
    ap.add_argument("--mode", default="typeI_max_curvature",
                    choices=["typeI_max_curvature", "typeII_supremum"])
    ap.add_argument("--json", action="store_true",
                    help="emit the full report as JSON instead of a table")
    args = ap.parse_args(argv)
    try:
        analysis = AnalysisConfig(mode=args.mode, max_picks=args.picks)
    except ValidationError as exc:
        ap.error(str(exc))

    run = run_flow(HirzebruchParams(grid_points=args.grid), RunSettings())
    diag = run.diagnostics
    report, rows, tables, note = analyze(diag, run.T_observed, analysis)
    split = report.get("splitting")
    if split is None:
        raise SystemExit(f"no qualifying picks: {note}")

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    print(f"T_predicted {run.T_predicted:.6f}  T_observed "
          f"{run.T_observed:.6f}  class "
          f"{report['type']['classification']}")
    print(f"{'t':>10} {'K':>12} {'a_norm':>10} {'horiz':>10} {'fiber/4pi':>10}")
    for t, kk, a_n, hz, tab in zip(diag["t"][rows], split["curvatures"],
                                   split["rescaled_a_norm"],
                                   split["rescaled_horiz"], tables):
        z = tab["s"] == 0.0  # the picked row
        fib = (tab["k_v"][z] * tab["fiber_area"][z])[0]
        print(f"{t:10.6f} {kk:12.3f} {a_n:10.5f} "
              f"{hz:10.5f} {fib / split['fiber_target']:10.5f}")
    print(f"A-norm exponent {split['a_decay_exponent']:+.4f}   horizontal "
          f"exponent {split['horiz_decay_exponent']:+.4f}   rescaled mixed "
          f"max {split['rescaled_mixed_max']:.5f}")
    print(f"verdict: {split['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
