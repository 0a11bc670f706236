"""Zoom into the fiber collapse: rescaled curvature table at the picked times.

Runs the collapsing scenario, picks a curvature-anchored time ladder, and
prints one row per pick with the rescaled quantities that decide the
splitting verdict.  Useful for eyeballing how fast the horizontal part
drains relative to the fiber direction as the singular time approaches.
"""

import argparse

from fiberflow import HirzebruchParams, RunSettings, run_flow
from fiberflow.harness_cli import AnalysisConfig, analyze, diagnostics_table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=512)
    ap.add_argument("--picks", type=int, default=8)
    ap.add_argument("--mode", default="typeI_max_curvature",
                    choices=["typeI_max_curvature", "typeII_supremum"])
    ap.add_argument("--json", action="store_true",
                    help="emit the full report as JSON instead of a table")
    args = ap.parse_args(argv)

    run = run_flow(HirzebruchParams(grid_points=args.grid), RunSettings())
    result = analyze(diagnostics_table(run), run.T_observed,
                     AnalysisConfig(mode=args.mode, max_picks=args.picks))
    split = result.splitting
    if split is None:
        raise SystemExit(f"no qualifying picks: {result.note}")

    if args.json:
        print(result.report_text(), end="")
        return 0

    print(f"T_predicted {run.T_predicted:.6f}  T_observed "
          f"{run.T_observed:.6f}  class {result.type_report.classification}")
    print(f"{'t':>10} {'K':>12} {'a_norm':>10} {'horiz':>10} {'fiber/4pi':>10}")
    for rp, a_n, hz, fib in zip(result.rescaled.picks, split.rescaled_a_norm,
                                split.rescaled_horiz, split.fiber_products):
        pick = rp.pick
        print(f"{pick.t:10.6f} {pick.curvature:12.3f} {a_n:10.5f} "
              f"{hz:10.5f} {fib / split.fiber_target:10.5f}")
    print(f"A-norm exponent {split.a_decay_exponent:+.4f}   horizontal "
          f"exponent {split.horiz_decay_exponent:+.4f}   rescaled mixed "
          f"max {split.rescaled_mixed_max:.5f}")
    print(f"verdict: {split.verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
