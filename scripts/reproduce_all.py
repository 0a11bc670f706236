"""Run every bundled scenario end to end and re-check the stored outputs.

Produces runs/<scenario>/ directories plus a grid-refinement sweep under
runs/sweep/, then re-validates each run directory, the sweep members
included, from its files alone.
Exits nonzero if any stage fails, so this doubles as a one-command repro
of the headline numbers: closed-form tracking, the -2 width slope, the
TypeI verdict, and the second-order heat-residual convergence.
"""

import argparse
import json
import sys
from pathlib import Path

from fiberflow.harness_cli import main as cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("product", "hirzebruch")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="runs", help="output root directory")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    base = Path(args.base)

    failures = []
    for name in SCENARIOS:
        out = base / name
        code = cli(["run", str(ROOT / "configs" / f"{name}.cfg"),
                    "--output", str(out), "--seed", str(args.seed)])
        if code != 0:
            failures.append(f"run {name}: exit {code}")
            continue
        code = cli(["check", str(out)])
        if code != 0:
            failures.append(f"check {name}: exit {code}")

    sweep_dir = base / "sweep"
    code = cli(["sweep", str(ROOT / "configs" / "sweep" / "*.cfg"),
                "--output", str(sweep_dir), "--workers", str(args.workers),
                "--seed", str(args.seed)])
    if code != 0:
        failures.append(f"sweep: exit {code}")
    else:
        summary = json.loads((sweep_dir / "sweep_summary.json").read_text())
        for member in summary["members"]:
            code = cli(["check", member["output_dir"]])
            if code != 0:
                failures.append(f"check {member['config']}: exit {code}")
        order = summary["heat_residual_order"]
        print(f"sweep heat residual order: {order:.3f}")
        if order < 1.9:
            failures.append(f"sweep order {order:.3f} below 1.9")

    if failures:
        for item in failures:
            print(f"FAILED {item}", file=sys.stderr)
        return 1
    print(f"all stages passed; outputs under {base}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
