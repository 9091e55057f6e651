#!/usr/bin/env python
"""Sweep inclusion measures of N(0,1) against a moving N(mu2, sigma2).

Produces three CSV surfaces, one per figure-style sweep:

* strict_1in2.csv    strict inclusion of N(0,1) in N(mu2, sigma2)
* partial_1in2.csv   partial inclusion of N(0,1) in N(mu2, sigma2)
* partial_2in1.csv   partial inclusion of N(mu2, sigma2) in N(0,1)

The default grid is desk-scale (mu2 step 0.5, sigma2 step 0.25) so the whole
run takes a few seconds; pass --full for the fine grid (0.1 / 0.05).

Both inclusions take their own fixed Gauss-Legendre rule at every scale
ratio, so no quadrature setting applies.

Usage:
    python scripts/run_sweeps.py [--out-dir DIR] [--full]
"""

import argparse
import pathlib

from cbf.experiments import Scenario, SweepSpec, run_sweep, sweep_csv

SWEEPS = (
    ("strict_1in2.csv", "incstr", "1in2"),
    ("partial_1in2.csv", "incpar", "1in2"),
    ("partial_2in1.csv", "incpar", "2in1"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="sweeps", help="directory for the CSV files")
    parser.add_argument("--full", action="store_true",
                        help="use the fine grid (mu2 step 0.1, sigma2 step 0.05)")
    args = parser.parse_args()

    if args.full:
        mu2 = (0.0, 5.0, 0.1)
        sigma2 = (0.1, 5.0, 0.05)
    else:
        mu2 = (0.0, 5.0, 0.5)
        sigma2 = (0.25, 5.0, 0.25)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, measure, direction in SWEEPS:
        spec = SweepSpec(fixed="normal:0,1", mu2=mu2, sigma2=sigma2,
                         measure=measure, direction=direction)
        scenario = Scenario(sweep=spec)
        rows = run_sweep(scenario)
        path = out_dir / filename
        path.write_text(sweep_csv(rows), newline="\n")
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
