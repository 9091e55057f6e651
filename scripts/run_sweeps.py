#!/usr/bin/env python
"""Sweep inclusion measures of N(0,1) against a moving N(mu2, sigma2).

Runs ``cbf sweep`` once per surface, each into its own CSV file:

* strict_1in2.csv    strict inclusion of N(0,1) in N(mu2, sigma2)
* partial_1in2.csv   partial inclusion of N(0,1) in N(mu2, sigma2)
* partial_2in1.csv   partial inclusion of N(mu2, sigma2) in N(0,1)

The default grid is desk-scale (mu2 step 0.5, sigma2 step 0.25) so the whole
run takes under a second; pass --full for the fine grid (0.1 / 0.05).

Usage:
    python scripts/run_sweeps.py [--out-dir DIR] [--full]
"""

import argparse
import pathlib

from cbf.cli import main as cbf

SWEEPS = (("strict_1in2", "incstr", "1in2"), ("partial_1in2", "incpar", "1in2"), ("partial_2in1", "incpar", "2in1"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="sweeps", help="directory for the CSV files")
    parser.add_argument("--full", action="store_true", help="use the fine grid (mu2 step 0.1, sigma2 step 0.05)")
    args = parser.parse_args()
    grid = ("0:5:0.1", "0.1:5:0.05") if args.full else ("0:5:0.5", "0.25:5:0.25")
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return max(cbf(["sweep", "--fixed", "normal:0,1", "--mu2", grid[0], "--sigma2", grid[1], "--measure", measure,
                    "--direction", direction, "--out", str(out_dir / f"{name}.csv")])
               for name, measure, direction in SWEEPS)


if __name__ == "__main__":
    raise SystemExit(main())
