#!/usr/bin/env python
"""Reproduce the benchmark measure tables for the four reference densities.

Runs every measure (strict and partial inclusion, scalar product, distance)
over the family N(0,1), N(0,0.5), N(4,1), N(4,0.5) and prints the resulting
matrices with their row averages.

Usage:
    python scripts/reproduce_tables.py [--format {markdown,csv}] [--out PATH]
"""

import argparse
import pathlib

from cbf.experiments import MEASURES, Scenario, render_tables, run_tables

REFERENCE_DISTRIBUTIONS = (
    "normal:0,1",
    "normal:0,0.5",
    "normal:4,1",
    "normal:4,0.5",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    parser.add_argument("--out", default=None, help="write the tables to this file")
    args = parser.parse_args()

    scenario = Scenario(distributions=REFERENCE_DISTRIBUTIONS, measures=MEASURES)
    text = render_tables(run_tables(scenario), args.format)
    if args.out is None:
        print(text)
    else:
        pathlib.Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
