#!/usr/bin/env python
"""Reproduce the benchmark measure tables for the four reference densities.

Runs every measure (strict and partial inclusion, scalar product, distance)
over the family N(0,1), N(0,0.5), N(4,1), N(4,0.5) and prints the resulting
matrices with their row averages.

Usage:
    python scripts/reproduce_tables.py [--format {markdown,csv}] [--out PATH]
                                       [--grid N]
"""

import argparse

from cbf.experiments import MEASURES, Scenario, render_tables, run_tables
from cbf.quadrature import QuadratureConfig

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
    parser.add_argument("--grid", type=int, default=QuadratureConfig.points_per_axis,
                        help="Gauss-Legendre nodes per panel (default %(default)s)")
    args = parser.parse_args()

    scenario = Scenario(
        distributions=REFERENCE_DISTRIBUTIONS,
        measures=MEASURES,
        quadrature=QuadratureConfig(points_per_axis=args.grid),
        output_format=args.format,
        output_path=args.out,
    )
    tables = run_tables(scenario)
    if args.out is None:
        print(render_tables(tables, args.format))
    else:
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
