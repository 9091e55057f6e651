#!/usr/bin/env python
"""Reproduce the benchmark measure tables for the four reference densities.

Runs ``cbf tables`` with every measure (strict and partial inclusion, scalar
product, distance) over N(0,1), N(0,0.5), N(4,1), N(4,0.5), which prints the
matrices with their row averages.  Further arguments go to ``cbf tables``.

Usage:
    python scripts/reproduce_tables.py [--format {markdown,csv}] [--out PATH]
"""

import sys

from cbf.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["tables", "--dists", "normal:0,1", "normal:0,0.5", "normal:4,1", "normal:4,0.5",
                           "--measures", "incstr,incpar,scalar,distance", *sys.argv[1:]]))
