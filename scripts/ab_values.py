"""Compare the values of every consonant measure at a base commit with the checkout's.

    python3 scripts/ab_values.py [--base REV] [--pairs N] [--seed S]

The base commit (default ``HEAD~1``) is extracted as ``scripts/ab_bench.py``
does, with ``git archive`` into a temporary directory.  N seeded pairs are
drawn over the whole parameter range: both families in both roles, scale
ratios 10^U(-3, 3) (one pair in ten at 10^U(-8, 8)), offsets of U(0, 10)
times the larger scale (three in ten at 10^U(-300, 0) times it), either
sign, and a truncation k per operand from {0.5, 8, 40, 1000}.  The base and
the checkout each evaluate, in a process of their own, strict and partial
inclusion and the scalar product in both operand orders and the distance,
and pass every value back as ``float.hex``, so that a comparison sees every
bit.

Per measure it prints how many values moved, the largest move in ulps and
in absolute terms, and the five pairs that moved most, as ``cbf`` specs
with their k, then the line ``moved values: M``.  It exits 1 if the
checkout gives a value that is not finite or lies outside [0, 1], a strict
inclusion above the partial one, a scalar product that differs between the
two operand orders, or an error; 2 if a side could not be run.  The same
faults of the base are printed, not counted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, extract

KS = (0.5, 8.0, 40.0, 1000.0)
# one value per column: (measure, operand order)
COLUMNS = (("strict", 12), ("strict", 21), ("partial", 12), ("partial", 21), ("scalar", 12), ("scalar", 21),
           ("distance", 12))
MEASURES = ("strict", "partial", "scalar", "distance")
WORST = 5


def pairs(count: int, seed: int) -> list[tuple[str, float, str, float]]:
    """``count`` pairs (spec1, k1, spec2, k2), cycling through the four pairs of families."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        normal1, normal2 = not i & 1, not i & 2
        width = 8.0 if rng.random() < 0.1 else 3.0
        base = 10.0 ** rng.uniform(-2.0, 2.0)
        scales = [base, base * 10.0 ** rng.uniform(-width, width)]
        shift = 10.0 ** rng.uniform(-300.0, 0.0) if rng.random() < 0.3 else rng.uniform(0.0, 10.0)
        offset = rng.choice((-1.0, 1.0)) * shift * max(scales)
        # a normal f2 sits offset from f1's location 0, or a normal f1 that far from an exponential f2's start 0
        locations = (offset, 0.0) if normal1 and not normal2 else (0.0, offset)
        specs = [f"normal:{mu!r},{s!r}" if normal else f"exp:{1.0 / s!r}"
                 for normal, s, mu in zip((normal1, normal2), scales, locations)]
        out.append((specs[0], rng.choice(KS), specs[1], rng.choice(KS)))
    return out


def child() -> None:
    """Read pairs as JSON on stdin and write their values as JSON on stdout, by the ``cbf`` on sys.path."""
    from cbf.consonant import parse_distribution
    from cbf.measures import distance, inc_partial, inc_strict, scalar_product

    run = {"strict": lambda f, g: inc_strict(f, g).value, "partial": lambda f, g: inc_partial(f, g).value,
           "scalar": scalar_product, "distance": distance}
    rows = []
    for spec1, k1, spec2, k2 in json.load(sys.stdin):
        f1, f2 = parse_distribution(spec1, k1), parse_distribution(spec2, k2)
        row = []
        for measure, order in COLUMNS:
            try:
                row.append(float(run[measure](*((f1, f2) if order == 12 else (f2, f1)))).hex())
            except (ValueError, ArithmeticError) as exc:
                row.append(f"error: {type(exc).__name__}: {exc}")
        rows.append(row)
    json.dump(rows, sys.stdout)


def evaluate(tree: Path, drawn) -> list[list[str]]:
    """The values of ``drawn`` by the ``cbf`` of ``tree``, from a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"], input=json.dumps(drawn),
                          stdout=subprocess.PIPE, text=True, env=env, cwd=tree)
    if proc.returncode != 0:
        raise RuntimeError(f"evaluating in {tree} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def _value(text: str) -> float | None:
    return None if text.startswith("error") else float.fromhex(text)


def _ordinal(x: float) -> int:
    """x's place among the doubles, so that neighbours differ by 1."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def move(a: str, b: str) -> tuple[float, float]:
    """(ulps, absolute) between two reported values; inf where either is an error or not finite."""
    x, y = _value(a), _value(b)
    if a == b:
        return 0.0, 0.0
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return math.inf, math.inf
    return float(abs(_ordinal(x) - _ordinal(y))), abs(x - y)


def faults(drawn, rows) -> list[str]:
    """What a side gives that no measure may: errors, values not finite or outside [0, 1], strict inclusion
    above partial, a scalar product that depends on the operand order."""
    found = []
    for (spec1, k1, spec2, k2), row in zip(drawn, rows):
        pair, cells = f"{spec1} (k = {k1:g}) with {spec2} (k = {k2:g})", dict(zip(COLUMNS, row))
        for (measure, order), text in cells.items():
            x = _value(text)
            if x is None or not 0.0 <= x <= 1.0:  # a nan fails too
                found.append(f"{measure} {order} of {pair}: {text if x is None else repr(x)}")
        for order in (12, 21):
            strict, partial = _value(cells["strict", order]), _value(cells["partial", order])
            if strict is not None and partial is not None and strict > partial:
                found.append(f"strict {order} {strict!r} above partial {partial!r} of {pair}")
        if cells["scalar", 12] != cells["scalar", 21]:
            found.append(f"scalar product of {pair} depends on the order: {cells['scalar', 12]} against "
                         f"{cells['scalar', 21]}")
    return found


def report(drawn, base, change) -> int:
    """Print the moves per measure; return how many values moved."""
    print(f"{len(drawn)} pairs, {len(drawn) * len(COLUMNS)} values")
    print(f"  {'measure':<9} {'values':>7} {'moved':>6} {'max ulps':>9} {'max abs':>10}")
    count = 0
    for measure in MEASURES:
        moved = []
        for i, (b_row, c_row) in enumerate(zip(base, change)):
            for (name, order), b, c in zip(COLUMNS, b_row, c_row):
                if name == measure and b != c:
                    moved.append((*move(b, c), i, order, b, c))
        total = len(drawn) * sum(name == measure for name, _ in COLUMNS)
        ulps, absolute = max((m[0] for m in moved), default=0.0), max((m[1] for m in moved), default=0.0)
        count += len(moved)
        print(f"  {measure:<9} {total:>7} {len(moved):>6} {ulps:>9.4g} {absolute:>10.3g}")
        for u, a, i, order, b, c in sorted(moved, key=lambda m: (-m[0], -m[1]))[:WORST]:
            spec1, k1, spec2, k2 = drawn[i]
            print(f"    {spec1} k={k1:g} | {spec2} k={k2:g} | order {order}: {b} -> {c} ({u:g} ulps, {a:.3g})")
    print(f"moved values: {count}")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="the commit to compare against (default HEAD~1)")
    parser.add_argument("--pairs", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    drawn = pairs(args.pairs, args.seed)
    with tempfile.TemporaryDirectory(prefix="ab_values-") as tmp:
        try:
            base, change = evaluate(extract(args.base, Path(tmp)), drawn), evaluate(ROOT, drawn)
        except (RuntimeError, subprocess.CalledProcessError, OSError, json.JSONDecodeError) as exc:
            print(f"ab_values: {exc}", file=sys.stderr)
            return 2
    report(drawn, base, change)
    for side, rows in (("base", base), ("change", change)):
        found = faults(drawn, rows)
        print(f"{side}: {len(found)} faults")
        for line in found[:20]:
            print(f"  {line}")
    return 1 if faults(drawn, change) else 0


if __name__ == "__main__":
    sys.exit(main())
