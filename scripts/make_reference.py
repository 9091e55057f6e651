"""Write tests/data/reference_inclusions.csv: strict and partial inclusion
of about 100 ordered pairs of consonant densities, to 30 digits by mpmath.

    python3 scripts/make_reference.py [--out PATH] [--pairs N] [--seed S]

The values are computed from the definitions alone, without ``cbf``:

* A normal N(mu, sigma) has focals [mu - z, mu + z] with the Maxwell mass
  density 2 (z / sigma)^2 phi(z / sigma) / sigma; an exponential of rate
  lam has focals [0, z] with density lam^2 z e^(-lam z).  Each is
  truncated at z = k scale (the scale is sigma or 1 / lam), and the mass
  beyond is dropped, not renormalised.
* The inclusion of f1 in f2 is the mean over f2's focal I2(z2) of f1's
  belief of I2 (strict) or of its pignistic probability of I2 (partial).
  For a normal f1 the belief of [a, b] is the Maxwell mass below
  min(mu1 - a, b - mu1), and the pignistic density is (phi(t) - phi(K1)) /
  sigma1 in t = (x - mu1) / sigma1 on [-K1, K1]; for an exponential f1 the
  belief is the Gamma(2) mass below b where a <= 0, and the pignistic
  density is lam1 (e^-t - e^-K1) in t = lam1 x on [0, K1].
* The mean over z2 is ``mpmath.quad`` on [0, Z2], split where an end of I2
  crosses f1's centre or start or an end of f1's support and, for strict
  inclusion under a normal f1, where I2's midpoint crosses mu1: the
  integrand is analytic between those points.

The pairs are drawn from a seeded generator: both families in both roles,
normals up to 10 of the larger scale from each other or from an
exponential's start, scale ratios 10^U(-3, 3) and k in {8, 40} for each
operand.  Parameters are written with ``repr`` and read back as the same
binary doubles.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
DIGITS = 30


def operand(spec: str, k: float):
    """(family, location, scale, support Z) in mpmath numbers from a spec."""
    family, _, args = spec.partition(":")
    values = [mp.mpf(float(v)) for v in args.split(",")]
    if family == "normal":
        mu, sigma = values
        return family, mu, sigma, k * sigma
    (rate,) = values
    return family, mp.mpf(0), 1 / rate, k / rate


def density(f, z):
    family, _, s, _ = f
    u = z / s
    return (2 * u * u * mp.npdf(u) if family == "normal" else u * mp.exp(-u)) / s


def ends(f, z):
    family, loc, _, _ = f
    return (loc - z if family == "normal" else loc), loc + z


def belief(f, a, b):
    """f's belief of [a, b]: the mass of its focals inside [a, b]."""
    family, loc, s, zmax = f
    if family == "normal":
        r = min(loc - a, b - loc, zmax) / s
        return mp.gammainc(1.5, 0, r * r / 2, regularized=True) if r > 0 else mp.mpf(0)
    if a > loc or b <= loc:
        return mp.mpf(0)
    return mp.gammainc(2, 0, min(b - loc, zmax) / s, regularized=True)


def pignistic(f, a, b):
    """f's pignistic probability of [a, b]."""
    family, loc, s, zmax = f
    k = zmax / s
    lo, hi = (a - loc) / s, (b - loc) / s
    if family == "normal":
        lo, hi = max(lo, -k), min(hi, k)
        if hi <= lo:
            return mp.mpf(0)
        return mp.ncdf(hi) - mp.ncdf(lo) - (hi - lo) * mp.npdf(k)
    lo, hi = max(lo, 0), min(hi, k)
    if hi <= lo:
        return mp.mpf(0)
    return mp.exp(-lo) - mp.exp(-hi) - (hi - lo) * mp.exp(-k)


def kinks(f1, f2, strict: bool):
    """The z2 in (0, Z2) where the integrand of f1 in f2 has a kink."""
    family1, loc1, _, z1 = f1
    family2, loc2, _, z2 = f2
    levels = [loc1 - z1, loc1, loc1 + z1] if family1 == "normal" else [loc1, loc1 + z1]
    points = []
    for c in levels:
        points.append(c - loc2)  # the upper end loc2 + z crosses c
        if family2 == "normal":
            points.append(loc2 - c)  # the lower end loc2 - z crosses c
    if strict and family1 == "normal" and family2 != "normal":
        points.append(2 * loc1 - 2 * loc2)  # the midpoint (loc2 + z / 2) crosses loc1
    return sorted({p for p in points if 0 < p < z2})


def inclusion(f1, f2, strict: bool):
    inner = belief if strict else pignistic

    def integrand(z):
        return density(f2, z) * inner(f1, *ends(f2, z))

    value, error = mp.quad(integrand, [0, *kinks(f1, f2, strict), f2[3]], error=True, maxdegree=10)
    if error > mp.mpf(10) ** -(DIGITS + 2):
        raise RuntimeError(f"quadrature error {error} above the target")
    return value


def pairs(count: int, seed: int):
    """``count`` ordered pairs of (spec, k): both families in both roles."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        families = [("normal", "exp")[(i >> j) & 1] for j in range(2)]
        scales = [1.0, 10.0 ** rng.uniform(-3.0, 3.0)]
        rng.shuffle(scales)
        base = 10.0 ** rng.uniform(-2.0, 2.0)
        offset = 0.0 if i % 5 == 0 else rng.uniform(-10.0, 10.0) * max(scales)
        locations = [offset * base, 0.0] if families[1] == "exp" else [0.0, offset * base]
        specs = [f"exp:{1.0 / (base * scale)!r}" if family == "exp" else f"normal:{mu!r},{base * scale!r}"
                 for family, scale, mu in zip(families, scales, locations)]
        out.append([(spec, rng.choice((8.0, 40.0))) for spec in specs])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "tests" / "data" / "reference_inclusions.csv")
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=2015)
    args = parser.parse_args(argv)
    mp.mp.dps = 50
    start = time.perf_counter()
    rows = []
    for (spec1, k1), (spec2, k2) in pairs(args.pairs, args.seed):
        f1, f2 = operand(spec1, k1), operand(spec2, k2)
        values = [mp.nstr(inclusion(f1, f2, strict), DIGITS, min_fixed=0, max_fixed=0)
                  for strict in (True, False)]
        rows.append([spec1, k1, spec2, k2, *values])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["f1", "k1", "f2", "k2", "strict", "partial"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} pairs to {args.out} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
