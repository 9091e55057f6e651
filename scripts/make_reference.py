"""Write the mpmath reference tables of tests/data, from the definitions alone.

    python3 scripts/make_reference.py [--out PATH] [--pairs N] [--seed S]
    python3 scripts/make_reference.py --scalar [--out PATH] [--pairs N] [--seed S]
    python3 scripts/make_reference.py --nodes [--out PATH]

The default writes tests/data/reference_inclusions.csv: strict and partial
inclusion of about 100 ordered pairs of consonant densities, to 30 digits.
``--scalar`` writes tests/data/reference_scalar.csv: the scalar product of
72 pairs and both self products, to 25 digits.  ``--nodes`` writes
tests/data/gauss_legendre_32.csv: the 32 Gauss-Legendre nodes and weights
on [0, 1], to 30 digits.  No value comes from ``cbf`` or numpy:

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
* The scalar product is the mean over both focals of their Jaccard degree
  |I1 & I2| / |hull|: a nested ``mpmath.quad``, over z2 split at the same
  points as strict inclusion (there also sit the log singularities of the
  inner mean), and over z1 split where an end of I1 crosses an end of I2.
  A self product depends only on the family and k (substitute z = scale u),
  so it is taken once per (family, k), on the unit-scale operand.  Where
  mp.quad's error estimate of the outer integral is above 1e-27, the pair
  is taken again 10 digits finer, up to 60 digits, before it is refused.
* The nodes are the roots of the Legendre polynomial P_32 by Newton's
  method from the asymptotic guesses cos(pi (i - 1/4) / (n + 1/2)), the
  weights 2 / ((1 - x^2) P_32'(x)^2); both are mapped to [0, 1].

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
from functools import lru_cache
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
DIGITS = 30
SCALAR_DIGITS = 25  # nested quadrature at 30 digits agrees with 20 to 1e-21
MAX_DPS = 60  # the finest precision at which ``scalar`` retries a quadrature


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


def jaccard(a1, b1, a2, b2):
    """|[a1, b1] & [a2, b2]| / |hull of both|."""
    inter = min(b1, b2) - max(a1, a2)
    return inter / (max(b1, b2) - min(a1, a2)) if inter > 0 else mp.mpf(0)


def scalar(f1, f2):
    """The mean Jaccard degree of f1's and f2's focals.  Where mp.quad's error
    estimate misses the target, the quadrature runs again 10 digits finer, up
    to MAX_DPS; the operands' parameters are binary doubles, which every
    precision holds exactly."""
    dps = mp.mp.dps
    while True:
        with mp.workdps(dps):
            value, error = _scalar(f1, f2)
        if error <= mp.mpf(10) ** -(SCALAR_DIGITS + 2):
            return value
        if dps >= MAX_DPS:
            raise RuntimeError(f"quadrature error {error} above the target at mp.dps = {dps}")
        dps = min(dps + 10, MAX_DPS)


def _scalar(f1, f2):
    """The nested quadrature of ``scalar``: its value and mp.quad's error estimate of the outer integral."""
    family1, loc1, _, z1 = f1

    def integrand(z):
        a, b = ends(f2, z)
        cuts = (loc1 - a, loc1 - b, a - loc1, b - loc1) if family1 == "normal" else (a - loc1, b - loc1)
        inner = mp.quad(lambda t: density(f1, t) * jaccard(*ends(f1, t), a, b),
                        [0, *sorted({c for c in cuts if 0 < c < z1}), z1])
        return density(f2, z) * inner

    return mp.quad(integrand, [0, *kinks(f1, f2, True), f2[3]], error=True)


def gauss_legendre(n: int):
    """The n nodes and weights of Gauss-Legendre on [0, 1], ascending."""
    rows = []
    for i in range(n, 0, -1):
        x, step = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2)), 1
        while abs(step) > mp.mpf(10) ** -(mp.mp.dps - 5):
            p, q = mp.legendre(n, x), mp.legendre(n - 1, x)
            step = p / (n * (x * p - q) / (x * x - 1))
            x -= step
        dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
        rows.append(((x + 1) / 2, 1 / ((1 - x * x) * dp * dp)))
    return rows


def pairs(count: int, seed: int, concentric: int = 5):
    """``count`` ordered pairs of (spec, k): both families in both roles, every
    ``concentric``-th pair at offset 0 (none if 0), as exponentials always are."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        families = [("normal", "exp")[(i >> j) & 1] for j in range(2)]
        scales = [1.0, 10.0 ** rng.uniform(-3.0, 3.0)]
        rng.shuffle(scales)
        base = 10.0 ** rng.uniform(-2.0, 2.0)
        offset = 0.0 if concentric and i % concentric == 0 else rng.uniform(-10.0, 10.0) * max(scales)
        locations = [offset * base, 0.0] if families[1] == "exp" else [0.0, offset * base]
        specs = [f"exp:{1.0 / (base * scale)!r}" if family == "exp" else f"normal:{mu!r},{base * scale!r}"
                 for family, scale, mu in zip(families, scales, locations)]
        out.append([(spec, rng.choice((8.0, 40.0))) for spec in specs])
    return out


def _inclusion_rows(args):
    for (spec1, k1), (spec2, k2) in pairs(args.pairs, args.seed):
        f1, f2 = operand(spec1, k1), operand(spec2, k2)
        yield [spec1, k1, spec2, k2, *[_digits(inclusion(f1, f2, strict)) for strict in (True, False)]]


@lru_cache(maxsize=None)
def _self_product(family: str, k: float):
    """The scalar product of any density of ``family`` at k with itself."""
    unit = operand("normal:0.0,1.0" if family == "normal" else "exp:1.0", k)
    return scalar(unit, unit)


def _scalar_rows(args):
    for (spec1, k1), (spec2, k2) in pairs(args.pairs, args.seed, concentric=0):
        values = (scalar(operand(spec1, k1), operand(spec2, k2)),
                  *[_self_product(spec.partition(":")[0], k) for spec, k in ((spec1, k1), (spec2, k2))])
        yield [spec1, k1, spec2, k2, *[_digits(v, SCALAR_DIGITS) for v in values]]


def _digits(value, digits=DIGITS):
    return mp.nstr(value, digits, min_fixed=0, max_fixed=0)


TABLES = {  # option: (default file, default pairs, header, rows)
    "inclusions": ("reference_inclusions.csv", 100, ["f1", "k1", "f2", "k2", "strict", "partial"], _inclusion_rows),
    "scalar": ("reference_scalar.csv", 72, ["f1", "k1", "f2", "k2", "scalar", "self1", "self2"], _scalar_rows),
    "nodes": ("gauss_legendre_32.csv", 0, ["node", "weight"],
              lambda args: ([_digits(x), _digits(w)] for x, w in gauss_legendre(32))),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--scalar", dest="table", action="store_const", const="scalar",
                       help="the scalar product corpus instead of the inclusions'")
    which.add_argument("--nodes", dest="table", action="store_const", const="nodes",
                       help="the 32-node Gauss-Legendre table instead of the inclusions'")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seed", type=int, default=2015)
    args = parser.parse_args(argv)
    name, count, header, rows = TABLES[args.table or "inclusions"]
    args.out = args.out or ROOT / "tests" / "data" / name
    args.pairs = count if args.pairs is None else args.pairs
    mp.mp.dps = 50 if args.table != "scalar" else 30
    start = time.perf_counter()
    rows = list(rows(args))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
