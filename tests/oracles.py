"""Reference implementations for the tests.

The discrete ones are naive and frozenset-based: they enumerate subsets
directly and never touch bitmasks, so they check the packed implementation
independently.  ``inclusion_by_crossings`` integrates a consonant inclusion
over the endpoint crossings, apart from the cell map of ``cbf.measures``.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad

from cbf.discrete import DiscreteMassFunction


def subsets(frame):
    out = []
    for r in range(len(frame) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(frame, r))
    return out


def as_map(m):
    return {frozenset(labels): mass for labels, mass in m.items()}


def bel_naive(m, x):
    x = frozenset(x)
    return sum(mass for a, mass in as_map(m).items() if a and a <= x)


def pl_naive(m, x):
    x = frozenset(x)
    return sum(mass for a, mass in as_map(m).items() if a & x)


def q_naive(m, x):
    x = frozenset(x)
    return sum(mass for a, mass in as_map(m).items() if x <= a)


def jousselme_naive(m1, m2):
    subs = subsets(m1.frame)
    v1, v2 = as_map(m1), as_map(m2)
    diff = np.array([v1.get(a, 0.0) - v2.get(a, 0.0) for a in subs])
    d = np.empty((len(subs), len(subs)))
    for i, a in enumerate(subs):
        for j, b in enumerate(subs):
            if not a and not b:
                d[i, j] = 1.0
            else:
                d[i, j] = len(a & b) / len(a | b)
    return math.sqrt(max(0.0, 0.5 * diff @ d @ diff))


def jousselme_union(m1, m2):
    """Jousselme distance as a double loop over the union of the focal sets.

    Only the union's coordinates of m1 - m2 are non-zero, so this agrees with
    ``jousselme_naive`` without enumerating 2^n subsets; it reaches 16 labels.
    """
    v1, v2 = as_map(m1), as_map(m2)
    union = list(v1.keys() | v2.keys())
    diff = [v1.get(a, 0.0) - v2.get(a, 0.0) for a in union]
    rad = 0.0
    for a, da in zip(union, diff):
        for b, db in zip(union, diff):
            rad += da * db * (len(a & b) / len(a | b) if a or b else 1.0)
    return math.sqrt(max(0.0, 0.5 * rad))


def d_inc_naive(m1, m2):
    f1 = [a for a in as_map(m1) if a]
    f2 = [b for b in as_map(m2) if b]
    return sum(1 for a in f1 for b in f2 if a <= b) / (len(f1) * len(f2))


def sigma_inc_naive(m1, m2):
    return max(d_inc_naive(m1, m2), d_inc_naive(m2, m1))


def conflict_naive(m1, m2):
    return (1.0 - sigma_inc_naive(m1, m2)) * jousselme_naive(m1, m2)


def random_bba_with_empty(rng, frame, k):
    """Random mass function with k distinct focal sets, the empty set among them."""
    masks = rng.choice(np.arange(1, 2 ** len(frame)), size=k - 1, replace=False)
    weights = rng.dirichlet(np.ones(k))
    masses = {(): float(weights[0])}
    for mask, w in zip(masks, weights[1:]):
        masses[tuple(lab for i, lab in enumerate(frame) if mask >> i & 1)] = float(w)
    return DiscreteMassFunction(frame, masses)


def random_bba(rng, frame):
    """Random mass function with 1..6 non-empty focal sets."""
    n_subsets = 2 ** len(frame) - 1
    k = int(rng.integers(1, min(n_subsets, 6) + 1))
    masks = rng.choice(np.arange(1, n_subsets + 1), size=k, replace=False)
    weights = rng.dirichlet(np.ones(k))
    masses = {}
    for mask, w in zip(masks, weights):
        labels = tuple(lab for i, lab in enumerate(frame) if mask >> i & 1)
        masses[labels] = float(w)
    return DiscreteMassFunction(frame, masses)


# Gauss-Legendre nodes per inner piece of ``inclusion_by_crossings``; a piece
# spans at most 4 scale units of a smooth density.
_INNER_NODES = 24


def _events(lines, z_max):
    """Sorted points in (0, z_max) where two of the lines x -> A x + B meet."""
    out = set()
    for (a1, b1), (a2, b2) in itertools.combinations(set(lines), 2):
        if a1 != a2:
            x = (b2 - b1) / (a1 - a2)
            if 0.0 < x < z_max:
                out.add(x)
    return sorted(out)


def inclusion_by_crossings(f1, f2, kind, outer=0):
    """E[delta(I1, I2)] for consonant operands, with delta the strict
    (kind "strict") or partial ("partial") inclusion degree of I1 in I2.

    The outer integral runs over the nesting parameter of f1 (outer=0) or f2
    (outer=1) with scipy ``quad``; the inner one over the other operand is a
    sum over the pieces between the points where an endpoint of its focal
    crosses an endpoint of the outer focal, each by a fixed Gauss-Legendre
    rule on which the degree is smooth.  The outer breakpoints are the values
    where two crossings meet, or one meets 0 or the inner support bound.
    Only the public operand attributes are read.
    """
    off = f2.location - f1.location  # endpoints relative to f1's location
    fo, fi = (f1, f2) if outer == 0 else (f2, f1)
    co, ci = (0.0, off) if outer == 0 else (off, 0.0)
    zi_max = fi.support_bound
    # inner endpoint si*zi + ci meets outer endpoint so*zo + co at zi = A zo + B
    crossings = [(so / si, (co - ci) / si) for so in (fo.shape.lo_slope, 1.0)
                 for si in (fi.shape.lo_slope, 1.0) if si]
    # a fixed inner endpoint (si = 0) is crossed where the outer one reaches it
    fixed = [(ci - co) / so for so in (fo.shape.lo_slope, 1.0) if so and not fi.shape.lo_slope]
    events = _events([*crossings, (0.0, 0.0), (0.0, zi_max)], fo.support_bound)
    events = sorted({*events, *(x for x in fixed if 0.0 < x < fo.support_bound)})
    x, w = np.polynomial.legendre.leggauss(_INNER_NODES)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    # fixed cuts every 4 scale units keep each piece within reach of the rule
    grid = {4.0 * j * fi.scale for j in range(1, math.ceil(zi_max / fi.scale / 4.0))}

    def inner(zo):
        cuts = sorted({0.0, zi_max, *grid, *(c for a, b in crossings if 0.0 < (c := a * zo + b) < zi_max)})
        lo, width = np.array(cuts[:-1])[:, None], np.diff(cuts)[:, None]
        zi = lo + width * x
        o_lo, o_hi = fo.shape.lo_slope * zo + co, zo + co
        i_lo, i_hi = fi.shape.lo_slope * zi + ci, zi + ci
        (a1, b1), (a2, b2) = ((o_lo, o_hi), (i_lo, i_hi)) if outer == 0 else ((i_lo, i_hi), (o_lo, o_hi))
        if kind == "strict":
            degree = ((a2 <= a1) & (b1 <= b2)).astype(float)
        else:
            degree = np.maximum(0.0, np.minimum(b1, b2) - np.maximum(a1, a2)) / (b1 - a1)
        return float(np.sum(width * w * fi.density(zi) * degree))

    value, _ = quad(lambda zo: fo.density(zo) * inner(zo), 0.0, fo.support_bound,
                    points=events or None, epsabs=1e-15, epsrel=1e-13, limit=200)
    return value
