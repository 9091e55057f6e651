"""Naive frozenset-based reference implementations for the discrete tests.

Everything here enumerates subsets directly and never touches bitmasks, so
it is an independent check of the packed implementation.
"""

import itertools
import math

import numpy as np

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
