"""Gauss-Legendre nodes, the configuration and a Monte Carlo cross-check.

Every consonant measure and the generic cross-check take Gauss-Legendre
rules with a fixed number of nodes per piece, bit for bit reproducible.
``mc_estimate`` provides a seeded Monte Carlo estimate of E[ratio] under a
product sampler.  It is the slow second opinion used to validate the
quadrature, not a replacement for it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureConfig",
    "nodes_and_weights",
    "mc_estimate",
]


# Largest truncation, in scale units.  With it lifted, every self anchor
# (2/pi of the N(0,1) scalar product among them) is within 1.2e-16 at k =
# 1000, 3000 and 10000, and N(0,1) with N(0.5,0.7) moves by under 1e-15 from
# k = 40 to 10000; no rule needs the limit, which bounds every support at
# 1000 scales, far past any float mass.
MAX_TRUNCATION_K = 1000.0


def check_truncation_k(k: float):
    if not 0.0 < k <= MAX_TRUNCATION_K:
        raise ValueError(f"truncation_k must be in (0, {MAX_TRUNCATION_K:g}], got {k}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation policy of the consonant measures.

    ``truncation_k`` reaches every measure through the operands.  The other
    two fields govern nothing: every measure takes one rule of 32 nodes per
    piece (see ``cbf.measures``).  They are still accepted and validated, so
    that configurations built for the refined rules they once set keep working.

    points_per_axis     an integer >= 16
    truncation_k        half-width of integration domains in scale units,
                        in (0, 1000]
    refine_max_doublings  an integer >= 0
    """

    points_per_axis: int = 16
    truncation_k: float = 8.0
    refine_max_doublings: int = 4

    def __post_init__(self):
        for name in ("points_per_axis", "refine_max_doublings"):
            try:  # numpy integers pass, floats such as 16.5 do not
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.points_per_axis < 16:
            raise ValueError(f"points_per_axis must be >= 16, got {self.points_per_axis}")
        check_truncation_k(self.truncation_k)
        if self.refine_max_doublings < 0:
            raise ValueError(
                f"refine_max_doublings must be >= 0, got {self.refine_max_doublings}"
            )


@lru_cache(maxsize=64)
def _unit_nodes(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], correctly rounded where
    np.longdouble is wider than double: numpy's nodes take one Newton step on
    P_n's three-term recurrence in long double, and the weights 2 / ((1 - x^2)
    P_n'(x)^2) one more pass.  Cached read-only arrays."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for newton in (True, False):
        p0, p1 = np.ones_like(x), x  # P_(j-1), P_j at x, up to P_(n-1), P_n
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        dp = n * (x * p1 - p0) / (x * x - 1)  # P_n'
        x = x - p1 / dp if newton else x
    x, w = ((x + 1) / 2).astype(float), (1 / ((1 - x * x) * dp * dp)).astype(float)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def nodes_and_weights(n: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights for [lo, hi] with n points."""
    if not 1 <= n <= 512:  # numpy's eigenvalue solve holds an n x n matrix
        raise ValueError(f"need 1 to 512 nodes, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration bounds must be finite, got ({lo}, {hi})")
    if hi < lo:
        raise ValueError(f"integration bounds out of order: ({lo}, {hi})")
    x, w = _unit_nodes(n)
    width = hi - lo
    return lo + width * x, width * w


def mc_estimate(sampler, integrand_ratio, n: int, seed: int = 0):
    """Seeded Monte Carlo mean of ``integrand_ratio`` under ``sampler``.

    sampler(rng, n) must return a tuple of arrays of draws (one per factor
    of the product density); integrand_ratio(*draws) the pointwise values.
    Returns (mean, standard_error).
    """
    if n < 10_000:
        raise ValueError(f"need at least 10000 samples for a stable estimate, got {n}")
    rng = np.random.default_rng(seed)
    draws = sampler(rng, n)
    vals = np.asarray(integrand_ratio(*draws), dtype=float)
    if not np.all(finite := np.isfinite(vals)):
        idx = np.unravel_index(int(np.argmin(finite)), vals.shape)
        raise ValueError(f"integrand returned a non-finite value at grid index {idx} (mc integrand)")
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    return mean, stderr
