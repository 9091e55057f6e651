"""Gauss-Legendre nodes, the refinement loop and a Monte Carlo cross-check.

The inclusions are closed-form; the scalar product is closed-form but for
one Gauss-Legendre rule on the cells where the focals straddle or the
closed form's sides would cancel, and the generic cross-check uses a
Gauss-Legendre rule on a truncated domain.  All are bit for bit
reproducible per configuration.  ``_refine`` doubles the nodes per piece
until two estimates agree to 1e-4 relative or the budget is spent; the
last change is the error.

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

from . import _special

__all__ = [
    "QuadratureConfig",
    "nodes_and_weights",
    "mc_estimate",
]


_REFINE_REL_TOL = 1e-4  # _refine stops once successive estimates agree to this

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
    """Resolution and truncation policy of the consonant measures.

    ``truncation_k`` reaches every measure through the operands; the other
    two fields govern only the scalar product's rule, on the cells its
    closed forms cannot take (see ``cbf.measures``).

    points_per_axis     Gauss-Legendre nodes per piece and per line of that
                        rule (>= 16)
    truncation_k        half-width of integration domains in scale units,
                        in (0, 1000]
    refine_max_doublings  doubling budget for refinement (0 disables it)
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
    """Gauss-Legendre nodes and weights on [0, 1]; cached read-only arrays.

    numpy's weights err less than scipy's and need no ``scipy.linalg``, but its
    eigenvalue solve grows as n^3, so past 512 nodes scipy's asymptotic ones serve.
    """
    x, w = np.polynomial.legendre.leggauss(n) if n <= 512 else _special.roots_legendre(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def nodes_and_weights(n: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights for [lo, hi] with n points."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration bounds must be finite, got ({lo}, {hi})")
    if hi < lo:
        raise ValueError(f"integration bounds out of order: ({lo}, {hi})")
    x, w = _unit_nodes(n)
    width = hi - lo
    return lo + width * x, width * w


def _check_finite(vals, where: str):
    if np.all(np.isfinite(vals)):
        return
    idx = np.unravel_index(int(np.argmin(np.isfinite(vals))), np.shape(vals))
    raise ValueError(f"integrand returned a non-finite value at grid index {idx} ({where})")


def _refine(estimate, n0: int, cfg: QuadratureConfig):
    """Double the nodes per panel until the estimate settles.

    Returns (value, points, est_error) where est_error is the absolute
    change over the last doubling (nan if no doubling happened).  Raises
    ``ValueError`` on a non-finite estimate, for example when a density
    overflows at a tiny scale.
    """
    n = n0
    value = _finite(estimate(n), n)
    err = math.nan
    for _ in range(cfg.refine_max_doublings):
        n *= 2
        new = _finite(estimate(n), n)
        err = abs(new - value)
        value = new
        if err <= _REFINE_REL_TOL * max(abs(new), 1e-12):
            break
    return value, n, err


def _finite(value: float, n: int) -> float:
    if not math.isfinite(value):
        raise ValueError(f"quadrature estimate is {value} at {n} nodes per panel")
    return value


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
    _check_finite(vals, "mc integrand")
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    return mean, stderr
