"""Gauss-Legendre nodes, the refinement loop and a Monte Carlo cross-check.

Every integral in this package is a fixed Gauss-Legendre rule on panels of
a truncated domain, so results are reproducible bit for bit for a given
configuration.  ``cbf.measures`` places the panel breaks at the kinks of
the interval degrees; ``_refine`` doubles the nodes per panel until two
successive estimates agree to a relative tolerance or the doubling budget
is spent, and reports the last change as the error estimate.

``mc_estimate`` provides a seeded Monte Carlo estimate of E[ratio] under a
product sampler.  It is the slow second opinion used to validate the
quadrature, not a replacement for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

__all__ = [
    "QuadratureConfig",
    "nodes_and_weights",
    "mc_estimate",
    "inverse_cdf_table",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and truncation policy shared by all integrators.

    points_per_axis     Gauss-Legendre nodes per panel of the consonant
                        rules (>= 16)
    points_per_axis_4d  nodes per axis of a generic density2d grid (>= 16)
    truncation_k        half-width of integration domains in scale units
    target_rel_tol      stop refining once successive estimates agree to this
    refine_max_doublings  doubling budget for refinement (0 disables it)
    """

    points_per_axis: int = 16
    points_per_axis_4d: int = 64
    truncation_k: float = 8.0
    target_rel_tol: float = 1e-4
    refine_max_doublings: int = 4

    def __post_init__(self):
        if self.points_per_axis < 16:
            raise ValueError(f"points_per_axis must be >= 16, got {self.points_per_axis}")
        if self.points_per_axis_4d < 16:
            raise ValueError(
                f"points_per_axis_4d must be >= 16, got {self.points_per_axis_4d}"
            )
        if not self.truncation_k > 0:
            raise ValueError(f"truncation_k must be positive, got {self.truncation_k}")
        if not self.target_rel_tol > 0:
            raise ValueError(f"target_rel_tol must be positive, got {self.target_rel_tol}")
        if self.refine_max_doublings < 0:
            raise ValueError(
                f"refine_max_doublings must be >= 0, got {self.refine_max_doublings}"
            )


@lru_cache(maxsize=64)
def _unit_nodes(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]; cached read-only arrays."""
    x, w = roots_legendre(n)
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
    change over the last doubling (nan if no doubling happened).
    """
    n = n0
    value = estimate(n)
    err = math.nan
    for _ in range(cfg.refine_max_doublings):
        n *= 2
        new = estimate(n)
        err = abs(new - value)
        value = new
        if err <= cfg.target_rel_tol * max(abs(new), 1e-12):
            break
    return value, n, err


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


def inverse_cdf_table(density, upper: float, n_grid: int = 8193):
    """Tabulated inverse CDF of a 1D density on [0, upper].

    The CDF is built with a cumulative trapezoid on a uniform grid and
    normalised to end at 1, so draws target the truncated, renormalised
    density.  Inversion is a searchsorted bisection with linear
    interpolation between grid nodes.  Returns a callable u -> z.
    """
    if not upper > 0:
        raise ValueError(f"upper bound must be positive, got {upper}")
    grid = np.linspace(0.0, upper, n_grid)
    pdf = np.asarray(density(grid), dtype=float)
    _check_finite(pdf, "inverse cdf table")
    if np.any(pdf < 0):
        raise ValueError("density must be non-negative")
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (pdf[1:] + pdf[:-1]) / 2.0)))
    total = cdf[-1]
    if not total > 0:
        raise ValueError("density integrates to zero on the requested range")
    cdf = cdf / total

    def inverse(u):
        return np.interp(u, cdf, grid)

    return inverse
