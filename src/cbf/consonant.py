"""Consonant basic belief densities induced by unimodal pignistic densities.

A consonant belief density carries its mass on a nested family of focal
intervals indexed by a single non-negative parameter z.  For a pignistic
density p this package uses the least-committed consonant allocation whose
pignistic transform gives p back:

* normal N(mu, sigma^2): focal(z) = [mu - z, mu + z] with mass density
  m(z) = -2 z p'(mu + z) = (2 z^2 / sigma^3) phi(z / sigma), a Maxwell
  density in z;
* exponential with rate lam: focal(z) = [0, z] with mass density
  m(z) = -z p'(z) = lam^2 z exp(-lam z), a Gamma(2, 1/lam) density.

``pignistic_density`` evaluates the round trip numerically; the test suite
anchors on it reproducing the source pdf.  ``tail_mass`` is the closed-form
upper tail of m, which is what turns strict-inclusion integrals into 1D
integrals (the nesting makes {z2 : I1 subset I2(z2)} an upper ray).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .intervals import Interval
from .quadrature import nodes_and_weights

__all__ = [
    "Normal",
    "Exponential",
    "ConsonantBBD",
    "IntervalCurve",
    "GenericBBD",
    "consonant_from_normal",
    "consonant_from_exponential",
    "to_generic",
    "pignistic_density",
    "parse_distribution",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(u):
    return np.exp(-0.5 * u * u) / _SQRT_2PI


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float


@dataclass(frozen=True)
class Exponential:
    rate: float


@dataclass(frozen=True)
class ConsonantBBD:
    """Consonant belief density with focal intervals focal(z), z >= 0.

    ``support_bound`` is the truncation point Z_max: integration domains
    stop there and the residual tail mass beyond it is treated as zero.
    """

    family: Normal | Exponential
    support_bound: float

    @property
    def location(self) -> float:
        """Centre of the nested family (mu for normal, 0 for exponential)."""
        if isinstance(self.family, Normal):
            return self.family.mu
        return 0.0

    @property
    def label(self) -> str:
        if isinstance(self.family, Normal):
            return f"normal:{self.family.mu:g},{self.family.sigma:g}"
        return f"exp:{self.family.rate:g}"

    def density(self, z):
        """Mass density over the nesting parameter; zero for z < 0."""
        z = np.asarray(z, dtype=float)
        if isinstance(self.family, Normal):
            s = self.family.sigma
            vals = 2.0 * z * z / s**3 * _phi(z / s)
        else:
            lam = self.family.rate
            vals = lam * lam * z * np.exp(-lam * np.maximum(z, 0.0))
        out = np.where(z >= 0.0, vals, 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def tail_mass(self, t):
        """Closed-form upper tail integral of ``density`` from t to infinity.

        Normal: 2 [a phi(a) + Q(a)] with a = t / sigma and Q the standard
        normal upper tail.  Exponential: (1 + lam t) exp(-lam t).  Equals 1
        for t <= 0.
        """
        t = np.asarray(t, dtype=float)
        tp = np.maximum(t, 0.0)
        if isinstance(self.family, Normal):
            a = tp / self.family.sigma
            vals = 2.0 * (a * _phi(a) + ndtr(-a))
        else:
            lam = self.family.rate
            vals = (1.0 + lam * tp) * np.exp(-lam * tp)
        out = np.where(t <= 0.0, 1.0, vals)
        if out.ndim == 0:
            return float(out)
        return out

    def base_bounds(self, z):
        """Focal endpoints relative to ``location``: (-z, z) or (0, z)."""
        z = np.asarray(z, dtype=float)
        if isinstance(self.family, Normal):
            return -z, +z
        return np.zeros_like(z), +z

    def focal_bounds(self, z):
        """Absolute focal endpoints as arrays."""
        lo, hi = self.base_bounds(z)
        return lo + self.location, hi + self.location

    def focal(self, z: float) -> Interval:
        """Focal interval for one nesting parameter value z >= 0."""
        if not z >= 0.0:
            raise ValueError(f"nesting parameter must be >= 0, got {z}")
        lo, hi = self.focal_bounds(z)
        return Interval(float(lo), float(hi))

    def pignistic_integrand(self, z):
        """density(z) / length(focal(z)) with the z -> 0 cancellation done."""
        z = np.asarray(z, dtype=float)
        if isinstance(self.family, Normal):
            s = self.family.sigma
            vals = z / s**3 * _phi(z / s)
        else:
            lam = self.family.rate
            vals = lam * lam * np.exp(-lam * np.maximum(z, 0.0))
        out = np.where(z >= 0.0, vals, 0.0)
        if out.ndim == 0:
            return float(out)
        return out


def consonant_from_normal(mu: float, sigma: float, truncation_k: float = 8.0) -> ConsonantBBD:
    """Consonant belief density whose pignistic transform is N(mu, sigma^2)."""
    if not (math.isfinite(mu)):
        raise ValueError(f"mu must be finite, got {mu}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not truncation_k > 0:
        raise ValueError(f"truncation_k must be positive, got {truncation_k}")
    return ConsonantBBD(Normal(float(mu), float(sigma)), truncation_k * sigma)


def consonant_from_exponential(rate: float, truncation_k: float = 8.0) -> ConsonantBBD:
    """Consonant belief density whose pignistic transform is Exponential(rate).

    Note the Gamma(2) tail decays like (1 + k) exp(-k); pass a larger
    ``truncation_k`` (about 17+) when residual mass below 1e-6 matters.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be positive, got {rate}")
    if not truncation_k > 0:
        raise ValueError(f"truncation_k must be positive, got {truncation_k}")
    return ConsonantBBD(Exponential(float(rate)), truncation_k / rate)


@dataclass(frozen=True)
class IntervalCurve:
    """One-parameter family of weighted intervals z -> (endpoints, weight)."""

    endpoints: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    weight: Callable[[np.ndarray], np.ndarray]
    z_max: float


@dataclass(frozen=True)
class GenericBBD:
    """Belief density over arbitrary intervals [x, y], x <= y.

    Exactly one representation is set: ``density2d(x, y)`` supported on the
    part of ``truncation_box`` with x <= y, or ``curve`` for mass carried on
    a one-parameter family (the image of a consonant density).
    """

    density2d: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    truncation_box: tuple[float, float, float, float]
    curve: IntervalCurve | None = None
    label: str = "generic"

    def __post_init__(self):
        if (self.density2d is None) == (self.curve is None):
            raise ValueError("exactly one of density2d and curve must be set")
        x_lo, x_hi, y_lo, y_hi = self.truncation_box
        if not (x_lo <= x_hi and y_lo <= y_hi):
            raise ValueError(f"truncation box out of order: {self.truncation_box}")


def to_generic(c: ConsonantBBD) -> GenericBBD:
    """View a consonant density as a generic one (mass on the nesting curve)."""
    zmax = c.support_bound
    loc = c.location
    if isinstance(c.family, Normal):
        box = (loc - zmax, loc, loc, loc + zmax)
    else:
        box = (0.0, 0.0, 0.0, zmax)
    curve = IntervalCurve(endpoints=c.focal_bounds, weight=c.density, z_max=zmax)
    return GenericBBD(density2d=None, truncation_box=box, curve=curve, label=c.label)


def pignistic_density(c: ConsonantBBD, x, points: int = 512):
    """Pignistic transform of ``c`` evaluated at x.

    betf(x) = integral over z of density(z) / length(focal(z)) for all z
    whose focal interval covers x; with nested focals that is the ray
    z >= z_min(x), truncated at ``support_bound``.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(c.family, Normal):
        z_min = np.abs(x - c.family.mu)
    else:
        z_min = np.where(x < 0.0, np.inf, x)
    width = np.maximum(c.support_bound - z_min, 0.0)
    z_min_safe = np.where(np.isfinite(z_min), z_min, 0.0)
    t, wt = nodes_and_weights(points, 0.0, 1.0)
    z = z_min_safe[..., None] + width[..., None] * t
    vals = width * np.sum(wt * c.pignistic_integrand(z), axis=-1)
    if vals.ndim == 0:
        return float(vals)
    return vals


def parse_distribution(spec: str, truncation_k: float = 8.0) -> ConsonantBBD:
    """Parse a distribution spec string.

    Accepted forms: ``normal:MU,SIGMA`` and ``exp:RATE``.
    """
    name, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"invalid distribution spec {spec!r}: missing ':' separator")
    if name == "normal":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError(
                f"invalid distribution spec {spec!r}: expected normal:MU,SIGMA"
            )
        try:
            mu, sigma = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(
                f"invalid distribution spec {spec!r}: non-numeric parameter"
            ) from None
        return consonant_from_normal(mu, sigma, truncation_k)
    if name == "exp":
        try:
            rate = float(arg)
        except ValueError:
            raise ValueError(
                f"invalid distribution spec {spec!r}: non-numeric parameter"
            ) from None
        return consonant_from_exponential(rate, truncation_k)
    raise ValueError(f"invalid distribution spec {spec!r}: unknown family {name!r}")
