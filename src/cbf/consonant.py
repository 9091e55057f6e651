"""Consonant basic belief densities induced by unimodal pignistic densities.

A consonant belief density carries its mass on a nested family of focal
intervals indexed by a single non-negative parameter z.  For a pignistic
density p this package uses the least-committed consonant allocation whose
pignistic transform gives p back.  Both families are location-scale
families, so each is one unit-scale ``Shape`` in u = z / scale:

* normal N(mu, sigma^2), scale sigma: focal(z) = [mu - z, mu + z] with the
  Maxwell nesting density g(u) = 2 u^2 phi(u);
* exponential with rate lam, scale 1/lam: focal(z) = [0, z] with the
  Gamma(2) nesting density g(u) = u exp(-u).

A ``ConsonantBBD`` is a shape placed at ``location`` and stretched by
``scale``: density(z) = g(z/scale)/scale, tail_mass(t) = G(t/scale).  No
formula raises the scale to a power, so the measures see only offsets and
scale ratios and give the same values at every scale from the smallest
normal float up to where the longest focal, (1 - lo_slope) * truncation_k
* scale, overflows; the constructors reject scales outside that range.

``pignistic_density`` evaluates the round trip in closed form from the
shape; the test suite anchors on it reproducing the source pdf.
``to_generic`` exposes the same density as a ``GenericBBD``, the bare curve
z -> (focal(z), m(z)) that the generic cross-check measures read.
``tail_mass`` is the closed-form upper tail of m; the Monte Carlo sampler
tabulates its CDF from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _special
from .intervals import _as_scalar_or_array
from .quadrature import check_truncation_k

__all__ = [
    "ConsonantBBD",
    "GenericBBD",
    "consonant_from_normal",
    "consonant_from_exponential",
    "to_generic",
    "pignistic_density",
    "parse_distribution",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(u):
    # phi is 0.0 in floats beyond |u| = 38.6; the clip keeps u * u finite
    u = np.minimum(np.abs(u), 40.0)
    return np.exp(-0.5 * u * u) / _SQRT_2PI


@dataclass(frozen=True)
class Shape:
    """Unit-scale nesting shape of a consonant family, in u = z / scale.

    lo_slope   lower focal endpoint per unit of z (the upper one is +1)
    density    nesting density g(u)
    tail       closed-form upper tail of g from u >= 0 to infinity
    pignistic  closed-form upper tail of g(u) / length(focal(u)) from u >= 0
               to infinity: phi(u) for Maxwell (g / (2 u) = u phi(u)),
               exp(-u) for Gamma(2) (g / u = exp(-u))
    kernel     the factor of g beside a polynomial, "phi" (the normal density)
               or "exp" (exp(-u)); the closed forms key on it
    reach      units of u past which g holds no mass in floats (u^2 phi(u)
               and u exp(-u) below 1e-18): every pair measure stops there,
               so that the scalar product's rule keeps its nodes on the mass
    """

    lo_slope: float
    density: Callable[[np.ndarray], np.ndarray]
    tail: Callable[[np.ndarray], np.ndarray]
    pignistic: Callable[[np.ndarray], np.ndarray]
    kernel: str
    reach: float


def _maxwell(u):
    uu = np.minimum(u * u, 1600.0)  # 2 u^2 phi(u); phi is 0.0 beyond u = 40
    return 2.0 / _SQRT_2PI * uu * np.exp(-0.5 * uu)


_MAXWELL = Shape(-1.0, _maxwell, lambda u: 2.0 * (np.minimum(u, 40.0) * _phi(u) + _special.ndtr(-u)), _phi, "phi", 10.0)
_GAMMA2 = Shape(0.0, lambda u: u * np.exp(-np.maximum(u, 0.0)), lambda u: (1.0 + np.minimum(u, 800.0)) * np.exp(-u),
                lambda u: np.exp(-u), "exp", 45.0)


@dataclass(frozen=True)
class ConsonantBBD:
    """Consonant belief density with focal intervals focal(z), z >= 0.

    ``shape`` stretched by ``scale`` and placed at ``location``.
    ``support_bound`` is the truncation point Z_max: integration domains
    stop there and the residual tail mass beyond it is treated as zero.
    """

    shape: Shape
    location: float
    scale: float
    support_bound: float
    label: str

    def density(self, z):
        """Mass density over the nesting parameter; zero for z < 0."""
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore"):
            vals = self.shape.density(z / self.scale) / self.scale
        return _as_scalar_or_array(np.where(z >= 0.0, vals, 0.0))

    def tail_mass(self, t):
        """Closed-form upper tail integral of ``density`` from t to infinity.

        Equals 1 for t <= 0 and 0 where t / scale overflows.
        """
        with np.errstate(over="ignore"):
            return self.shape.tail(np.maximum(t, 0.0) / self.scale)

    def base_bounds(self, z):
        """Focal endpoints relative to ``location``: (lo_slope * z, z)."""
        z = np.asarray(z, dtype=float)
        return self.shape.lo_slope * z, +z

    def focal_bounds(self, z):
        """Absolute focal endpoints as arrays."""
        lo, hi = self.base_bounds(z)
        return lo + self.location, hi + self.location


def _consonant(shape, location, scale, truncation_k, label, param) -> ConsonantBBD:
    """Place ``shape`` at ``location``; ``param`` names where the scale came from."""
    check_truncation_k(truncation_k)
    reach = (1.0 - shape.lo_slope) * truncation_k  # longest focal, in scale units
    if not (scale >= sys.float_info.min and math.isfinite(reach * scale)):
        raise ValueError(  # the bound in Python floats: a numpy truncation_k below 0.5 would overflow it
            f"{param} gives scale {scale:g}, outside [{sys.float_info.min:g}, "
            f"{min(sys.float_info.max / float(reach), sys.float_info.max):g}] at truncation_k = {truncation_k:g}"
        )
    return ConsonantBBD(shape, location, scale, float(truncation_k) * scale, label)


def consonant_from_normal(mu: float, sigma: float, truncation_k: float = 8.0) -> ConsonantBBD:
    """Consonant belief density whose pignistic transform is N(mu, sigma^2)."""
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mu, sigma = float(mu), float(sigma)
    return _consonant(_MAXWELL, mu, sigma, truncation_k, f"normal:{mu:g},{sigma:g}", f"sigma = {sigma}")


def consonant_from_exponential(rate: float, truncation_k: float = 8.0) -> ConsonantBBD:
    """Consonant belief density whose pignistic transform is Exponential(rate).

    Note the Gamma(2) tail decays like (1 + k) exp(-k); pass a larger
    ``truncation_k`` (about 17+) when residual mass below 1e-6 matters.
    """
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rate = float(rate)
    return _consonant(_GAMMA2, 0.0, 1.0 / rate, truncation_k, f"exp:{rate:g}", f"rate = {rate}")


@dataclass(frozen=True)
class GenericBBD:
    """Belief density carried by a one-parameter family of intervals.

    ``endpoints(z)`` gives the interval bounds and ``weight(z)`` the mass
    density for z in [0, z_max]; ``to_generic`` builds one from a consonant
    density, and the generic measures read nothing else.
    """

    endpoints: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    weight: Callable[[np.ndarray], np.ndarray]
    z_max: float
    label: str = "generic"


def to_generic(c: ConsonantBBD) -> GenericBBD:
    """View a consonant density as a generic one (mass on the nesting curve)."""
    return GenericBBD(c.focal_bounds, c.density, c.support_bound, c.label)


def pignistic_density(c: ConsonantBBD, x):
    """Pignistic transform of ``c`` evaluated at x.

    betf(x) = integral over z of density(z) / length(focal(z)) for all z
    whose focal interval covers x; with nested focals that is the ray
    z >= z_min(x), truncated at ``support_bound``.
    """
    x = np.asarray(x, dtype=float)
    # in units of the scale: betf(x) = (P(u_min) - P(K)) / scale with P the
    # shape's pignistic tail and K = support_bound / scale, so 1/scale^2
    # never forms
    d = (x - c.location) / c.scale
    lo = c.shape.lo_slope
    u_min = np.where(d >= 0.0, d, d / lo if lo else np.inf)
    k, tail = c.support_bound / c.scale, c.shape.pignistic
    return _as_scalar_or_array((tail(np.minimum(u_min, k)) - tail(k)) / c.scale)


# family name -> (constructor, number of parameters, spec form)
_FAMILIES = {
    "normal": (consonant_from_normal, 2, "normal:MU,SIGMA"),
    "exp": (consonant_from_exponential, 1, "exp:RATE"),
}


def parse_distribution(spec: str, truncation_k: float = 8.0) -> ConsonantBBD:
    """Parse a distribution spec string: ``normal:MU,SIGMA`` or ``exp:RATE``."""
    name, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"invalid distribution spec {spec!r}: missing ':' separator")
    if name not in _FAMILIES:
        raise ValueError(f"invalid distribution spec {spec!r}: unknown family {name!r}")
    build, arity, form = _FAMILIES[name]
    parts = arg.split(",")
    if len(parts) != arity:
        raise ValueError(f"invalid distribution spec {spec!r}: expected {form}")
    try:
        params = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"invalid distribution spec {spec!r}: non-numeric parameter") from None
    return build(*params, truncation_k)
