"""Scalar products, distances and inclusion measures between belief densities.

Every measure is an expectation of an interval degree delta(I1(z1), I2(z2))
under the product of the two mass densities.  For consonant operands the
integral is taken over the nesting parameters, which keeps the domain a
rectangle [0, Z1_max] x [0, Z2_max] regardless of the focal geometry:

    E[delta] = integral m1(z1) m2(z2) delta(I1(z1), I2(z2)) dz1 dz2

Focal endpoints are expressed relative to each operand's location and only
the location offset enters the degree, so translating both operands by the
same amount reproduces results exactly.

The degrees are piecewise smooth: their kinks lie on the straight lines
where a focal endpoint of one operand crosses one of the other.  One rule
serves every pair measure: the outer z1 axis is cut where those lines cross
each other or the edges of the rectangle, the inner z2 axis is cut along the
lines themselves for each outer node, and every panel gets the same
n-point Gauss-Legendre rule.  Strict inclusion has a faster route: nested
focals make {z2 : I1(z1) subset I2(z2)} an upper ray [L(z1), inf), so the
inner integral collapses to the closed-form tail mass and a 1D integral
over the same outer panels remains.

The Monte Carlo and generic-representation paths below rebuild the same
quantities from raw interval operations and serve as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .consonant import ConsonantBBD, GenericBBD
from .intervals import (
    delta_inc_partial,
    delta_inc_partial_rev,
    delta_inc_strict,
    jaccard_delta,
)
from .quadrature import QuadratureConfig, _refine, inverse_cdf_table, nodes_and_weights

__all__ = [
    "QuadratureMeta",
    "InclusionResult",
    "scalar_product",
    "distance",
    "inc_strict",
    "inc_partial",
    "inc_partial_reversed",
    "inc_avg_strict",
    "inc_avg_partial",
    "nesting_pair_sampler",
    "generic_mass",
    "scalar_product_generic",
    "inc_strict_generic",
    "inc_partial_generic",
]

# Cap on elements per block in the generic double sums.
_BLOCK_ELEMS = 1 << 22
# Gauss-Legendre nodes along a generic nesting curve: one panel, no kinks
# known, so the resolution is fixed rather than tied to the panel rule.
_CURVE_POINTS = 512
# Ratio between successive panel breaks graded toward the (0, 0) corner.
_GRADING = 8.0


class QuadratureMeta(NamedTuple):
    points_per_axis: int
    est_error: float


@dataclass(frozen=True)
class InclusionResult:
    """An inclusion degree together with how it was computed.

    value            degree in [0, 1]
    direction        (label of included operand, label of including operand)
    kind             "strict" or "partial"
    quadrature_meta  final nodes per panel and refinement error
    """

    value: float
    direction: tuple[str, str]
    kind: str
    quadrature_meta: QuadratureMeta


def _slopes(f: ConsonantBBD) -> tuple[float, float]:
    """Focal endpoints per unit of z, relative to the location."""
    lo, hi = f.base_bounds(1.0)
    return float(lo), float(hi)


def _kinks(f1: ConsonantBBD, f2: ConsonantBBD, off: float):
    """Kink lines and outer breaks of a pair degree on [0, Z1] x [0, Z2].

    An endpoint s1*z1 of I1 meets an endpoint s2*z2 + off of I2 on the line
    z2 = (s1*z1 - off) / s2, or at z1 = off / s1 when s2 is 0.  Near the
    corner (0, 0) a degree varies on the scale of the shorter support, so
    when the supports differ the panels are also graded geometrically
    toward it: outer breaks at z1 = 8**j * Z2 below Z1, and lines
    z2 = 8**k * z1 while 8**k < 2 * Z2 / Z1 (j, k >= 1).

    Returns the lines (p, q) for z2 = p*z1 + q that enter (0, Z2), as an
    (L, 2) array, and the sorted z1 breaks: 0, Z1, the vertical crossings,
    the grading breaks and every z1 where two lines cross each other, 0 or
    Z2.
    """
    z1_max, z2_max = f1.support_bound, f2.support_bound
    lines, breaks = set(), {0.0, z1_max}
    for s1 in _slopes(f1):
        for s2 in _slopes(f2):
            if s2:
                p, q = s1 / s2, -off / s2
                ends = (q, p * z1_max + q)
                if max(ends) > 0.0 and min(ends) < z2_max:
                    lines.add((p, q))
            elif s1:
                breaks.add(off / s1)
    grade = _GRADING * z2_max
    while grade < z1_max:
        breaks.add(grade)
        grade *= _GRADING
    grade = _GRADING
    while grade * z1_max < 2.0 * z2_max:
        lines.add((grade, 0.0))
        grade *= _GRADING
    lines = sorted(lines)
    for i, (p, q) in enumerate(lines):
        if p:
            breaks.update((-q / p, (z2_max - q) / p))
        breaks.update((q2 - q) / (p - p2) for p2, q2 in lines[:i] if p2 != p)
    outer = np.array(sorted(b for b in breaks if 0.0 <= b <= z1_max))
    return np.array(lines, dtype=float).reshape(-1, 2), outer


def _panel_nodes(lo, width, n: int):
    """n Gauss-Legendre nodes and weights on each panel [lo, lo + width].

    Returns (panels, n) arrays, one row per panel.
    """
    x, w = nodes_and_weights(n, 0.0, 1.0)
    return lo[:, None] + width[:, None] * x, width[:, None] * w


def _pair_expectation(f1: ConsonantBBD, f2: ConsonantBBD, delta, cfg: QuadratureConfig):
    """E[delta(I1, I2)] over the nesting-parameter rectangle.

    The outer z1 panels end at the breaks of ``_kinks``; for each outer node
    the inner z2 panels end where the kink lines cross, so the degree is
    smooth on every panel and each panel gets the same n-point rule.  Inner
    panels of zero width (lines clipped at 0 or Z2) are dropped.
    """
    off = f2.location - f1.location
    lines, outer = _kinks(f1, f2, off)
    z2_max = f2.support_bound

    def estimate(n):
        z1, w1 = _panel_nodes(outer[:-1], np.diff(outer), n)
        z1, w1 = z1.ravel(), w1.ravel()
        cuts = np.clip(np.multiply.outer(z1, lines[:, 0]) + lines[:, 1], 0.0, z2_max)
        inner = np.sort(np.column_stack([np.zeros_like(z1), cuts, np.full_like(z1, z2_max)]), axis=1)
        width = np.diff(inner, axis=1)
        node, panel = np.nonzero(width)
        z2, w2 = _panel_nodes(inner[node, panel], width[node, panel], n)
        a1, b1 = f1.base_bounds(z1[node])
        a2, b2 = f2.base_bounds(z2)
        degrees = delta(a1[:, None], b1[:, None], a2 + off, b2 + off)
        g1 = (w1 * f1.density(z1))[node]
        g2 = w2 * f2.density(z2)
        return float(g1 @ np.einsum("ij,ij->i", degrees, g2))

    return _refine(estimate, cfg.points_per_axis, cfg)


def scalar_product(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> float:
    """Expected Jaccard overlap degree between the two focal families."""
    cfg = cfg or QuadratureConfig()
    value, _, _ = _pair_expectation(f1, f2, jaccard_delta, cfg)
    return value


def distance(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> float:
    """Jousselme-style distance sqrt((<f1,f1> + <f2,f2> - 2 <f1,f2>) / 2).

    The radicand is clamped at zero so quadrature noise cannot produce a
    NaN for nearly identical operands.
    """
    cfg = cfg or QuadratureConfig()
    n1 = scalar_product(f1, f1, cfg)
    n2 = scalar_product(f2, f2, cfg)
    s = scalar_product(f1, f2, cfg)
    return math.sqrt(max(0.0, 0.5 * (n1 + n2 - 2.0 * s)))


def inc_strict(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Degree to which f1 is strictly included in f2.

    Computed as integral m1(z1) T2(L(z1)) dz1 where T2 is the closed-form
    tail mass of f2 and L(z1) the smallest z2 whose focal contains I1(z1).
    L is the larger of at most two kink lines, so the z1 panels of
    ``_kinks`` keep the integrand smooth on each panel.
    """
    cfg = cfg or QuadratureConfig()
    off = f2.location - f1.location
    _, outer = _kinks(f1, f2, off)
    lo2, hi2 = _slopes(f2)

    def estimate(n):
        z1, w1 = _panel_nodes(outer[:-1], np.diff(outer), n)
        a1, b1 = f1.base_bounds(z1)
        weight = w1 * f1.density(z1)
        # I1 sits in I2(z2) iff lo2*z2 + off <= a1 and b1 <= hi2*z2 + off.
        needed = (b1 - off) / hi2
        if lo2 < 0.0:
            needed = np.maximum(needed, (a1 - off) / lo2)
        else:
            weight = np.where(off <= a1, weight, 0.0)
        return float(np.sum(weight * f2.tail_mass(needed)))

    value, points, err = _refine(estimate, cfg.points_per_axis, cfg)
    meta = QuadratureMeta(points, err)
    return InclusionResult(min(1.0, max(0.0, value)), (f1.label, f2.label), "strict", meta)


def inc_partial(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I1 covered by I2."""
    cfg = cfg or QuadratureConfig()
    value, points, err = _pair_expectation(f1, f2, delta_inc_partial, cfg)
    meta = QuadratureMeta(points, err)
    return InclusionResult(min(1.0, max(0.0, value)), (f1.label, f2.label), "partial", meta)


def inc_partial_reversed(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I2 covered by I1 (overlap normalised by I2).

    Equals ``inc_partial(f2, f1)`` up to quadrature error; both orderings
    are kept because the degree arguments keep their operand roles.
    """
    cfg = cfg or QuadratureConfig()
    value, points, err = _pair_expectation(f1, f2, delta_inc_partial_rev, cfg)
    meta = QuadratureMeta(points, err)
    return InclusionResult(min(1.0, max(0.0, value)), (f2.label, f1.label), "partial", meta)


def _check_family(fs, i: int):
    if len(fs) < 2:
        raise ValueError(f"need at least two densities to average over, got {len(fs)}")
    if not 0 <= i < len(fs):
        raise ValueError(f"index {i} out of range for {len(fs)} densities")


def inc_avg_strict(i: int, fs, cfg: QuadratureConfig | None = None) -> float:
    """Mean strict inclusion of fs[i] in the other members of fs."""
    fs = list(fs)
    _check_family(fs, i)
    others = [j for j in range(len(fs)) if j != i]
    return sum(inc_strict(fs[i], fs[j], cfg).value for j in others) / len(others)


def inc_avg_partial(i: int, fs, cfg: QuadratureConfig | None = None) -> float:
    """Mean partial inclusion of fs[i] in the other members of fs."""
    fs = list(fs)
    _check_family(fs, i)
    others = [j for j in range(len(fs)) if j != i]
    return sum(inc_partial(fs[i], fs[j], cfg).value for j in others) / len(others)


def nesting_pair_sampler(f1: ConsonantBBD, f2: ConsonantBBD, n_grid: int = 8193):
    """Independent sampler of (z1, z2) for ``mc_estimate``.

    Each marginal is drawn by inverse CDF from the tabulated nesting
    density, truncated at the operand's support bound.
    """
    inv1 = inverse_cdf_table(f1.density, f1.support_bound, n_grid)
    inv2 = inverse_cdf_table(f2.density, f2.support_bound, n_grid)

    def sampler(rng, n):
        return inv1(rng.random(n)), inv2(rng.random(n))

    return sampler


# ---------------------------------------------------------------------------
# Generic representation path: measures as weighted double sums over focal
# atoms.  Slower and grid-limited, used to cross-check the consonant routes.

def _focal_atoms(g: GenericBBD, cfg: QuadratureConfig):
    """Discretise a generic density into weighted intervals (lo, hi, w)."""
    if g.curve is not None:
        z, wz = nodes_and_weights(_CURVE_POINTS, 0.0, g.curve.z_max)
        lo, hi = g.curve.endpoints(z)
        w = wz * np.asarray(g.curve.weight(z), dtype=float)
        return np.asarray(lo, float), np.asarray(hi, float), w
    x_lo, x_hi, y_lo, y_hi = g.truncation_box
    n = cfg.points_per_axis_4d
    x, wx = nodes_and_weights(n, x_lo, x_hi)
    y, wy = nodes_and_weights(n, y_lo, y_hi)
    X, Y = np.meshgrid(x, y, indexing="ij")
    mask = X <= Y
    lo, hi = X[mask], Y[mask]
    dens = np.asarray(g.density2d(lo, hi), dtype=float)
    if np.any(~np.isfinite(dens)) or np.any(dens < 0):
        raise ValueError(f"density2d of {g.label!r} must be finite and non-negative")
    w = (wx[:, None] * wy[None, :])[mask] * dens
    return lo, hi, w


def generic_mass(g: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    """Total mass of the discretised density (1 up to truncation error)."""
    cfg = cfg or QuadratureConfig()
    _, _, w = _focal_atoms(g, cfg)
    return float(np.sum(w))


def _generic_expectation(g1: GenericBBD, g2: GenericBBD, delta, cfg: QuadratureConfig) -> float:
    lo1, hi1, w1 = _focal_atoms(g1, cfg)
    lo2, hi2, w2 = _focal_atoms(g2, cfg)
    block = max(1, _BLOCK_ELEMS // max(1, lo2.size))
    total = 0.0
    for start in range(0, lo1.size, block):
        sl = slice(start, start + block)
        degrees = delta(lo1[sl, None], hi1[sl, None], lo2[None, :], hi2[None, :])
        total += float(w1[sl] @ degrees @ w2)
    return total


def scalar_product_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    cfg = cfg or QuadratureConfig()
    return _generic_expectation(g1, g2, jaccard_delta, cfg)


def inc_strict_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    cfg = cfg or QuadratureConfig()
    value = _generic_expectation(g1, g2, delta_inc_strict, cfg)
    return min(1.0, max(0.0, value))


def inc_partial_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    cfg = cfg or QuadratureConfig()
    value = _generic_expectation(g1, g2, delta_inc_partial, cfg)
    return min(1.0, max(0.0, value))
