"""Scalar products, distances and inclusion measures between belief densities.

Every measure is an expectation of an interval degree delta(I1(z1), I2(z2))
under the product of the two mass densities.  For consonant operands the
integral is taken over the nesting parameters, which keeps the domain a
rectangle [0, Z1_max] x [0, Z2_max] regardless of the focal geometry:

    E[delta] = integral m1(z1) m2(z2) delta(I1(z1), I2(z2)) dz1 dz2

Focal endpoints are expressed relative to each operand's location and only
the location offset enters the degree, so translating both operands by the
same amount reproduces results exactly.  Densities and tails are unit-scale
shapes stretched by each operand's scale, so scaling both operands by the
same factor changes no measure beyond rounding.

The degrees are piecewise smooth: their kinks lie on the straight lines
where a focal endpoint of one operand crosses one of the other.  One rule
serves every pair measure.  The outer z1 axis is cut where those lines
cross each other or the edges of the rectangle; the lines then cut each
outer panel into cells, on which the endpoint order is fixed.  This cell
map is built once per pair.  Cells where the focals are disjoint are
dropped.  On the others the overlap is one linear piece in z2, so partial
inclusion integrates z2 in closed form from the tails of the second operand
and a 1D integral over the outer panels remains; ``scalar_product`` and
``inc_partial_reversed`` take an n x n Gauss-Legendre rule on every such
cell.  Strict inclusion is 1D as well: nested focals make
{z2 : I1(z1) subset I2(z2)} the segment [L(z1), Z2].

Each pair is validated once: the constructors make locations, scales and
supports finite and ``_offset`` checks the offset, so the hot loops run
unchecked unit-scale kernels (the shapes and ``cbf.intervals.overlap``).

The Monte Carlo and generic-representation paths below rebuild the same
quantities from raw interval operations and serve as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .consonant import ConsonantBBD, GenericBBD
from .intervals import delta_inc_partial, delta_inc_partial_rev, delta_inc_strict, jaccard_delta, overlap
from .quadrature import QuadratureConfig, _refine, inverse_cdf_table, nodes_and_weights

__all__ = [
    "QuadratureMeta",
    "InclusionResult",
    "scalar_product",
    "distance",
    "gram_distance",
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
# 512 is where the curve oracle's strict inclusion happens to be accurate:
# against a dense reference it is off by 2.4e-4 at 256 nodes, 2.5e-7 at 512
# and 6.5e-5 at 1024, so other values break its 1e-5 cross-checks.
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


def _unit(value: float) -> float:
    """Clamp an inclusion estimate into [0, 1] against rounding."""
    return min(1.0, max(0.0, value))


def _inclusion(f1, f2, kind: str, refined) -> InclusionResult:
    value, points, err = refined
    return InclusionResult(_unit(value), (f1.label, f2.label), kind, QuadratureMeta(points, err))


def _offset(f1: ConsonantBBD, f2: ConsonantBBD) -> float:
    """Location offset f2 - f1, checked so that no focal endpoint overflows
    and no hull of two meeting focals (at most |off| + Z1 + Z2 long) does."""
    off = f2.location - f1.location
    if not math.isfinite(abs(off) + f1.support_bound + f2.support_bound):
        raise ValueError(f"location offset between {f1.label} and {f2.label} overflows the hull of their focals")
    return off


# Unchecked Jaccard degree: the hull >= |I1| > 0 at interior nodes.  |I2| rounds
# to 0 once |off| dwarfs z2, so inc_partial_reversed keeps the checked degree.
def _jaccard(a1, b1, a2, b2):
    return overlap(a1, b1, a2, b2) / (np.maximum(b1, b2) - np.minimum(a1, a2))


def _weights(f: ConsonantBBD, z, w):
    """Quadrature weights times the nesting density at nodes z > 0."""
    return w / f.scale * f.shape.density(z / f.scale)


def _kinks(f1: ConsonantBBD, f2: ConsonantBBD, off: float):
    """Kink lines and outer breaks of a pair degree on [0, Z1] x [0, Z2].

    An endpoint s1*z1 of I1 meets an endpoint s2*z2 + off of I2 on the line
    z2 = (s1*z1 - off) / s2, or at z1 = off / s1 when s2 is 0.  Near the
    corner (0, 0) a degree varies on the scale of the shorter support, so
    when the supports differ the panels are also graded geometrically
    toward it: outer breaks at z1 = 8**j * Z2 below Z1, and lines
    z2 = 8**k * z1 while 8**k < 2 * Z2 / Z1 (j, k >= 1).  A break or line
    is skipped where the operand it grades has no mass below it in floats.

    Returns the lines (p, q) for z2 = p*z1 + q that enter (0, Z2), as an
    (L, 2) array, and the sorted z1 breaks: 0, Z1, the vertical crossings,
    the grading breaks and every z1 where two lines cross each other, 0 or
    Z2.
    """
    z1_max, z2_max = f1.support_bound, f2.support_bound
    lines, breaks = set(), {0.0, z1_max}
    for s1 in (f1.shape.lo_slope, 1.0):
        for s2 in (f2.shape.lo_slope, 1.0):
            if s2:
                p, q = s1 / s2, -off / s2
                ends = (q, p * z1_max + q)
                if max(ends) > 0.0 and min(ends) < z2_max:
                    lines.add((p, q))
            elif s1:
                breaks.add(off / s1)
    grade = _GRADING * z2_max
    while grade < z1_max:
        if f1.tail_mass(grade) < 1.0:
            breaks.add(grade)
        grade *= _GRADING
    grade = _GRADING
    while grade * z1_max < 2.0 * z2_max:
        if f2.tail_mass(grade * z1_max) < 1.0:
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
    """n Gauss-Legendre nodes and weights on each panel [lo, lo + width], one row each."""
    x, w = nodes_and_weights(n, 0.0, 1.0)
    return lo[:, None] + width[:, None] * x, width[:, None] * w


def _cells(f1: ConsonantBBD, f2: ConsonantBBD, off: float):
    """The cells of the outer panels of ``_kinks`` where the focals meet.

    No kink line crosses another, 0 or Z2 inside an outer panel, so its
    inner panels are cells with bounds z2 = p*z1 + q, read at the panel
    centre, and an order of a1, b1, a2, b2 that the cell centre gives.
    Disjoint cells are dropped: every degree carries an overlap factor.
    Returns the outer breaks and, per cell, its panel, its lower and upper
    (p, q) and the (alpha, beta, c1) of its overlap alpha*z1 + beta + c1*z2.
    """
    lines, outer = _kinks(f1, f2, off)
    z2_max, lo1, lo2 = f2.support_bound, f1.shape.lo_slope, f2.shape.lo_slope
    # Z2 first and 0 last: ties sort by position, so a cell at 0 or Z2 is
    # bounded by them and not by a line clipped there
    bounds = [(0.0, z2_max), *map(tuple, lines.tolist()), (0.0, 0.0)]
    cells = []
    for i, z1 in enumerate((0.5 * (outer[:-1] + outer[1:])).tolist()):
        at = sorted((min(max(p * z1 + q, 0.0), z2_max), j) for j, (p, q) in enumerate(bounds))
        for (v, j), (v_next, j_next) in zip(at, at[1:]):
            z2 = 0.5 * (v + v_next)
            a1, a2 = lo1 * z1, lo2 * z2 + off
            if v < v_next and z1 > a2 and z2 + off > a1:
                b1_in, a1_in = z1 <= z2 + off, a2 <= a1  # overlap = min(b1, b2) - max(a1, a2)
                coef = b1_in - lo1 * a1_in, off * (a1_in - b1_in), (not b1_in) - lo2 * (not a1_in)
                cells.append((i, *bounds[j], *bounds[j_next], *coef))
    cells = np.array(cells, dtype=float).reshape(-1, 8)
    return outer, cells[:, 0].astype(int), cells[:, 1:3], cells[:, 3:5], cells[:, 5:]


def _pair_expectation(f1: ConsonantBBD, f2: ConsonantBBD, delta, cfg: QuadratureConfig):
    """E[delta(I1, I2)] with an n x n Gauss-Legendre rule on each met cell.

    ``delta`` None is partial inclusion, overlap / ((1 - lo1) z1), whose
    inner integral on a cell is [(alpha*z1 + beta) dT0 + c1 s2 dT1] divided
    by (1 - lo1) z1, with dT = T(lo / s2) - T(hi / s2) from f2's tails.
    """
    off = _offset(f1, f2)
    outer, panel, lo, hi, coef = _cells(f1, f2, off)
    starts, widths = outer[:-1], np.diff(outer)
    s2, lo1, lo2 = f2.scale, f1.shape.lo_slope, f2.shape.lo_slope
    if delta is None:
        # (p, q) of both bounds over s2; alpha, beta and c1 * s2 over (1 - lo1)
        ends_p, ends_q = (np.stack((lo, hi)).transpose(2, 0, 1) / s2)[..., None]
        alpha, beta, c1 = (coef * (1.0, 1.0, s2) / (1.0 - lo1)).T[..., None]

        def integrate(b1, g1, x, w):
            u = ends_p * b1 + ends_q
            (t0_lo, t0_hi), (t1_lo, t1_hi), (h1_lo, h1_hi) = f2.shape.tails(u)
            # below u = 1, dT1 times s2 / z1 would lose digits that the heads keep
            d0, d1 = t0_lo - t0_hi, np.where(u[1] < 1.0, h1_hi - h1_lo, t1_lo - t1_hi)
            return np.vdot(g1, alpha * d0 + (beta * d0 + c1 * d1) / b1)
    else:
        # (p, q) columns of the lower bound and width of each cell
        (lo_p, lo_q), (d_p, d_q) = lo.T[..., None], (hi - lo).T[..., None]

        def integrate(b1, g1, x, w):
            span = d_p * b1 + d_q
            z2 = (lo_p * b1 + lo_q)[..., None] + span[..., None] * x
            b1 = b1[..., None]
            degrees = delta(lo1 * b1, b1, lo2 * z2 + off, z2 + off)
            # inner weights (span / s2) * w, with w contracted last
            return np.vdot(g1 * span / s2, (degrees * f2.shape.density(z2 / s2)) @ w)

    def estimate(n):
        z1, w1 = _panel_nodes(starts, widths, n)
        x, w = nodes_and_weights(n, 0.0, 1.0)  # for partial inclusion too: the bench counts 2 per pass
        return float(integrate(z1[panel], _weights(f1, z1, w1)[panel], x, w))

    return _refine(estimate, cfg.points_per_axis, cfg)


def scalar_product(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> float:
    """Expected Jaccard overlap degree between the two focal families."""
    cfg = cfg or QuadratureConfig()
    value, _, _ = _pair_expectation(f1, f2, _jaccard, cfg)
    return value


def gram_distance(n1, n2, s):
    """Jousselme distance sqrt((n1 + n2 - 2 s) / 2) from the scalar products
    n1 = <f1,f1>, n2 = <f2,f2> and s = <f1,f2>, elementwise.  The radicand is
    clamped at zero so quadrature noise cannot give NaN for near-identical operands.
    """
    return np.sqrt(np.maximum(0.0, 0.5 * (n1 + n2 - 2.0 * s)))


def distance(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> float:
    """Jousselme distance between f1 and f2, from three scalar products."""
    cfg = cfg or QuadratureConfig()
    products = (scalar_product(f1, f1, cfg), scalar_product(f2, f2, cfg), scalar_product(f1, f2, cfg))
    return float(gram_distance(*products))


def inc_strict(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Degree to which f1 is strictly included in f2.

    Computed as integral m1(z1) [T2(L(z1)) - T2(Z2)]+ dz1 with T2 the
    closed-form tail mass of f2, Z2 its support bound (the mass beyond it is
    dropped, as in every pair measure) and L(z1) the smallest z2 whose focal
    contains I1(z1).  L is the larger of at most two kink lines, so the z1
    panels of ``_kinks`` keep the integrand smooth on each panel.
    """
    cfg = cfg or QuadratureConfig()
    off = _offset(f1, f2)
    _, outer = _kinks(f1, f2, off)
    lo1, lo2 = f1.shape.lo_slope, f2.shape.lo_slope
    beyond = f2.shape.tail(f2.support_bound / f2.scale)

    def estimate(n):
        z1, w1 = _panel_nodes(outer[:-1], np.diff(outer), n)
        a1 = lo1 * z1
        weight = _weights(f1, z1, w1)
        # I1 sits in I2(z2) iff lo2*z2 + off <= a1 and z1 <= z2 + off.
        needed = z1 - off
        if lo2 < 0.0:
            needed = np.maximum(needed, (a1 - off) / lo2)
        else:
            weight = np.where(off <= a1, weight, 0.0)
        return float(np.sum(weight * np.maximum(f2.tail_mass(needed) - beyond, 0.0)))

    return _inclusion(f1, f2, "strict", _refine(estimate, cfg.points_per_axis, cfg))


def inc_partial(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I1 covered by I2."""
    cfg = cfg or QuadratureConfig()
    return _inclusion(f1, f2, "partial", _pair_expectation(f1, f2, None, cfg))


def inc_partial_reversed(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I2 covered by I1 (overlap normalised by I2).

    Equals ``inc_partial(f2, f1)`` up to quadrature error; both orderings
    are kept because the degree arguments keep their operand roles.
    """
    cfg = cfg or QuadratureConfig()
    return _inclusion(f2, f1, "partial", _pair_expectation(f1, f2, delta_inc_partial_rev, cfg))


def _inc_avg(inclusion, i: int, fs, cfg) -> float:
    fs = list(fs)
    if len(fs) < 2:
        raise ValueError(f"need at least two densities to average over, got {len(fs)}")
    if not 0 <= i < len(fs):
        raise ValueError(f"index {i} out of range for {len(fs)} densities")
    return sum(inclusion(fs[i], g, cfg).value for j, g in enumerate(fs) if j != i) / (len(fs) - 1)


def inc_avg_strict(i: int, fs, cfg: QuadratureConfig | None = None) -> float:
    """Mean strict inclusion of fs[i] in the other members of fs."""
    return _inc_avg(inc_strict, i, fs, cfg)


def inc_avg_partial(i: int, fs, cfg: QuadratureConfig | None = None) -> float:
    """Mean partial inclusion of fs[i] in the other members of fs."""
    return _inc_avg(inc_partial, i, fs, cfg)


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
# atoms on the nesting curve.  Slower and fixed in resolution, used to
# cross-check the consonant routes.  The measures accept ``cfg`` only so that
# callers can pass the config they give the consonant measures.

def _focal_atoms(g: GenericBBD):
    """Discretise a generic density into weighted intervals (lo, hi, w)."""
    z, wz = nodes_and_weights(_CURVE_POINTS, 0.0, g.z_max)
    lo, hi = g.endpoints(z)
    w = wz * np.asarray(g.weight(z), dtype=float)
    return np.asarray(lo, float), np.asarray(hi, float), w


def generic_mass(g: GenericBBD) -> float:
    """Total mass of the discretised density (1 up to truncation error)."""
    _, _, w = _focal_atoms(g)
    return float(np.sum(w))


def _generic_expectation(g1: GenericBBD, g2: GenericBBD, delta) -> float:
    lo1, hi1, w1 = _focal_atoms(g1)
    lo2, hi2, w2 = _focal_atoms(g2)
    block = max(1, _BLOCK_ELEMS // max(1, lo2.size))
    total = 0.0
    for start in range(0, lo1.size, block):
        sl = slice(start, start + block)
        degrees = delta(lo1[sl, None], hi1[sl, None], lo2[None, :], hi2[None, :])
        total += float(w1[sl] @ degrees @ w2)
    return total


def scalar_product_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    return _generic_expectation(g1, g2, jaccard_delta)


def inc_strict_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    return _unit(_generic_expectation(g1, g2, delta_inc_strict))


def inc_partial_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    return _unit(_generic_expectation(g1, g2, delta_inc_partial))
