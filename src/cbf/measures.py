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
where a focal endpoint of one operand crosses one of the other.  The outer
z1 axis is cut where those lines cross each other or the edges of the
rectangle; the lines then cut each outer panel into cells, on which the
endpoint order is fixed.  This cell map is built once per pair.  Cells
where the focals are disjoint are dropped.  On the others the overlap is
one linear piece in z2, so both inclusions are closed-form on every cell:
the inner z2 integral is a difference of the second operand's tails
between the cell's sides, and the outer z1 integral of each side is a
difference of antiderivatives at the panel ends (Gaussian and exponential
moments, Owen's T for the one bivariate normal term).  On cells thin
against the second operand the two sides' tails would cancel; there the
z2 integral is taken on six Gauss-Legendre lines across the cell, each
again closed-form along z1.  Strict inclusion is the same walk kept to
the nested cells, where the overlap is all of I1 and the partial integrand
is the strict indicator.  The scalar product's Jaccard degree is a ratio of
two linear pieces on each cell, overlap / hull.  Where one focal holds the
other it is |I2| / |I1| or |I1| / |I2|, and the cell is closed-form as in
partial inclusion.  Where they straddle, the degree is smooth in the hull
and along its level lines, and one Gauss-Legendre rule in those two
directions takes the cell: the only rule any measure runs, refined by
``_refine``.

Each pair is validated once: the constructors make locations, scales and
supports finite and ``_offset`` checks the offset, so the hot loops run
unchecked unit-scale kernels.

The Monte Carlo and generic-representation paths below rebuild the same
quantities from raw interval operations and serve as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, starmap
from math import comb
from typing import NamedTuple

import numpy as np
from scipy.special import erfcx, ndtr, owens_t

from .consonant import ConsonantBBD, GenericBBD, _phi
# delta_inc_partial_rev is unused here but stays a name of this module: the
# benchmark tracer (perfbench/tracer.py) wraps it by name
from .intervals import delta_inc_partial, delta_inc_partial_rev, delta_inc_strict, jaccard_delta
from .quadrature import QuadratureConfig, _refine, _unit_nodes, inverse_cdf_table, nodes_and_weights

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
_BLOCK_ELEMS = 1 << 18
# Cap on points per block of the straddling-cell rule, which holds about ten
# float64 temporaries per point: a block peaks near 5 MB.
_RULE_BLOCK = 1 << 16
# Largest ratio between the ends of a piece of the straddling-cell rule.
_HULL_RATIO = 8.0
# Scale units past which the Maxwell and Gamma(2) kernels of the scalar
# product hold no mass in floats (x^2 phi(x) and x exp(-x) below 1e-18): its
# walk stops there, so that the rule's nodes stay where the mass is.
_REACH = {"phi": 10.0, "exp": 45.0}
# Gauss-Legendre nodes along a generic nesting curve: one panel, no kinks
# known, so the resolution is fixed rather than tied to the panel rule.
# 512 is where the curve oracle's strict inclusion happens to be accurate:
# against a dense reference it is off by 2.4e-4 at 256 nodes, 2.5e-7 at 512
# and 6.5e-5 at 1024, so other values break its 1e-5 cross-checks.
_CURVE_POINTS = 512


class QuadratureMeta(NamedTuple):
    points_per_axis: int
    est_error: float


_NO_RULE = QuadratureMeta(0, math.nan)


@dataclass(frozen=True)
class InclusionResult:
    """An inclusion degree together with how it was computed.

    value            degree in [0, 1]
    direction        (label of included operand, label of including operand)
    kind             "strict" or "partial"
    quadrature_meta  (0, nan): the closed forms use no nodes and form no
                     error estimate; they agree with an independent 2-D
                     quadrature within 1e-14 (see the README numerical notes)
    """

    value: float
    direction: tuple[str, str]
    kind: str
    quadrature_meta: QuadratureMeta


def _unit(value: float) -> float:
    """Clamp an inclusion estimate into [0, 1] against rounding."""
    return min(1.0, max(0.0, value))


def _offset(f1: ConsonantBBD, f2: ConsonantBBD) -> float:
    """Location offset f2 - f1, checked so that no focal endpoint overflows
    and no hull of two meeting focals (at most |off| + Z1 + Z2 long) does."""
    off = f2.location - f1.location
    if not math.isfinite(abs(off) + f1.support_bound + f2.support_bound):
        raise ValueError(f"location offset between {f1.label} and {f2.label} overflows the hull of their focals")
    return off


def _columns(rows, width: int):
    """The columns of a sequence of equal-length float tuples, as rows of one array."""
    return np.fromiter(chain.from_iterable(rows), float).reshape(-1, width).T


def _kinks(f1: ConsonantBBD, f2: ConsonantBBD, off: float):
    """Kink lines and outer breaks of a pair degree on [0, Z1] x [0, Z2].

    An endpoint s1*z1 of I1 meets an endpoint s2*z2 + off of I2 on the line
    z2 = (s1*z1 - off) / s2, or at z1 = off / s1 when s2 is 0.

    Returns the sorted (p, q) tuples of the lines z2 = p*z1 + q that enter
    (0, Z2), and the sorted z1 breaks: 0, Z1, the vertical crossings and
    every z1 where two lines cross each other, 0 or Z2.
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
    lines = sorted(lines)
    for i, (p, q) in enumerate(lines):
        if p:
            breaks.update((-q / p, (z2_max - q) / p))
        breaks.update((q2 - q) / (p - p2) for p2, q2 in lines[:i] if p2 != p)
    return lines, sorted(b for b in breaks if 0.0 <= b <= z1_max)


def _cells(f1: ConsonantBBD, f2: ConsonantBBD, off: float):
    """The cells of the outer panels of ``_kinks`` where the focals meet.

    No kink line crosses another, 0 or Z2 inside an outer panel, so its
    inner panels are cells with bounds z2 = p*z1 + q, read at the panel
    centre, and an order of a1, b1, a2, b2 that the cell centre gives.
    Disjoint cells are dropped: every degree carries an overlap factor.
    Returns the outer breaks and one tuple (panel, p_lo, q_lo, p_hi, q_hi,
    alpha, beta, c1) per cell: its panel, its lower and upper bounds and
    its overlap alpha*z1 + beta + c1*z2.
    """
    lines, breaks = _kinks(f1, f2, off)
    z2_max, lo1, lo2 = f2.support_bound, f1.shape.lo_slope, f2.shape.lo_slope
    cells = []
    for i, z1 in enumerate(0.5 * (z0 + z1) for z0, z1 in zip(breaks, breaks[1:])):
        a1 = lo1 * z1
        # (value, p, q) of the bounds: 0, the lines strictly inside (0, Z2) in
        # order, Z2; a line at or beyond 0 or Z2 only bounds empty cells there
        at = [(0.0, 0.0, 0.0), *sorted([(v, p, q) for p, q in lines if 0.0 < (v := p * z1 + q) < z2_max]),
              (z2_max, 0.0, z2_max)]
        for (v, pl, ql), (v_next, ph, qh) in zip(at, at[1:]):
            if v == v_next:  # an empty cell between lines that meet here
                continue
            z2 = 0.5 * (v + v_next)
            a2 = lo2 * z2 + off
            if z1 > a2 and z2 + off > a1:
                b1_in, a1_in = z1 <= z2 + off, a2 <= a1  # overlap = min(b1, b2) - max(a1, a2)
                cells.append((i, pl, ql, ph, qh, b1_in - lo1 * a1_in, off * (a1_in - b1_in),
                              (not b1_in) - lo2 * (not a1_in)))
    return breaks, cells


def scalar_product(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> float:
    """Expected Jaccard overlap degree between the two focal families.

    Closed-form on the nested cells of ``_cells`` and a Gauss-Legendre rule
    on the straddling ones (see ``_closed_form``).
    """
    return _closed_form(f1, f2, "scalar", cfg or QuadratureConfig())


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


# ---------------------------------------------------------------------------
# Closed-form inclusions.  In the unit variables t = z1 / s1 and u = z2 / s2 a
# cell side z2 = p z1 + q is the line u = a t + b (a = p s1 / s2, b = q / s2),
# and m1(z1) dz1 / z1 is k1(t) dt / s1 with k1 = g1(t) / t: 2 t phi(t) for the
# normal family, exp(-t) for the exponential one.  Every term is then an
# integral along a line of a polynomial in (t, u) times the kernels of the two
# shapes (phi or exp) or, from the normal tails, times Q(u) = 1 - Phi(u).

# Cells whose partial-inclusion multiplier c1 s2 / ((1 - lo1) s1) exceeds this
# are thin against f2: the two sides' tails nearly cancel there.
_THIN = 16.0
# A side steeper than this spans at most k / _STEEP of f1's unit axis, so its
# cell holds no mass in floats and is dropped.
_STEEP = 1e20
# Gauss-Legendre nodes across a thin cell: g2 is smooth over its u-width of
# at most 2 t / _THIN, where 6 nodes are exact to rounding.
_THIN_NODES = 6
_SQRT_HALF, _SQRT_HALF_PI, _SQRT_2PI = math.sqrt(0.5), math.sqrt(0.5 * math.pi), math.sqrt(2.0 * math.pi)


def _moments(c, sigma, n):
    """mu_l = integral over y > 0 of y^l exp(-c y - sigma y^2 / 2) for l <= n and c >= 0.

    Forward from the Mills ratio while c <= 6 sqrt(sigma); beyond, that
    recurrence cancels and the continued fraction mu_0 = 1 / (c + G_1),
    G_k = k sigma / (c + G_{k+1}) converges instead: in 40 levels at
    c = 6 sqrt(sigma), in fewer the larger c / sqrt(sigma) is.
    """
    root = np.sqrt(sigma)
    fwd = c <= 6.0 * root
    if fwd.any():
        mu, prev = [_SQRT_HALF_PI * erfcx(c / (root * math.sqrt(2.0))) / root], 1.0
        for l in range(n):
            mu.append((prev - c * mu[l]) / sigma)
            prev = (l + 1) * mu[l]
        if fwd.all():
            return mu
    x = np.min(c / root, where=~fwd, initial=np.inf)
    g, tail = 0.0, [0.0] * (n + 2)
    for k in range(min(40, 12 + int(2000.0 / x**2)), 0, -1):
        g = k * sigma / (c + g)
        if k <= n + 1:
            tail[k] = g
    frac = [1.0 / (c + tail[1])]
    for l in range(1, n + 1):
        frac.append(frac[-1] * l / (c + tail[l + 1]))
    return [np.where(fwd, f, g) for f, g in zip(mu, frac)] if fwd.any() else frac


# Kernel pairs: (k1(t) k2(u), c, sigma) along u = a t + b, where
# c = -(log k1 k2)' and sigma = c' is constant.
_DECAY = {
    ("phi", "phi"): lambda t, u, a: (_phi(t) * _phi(u), t + a * u, 1.0 + a * a),
    ("phi", "exp"): lambda t, u, a: (_phi(t) * np.exp(-u), t + a, 1.0),
    ("exp", "phi"): lambda t, u, a: (np.exp(-t) * _phi(u), 1.0 + a * u, a * a),
    ("exp", "exp"): lambda t, u, a: (np.exp(-t - u), 1.0 + a + 0.0 * t, 0.0),
}


def _along(pair, poly, t0, t1, a, b, tref):
    """Integral over [t0, t1] of k1(t) k2(u) sum poly[i, j] (t - tref)^i u^j, u = a t + b.

    The factor 2 t of k1 = 2 t phi(t) joins the polynomial.  The kernel
    product k left is log-concave along the line, so the interval is split
    at its mode t - c / sigma and each part is a difference of tails taken
    in the direction d away from the mode, where nothing cancels:
    k integral over y > 0 of P(t + d y, u + d a y) exp(-d c y - sigma y^2 / 2).
    """
    if pair[0] == "phi":  # 2 t = 2 (t - tref) + 2 tref
        grown = {}
        for (i, j), coef in poly.items():
            grown[i + 1, j] = grown.get((i + 1, j), 0.0) + 2.0 * coef
            grown[i, j] = grown.get((i, j), 0.0) + 2.0 * tref * coef
        poly = grown
    _, c, sigma = _DECAY[pair](t0, a * t0 + b, a)
    mode = np.clip(t0 - c / sigma, t0, t1)
    t = np.stack(np.broadcast_arrays(t0, mode, mode, t1))
    d = np.array([-1.0, -1.0, 1.0, 1.0]).reshape((4,) + (1,) * mode.ndim)
    u = a * t + b
    kern, c, sigma = _DECAY[pair](t, u, a)
    # a kernel without a mode only has zero-length parts there: any c will do
    c = np.where((d * c > 0.0) | (sigma != 0.0), np.maximum(d * c, 0.0), 1.0)
    n = max(i + j for i, j in poly)
    mu = _moments(c, sigma, n)
    tp, up, dt, du = [1.0], [1.0], [1.0], [1.0]
    for _ in range(n):
        tp.append(tp[-1] * (t - tref))
        up.append(up[-1] * u)
        dt.append(dt[-1] * d)
        du.append(du[-1] * d * a)
    total = 0.0
    for (i, j), coef in poly.items():
        for l1 in range(i + 1):
            for l2 in range(j + 1):
                total = total + comb(i, l1) * comb(j, l2) * coef * tp[i - l1] * up[j - l2] * dt[l1] * du[l2] * mu[l1 + l2]
    return np.sum(np.array([-1.0, 1.0, 1.0, -1.0]).reshape(d.shape) * kern * total, axis=0)


def _normal_side(a, b, kappa, beta, gamma, lin1, lin0, tail, sign):
    """Constants of one side of ``_sides`` for two normal operands, in floats.

    Beyond the Q(u) terms the integrand is 4 (e3 t^3 + e2 t^2 + e1 t + e0)
    phi(t) phi(u) = phi(b / c) phi(s) times that cubic, with c = hypot(1, a)
    and s = c (t - m), m = -a b / c^2.  Re-centred at m it integrates to
    -[Q(s) A + phi(s) (B0 + B1 s + B2 s^2)], A and B carrying phi(b / c) / c.
    The weights carry the side's sign.
    """
    e0, e1, e2, e3 = a * lin0, beta * b + 2.0 * gamma - a * lin1, kappa * b + beta * a, kappa * a + tail
    ic2 = 1.0 / (1.0 + a * a)
    ic = math.sqrt(ic2)
    m, bc = -a * b * ic2, b * ic
    e23 = e2 + 3.0 * m * e3
    pre = 4.0 * sign * ic * math.exp(-0.5 * bc * bc) / _SQRT_2PI
    per, lin1, lin0 = pre * ic / _SQRT_2PI, sign * lin1, sign * lin0
    return (a, b, 1.0 / ic, m, bc, pre * (m * (e1 + m * (e2 + m * e3)) + ic2 * e23 - e0),
            per * (e1 + m * (e2 + e23) + 2.0 * ic2 * e3), per * ic * e23, per * ic2 * e3,
            4.0 * lin1, 4.0 / _SQRT_2PI * lin1, 4.0 / _SQRT_2PI * lin0)


def _sides(pair, ends, sides) -> float:
    """Signed sum over sides of the integrals of
    k1(t) [(kappa t + beta) T0(u) + gamma S(u) + tail t^2 K(u)].

    ``sides`` holds (a, b, kappa, beta, gamma, lin1, lin0, tail, sign) per
    side u = a t + b and ``ends`` its panel's ends (t0, t1).  T0 is the tail
    of f2's shape, S(u) the integral over x > u of (x - u) g2(x) and K(u) the
    integral over x > u of g2(x) / x: (1 + u) e^-u, (2 + u) e^-u and e^-u for
    Gamma(2), 2 u phi(u) + 2 Q(u), 4 phi(u) - 2 u Q(u) and 2 phi(u) for
    Maxwell.  Their Q(u) terms, 2 (lin1 t + lin0) Q(u), are integrated by
    parts; with k1 = 2 t phi that leaves the bivariate normal probability
    integral phi(t) Q(a t + b) = T(t, u / t) + T(b / c, (t + a u) / b) + Phi(t) / 2
    with Owen's T, whose limit t -> 0 is taken at t = 1e-300 by the callers.
    Two normals run on Python floats with one ``owens_t`` call: on their ~14
    (side, end) entries numpy's per-call cost would outweigh the arithmetic.
    The Owen's T terms join Q(u) (1/2 - Q(t)) per end before the weight w4,
    else tiny strict inclusions lose digits (anchored in tests/test_panels.py).
    """
    if pair == ("phi", "phi"):
        terms, args = [], []
        for (a, b, c, m, bc, big_a, b0, b1, b2, w4, q1, q0), te in zip(starmap(_normal_side, sides), ends):
            for t in te:
                u = max(a * t + b, 0.0)
                ns, qu = (m - t) * c, 0.5 * math.erfc(u * _SQRT_HALF)  # ns = -s
                terms.append((w4, qu * (0.5 - 0.5 * math.erfc(t * _SQRT_HALF)),
                              math.exp(-0.5 * t * t) * qu * (q1 * t + q0), 0.5 * math.erfc(-ns * _SQRT_HALF) * big_a,
                              math.exp(-0.5 * ns * ns) * (b0 - ns * (b1 - ns * b2))))
                args += bc, t + a * u, b, u, t, u  # T(bc, (t + a u) / b), T(u, t / u)
        h, num, den = np.array(args).reshape(-1, 3).T  # numpy divides: b or u = 0 give inf or nan
        owen = owens_t(h, num / den).tolist()
        # T(t, u / t) + Phi(t) / 2 = 1/2 + Q(u) (1/2 - Q(t)) - T(u, t / u) keeps far tails small
        f = [w4 * (t1 - t2 + r) - x - y - z for (w4, r, x, y, z), t1, t2 in zip(terms, owen[::2], owen[1::2])]
        return sum(f[1::2]) - sum(f[::2])
    if not sides:
        return 0.0
    t, (a, b, kappa, beta, gamma, lin1, lin0, tail, sign) = _columns(ends, 2), _columns(sides, 9)
    if pair[1] == "exp":
        poly = {(1, 0): kappa, (1, 1): kappa, (0, 0): beta + 2.0 * gamma, (0, 1): beta + gamma}
    else:
        poly = {(1, 1): 2.0 * kappa, (0, 1): 2.0 * beta, (0, 0): 4.0 * gamma}
    if tail.any():
        poly[2, 0] = tail if pair[1] == "exp" else 2.0 * tail
    value = 0.0
    if pair[1] == "phi":  # k1 = exp(-t)
        f = -2.0 * np.exp(-t) * ndtr(-(a * t + b)) * (lin1 * (t + 1.0) + lin0)
        poly[1, 0], poly[0, 0] = -2.0 * a * lin1, poly[0, 0] - 2.0 * a * (lin1 + lin0)
        value = f[1] - f[0]
    return float(np.sum(sign * (value + _along(pair, poly, t[0], t[1], a, b, 0.0))))


def _straddling(f1: ConsonantBBD, f2: ConsonantBBD, cells):
    """The rule over the straddling cells, as a function of its nodes per piece.

    On such a cell the overlap alpha z1 + beta + c1 z2 and the hull
    h = gamma z1 - beta + c2 z2 are both linear (they sum to |I1| + |I2|),
    so the Jaccard degree is smooth along each level line of h and the
    cell is integrated in h and along those lines.  Each line is taken
    along the unit variable in which it is at most as steep as 1, where the
    kernels of both operands vary on a unit scale; within a piece between
    the cell's corner values of h each end of a line stays on one side of
    the cell and moves linearly in h.  n Gauss-Legendre nodes along each
    line and n across the hull values of each piece carry m1 m2 overlap and
    1 / h.  ``cells`` holds (z0, z1, p_lo, q_lo, p_hi, q_hi, alpha, beta, c1)
    per cell.
    """
    s, kernels = (f1.scale, f2.scale), (f1.shape.kernel, f2.shape.kernel)
    n1, n2, log_ratio = 1.0 - f1.shape.lo_slope, 1.0 - f2.shape.lo_slope, math.log(_HULL_RATIO)
    parts = ([], [])
    for z0, z1, pl, ql, ph, qh, alpha, beta, c1 in cells:
        hull, over = (n1 - alpha, n2 - c1), (alpha, c1)
        x = int(abs(hull[0]) * s[0] > abs(hull[1]) * s[1])
        y, hy, sx, sy = 1 - x, hull[1 - x], s[x], s[1 - x]
        slope = -hull[x] / hy
        # the sides e1 z1 + e2 z2 <= f, each a bound (f - e_y (h + beta) / hy) / k on z_x
        sides = []
        for e1, e2, f in ((-1.0, 0.0, -z0), (1.0, 0.0, z1), (pl, -1.0, -ql), (-ph, 1.0, qh)):
            ex, ey = (e1, e2) if x == 0 else (e2, e1)
            k = ex + ey * slope
            if k:  # a side parallel to the lines bounds no part of them
                sides.append((k, (f - ey * beta / hy) / k, -ey / (hy * k)))
        corners = sorted(hull[0] * z - beta + hull[1] * (p * z + q) for z in (z0, z1) for p, q in ((pl, ql), (ph, qh)))
        for h0, h1 in zip(corners, corners[1:]):
            if not h1 > h0:
                continue
            mid = 0.5 * (h0 + h1)
            lo = max((side for side in sides if side[0] < 0.0), key=lambda side: side[1] + side[2] * mid)
            hi = min((side for side in sides if side[0] > 0.0), key=lambda side: side[1] + side[2] * mid)
            # 1 / h has its pole at h = 0: parts spanning a ratio of at most _HULL_RATIO
            m = max(1, math.ceil(math.log(h1 / h0) / log_ratio - 1e-9)) if h0 > 0.0 else 1
            cuts = [h0 * (h1 / h0) ** (j / m) for j in range(m)] + [h1] if m > 1 else [h0, h1]
            # the overlap over |hull_y s_y| in the unit variables, ox x + o0 + oy y
            scale = 1.0 / abs(hy * sy)
            parts[x].extend((lo_h, hi_h - lo_h, lo[1] / sx, lo[2] / sx, hi[1] / sx, hi[2] / sx, beta / (hy * sy),
                             1.0 / (hy * sy), slope * sx / sy, scale * over[x] * sx, scale * beta,
                             scale * over[y] * sy) for lo_h, hi_h in zip(cuts, cuts[1:]))
    groups = [((kernels[x], kernels[1 - x]), [c[:, None, None] for c in _columns(rows, 12)])
              for x, rows in enumerate(parts) if rows]

    def rule(n):
        """The sum at n nodes per piece, in blocks of at most _RULE_BLOCK points."""
        nodes, weights = nodes_and_weights(n, 0.0, 1.0)
        total = 0.0
        for (px, py), (h0, dh, ul, vl, uh, vh, b0, b1, a, ox, o0, oy) in groups:
            # g_x(x) g_y(y) = c x^jx y^jy exp(-ex(x) - ey(y)): Maxwell 2 u^2 phi(u), Gamma(2) u e^-u
            jx, jy = 1 + (px == "phi"), 1 + (py == "phi")
            c = (2.0 / _SQRT_2PI) ** (px == "phi") * (2.0 / _SQRT_2PI) ** (py == "phi")
            step = max(1, _RULE_BLOCK // (h0.size * n))
            for j in range(0, n, step):
                h = h0 + dh * nodes[j:j + step, None]
                t0 = ul + vl * h
                width = np.maximum(uh + vh * h, t0) - t0
                t = t0 + width * nodes
                u = a * t + b0 + b1 * h
                f = np.exp(-(0.5 * t if jx == 2 else 1.0) * t - (0.5 * u if jy == 2 else 1.0) * u)
                f *= t**jx * u**jy * (ox * t + o0 + oy * u)
                total += c * float(np.sum(weights[j:j + step, None] * dh / h * width * (f @ weights)[..., None]))
        return total

    return rule


def _closed_form(f1: ConsonantBBD, f2: ConsonantBBD, kind: str, cfg: QuadratureConfig | None = None) -> float:
    """Strict or partial inclusion of f1 in f2, or their scalar product, from
    one walk of ``_cells``.

    On a met cell the overlap is lambda = alpha z1 + beta + c1 z2, so the
    inner integral of m2 lambda / |I1| is a difference between its sides
    z2 = p z1 + q of [lambda T0 + c1 s2 S] / |I1|, and each side adds one
    ``_sides``.  On thin cells the two sides cancel; there g2 is smooth
    across the cell and 6 Gauss-Legendre lines between the sides carry it.
    Strict inclusion keeps only the nested cells, (alpha, beta, c1) =
    (1 - lo1, 0, 0): there the overlap is all of I1, so lambda / |I1| is
    the strict indicator, 1.

    The Jaccard degree of the scalar product is lambda / hull.  Where I2
    sits in I1 the hull is |I1|, so those cells add as in partial
    inclusion.  Where I1 sits in I2 it is n1 z1 / (n2 z2), whose z2
    integral is the kernel tail K of f2 between the sides, so each side
    adds one ``_sides`` with tail = n1 s1 / (n2 s2); when that exceeds
    _THIN the cell is at most k / _THIN of f1's unit wide and its sides
    cancel, so it joins the straddling cells.  Those take the rule of
    ``_straddling``, refined by ``_refine`` from ``cfg.points_per_axis``
    nodes per piece.
    """
    off = _offset(f1, f2)
    if kind == "scalar":
        f1, f2 = (replace(f, support_bound=min(f.support_bound, _REACH[f.shape.kernel] * f.scale)) for f in (f1, f2))
    z, rows = _cells(f1, f2, off)
    s1, s2, n1, n2 = f1.scale, f2.scale, 1.0 - f1.shape.lo_slope, 1.0 - f2.shape.lo_slope
    pair, wide = (f1.shape.kernel, f2.shape.kernel), n1 * s1 / (n2 * s2)
    sides, ends, thin, shared, straddling = [], [], [], None, []
    t = [b / s1 for b in z]  # the panel ends in f1's unit
    for i, pl, ql, ph, qh, alpha, beta, c1 in rows:
        t0, t1, al, ah = t[i], t[i + 1], pl * s1 / s2, ph * s1 / s2
        # a panel ending below 1e-300, where the sides start, holds no mass in floats
        if not (max(t0, 1e-300) < t1 and abs(al) <= _STEEP and abs(ah) <= _STEEP):
            continue
        tail = 0.0
        if (alpha, beta, c1) == (n1, 0.0, 0.0):  # nested: I1 sits in I2
            if kind == "scalar":  # the Jaccard degree n1 z1 / (n2 z2): tail = n1 s1 / (n2 s2)
                if wide > _THIN:  # at most k / _THIN of f1's unit wide, the sides cancel: take the rule
                    straddling.append((z[i], z[i + 1], pl, ql, ph, qh, alpha, beta, c1))
                    continue
                alpha, tail = 0.0, wide
        elif kind == "strict":
            continue
        elif kind == "scalar" and (alpha, beta, c1) != (0.0, 0.0, n2):  # straddling: neither holds the other
            straddling.append((z[i], z[i + 1], pl, ql, ph, qh, alpha, beta, c1))
            continue
        # per side: a, b and lambda / (s1 n1) = kappa t + lam0
        gamma = c1 * s2 / s1 / n1
        kl, ll, lin1, lin0 = (alpha + c1 * pl) / n1, (beta + c1 * ql) / s1 / n1, alpha / n1, beta / s1 / n1
        if abs(gamma) <= _THIN:
            if shared == (i, pl, ql):  # the last side is this line as the upper side of the cell below
                _, _, k, l, g, m1, m0, tl, _ = sides[-1]
                sides[-1] = (al, ql / s2, kl - k, ll - l, gamma - g, lin1 - m1, lin0 - m0, tail - tl, 1.0)
            else:
                sides.append((al, ql / s2, kl, ll, gamma, lin1, lin0, tail, 1.0))
                ends.append((max(t0, 1e-300), t1))
            sides.append((ah, qh / s2, (alpha + c1 * ph) / n1, (beta + c1 * qh) / s1 / n1, gamma, lin1, lin0, tail,
                          -1.0))
            ends.append(ends[-1])
            shared = (i, ph, qh)
        else:  # cell width(t) = d0 + da (t - t0) in units of s2; gamma width = g0 + gda (t - t0)
            width = (ph - pl) * z[i] + qh - ql
            thin.append((t0, t1, al, ql / s2, ah - al, (qh - ql) / s2, kl, kl * t0 + ll, width / s2,
                         c1 * width / s1 / n1, c1 * (ph - pl) / n1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = _sides(pair, ends, sides)
        if thin:  # the 6 lines between the sides of each thin cell, stacked in rows
            t0, t1, a, b, da, db, kl, e0, d0, g0, gda = _columns(thin, 11)
            theta, w = (x[:, None] for x in _unit_nodes(_THIN_NODES))
            # k1(t) w width(t) (lambda_lower / (s1 n1) + theta gamma width(t)) g2(u_theta)
            lam, lam_t = e0 + theta * g0, kl + theta * gda
            poly = {(0, 1): w * d0 * lam, (1, 1): w * (da * lam + d0 * lam_t), (2, 1): w * da * lam_t}
            if pair[1] == "phi":  # g2 = 2 u^2 phi(u)
                poly = {(i, 2): 2.0 * coef for (i, _), coef in poly.items()}
            value += float(np.sum(_along(pair, poly, t0, t1, a + theta * da, b + theta * db, t0)))
        if straddling:
            rule = _straddling(f1, f2, straddling)
            value, _, _ = _refine(lambda n: value + rule(n), cfg.points_per_axis, cfg)
    if not math.isfinite(value):
        raise ValueError(f"closed-form {kind} of {f1.label} and {f2.label}: estimate is {value}")
    return value


def inc_strict(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Degree to which f1 is strictly included in f2, in closed form.

    The integral of m1 m2 over the nested cells of ``_cells``, where the
    overlap is all of I1 and so I1 sits in I2: the walk of ``inc_partial``
    kept to those cells (see ``_closed_form``).  The mass of f2 beyond its
    support bound Z2 is dropped, as in every pair measure.  ``cfg`` is
    accepted for a uniform signature; no rule is involved.
    """
    return InclusionResult(_unit(_closed_form(f1, f2, "strict")), (f1.label, f2.label), "strict", _NO_RULE)


def inc_partial(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I1 covered by I2, in closed form.

    Every met cell of ``_cells`` adds its share (see ``_closed_form``).
    ``cfg`` is accepted for a uniform signature; no outer rule is involved.
    """
    return InclusionResult(_unit(_closed_form(f1, f2, "partial")), (f1.label, f2.label), "partial", _NO_RULE)


def inc_partial_reversed(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I2 covered by I1: ``inc_partial(f2, f1)``, direction (f2, f1)."""
    _offset(f1, f2)  # errors name the operands in the caller's order
    return inc_partial(f2, f1, cfg)


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


def nesting_pair_sampler(f1: ConsonantBBD, f2: ConsonantBBD):
    """Independent sampler of (z1, z2) for ``mc_estimate``.

    Each marginal is drawn by inverse CDF from the tabulated nesting
    density, truncated at the operand's support bound.
    """
    inv1 = inverse_cdf_table(f1.density, f1.support_bound)
    inv2 = inverse_cdf_table(f2.density, f2.support_bound)

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
