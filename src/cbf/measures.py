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

Both inclusions are one expectation over f2's nesting variable of a set
function of f1 at I2: its belief for strict inclusion, its pignistic
probability for partial inclusion, each a sum of one-dimensional closed
forms at every scale ratio (``_inclusion``).

The scalar product walks a cell map (``_cells``): the lines where a focal
endpoint of one operand crosses one of the other cut the rectangle into
cells with a fixed endpoint order.  Where one focal holds the other the
degree is closed-form on a cell (``_closed_form``); where the focals
straddle or the two sides' tails would cancel, one Gauss-Legendre rule in
the hull and along its level lines takes the cell: the only rule any
measure runs, refined by ``_refine``.

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

from . import _special
from .consonant import ConsonantBBD, GenericBBD, _phi
# delta_inc_partial_rev is unused here but stays a name of this module: the
# benchmark tracer (perfbench/tracer.py) wraps it by name
from .intervals import delta_inc_partial, delta_inc_partial_rev, delta_inc_strict, jaccard_delta
from .quadrature import QuadratureConfig, _refine, nodes_and_weights

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

# Cap on points per block of the rule of ``_straddling``, which holds about
# ten float64 temporaries per point: a block peaks near 5 MB.
_RULE_BLOCK = 1 << 16
_HULL_RATIO = 8.0  # largest ratio of the hull's values at the ends of a piece of that rule
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
    quadrature_meta  always (0, nan): no inclusion runs a rule.  The value
                     agrees with an independent 2-D quadrature within 1e-14
                     (see the README numerical notes)
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
    on the straddling and thin ones (see ``_closed_form``).
    """
    return _closed_form(f1, f2, cfg or QuadratureConfig())


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
# Closed forms.  In unit variables t and u, a line in the nesting parameters
# is a line u = a t + b, and m(z) dz / z is k(t) dt / s with k = g(t) / t:
# 2 t phi(t) for the normal family, exp(-t) for the exponential one.  Every
# term is then an integral along a line of a polynomial in (t, u) times the
# kernels of the two shapes (phi or exp) or, from the normal tails, times
# Q(u) = 1 - Phi(u).

# Cells of the scalar product whose multiplier c1 s2 / ((1 - lo1) s1), or
# whose nested tail, exceeds this are thin against f2: the two sides' tails
# nearly cancel there, so the rule of ``_straddling`` takes them.
_THIN = 16.0
# A side steeper than this spans at most k / _STEEP of the other unit axis,
# and a ruled cell narrower than s2 / _STEEP in z2 at most k / _STEEP of
# f2's, so either holds no mass in floats and is dropped.
_STEEP = 1e20
_SQRT_HALF, _SQRT_HALF_PI, _SQRT_2PI = math.sqrt(0.5), math.sqrt(0.5 * math.pi), math.sqrt(2.0 * math.pi)


def _moments(c, sigma, n):
    """mu_l = integral over y > 0 of y^l exp(-c y - sigma y^2 / 2) for l <= n and c >= 0.

    Forward from the Mills ratio while c <= 6 sqrt(sigma); beyond, that
    recurrence cancels and the continued fraction mu_0 = 1 / (c + G_1),
    G_k = k sigma / (c + G_{k+1}) converges instead: in 40 levels at
    c = 6 sqrt(sigma), in fewer the larger c / sqrt(sigma) is, each element
    from its own level, so that no element depends on the others.
    """
    root = np.sqrt(sigma)
    fwd = c <= 6.0 * root
    if fwd.any():
        mu, prev = [_SQRT_HALF_PI * _special.erfcx(c / (root * math.sqrt(2.0))) / root], 1.0
        for l in range(n):
            mu.append((prev - c * mu[l]) / sigma)
            prev = (l + 1) * mu[l]
        if fwd.all():
            return mu
    levels = np.where(fwd, 40.0, np.minimum(40.0, 12.0 + 2000.0 * sigma / c**2))
    g, tail, low = 0.0, [0.0] * (n + 2), levels.min()
    for k in range(int(levels.max()), 0, -1):
        g = k * sigma / (c + g) if k <= low else np.where(k <= levels, k * sigma / (c + g), 0.0)
        if k <= n + 1:
            tail[k] = g
    frac = [1.0 / (c + tail[1])]
    for l in range(1, n + 1):
        frac.append(frac[-1] * l / (c + tail[l + 1]))
    return [np.where(fwd, f, g) for f, g in zip(mu, frac)] if fwd.any() else frac


# Kernel pairs: (k1(t) k2(u), c, sigma) along u = a t + b, where
# c = -(log k1 k2)' and sigma = c' is constant.
_DECAY = {
    ("phi", "exp"): lambda t, u, a: (_phi(t) * np.exp(-u), t + a, 1.0),
    ("exp", "phi"): lambda t, u, a: (np.exp(-t) * _phi(u), 1.0 + a * u, a * a),
    ("exp", "exp"): lambda t, u, a: (np.exp(-t - u), 1.0 + a + 0.0 * t, 0.0),
}


def _along(pair, poly, t0, t1, u0, u1, a):
    """Integral over [t0, t1] of k1(t) k2(u) sum poly[i, j] t^i u^j along
    the line u = a t + b through (t0, u0) and (t1, u1).

    The factor 2 t of k1 = 2 t phi(t) joins the polynomial.  The kernel
    product k left is log-concave along the line, so the interval is split
    at its mode t - c / sigma and each part is a difference of tails taken
    in the direction d away from the mode, where nothing cancels:
    k integral over y > 0 of P(t + d y, u + d a y) exp(-d c y - sigma y^2 / 2).
    Each point's u moves from u0 with its t, never from b: on a steep line
    a t + b would lose a t times the rounding of t.
    """
    if pair[0] == "phi":
        poly = {(i + 1, j): 2.0 * coef for (i, j), coef in poly.items()}
    _, c, sigma = _DECAY[pair](t0, u0, a)
    step = np.clip(-c / sigma, 0.0, t1 - t0)  # from t0 to the mode
    mode = np.where(step < t1 - t0, u0 + a * step, u1)
    t = np.stack(np.broadcast_arrays(t0, t0 + step, t0 + step, t1))
    u = np.stack(np.broadcast_arrays(u0, mode, mode, u1))
    d = np.array([-1.0, -1.0, 1.0, 1.0]).reshape((4,) + (1,) * step.ndim)
    kern, c, sigma = _DECAY[pair](t, u, a)
    # a kernel without a mode only has zero-length parts there: any c will do
    c = np.where((d * c > 0.0) | (sigma != 0.0), np.maximum(d * c, 0.0), 1.0)
    n = max(i + j for i, j in poly)
    mu = _moments(c, sigma, n)
    tp, up, dt, du = [1.0], [1.0], [1.0], [1.0]
    for _ in range(n):
        tp.append(tp[-1] * t)
        up.append(up[-1] * u)
        dt.append(dt[-1] * d)
        du.append(du[-1] * d * a)
    total = 0.0
    for (i, j), coef in poly.items():
        for l1 in range(i + 1):
            for l2 in range(j + 1):
                total = total + comb(i, l1) * comb(j, l2) * coef * tp[i - l1] * up[j - l2] * dt[l1] * du[l2] * mu[l1 + l2]
    return np.sum(np.array([-1.0, 1.0, 1.0, -1.0]).reshape(d.shape) * kern * total, axis=0)


def _normal_side(a, b, kappa, beta, gamma, omega, tail, sign):
    """Constants of one side of ``_sides`` for two normal operands, in floats.

    Beyond the Q(u) terms the integrand is 4 (e3 t^3 + e2 t^2 + e1 t + e0)
    phi(t) phi(u) = phi(b / c) phi(s) times that cubic, with c = hypot(1, a)
    and s = c (t - m), m = -a b / c^2.  Re-centred at m it integrates to
    -[Q(s) A + phi(s) (B0 + B1 s + B2 s^2)], A and B carrying phi(b / c) / c.
    The weights carry the side's sign.
    """
    lin1, lin0 = kappa - gamma * a + 0.5 * omega, beta - gamma * b  # the Q(u) terms are 2 (lin1 t + lin0) Q(u)
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


def _sides(pair, ends, sides) -> list:
    """The signed integrals, one per side, of
    k1(t) [(kappa t + beta) T0(u) + gamma S(u) + tail t^2 K(u) + omega t W(u)].

    ``sides`` holds (a, b, kappa, beta, gamma, omega, tail, sign) per side
    u = a t + b and ``ends`` its panel's ends (t0, t1).  T0 is the tail of
    the second shape, S(u) the integral over x > u of (x - u) g2(x), K(u)
    the integral over x > u of g2(x) / x and W(u) that of its pignistic
    tail: (1 + u) e^-u, (2 + u) e^-u, e^-u and e^-u for Gamma(2), 2 u phi(u)
    + 2 Q(u), 4 phi(u) - 2 u Q(u), 2 phi(u) and Q(u) for Maxwell.  Their
    Q(u) terms, 2 (lin1 t + lin0) Q(u), are integrated by parts; with k1 =
    2 t phi that leaves the bivariate normal probability integral phi(t)
    Q(a t + b) = T(t, u / t) + T(b / c, (t + a u) / b) + Phi(t) / 2 with
    Owen's T, whose limit t -> 0 is taken at t = 1e-300 by the callers.
    Two normals run on Python floats with one ``owens_t`` call, and each end
    reads its Owen's T terms in a form that stays small in far tails, else
    tiny inclusions lose digits (anchored in tests/test_panels.py).
    """
    if pair == ("phi", "phi"):
        hs, xs, points, terms = [], [], {}, []  # a point (a, b, t) shared by sides is read once
        for (a, b, c, m, bc, big_a, b0, b1, b2, w4, q1, q0), te in zip(starmap(_normal_side, sides), ends):
            sb, ab, qb = math.copysign(1.0, b), abs(b), 0.5 * math.erfc(abs(bc) * _SQRT_HALF)
            for t in te:
                p = points.get((a, b, t))
                if p is None:
                    key, u = (a, b, t), a * t + b
                    u = u if u > 0.0 else 0.0
                    # on a steep side u leads, and t and s = c (t - m) follow from it
                    t, ns = ((u - b) / a, (b / c / c - u) * c / a) if abs(a) > 1.0 else (t, (m - t) * c)
                    g, qu, qt = t + a * u, 0.5 * math.erfc(u * _SQRT_HALF), 0.5 * math.erfc(t * _SQRT_HALF)
                    # T(bc, g / b) less its limit sb Q(|bc|) / 2 at t -> inf, and T(t, u / t) - Q(t) / 2,
                    # are sb [Q(g / c) (1/2 - Q(|bc|)) - T(g / c, |b| / g)] where g > |b| and Q(u) (1/2 -
                    # Q(t)) - T(u, t / u) where u >= t: small in far tails.  b = 0 gives g > 0 (ns = -s)
                    if g > ab:
                        h1, x1, r, s1 = g / c, ab / g, sb * 0.5 * math.erfc(g / c * _SQRT_HALF) * (0.5 - qb), -sb
                    else:
                        h1, x1, r, s1 = bc, g / b, -0.5 * sb * qb, 1.0
                    if u >= t:
                        h2, x2, r, s2 = u, t / u, r + qu * (0.5 - qt), -1.0
                    else:
                        h2, x2, r, s2 = t, u / t, r - 0.5 * qt, 1.0
                    p = points[key] = (len(hs), s1, s2, r, t, math.exp(-0.5 * t * t) * qu, ns,
                                       0.5 * math.erfc(-ns * _SQRT_HALF), math.exp(-0.5 * ns * ns))
                    hs += h1, h2
                    xs += x1, x2
                i, s1, s2, r, t, eq, ns, qs, es = p
                terms.append((i, w4, s1, s2, r, eq * (q1 * t + q0), qs * big_a, es * (b0 - ns * (b1 - ns * b2))))
        owen = _special.owens_t(hs, xs).tolist()
        f = [w4 * (s1 * owen[i] + s2 * owen[i + 1] + r) - x - y - z for i, w4, s1, s2, r, x, y, z in terms]
        return [x1 - x0 for x0, x1 in zip(f[::2], f[1::2])]
    if not sides:
        return []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # far tails are 0 in floats
        t, (a, b, kappa, beta, gamma, omega, tail, sign) = _columns(ends, 2), _columns(sides, 8)
        u = a * t + b
        t = np.where(np.abs(a) > 1.0, (u - b) / a, t)  # on a steep side u leads and t follows
        if pair[1] == "exp":
            poly = {(1, 0): kappa + omega, (1, 1): kappa, (0, 0): beta + 2.0 * gamma, (0, 1): beta + gamma}
        else:
            poly = {(1, 1): 2.0 * kappa, (0, 1): 2.0 * beta, (0, 0): 4.0 * gamma}
        if tail.any():
            poly[2, 0] = tail if pair[1] == "exp" else 2.0 * tail
        value = 0.0
        if pair[1] == "phi":  # k1 = exp(-t)
            lin1, lin0 = kappa - gamma * a + 0.5 * omega, beta - gamma * b
            f = -2.0 * np.exp(-t) * _special.ndtr(-u) * (lin1 * (t + 1.0) + lin0)
            poly[1, 0], poly[0, 0] = -2.0 * a * lin1, poly[0, 0] - 2.0 * a * (lin1 + lin0)
            value = f[1] - f[0]
        return (sign * (value + _along(pair, poly, t[0], t[1], u[0], u[1], a))).tolist()


def _straddling(f1: ConsonantBBD, f2: ConsonantBBD, cells):
    """The scalar product's rule over the cells its closed forms cannot
    take, as a function of its nodes per piece.

    On a cell the overlap alpha z1 + beta + c1 z2 and the hull h = d1 z1 +
    d2 z2 + d0 of the Jaccard degree are both linear, so the degree is
    smooth along each level line of h and the cell is integrated in h and
    along those lines, each in the unit variable in which it is at most as
    steep as 1; within a piece between the cell's corner values of h each
    end of a line stays on one side of the cell and moves linearly in h.
    n Gauss-Legendre nodes across each piece and n along each line carry
    m1 m2 overlap and 1 / h.  ``cells`` holds (z0, z1, p_lo, q_lo, p_hi,
    q_hi, alpha, beta, c1) per cell.
    """
    s, kernels = (f1.scale, f2.scale), (f1.shape.kernel, f2.shape.kernel)
    n1, n2, log_ratio = 1.0 - f1.shape.lo_slope, 1.0 - f2.shape.lo_slope, math.log(_HULL_RATIO)
    parts = ([], [])
    for z0, z1, pl, ql, ph, qh, alpha, beta, c1 in cells:
        d1, d2, d0 = n1 - alpha, n2 - c1, -beta
        den, over = (d1, d2), (alpha, c1)
        x = int(abs(den[0]) * s[0] > abs(den[1]) * s[1])
        y, hy, sx, sy = 1 - x, den[1 - x], s[x], s[1 - x]
        slope = -den[x] / hy
        # the sides e1 z1 + e2 z2 <= f, each a bound (f + e_y d0 / hy - e_y h / hy) / k on z_x
        sides = []
        for e1, e2, f in ((-1.0, 0.0, -z0), (1.0, 0.0, z1), (pl, -1.0, -ql), (-ph, 1.0, qh)):
            ex, ey = (e1, e2) if x == 0 else (e2, e1)
            k = ex + ey * slope
            if k:  # a side parallel to the lines bounds no part of them
                sides.append((k, (f + ey * d0 / hy) / k, -ey / (hy * k)))
        corners = sorted(d1 * z + d0 + d2 * (p * z + q) for z in (z0, z1) for p, q in ((pl, ql), (ph, qh)))
        for h0, h1 in zip(corners, corners[1:]):
            if not h1 > h0:
                continue
            mid = 0.5 * (h0 + h1)
            lo = max((side for side in sides if side[0] < 0.0), key=lambda side: side[1] + side[2] * mid)
            hi = min((side for side in sides if side[0] > 0.0), key=lambda side: side[1] + side[2] * mid)
            # 1 / h has its pole at h = 0: parts spanning a ratio of at most _HULL_RATIO
            m = max(1, math.ceil(math.log(h1 / h0) / log_ratio - 1e-9)) if 0.0 < h0 and h1 / h0 < math.inf else 1
            cuts = [h0 * (h1 / h0) ** (j / m) for j in range(m)] + [h1] if m > 1 else [h0, h1]
            # the overlap over |hy s_y| in the unit variables, ox x + o0 + oy y
            scale = 1.0 / abs(hy * sy)
            parts[x].extend((lo_h, hi_h - lo_h, lo[1] / sx, lo[2] / sx, hi[1] / sx, hi[2] / sx, -d0 / (hy * sy),
                             1.0 / (hy * sy), slope * sx / sy, scale * over[x] * sx, scale * beta,
                             scale * over[y] * sy) for lo_h, hi_h in zip(cuts, cuts[1:]))
    groups = [((kernels[x], kernels[1 - x]), [c[:, None, None] for c in _columns(rows, 12)])
              for x, rows in enumerate(parts) if rows]

    def rule(n):
        """The sum at n nodes per piece, in blocks of at most _RULE_BLOCK points."""
        # one request per axis and pass, across h and along the lines: the
        # benchmark tracer (perfbench/tracer.py) counts passes as requests / 2
        h_nodes, h_weights = nodes_and_weights(n, 0.0, 1.0)
        nodes, weights = nodes_and_weights(n, 0.0, 1.0)
        total = 0.0
        for (px, py), (h0, dh, ul, vl, uh, vh, b0, b1, a, ox, o0, oy) in groups:
            # g_x(x) g_y(y) = c x^jx y^jy exp(-ex(x) - ey(y)): Maxwell 2 u^2 phi(u), Gamma(2) u e^-u
            jx, jy = 1 + (px == "phi"), 1 + (py == "phi")
            c = (2.0 / _SQRT_2PI) ** (px == "phi") * (2.0 / _SQRT_2PI) ** (py == "phi")
            step = max(1, _RULE_BLOCK // (h0.size * n))
            for j in range(0, n, step):
                h = h0 + dh * h_nodes[j:j + step, None]
                t0 = ul + vl * h
                width = np.maximum(uh + vh * h, t0) - t0
                t = t0 + width * nodes
                u = a * t + b0 + b1 * h
                f = np.exp(-(0.5 * t if jx == 2 else 1.0) * t - (0.5 * u if jy == 2 else 1.0) * u)
                f *= t**jx * u**jy * (ox * t + o0 + oy * u)
                total += c * float(np.sum(h_weights[j:j + step, None] * dh / h * width * (f @ weights)[..., None]))
        return total

    return rule


def _within_reach(f: ConsonantBBD) -> ConsonantBBD:
    reach = f.shape.reach * f.scale
    return f if f.support_bound <= reach else replace(f, support_bound=reach)


def _tails(kernel: str, u: float):
    """(T, P, W, M) at u >= 0 in floats: the mass tail, the pignistic
    density, the pignistic tail (the integral of P from u) and the first
    moment tail (of x g(x) from u) of a unit shape."""
    if kernel == "phi":
        p, w = math.exp(-0.5 * u * u) / _SQRT_2PI, 0.5 * math.erfc(u * _SQRT_HALF)
        return 2.0 * (u * p + w), p, w, (2.0 * u * u + 4.0) * p
    e = math.exp(-u)
    return (1.0 + u) * e, e, e, (u * u + 2.0 * u + 2.0) * e


def _ramp(kernel: str, u0: float, w: float, tails: float) -> float:
    """The integral over 0 < x < w of x g(u0 + x), g a unit nesting density,
    to its last digits however small w is, given ``tails``, the same as a
    difference of tails: e^-u0 (u0 P(2, w) + 2 P(3, w)) for Gamma(2), P the
    regularised incomplete gamma; for Maxwell a power series in x of
    2 phi(u0) x (u0 + x)^2 exp(-u0 x - x^2 / 2) while w (u0 + w) <= 1,
    beyond which the tails lie too far apart to cancel.
    """
    if kernel == "exp":
        return math.exp(-u0) * float(u0 * _special.gammainc(2.0, w) + 2.0 * _special.gammainc(3.0, w))
    if w * (u0 + w) > 1.0:
        return tails
    # exp(-u0 x - x^2 / 2) = sum c_k x^k with (k + 1) c_{k+1} = -u0 c_k - c_{k-1}
    total, last, prev, c, wk = 0.0, 0.0, 0.0, 1.0, w * w
    for k in range(32):
        term = c * wk * (u0 * u0 / (k + 2) + w * (2.0 * u0 / (k + 3) + w / (k + 4)))
        total += term
        if abs(term) + abs(last) <= 1e-17 * total:  # c_k can vanish for one k: u0 = 0 has no odd terms
            break
        last, prev, c, wk = term, c, -(u0 * c + prev) / (k + 1), wk * w
    return 2.0 / _SQRT_2PI * math.exp(-0.5 * u0 * u0) * total


# A normal f1 whose focals an exponential f2's fixed end caps at r <= top
# takes ``_near_end`` while top <= _NEAR_END, where ten terms of its series
# in r^2 / 2 <= 1 / 32 reach 1e-22.
_NEAR_END = 0.25
_FACT = np.cumprod(np.r_[1.0, np.arange(1.0, 23.0)])  # n! for n <= 22


def _near_end(beta: float, rho: float, a: float, t_max: float) -> float:
    """Strict inclusion of a normal f1 whose location lies beta inside an
    exponential f2's fixed end, in f1's variable: the integral over
    0 < r < rho of g1(r) (T2((r + beta) / a) - T2(u_max)), g1 = 2 r^2 phi(r),
    to its last digits however small beta is, where Bel1 = 1 - T1 would keep
    an absolute floor of 1e-16.  With e^(-r^2 / 2) as its series, r = rho v
    and T2(u) = (1 + u) e^-u, u = y + x v runs over [beta, beta + rho] / a.
    While u <= 1 the deficit 1 - T2(u) = sum_m>=2 (-1)^m (m - 1) u^m / m!
    is summed apart from the whole mass, so that the value cannot fall as a
    grows, over G(n, m) = int_0^1 v^n u^m dv = x G(n + 1, m - 1) + y G(n, m - 1);
    beyond, E_n(x) = int_0^1 v^n e^(-x v) dv = n! P(n + 1, x) / x^(n+1), P the
    regularised incomplete gamma, or its own series in -x while x <= 1.
    """
    if rho <= 0.0:
        return 0.0
    x, y, j = rho / a, beta / a, np.arange(10.0)
    c = (-0.5 * rho * rho) ** j / _FACT[:10]  # e^(-r^2 / 2) = sum c_j r^2j; r^n for n = 2j + 2 and 2j + 3
    if x + y <= 1.0:
        g, deficit = 1.0 / np.arange(3.0, 46.0), 0.0
        for m in range(1, 23):
            g = x * g[1:] + y * g[:-1]
            deficit = deficit + (-1.0) ** m * (m - 1) / _FACT[m] * g[:19:2]
        value = float(c @ ((1.0 - t_max) / (2.0 * j + 3.0))) - float(c @ deficit)
    else:
        n = np.arange(2.0, 23.0)
        if x > 1.0:
            e = _FACT[2:] * _special.gammainc(n + 1.0, x) / x ** (n + 1.0)
        else:
            k = np.arange(21.0)
            e = ((-x) ** k / _FACT[:21] / (n[:, None] + k + 1.0)).sum(axis=1)
        value = float(c @ (math.exp(-y) * ((1.0 + y) * e[:-1:2] + x * e[1::2]) - t_max / (2.0 * j + 3.0)))
    return math.sqrt(2.0 / math.pi) * rho ** 3 * value


def _inclusion(f1: ConsonantBBD, f2: ConsonantBBD, kind: str) -> float:
    """Strict or partial inclusion of f1 in f2: by Fubini the mean over z2
    of Bel1(I2(z2)), the mass of f1's focals inside I2, or of BetP1(I2(z2)),
    f1's pignistic probability of I2, which absorbs the degree's 1 / |I1|.

    In u = z2 / s2 each end of I2 is a line y = b + sl u in f1's unit about
    its location.  Bel1 is 1 - T1(r) once mu1 is in I2, r = c + a u the
    distance to the nearer end, up to r = K1 = Z1 / s1.  BetP1 is C1 at the
    upper end less C1 at the lower one, f1's truncated pignistic CDF C1
    being R(-y) left of mu1 and 1 - T1(K1) - R(y) right of it, with
    R(y) = W1(y) - W1(K1) - P1(K1) (K1 - y) the pignistic mass beyond y.
    Against m2 each T1 or W1 is a side of ``_sides``, each constant a
    difference of T2 and each line a ``_ramp``, all bounded by probabilities
    at any scale ratio; a normal f1 just inside an exponential f2's fixed
    end takes ``_near_end`` instead.  BetP1 >= Bel1 on every set, so where
    rounding would put partial inclusion below strict inclusion it takes the
    strict value.
    """
    off = _offset(f1, f2)
    f1, f2 = _within_reach(f1), _within_reach(f2)
    k1, k2, lo1, lo2 = f1.shape.kernel, f2.shape.kernel, f1.shape.lo_slope, f2.shape.lo_slope
    big_k, u_max, a, b = f1.support_bound / f1.scale, f2.support_bound / f2.scale, f2.scale / f1.scale, off / f1.scale
    t_k, p_k, w_k, _ = _tails(k1, big_k)
    tot, edge = 1.0 - t_k, w_k + p_k * big_k  # R(y) = W1(y) - edge + P1(K1) y
    # strict: from r_in on, mu1 is in I2; an exponential f2's fixed end caps r at -b
    c, r_in = -abs(b) if lo1 and lo2 else b, b + abs(b) if lo2 and not lo1 else 0.0
    top = min(big_k, -b) if lo1 and not lo2 else big_k
    near = (min(max((r_in - c) / a, 0.0), u_max), min(max((top - c) / a, 0.0), u_max)) if a and (lo2 or b <= 0.0) \
        else ()
    # partial: C1 at the upper end less C1 at the lower one, where each crosses -K1 (or 0), 0 and K1, an
    # exponential f2's fixed lower end at +inf above it
    cross, points = [], {0.0, u_max, *near}
    for sign, sl in ((1.0, a), (-1.0, lo2 * a if lo2 else 0.0)) if kind == "partial" else ():
        if sl:
            us = min(max((lo1 * big_k - b) / sl, 0.0), u_max), min(max(-b / sl, 0.0), u_max), \
                min(max((big_k - b) / sl, 0.0), u_max)
        else:
            us = u_max * (lo1 * big_k > b), u_max * (0.0 > b), u_max * (big_k > b)
        cross.append((sign, sl, us))
        points.update(us)
    tail2 = {u: _tails(k2, u) for u in points}
    strict, sides, ends = 0.0, [], []
    if near and lo1 and not lo2 and top <= _NEAR_END:
        strict = _near_end(-b, min(top, a * u_max + b), a, tail2[u_max][0])
    elif near:
        u_in, u_top = near
        if max(u_in, 1e-300) < u_top and a <= _STEEP:
            strict = tail2[u_in][0] - tail2[u_top][0]
            sides.append((a, c, 1.0, 0.0, 0.0, 0.0, 0.0, -1.0))
            ends.append((max(u_in, 1e-300), u_top))
        beyond = tail2[max(u_in, u_top)][0] - tail2[u_max][0]
        strict += (tot if top == big_k else 1.0 - _tails(k1, top)[0]) * beyond
    # 1 - T1(K1) of C1 counts once per unit of m2 in ``whole``, so that the ends' shares of it cancel exactly;
    # the W1 sides add up their weights per line and piece, as the ends of concentric operands share them
    n_strict, partial, whole, weights = len(sides), 0.0, 0.0, {}
    for sign, sl, (u_lo, u_0, u_hi) in cross:
        whole += sign * (tail2[u_hi][0] - tail2[u_max][0] if sl >= 0.0 else tail2[0.0][0] - tail2[u_hi][0])
        if abs(sl) > _STEEP:
            continue
        for sg, u0, u1 in ((-1.0, u_lo, u_0) if u_lo < u_0 else (-1.0, u_0, u_lo),
                           (1.0, u_0, u_hi) if u_0 < u_hi else (1.0, u_hi, u_0)):
            if max(u0, 1e-300) < u1:  # C1 = (1 - T1(K1) or 0) - sg R(|y|), |y| = sg (b + sl u)
                (t0, _, _, m0), (t1, _, _, m1) = tail2[u0], tail2[u1]
                m, ramp = t0 - t1, m0 - m1 - u0 * (t0 - t1)  # f2's mass and first moment about u0 here
                if p_k * abs(sl) > 2.0**-20:  # the ramp weighs p_k |sl|, so its lost digits would show
                    ramp = _ramp(k2, u0, u1 - u0, ramp)
                line = max(sg * (b + sl * u0), 0.0) * m + sg * sl * ramp
                if sg > 0.0:
                    whole += sign * m
                partial += sign * sg * (edge * m - p_k * line)
                key = (sg * sl, sg * b, max(u0, 1e-300), u1)
                weights[key] = weights.get(key, 0.0) - sign * sg
    for (sl, y, u0, u1), w in weights.items():
        if w:
            sides.append((sl, y, 0.0, 0.0, 0.0, w, 0.0, 1.0))
            ends.append((u0, u1))
    # one batch for both kinds: a side's value does not depend on the others in it
    values = _sides((k2, k1), ends, sides)
    strict += sum(values[:n_strict])
    value = max(tot * whole + partial + sum(values[n_strict:]), strict) if kind == "partial" else strict
    if not math.isfinite(value):
        raise ValueError(f"closed-form {kind} of {f1.label} and {f2.label}: estimate is {value}")
    return value


def _closed_form(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig) -> float:
    """The scalar product of f1 and f2 from one walk of ``_cells``.

    On a met cell the overlap is lambda = alpha z1 + beta + c1 z2 and the
    Jaccard degree lambda / hull.  Where I2 sits in I1 the hull is |I1|, so
    the inner integral of m2 lambda / |I1| is a difference between the
    cell's sides z2 = p z1 + q of [lambda T0 + c1 s2 S] / |I1|, one
    ``_sides`` each.  Where I1 sits in I2 the degree is n1 z1 / (n2 z2),
    whose z2 integral is the kernel tail K of f2 between the sides, so each
    side adds one ``_sides`` with tail = n1 s1 / (n2 s2).

    The rule of ``_straddling``, refined by ``_refine`` from
    ``cfg.points_per_axis`` nodes per piece, takes the cells where the
    focals straddle, and those where gamma = c1 s2 / (n1 s1) or the tail
    exceed _THIN, whose sides would cancel.
    """
    off = _offset(f1, f2)
    f1, f2 = _within_reach(f1), _within_reach(f2)
    z, rows = _cells(f1, f2, off)
    s1, s2, n1, n2 = f1.scale, f2.scale, 1.0 - f1.shape.lo_slope, 1.0 - f2.shape.lo_slope
    wide = n1 * s1 / (n2 * s2)
    sides, ends, shared, ruled = [], [], None, []
    t = [b / s1 for b in z]  # the panel ends in f1's unit
    for i, pl, ql, ph, qh, alpha, beta, c1 in rows:
        t0, t1, al, ah = t[i], t[i + 1], pl * s1 / s2, ph * s1 / s2
        # a panel ending below 1e-300, where the sides start, holds no mass in floats
        if not (max(t0, 1e-300) < t1 and abs(al) <= _STEEP and abs(ah) <= _STEEP):
            continue
        nested = (alpha, beta, c1) == (n1, 0.0, 0.0)  # I1 sits in I2
        gamma = c1 * s2 / s1 / n1
        # the rule takes the straddling cells, where neither focal holds the
        # other, and every cell whose sides would cancel
        if (wide > _THIN if nested else (alpha, beta, c1) != (0.0, 0.0, n2)) or abs(gamma) > _THIN:
            if max((ph - pl) * x + qh - ql for x in (z[i], z[i + 1])) >= s2 / _STEEP:
                ruled.append((z[i], z[i + 1], pl, ql, ph, qh, alpha, beta, c1))
            continue
        tail = 0.0
        if nested:  # the Jaccard degree n1 z1 / (n2 z2): tail = n1 s1 / (n2 s2)
            alpha, tail = 0.0, wide
        # per side: a, b and lambda / (s1 n1) = kappa t + lam0
        kl, ll = (alpha + c1 * pl) / n1, (beta + c1 * ql) / s1 / n1
        if shared == (i, pl, ql):  # the last side is this line as the upper side of the cell below
            _, _, k, l, g, _, tl, _ = sides[-1]
            sides[-1] = (al, ql / s2, kl - k, ll - l, gamma - g, 0.0, tail - tl, 1.0)
        else:
            sides.append((al, ql / s2, kl, ll, gamma, 0.0, tail, 1.0))
            ends.append((max(t0, 1e-300), t1))
        sides.append((ah, qh / s2, (alpha + c1 * ph) / n1, (beta + c1 * qh) / s1 / n1, gamma, 0.0, tail, -1.0))
        ends.append(ends[-1])
        shared = (i, ph, qh)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = closed = sum(_sides((f1.shape.kernel, f2.shape.kernel), ends, sides))
        if ruled:
            rule = _straddling(f1, f2, ruled)
            value = _refine(lambda n: closed + rule(n), cfg.points_per_axis, cfg)[0]
    if not math.isfinite(value):
        raise ValueError(f"closed-form scalar of {f1.label} and {f2.label}: estimate is {value}")
    return value


def inc_strict(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Degree to which f1 is strictly included in f2: the mean over z2 of the
    mass of f1's focals inside I2(z2), in closed form (see ``_inclusion``).
    The mass beyond either support bound is dropped, as in every pair
    measure; ``cfg`` is accepted for a uniform signature.
    """
    return InclusionResult(_unit(_inclusion(f1, f2, "strict")), (f1.label, f2.label), "strict", _NO_RULE)


def inc_partial(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I1 covered by I2: the mean over z2 of f1's
    pignistic probability of I2(z2), in closed form (see ``_inclusion``).
    """
    return InclusionResult(_unit(_inclusion(f1, f2, "partial")), (f1.label, f2.label), "partial", _NO_RULE)


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


_CDF_GRID = 8193  # grid nodes of the CDF table of nesting_pair_sampler


def nesting_pair_sampler(f1: ConsonantBBD, f2: ConsonantBBD):
    """Independent sampler of (z1, z2) for ``mc_estimate``.

    Each marginal is drawn by inverse CDF from the nesting density truncated
    at the operand's support bound Z and renormalised: the closed-form CDF
    1 - ``tail_mass`` is tabulated on a uniform grid over [0, Z] and a
    uniform q is read at q CDF(Z), interpolating linearly between nodes.
    """
    def inverse(f):
        z = np.linspace(0.0, f.support_bound, _CDF_GRID)
        cdf = 1.0 - f.tail_mass(z)
        return lambda q: np.interp(q * cdf[-1], cdf, z)

    inv1, inv2 = inverse(f1), inverse(f2)

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
    return float(w1 @ delta(lo1[:, None], hi1[:, None], lo2[None, :], hi2[None, :]) @ w2)


def scalar_product_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    return _generic_expectation(g1, g2, jaccard_delta)


def inc_strict_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    return _unit(_generic_expectation(g1, g2, delta_inc_strict))


def inc_partial_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    return _unit(_generic_expectation(g1, g2, delta_inc_partial))
