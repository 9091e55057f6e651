"""Scalar products, distances and inclusion measures between belief densities.

Every measure is an expectation of an interval degree delta(I1(z1), I2(z2))
under the product of the two mass densities.  For consonant operands the
expectation over z1 is a function of f1 at the interval I2, elementary in
its ends: f1's belief of I2 for strict inclusion, its pignistic probability
of I2 for partial inclusion (``_inclusion``), and its mean Jaccard degree
against I2 for the scalar product (``_jaccard``).  So every measure is one
expectation over f2's nesting variable u = z2 / s2, taken by one
Gauss-Legendre rule on the pieces of ``_pieces``, the one table of u's kinks.

Focal endpoints are expressed relative to each operand's location and only
the location offset enters the degree, so translating both operands by the
same amount reproduces results exactly.  Densities and tails are unit-scale
shapes stretched by each operand's scale, so scaling both operands by the
same factor changes no measure beyond rounding, so a measure of an operand
with itself is taken once per (shape, truncation in scales) at unit scale
(``_self``): exact to rounding, within 2.5e-16 of the rule at its own scale.

Each pair is validated once: the constructors make locations, scales and
supports finite and ``_offset`` checks the offset, so the hot loops run
unchecked unit-scale kernels.

The Monte Carlo and generic-representation paths below rebuild the same
quantities from raw interval operations and serve as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _special
from .consonant import ConsonantBBD, GenericBBD
# delta_inc_partial_rev is unused here but stays a name of this module: the
# benchmark tracer (perfbench/tracer.py) wraps it by name
from .intervals import delta_inc_partial, delta_inc_partial_rev, delta_inc_strict, jaccard_delta
from .quadrature import QuadratureConfig, _unit_nodes, nodes_and_weights

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

# Gauss-Legendre nodes along a generic nesting curve: one panel, no kinks
# known, so the resolution is fixed rather than tied to the panel rule.
# 512 is where the curve oracle's strict inclusion happens to be accurate:
# against a dense reference it is off by 2.4e-4 at 256 nodes, 2.5e-7 at 512
# and 6.5e-5 at 1024, so other values break its 1e-5 cross-checks.
_CURVE_POINTS = 512


class QuadratureMeta(NamedTuple):
    points_per_axis: int
    est_error: float


@dataclass(frozen=True)
class InclusionResult:
    """An inclusion degree together with how it was computed.

    value            degree in [0, 1]
    direction        (label of included operand, label of including operand)
    kind             "strict" or "partial"
    quadrature_meta  (nodes per piece of the rule, nan): it runs once, with no
                     error estimate.  The value agrees with an independent
                     2-D quadrature within 1e-14 (see the README numerical notes)
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


@lru_cache(maxsize=64)
def _self(shape, k: float, measure: str) -> float:
    """``measure`` ("strict", "partial" or "scalar") of one object with itself,
    which depends on its shape and truncation k in scales alone: the rule runs
    once per key on two distinct unit-scale operands, built directly because
    k = support_bound / scale may round past the constructors' largest k."""
    f, g = (ConsonantBBD(shape, 0.0, 1.0, k, "unit") for _ in range(2))
    return scalar_product(f, g) if measure == "scalar" else _inclusion(f, g, measure)


def _order(f: ConsonantBBD):
    """The scalar product's key for f1: the wider focals per unit of nesting, ties broken by the other fields."""
    return (1.0 - f.shape.lo_slope) * f.scale, f.scale, f.location, f.support_bound


def scalar_product(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> float:
    """Expected Jaccard degree between the two focal families: the mean over
    u = z2 / s2 of Jac1(I2(u)), f1's mean Jaccard degree against I2(u) =
    [a, b] in its unit (``_jaccard``), by one Gauss-Legendre rule on the
    pieces of ``_pieces``, split into parts at most _WIDTH wide in u and in
    f1's unit and graded toward a log singularity of Jac1 unless both operands
    are normal: where the pole of 1 / hull meets its straddling part, at u = 0
    on the pieces where I2 holds f1's centre or end, elsewhere where a + b = 0
    (normal f1) or b = 0 (exponential f1), unless off = 0.

    The product is symmetric, so f1 is always the operand of ``_order``, the
    one with the wider focals per unit of nesting: both operand orders give
    the same float, and I2 is never wide against f1's unit.  The mass beyond
    either support bound or shape reach is dropped; ``cfg`` is accepted for a
    uniform signature.
    """
    off, labels = _offset(f1, f2), (f1.label, f2.label)
    if f1 is f2:
        return _self(f1.shape, f1.support_bound / f1.scale, "scalar")
    if _order(f2) > _order(f1):
        f1, f2, off = f2, f1, -off
    _, pieces = _pieces(f1, f2, off)
    if not pieces:  # I2 never meets f1's support
        return 0.0
    s1, s2, lo1, lo2 = f1.scale, f2.scale, f1.shape.lo_slope, f2.shape.lo_slope
    k1, rows = min(f1.support_bound / s1, f1.shape.reach), []  # Z1 / s1 less its rounding where f1 ends at its reach
    for u0, u1, lo, hi in pieces:
        m = math.ceil((u1 - u0) * max(1.0, s2 / s1) / _WIDTH)
        edges = {u0 + j * (u1 - u0) / m for j in range(m)} | {u1}
        if not (lo1 and lo2):  # p, the singularity, is a cut or 0 (inf if there is none): never inside
            p = 0.0 if lo < 0.0 < hi else math.inf if not off else (1.0 - lo1) * (-off / s2)
            d, far = max(u0 - p, p - u1, (u1 - u0) * _GRADE ** -_DEPTH), max(u1 - p, p - u0)
            while 0.0 < d < far:
                q = p + d if p <= u0 else p - d
                if u0 < q < u1:
                    edges.add(q)
                d *= _GRADE
        edges = sorted(edges)
        rows += [(e0, e1 - e0) for e0, e1 in zip(edges, edges[1:])]
    x, w = nodes_and_weights(_NODES, 0.0, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):  # a sum that is not finite raises below
        u, weight = _rule(rows, x, w, f2.shape.density)
        # f1 is the wider, so I2 is at most 2 u long in f1's unit: where it meets f1's support its ends are finite
        a, b = (off + lo2 * s2 * u) / s1, (off + s2 * u) / s1
        value = float(weight @ _jaccard(f1, a, b, k1, x, w))
    if not math.isfinite(value):
        raise ValueError(f"scalar product of {labels[0]} and {labels[1]}: estimate is {value}")
    return value


def gram_distance(n1, n2, s):
    """Jousselme distance sqrt((n1 + n2 - 2 s) / 2) from the scalar products
    n1 = <f1,f1>, n2 = <f2,f2> and s = <f1,f2>, elementwise.  The radicand is
    clamped at zero so quadrature noise cannot give NaN for near-identical operands.
    """
    return np.sqrt(np.maximum(0.0, 0.5 * (n1 + n2 - 2.0 * s)))


def distance(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> float:
    """Jousselme distance between f1 and f2: the self products come from
    ``_self``'s cache, so a warm call runs one pair rule, not three.  Equal
    operands are at distance 0, where the rule and the cache may differ in
    the last bit."""
    products = (scalar_product(f1, f1, cfg), scalar_product(f2, f2, cfg), scalar_product(f1, f2, cfg))
    return 0.0 if f1 == f2 else float(gram_distance(*products))


# The rule of every consonant measure: _NODES Gauss-Legendre nodes on each
# part of a piece, parts at most _WIDTH units wide in f2's unit and in f1's
_NODES, _WIDTH = 32, 8.0
_SQRT_HALF, _SQRT_2PI, _SQRT_2_OVER_PI = math.sqrt(0.5), math.sqrt(2.0 * math.pi), math.sqrt(2.0 / math.pi)
_RULE = QuadratureMeta(_NODES, math.nan)
# Bel1 of a normal f1, erf(r / sqrt 2) - sqrt(2 / pi) r e^(-r^2 / 2), cancels below r = 0.5 to errors of 1.5e-16: in
# sums below _SERIES_BELOW those points take ten terms of sqrt(2 / pi) sum (-1)^n r^(2n+3) / (2^n n! (2n+3))
_POWERS, _SERIES_BELOW = np.arange(3.0, 23.0, 2.0), 0.0625
_SIGNS, _EDGE = np.array([[-1.0], [1.0]]), np.array([[0.0], [1.0]])  # rows for the two ends of I2
_SERIES = _SQRT_2_OVER_PI * np.array([(-0.5) ** n / math.factorial(n) / (2 * n + 3) for n in range(10)])
# f2's mass beyond u in floats, below u = 1 as 1 less the mass below u: it rounds as the exact value does
_TAIL = {"phi": lambda u: _SQRT_2_OVER_PI * u * math.exp(-0.5 * u * u) + math.erfc(u * _SQRT_HALF) if u > 1.0
         else 1.0 - (math.erf(u * _SQRT_HALF) - _SQRT_2_OVER_PI * u * math.exp(-0.5 * u * u)),
         "exp": lambda u: (1.0 + u) * math.exp(-u) if u > 1.0 else 1.0 + (math.expm1(-u) + u * math.exp(-u))}
# The scalar product's rule grades its parts at ratio _GRADE toward a log
# singularity of Jac1, down to _GRADE^-_DEPTH of a piece that ends at one
_GRADE, _DEPTH = 8.0, 4
_TINY = 1e-300  # a floor for denominators whose numerators vanish with them


def _pieces(f1: ConsonantBBD, f2: ConsonantBBD, off: float):
    """f1's support Z1, and the pieces (u0, u1, lo, hi) of every consonant
    measure's rule over u = z2 / s2 on which I2 meets f1's support, with lo
    and hi I2's ends from mu1 at the piece's midpoint.

    u is cut at the kinks of Bel1, BetP1 and Jac1 of I2: where an end of I2,
    off + lo2 s2 u or off + s2 u, crosses 0 or +-Z1 and, for a normal f1,
    where lo + hi = 0.  All is in absolute units, before any division by s1,
    which may overflow.
    """
    s2, lo1, lo2 = f2.scale, f1.shape.lo_slope, f2.shape.lo_slope
    z1, u_max = min(f1.support_bound, f1.shape.reach * f1.scale), min(f2.support_bound / s2, f2.shape.reach)
    cuts = (-off / s2, (z1 - off) / s2, (lo1 * z1 - off) / s2)  # hi at 0, Z1 and lo1 Z1; lo2 is 0 or -1, so
    cuts += (-cuts[0], -cuts[1], -cuts[2]) if lo2 else (2.0 * cuts[0],) if lo1 else ()  # lo there, or -lo = hi
    cuts = sorted({0.0, u_max, *[u for u in cuts if 0.0 < u < u_max]})
    pieces = []
    for u0, u1 in zip(cuts, cuts[1:]):
        mid = 0.5 * (u0 + u1)
        lo, hi = off + lo2 * s2 * mid, off + s2 * mid
        if lo < z1 and hi > lo1 * z1:  # I2 meets f1's support
            pieces.append((u0, u1, lo, hi))
    return z1, pieces


def _rule(rows, x, w, density):
    """The rule's points u and mass weights on parts (u0, width), from unit nodes x, w and f2's ``density``."""
    rows = np.array(rows).reshape(-1, 2)
    u, weight = (rows[:, :1] + rows[:, 1:] * x).ravel(), (rows[:, 1:] * w).ravel()
    weight *= density(u)
    return u, weight


def _inclusion(f1: ConsonantBBD, f2: ConsonantBBD, kind: str) -> float:
    """Strict or partial inclusion of f1 in f2: the mean over z2 of Bel1(I2),
    the mass of f1's focals inside I2(z2), or of BetP1(I2), f1's pignistic
    probability of I2, which absorbs the degree's 1 / |I1| (Fubini).

    In u = z2 / s2 the ends of I2 lie off + lo2 s2 u and off + s2 u from
    mu1, y_lo and y_hi in f1's unit once clipped to its support.  A normal
    f1 has Bel1 = P(3/2, r^2 / 2), r = min(-y_lo, y_hi), and BetP1 =
    Phi(y_hi) - Phi(y_lo) - (y_hi - y_lo) phi(K1); an exponential one Bel1 =
    P(2, y_hi) where y_lo <= 0 and BetP1 = e^-y_lo - e^-y_hi - (y_hi - y_lo)
    e^-K1.  Ends are clipped before they are divided by s1, which may overflow.
    """
    off = _offset(f1, f2)
    if f1 is f2:
        return _self(f1.shape, f1.support_bound / f1.scale, kind)
    s1, s2, lo1, lo2 = f1.scale, f2.scale, f1.shape.lo_slope, f2.shape.lo_slope
    z1, pieces = _pieces(f1, f2, off)
    k1, bottom = z1 / s1, lo1 * z1
    # strict inclusion reads a point per run of pieces where Bel1 > 0 is one constant, then the parts where it
    # moves; partial inclusion those parts, the other parts where BetP1 moves and the midpoints of the rest
    runs, moving, parts, (pu, pw), tail = {}, [], [], ([], []), _TAIL[f2.shape.kernel]
    for u0, u1, lo, hi in pieces:
        r = min(-lo, hi, z1) if lo1 else min(hi, z1) if lo <= 0.0 else 0.0  # Bel1's r about mu1
        bel_moves = 0.0 < r < z1 and (hi <= -lo or lo2 or not lo1)  # the end r is read from moves
        if r > 0.0 and not bel_moves:  # Bel1 is constant, and as r never falls while u grows, one run per r
            runs.setdefault(r, [u0, u1])[1] = u1
        if kind == "strict" and not bel_moves:
            continue
        if bottom < hi < z1 or lo2 and bottom < lo < z1:  # an end moves in f1's support, and so does BetP1
            m = max(1, math.ceil(max(u1 - u0, (u1 - u0) * s2 / s1) / _WIDTH))
            (moving if bel_moves else parts).extend([(u0 + j * (u1 - u0) / m, (u1 - u0) / m) for j in range(m)])
        else:
            pu.append(0.5 * (u0 + u1))
            pw.append(tail(u0) - tail(u1))
    if kind == "strict" and not (runs or moving):  # no focal of f2 holds one of f1
        return 0.0
    ru, rw = [0.5 * (a + b) for a, b in runs.values()], [tail(a) - tail(b) for a, b in runs.values()]
    u, weight = _rule(moving + parts, *_unit_nodes(_NODES), f2.shape.density)
    if ru or pu:
        u, weight = np.concatenate((ru, u, pu)), np.concatenate((rw, weight, pw))
    k, n, e, value = len(ru), len(ru) + _NODES * len(moving), s2 * u, 0.0  # strict's n points; partial's from k
    if kind == "partial" and lo1:  # BetP1 is even about mu1: rows min(y_lo, -y_hi) and min(y_hi, -y_lo)
        y = _SIGNS * e[k:] - abs(off) if lo2 else np.minimum(off + _EDGE * e[k:], -off - _EDGE[::-1] * e[k:])
        y = np.minimum(np.maximum(y, -z1), z1) / s1
        c = _special.ndtr(y) - y * (math.exp(-0.5 * k1 * k1) / _SQRT_2PI)
        value = float(weight[k:] @ (c[1] - c[0]))
    elif kind == "partial":  # rows y_lo and y_hi
        y = np.minimum(np.maximum(off + (_SIGNS if lo2 else _EDGE) * e[k:], 0.0), z1) / s1
        value = float(weight[k:] @ (np.exp(-y[0]) * -np.expm1(y[0] - y[1]) - (y[1] - y[0]) * math.exp(-k1)))
    # strict inclusion's sum, which partial inclusion takes where rounding puts its own below it (BetP1 >= Bel1)
    # and so needs only where its own is at most the weights, as Bel1 <= 1
    if n and (kind == "strict" or value <= float(weight[:n].sum()) * (1.0 + 1e-12)):
        e = e[:n]
        if lo1:  # r = min(y_hi, -y_lo)
            r = np.maximum(np.minimum(e - abs(off) if lo2 else np.minimum(off + e, -off), z1), 0.0) / s1
            bel = _special.erf(r * _SQRT_HALF) - _SQRT_2_OVER_PI * r * np.exp(-0.5 * r * r)
        else:  # y_lo <= 0 there
            bel = _special.gammainc(2.0, np.minimum(np.maximum(off + e, 0.0), z1) / s1)
        strict = float(weight[:n] @ bel)
        if lo1 and strict < _SERIES_BELOW and np.count_nonzero(small := r < 0.5):
            bel[small] = r[small][:, None] ** _POWERS @ _SERIES
            strict = float(weight[:n] @ bel)
        value = value if strict <= value else strict  # a nan passes on
    if not math.isfinite(value):
        raise ValueError(f"{kind} inclusion of {f1.label} in {f2.label}: estimate is {value}")
    return value


def _jaccard(f1: ConsonantBBD, a, b, k1: float, x, w):
    """Jac1([a, b]), f1's mean Jaccard degree against [a, b] in its unit t
    over [0, K1], at each point; ``x``, ``w`` are the rule's unit nodes.

    A normal f1, focal [-t, t], takes [-b, -a] where a + b < 0, so that
    b >= |a|.  Its degree is 2 t / (b - a) on [0, -a] (I1 inside I2), the
    straddling (t - a) / (t + b) on [|a|, b] and (b - a) / (2 t) on [b, K1]
    (I2 inside I1).  An exponential f1, focal [0, t], has (t - a) / b on
    [a, b] then (b - a) / t where a >= 0, and t / (b - a) on [0, b] then the
    straddling b / (t - a) where a < 0.  The nested pieces are moments of
    g1 in closed form.  The normal's straddling piece takes the rule on
    parts at most _WIDTH wide, over which its hull varies by at most 2x; the
    exponential's is b [e^-t + a e^-a E1(t - a)] between its ends, with E1
    the exponential integral.
    """
    if f1.shape.lo_slope:  # g1 = sqrt(2 / pi) t^2 e^(-t^2 / 2)
        flip = a + b < 0.0
        a, b = np.where(flip, -b, a), np.where(flip, -a, b)
        hi, inner = np.minimum(b, k1), np.minimum(np.maximum(-a, 0.0), k1)
        # the integral of t g1 over [0, y] is 2 sqrt(2 / pi) P(2, y^2 / 2), of g1 / t beyond y sqrt(2 / pi) e^(-y^2 / 2)
        value = 2.0 * _SQRT_2_OVER_PI * (2.0 * _special.gammainc(2.0, 0.5 * inner * inner) / np.maximum(b - a, _TINY)
                                         + 0.25 * (b - a) * (np.exp(-0.5 * hi * hi) - math.exp(-0.5 * k1 * k1)))
        on = np.flatnonzero(np.abs(a) < hi)  # the points with a straddling part, where t + b >= b > 0
        if on.size:
            parts = math.ceil(k1 / _WIDTH)
            if parts > 1:
                x, w = ((x + np.arange(parts)[:, None]) / parts).ravel(), np.tile(w, parts) / parts
            a, b, lo = a[on, None], b[on, None], np.abs(a[on])
            span = hi[on] - lo
            t = lo[:, None] + span[:, None] * x
            tt = t * t
            value[on] += _SQRT_2_OVER_PI * span * (((t - a) / (t + b) * tt * np.exp(-0.5 * tt)) @ w)
        return value
    # g1 = t e^-t: the integral of t g1 over [0, y] is 2 P(3, y), of (t - a) g1 over [a, a + d]
    # e^-a [2 P(3, d) + a P(2, d)] and of g1 / t beyond y e^-y
    ya, yb = np.clip(a, 0.0, k1), np.clip(b, 0.0, k1)
    tail, p3 = np.exp(-yb) - math.exp(-k1), _special.gammainc(3.0, np.stack((yb - ya, yb)))
    right = (np.exp(-ya) * (2.0 * p3[0] + ya * _special.gammainc(2.0, yb - ya)) / np.maximum(b, _TINY)
             + (b - a) * tail)
    a, b = np.minimum(a, 0.0), np.maximum(b, 0.0)  # where I2 holds f1's end; the other points take right
    e1 = _special.exp1(np.maximum(np.stack((yb - a, k1 - a)), _TINY))
    holds = 2.0 * p3[1] / np.maximum(b - a, _TINY) + b * (tail + a * np.exp(-a) * (e1[0] - e1[1]))
    return np.where(a < 0.0, holds, right)


def inc_strict(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Degree to which f1 is strictly included in f2: the mean over z2 of the
    mass of f1's focals inside I2(z2) (see ``_inclusion``).  The mass beyond
    either support bound is dropped; ``cfg`` is accepted for a uniform signature.
    """
    return InclusionResult(_unit(_inclusion(f1, f2, "strict")), (f1.label, f2.label), "strict", _RULE)


def inc_partial(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I1 covered by I2: the mean over z2 of f1's
    pignistic probability of I2(z2) (see ``_inclusion``)."""
    return InclusionResult(_unit(_inclusion(f1, f2, "partial")), (f1.label, f2.label), "partial", _RULE)


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
