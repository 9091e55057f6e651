"""Scalar products, distances and inclusion measures between belief densities.

Every measure is an expectation of an interval degree delta(I1(z1), I2(z2))
under the product of the two mass densities.  For consonant operands the
expectation over z1 is a function of f1 at the interval I2, elementary in
its ends: f1's belief of I2 for strict inclusion, its pignistic probability
of I2 for partial inclusion (``_inclusion``), and its mean Jaccard degree
against I2 for the scalar product (``_jaccard``).  So every measure is one
expectation over f2's nesting variable u = z2 / s2, taken by one
Gauss-Legendre rule on the pieces of ``_pieces``, the one table of u's kinks.
On a piece the ends of I2 are affine in the rule's node, so ``_table``
builds every row of a call, ends, weights and kernels, by one matrix product.

Focal endpoints are relative to each operand's location and only the offset
enters the degree, so translating both operands reproduces results exactly.
Densities and tails are unit-scale shapes stretched by each operand's scale,
so scaling both operands changes no measure beyond rounding, and a measure
of two equal operands is taken once per (shape, truncation in scales) at
unit scale (``_self``): within 2.5e-16 of the rule at their own scale.

Each pair is validated once (the constructors and ``_offset``), so the hot
loops run unchecked unit-scale kernels.  The Monte Carlo and generic paths
below rebuild the same quantities from raw interval operations and serve as
cross-checks.
"""

from __future__ import annotations

import math
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

# Gauss-Legendre nodes along a generic nesting curve, one panel with no kinks known:
# the generic measures are a 1e-3 cross-check (acceptance criterion 09), not an
# accuracy reference.  Against the consonant rule at 512 nodes partial and scalar
# err by at most 2.8e-7, strict, whose degree is an indicator, by up to 4.1e-4
# (N(0,1) in N(0.5,0.7)); at 256, strict N(0,1) in N(0,0.5) errs by 2.4e-4.
_CURVE_POINTS = 512


class QuadratureMeta(NamedTuple):
    points_per_axis: int
    est_error: float


class InclusionResult(NamedTuple):
    """An inclusion degree together with how it was computed, as an immutable NamedTuple.

    value            degree in [0, 1]
    direction        (label of included operand, label of including operand)
    kind             "strict" or "partial"
    quadrature_meta  (nodes per piece of the rule, nan): it runs once, with no
                     error estimate; within 2.2e-16 of 30-digit mpmath on 100
                     offset pairs (see the README numerical notes)
    """

    value: float
    direction: tuple[str, str]
    kind: str
    quadrature_meta: QuadratureMeta


def _result(f1: ConsonantBBD, f2: ConsonantBBD, kind: str) -> InclusionResult:
    """The inclusion of f1 in f2, clamped into [0, 1]."""
    value = _inclusion(f1, f2, kind)
    return InclusionResult(1.0 if value > 1.0 else value if value > 0.0 else 0.0, (f1.label, f2.label), kind, _RULE)


def _offset(f1: ConsonantBBD, f2: ConsonantBBD) -> float:
    """Location offset f2 - f1, checked so that no focal endpoint overflows
    and no hull of two meeting focals (at most |off| + Z1 + Z2 long) does."""
    off = f2.location - f1.location
    if not math.isfinite(abs(off) + f1.support_bound + f2.support_bound):
        raise ValueError(f"location offset between {f1.label} and {f2.label} overflows the hull of their focals")
    return off


@lru_cache(maxsize=64)
def _self(shape, k: float, measure: str) -> float:
    """``measure`` ("strict", "partial" or "scalar") of two equal operands,
    which depends on their shape and truncation k in scales alone: the rule
    runs once per key on two unit-scale operands, labelled apart so that they
    are not equal, built directly because k = support_bound / scale may round
    past the constructors' largest k."""
    f, g = (ConsonantBBD(shape, 0.0, 1.0, k, label) for label in ("unit1", "unit2"))
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
    if f1 is f2 or not off and f1 == f2:  # identity first: a table's diagonal skips comparing fields
        return _self(f1.shape, f1.support_bound / f1.scale, "scalar")
    if _order(f2) > _order(f1):
        f1, f2, off = f2, f1, -off
    z1, k1, pieces = _pieces(f1, f2, off)
    if not pieces:  # I2 never meets f1's support
        return 0.0
    s1, s2, lo1, lo2 = f1.scale, f2.scale, f1.shape.lo_slope, f2.shape.lo_slope
    # the parts where Jac1 straddles or I2 holds f1's end come first; f1 is the wider, so I2's ends are finite
    first, rest = [], []
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
        (c0, d0, a), (c1, d1, b) = ((-off, -s2, -hi), (-off, -lo2 * s2, -lo)) if lo1 and lo + hi < 0.0 else (
            (off, lo2 * s2, lo), (off, s2, hi))
        rows = first if (abs(a) < min(b, z1) if lo1 else a < 0.0) else rest
        for e0, e1 in zip(edges, edges[1:]):
            rows.extend((1.0, e0, e1 - e0, *_affine(c0, d0, e0, e1, s1), *_affine(c1, d1, e0, e1, s1), 0.0, 0.0))
    x, w = nodes_and_weights(_NODES, 0.0, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):  # a sum that is not finite raises below
        t, _, weight = _table(first + rest, f1, f2)
        value = float(np.vdot(weight, _jaccard(f1, t[5], t[6], k1, x, w, len(first) // 9)))
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
    ``_self``'s cache, so a warm call runs one pair rule, not three, and
    equal operands read all three products there, at distance 0."""
    return float(gram_distance(scalar_product(f1, f1, cfg), scalar_product(f2, f2, cfg), scalar_product(f1, f2, cfg)))


# The rule of every consonant measure: _NODES Gauss-Legendre nodes on each
# part of a piece, parts at most _WIDTH units wide in f2's unit and in f1's
_NODES, _WIDTH = 32, 8.0
_SQRT_HALF, _SQRT_2PI, _SQRT_2_OVER_PI = math.sqrt(0.5), math.sqrt(2.0 * math.pi), math.sqrt(2.0 / math.pi)
_RULE = QuadratureMeta(_NODES, math.nan)
# Bel1 of a normal f1, erf(r / sqrt 2) - sqrt(2 / pi) r e^(-r^2 / 2), cancels below r = 0.5 to errors of 1.5e-16: in
# sums below _SERIES_BELOW those points take ten terms of sqrt(2 / pi) sum (-1)^n r^(2n+3) / (2^n n! (2n+3))
_POWERS, _SERIES_BELOW = np.arange(3.0, 23.0, 2.0), 0.0625
_SERIES = _SQRT_2_OVER_PI * np.array([(-0.5) ** n / math.factorial(n) / (2 * n + 3) for n in range(10)])
# f2's mass beyond u by lo_slope, in floats; below u = 1 as 1 less the mass below u, rounding as the exact value does
_TAIL = {-1.0: lambda u: _SQRT_2_OVER_PI * u * math.exp(-0.5 * u * u) + math.erfc(u * _SQRT_HALF) if u > 1.0
         else 1.0 - (math.erf(u * _SQRT_HALF) - _SQRT_2_OVER_PI * u * math.exp(-0.5 * u * u)),
         0.0: lambda u: (1.0 + u) * math.exp(-u) if u > 1.0 else 1.0 + (math.expm1(-u) + u * math.exp(-u))}
# Bel1 at r in f1's unit, in floats where it is constant
_BEL = {-1.0: lambda r: float(r ** _POWERS @ _SERIES) if r < 0.5 else 1.0 - _TAIL[-1.0](r),
        0.0: lambda r: 1.0 - _TAIL[0.0](r)}
# The scalar product's rule grades its parts at ratio _GRADE toward a log
# singularity of Jac1, down to _GRADE^-_DEPTH of a piece that ends at one
_GRADE, _DEPTH = 8.0, 4
_TINY = 1e-300  # a floor for denominators whose numerators vanish with them


def _pieces(f1: ConsonantBBD, f2: ConsonantBBD, off: float):
    """f1's support Z1 and K1 in its unit, and the pieces (u0, u1, lo, hi) of
    every consonant measure's rule over u = z2 / s2 on which I2 meets f1's
    support, with lo and hi I2's ends from mu1 at the piece's midpoint.

    u is cut at the kinks of Bel1, BetP1 and Jac1 of I2: where an end of I2,
    off + lo2 s2 u or off + s2 u, crosses 0 or +-Z1 and, for a normal f1,
    where lo + hi = 0, so on a piece its clips and mirror are constant.  All
    is in absolute units, before any division by s1, which may overflow; K1
    is min(k, reach), not Z1 / s1, one ulp past it where f1 ends at reach.
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
    return z1, min(f1.support_bound / f1.scale, f1.shape.reach), pieces


def _affine(c: float, d: float, u0: float, u1: float, s1: float, span=(-math.inf, math.inf)):
    """I2's end c + d u on [u0, u1] as alpha + beta x in f1's unit, alpha 0 exactly where it crosses 0 at u0, held in
    ``span``, its range on the piece, which a piece narrower than the rounding of its cuts may leave."""
    (lo, hi), a, b = span, 0.0 if d and u0 == -c / d else (c + d * u0) / s1, d * (u1 - u0) / s1
    if lo <= a <= hi and lo <= a + b <= hi:
        return a, b
    return min(max(a, lo), hi), min(max(a + b, lo), hi) - min(max(a, lo), hi)


@lru_cache(maxsize=4)
def _rows(lo1: float, lo2: float):
    """``_table``'s matrix from a part's floats (1, u0, h, a0, b0, a1, b1, d0, d1) to its rows at the unit nodes."""
    one, u, y0, y1, dy, hw = np.zeros((6, 9, 3))
    one[0, 0] = u[1, 0] = u[2, 1] = y0[3, 0] = y0[4, 1] = y1[5, 0] = y1[6, 1] = dy[7, 0] = dy[8, 1] = hw[2, 2] = 1.0
    a2, b2, g = (_SQRT_HALF * u, -_SQRT_HALF * u, -2.0 * _SQRT_2_OVER_PI * hw) if lo2 else (-u, one, -hw)
    a1, b1, q = (_SQRT_HALF * y1, -_SQRT_HALF * y1, -_SQRT_2_OVER_PI * y1) if lo1 else (-y0, one, 0 * one)
    return np.stack((a2, a1, b2, b1, g, y0, y1, dy, q)) @ np.stack((np.ones(_NODES), *_unit_nodes(_NODES)))


def _table(parts, f1: ConsonantBBD, f2: ConsonantBBD):
    """The rows of ``parts`` (nine floats each) at the unit nodes x, w by one matrix product, u = u0 + h x: A2, A1, B2,
    B1; G, with f2's mass weights G A2 B2 exp(A2 B2); I2's ends y0 = a0 + b0 x, y1 = a1 + b1 x, y0 - y1 = d0 + d1 x in
    f1's unit; Q, with a normal f1's Bel1 = erf(A1) + Q exp(A1 B1).  Returns them, exp(A1 B1) and the weights."""
    t = np.array(parts).reshape(-1, 9) @ _rows(f1.shape.lo_slope, f2.shape.lo_slope)
    e = np.exp(arg := t[0:2] * t[2:4])
    return t, e[1], t[4] * arg[0] * e[0]


def _inclusion(f1: ConsonantBBD, f2: ConsonantBBD, kind: str) -> float:
    """Strict or partial inclusion of f1 in f2: the mean over z2 of Bel1(I2),
    the mass of f1's focals inside I2(z2), or of BetP1(I2), f1's pignistic
    probability of I2, which absorbs the degree's 1 / |I1| (Fubini).

    In u = z2 / s2 the ends of I2 lie off + lo2 s2 u and off + s2 u from
    mu1, y_lo and y_hi in f1's unit once clipped to its support.  A normal
    f1 has Bel1 = P(3/2, r^2 / 2), r = min(-y_lo, y_hi), and BetP1 =
    Phi(y_hi) - Phi(y_lo) - (y_hi - y_lo) phi(K1) on I2 mirrored to y_lo +
    y_hi <= 0; an exponential one Bel1 = P(2, y_hi) where y_lo <= 0 and
    BetP1 = e^-y_lo - e^-y_hi - (y_hi - y_lo) e^-K1.  The ends are clipped,
    before any division by s1, and are affine on each part (``_affine``), so
    ``_table`` builds every point at once for one pass of each function;
    where Bel1 is constant strict inclusion adds a float term per run.
    """
    off = _offset(f1, f2)
    if f1 is f2 or not off and f1 == f2:  # as in scalar_product
        return _self(f1.shape, f1.support_bound / f1.scale, kind)
    s1, s2, lo1, lo2 = f1.scale, f2.scale, f1.shape.lo_slope, f2.shape.lo_slope
    z1, k1, pieces = _pieces(f1, f2, off)
    strict, tail, bottom = kind == "strict", _TAIL[lo2], lo1 * z1
    # float terms where Bel1 > 0 is constant, rule parts where it moves first, then partial's; g: f1's kernel at K1
    runs, moving, parts, value, g = {}, [], [], 0.0, math.exp(-0.5 * k1 * k1) / _SQRT_2PI if lo1 else math.exp(-k1)
    for u0, u1, lo, hi in pieces:
        # I2's ends c + d u, mirrored for a normal f1 so that r = min(hi, -lo) is the upper, clipped to f1's support
        ends = ((-off, -s2, -hi), (-off, -lo2 * s2, -lo)) if lo1 and lo + hi > 0.0 else (
            (off, lo2 * s2, lo), (off, s2, hi))
        r = ends[1][2] if lo1 or lo <= 0.0 else 0.0  # Bel1 > 0 where r is past f1's centre or I2 holds its start
        if strict and r <= 0.0:  # Bel1 is 0 on the piece
            continue
        # strict reads only the upper end, so the lower end's floats stay 0
        (a0, b0), (a1, b1) = [(0.0, 0.0)] * strict + [
            _affine(c, d, u0, u1, s1, (0.0, k1) if y > 0.0 else (lo1 * k1, 0.0)) if bottom < y < z1
            else (k1 if y > 0.0 else lo1 * k1, 0.0) for c, d, y in ends[strict:]]
        if r > 0.0 and not b1:  # Bel1 is constant, and as r never falls while u grows, one run per r
            runs.setdefault(a1, [u0, u1])[1] = u1
        if b1 or not strict:  # Bel1 moves (strict has r > 0), or partial: BetP1 takes the rule where it is constant too
            m = max(1, math.ceil(max(u1 - u0, abs(b0), abs(b1)) / _WIDTH))
            h, b0, b1, rows = (u1 - u0) / m, b0 / m, b1 / m, moving if r > 0.0 and b1 else parts
            for j in range(m):
                rows += (1.0, u0 + j * h, h, a0 + j * b0, b0, a1 + j * b1, b1, a0 - a1 + j * (b0 - b1), b0 - b1)
    n, bel = len(moving) // 9, sum((tail(u0) - tail(u1)) * _BEL[lo1](r) for r, (u0, u1) in runs.items())
    # strict inclusion's sum, which partial inclusion takes where rounding puts its own below it (BetP1 >= Bel1), so
    # only where its own is at most a bound of it: 2 Phi(r) - 1 (normal f1) or 1 - e^-r (exponential) where it moves
    if moving or parts:
        t, e1, weight = _table(moving + parts, f1, f2)
        if not strict and lo1:  # Phi(y1) - Phi(y0) + (y0 - y1) phi(K1)
            c = _special.ndtr(t[5:7])
            value += float(np.vdot(weight, c[1] - c[0]) + g * np.vdot(weight, t[7]))
            bound = bel + 2.0 * float(np.vdot(weight[:n], c[1, :n])) - float(weight[:n].sum()) * (1.0 - 1e-14)
        elif not strict:  # -e^-y0 expm1(y0 - y1) + (y0 - y1) e^-K1
            c = e1 * np.expm1(t[7])
            value += float(g * np.vdot(weight, t[7]) - np.vdot(weight, c))
            bound = bel - float(np.vdot(weight[:n], c[:n]))
    if n and (strict or value <= bound * (1.0 + 1e-12)):
        r = t[6, :n]
        ys = _special.erf(t[1, :n]) + t[8, :n] * e1[:n] if lo1 else _special.gammainc(2.0, r)
        bel, constant = bel + float(np.vdot(weight[:n], ys)), bel
        if lo1 and bel < _SERIES_BELOW and np.count_nonzero(small := r < 0.5):
            ys[small] = r[small][:, None] ** _POWERS @ _SERIES
            bel = constant + float(np.vdot(weight[:n], ys))
    value = value if bel <= value else bel  # a nan passes on
    if not math.isfinite(value):
        raise ValueError(f"{kind} inclusion of {f1.label} in {f2.label}: estimate is {value}")
    return value


def _jaccard(f1: ConsonantBBD, a, b, k1: float, x, w, n: int):
    """Jac1([a, b]), f1's mean Jaccard degree against [a, b] in its unit t
    over [0, K1], at each node of the parts (rows) of a and b; ``x``, ``w``
    are the rule's unit nodes.

    A normal f1, focal [-t, t], takes [a, b] mirrored where a + b < 0, so
    that b >= |a|.  Its degree is 2 t / (b - a) on [0, -a] (I1 inside I2),
    the straddling (t - a) / (t + b) on [|a|, b] and (b - a) / (2 t) on [b,
    K1] (I2 inside I1).  An exponential f1, focal [0, t], has (t - a) / b on
    [a, b] then (b - a) / t where a >= 0, and t / (b - a) on [0, b] then the
    straddling b / (t - a) where a < 0; the first ``n`` rows are the parts
    that straddle (|a| < K1 for a normal f1).  The nested pieces are moments
    of g1 in closed form.  The normal's straddling piece takes the rule on
    one span [|a|, min(b, K1)], at most 10 wide as K1 is at most the shape's
    reach; the exponential's is b [e^-t + a e^-a E1(t - a)] between its
    ends, with E1 the exponential integral.
    """
    if f1.shape.lo_slope:  # g1 = sqrt(2 / pi) t^2 e^(-t^2 / 2)
        hi, inner = np.minimum(b, k1), np.minimum(np.maximum(-a, 0.0), k1)
        # the integral of t g1 over [0, y] is 2 sqrt(2 / pi) P(2, y^2 / 2), of g1 / t beyond y sqrt(2 / pi) e^(-y^2 / 2)
        value = 2.0 * _SQRT_2_OVER_PI * (2.0 * _special.gammainc(2.0, 0.5 * inner * inner) / np.maximum(b - a, _TINY)
                                         + 0.25 * (b - a) * (np.exp(-0.5 * hi * hi) - math.exp(-0.5 * k1 * k1)))
        if n:  # where t + b >= b > 0
            a, b, lo = a[:n].reshape(-1, 1), b[:n].reshape(-1, 1), np.abs(a[:n]).ravel()
            t = lo[:, None] + (span := hi[:n].ravel() - lo)[:, None] * x
            tt = t * t
            value[:n] += (_SQRT_2_OVER_PI * span * (((t - a) / (t + b) * tt * np.exp(-0.5 * tt)) @ w)).reshape(n, -1)
        return value
    # g1 = t e^-t: the integral of t g1 over [0, y] is 2 P(3, y), of (t - a) g1 over [a, a + d]
    # e^-a [2 P(3, d) + a P(2, d)] and of g1 / t beyond y e^-y; ya = 0 where I2 holds f1's end, so d = yb there
    ya, yb = np.clip(a, 0.0, k1), np.clip(b, 0.0, k1)
    tail, p = np.exp(-yb) - math.exp(-k1), _special.gammainc(np.array([[[3.0]], [[2.0]]]), yb - ya)
    value = (b - a) * tail
    value[n:] += np.exp(-ya[n:]) * (2.0 * p[0, n:] + ya[n:] * p[1, n:]) / np.maximum(b[n:], _TINY)
    a, b, e1 = a[:n], b[:n], _special.exp1(np.maximum(np.stack((yb[:n] - a[:n], k1 - a[:n])), _TINY))
    value[:n] = 2.0 * p[0, :n] / np.maximum(b - a, _TINY) + b * (tail[:n] + a * np.exp(-a) * (e1[0] - e1[1]))
    return value


def inc_strict(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Degree to which f1 is strictly included in f2: the mean over z2 of the
    mass of f1's focals inside I2(z2) (see ``_inclusion``).  The mass beyond
    either support bound is dropped; ``cfg`` is accepted for a uniform signature.
    """
    return _result(f1, f2, "strict")


def inc_partial(f1: ConsonantBBD, f2: ConsonantBBD, cfg: QuadratureConfig | None = None) -> InclusionResult:
    """Expected fraction of I1 covered by I2: the mean over z2 of f1's
    pignistic probability of I2(z2) (see ``_inclusion``)."""
    return _result(f1, f2, "partial")


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
    return min(1.0, max(0.0, _generic_expectation(g1, g2, delta_inc_strict)))


def inc_partial_generic(g1: GenericBBD, g2: GenericBBD, cfg: QuadratureConfig | None = None) -> float:
    return min(1.0, max(0.0, _generic_expectation(g1, g2, delta_inc_partial)))
