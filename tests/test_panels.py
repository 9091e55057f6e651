"""The rules of the inclusions and of the scalar product, and their pieces.

Anchors are closed forms or mpmath values; the other references are
independent of the measures and of the piece tables (scipy's adaptive
quadrature with hand-placed breakpoints or over the endpoint crossings of
``oracles.inclusion_by_crossings``, or the same measure integrated in the
other order).
"""

import dataclasses
import functools
import importlib.util
import itertools
import math
import pathlib
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cbf.measures
from cbf.cli import build_parser
from cbf.consonant import consonant_from_exponential, consonant_from_normal, parse_distribution
from cbf.intervals import jaccard_delta
from cbf.measures import (
    _jaccard,
    _order,
    _pieces,
    distance,
    inc_partial,
    inc_partial_reversed,
    inc_strict,
    scalar_product,
)
from cbf.quadrature import QuadratureConfig
from oracles import inclusion_by_crossings

CFG = QuadratureConfig()
ANCHOR_TOL = 1e-10

N01 = consonant_from_normal(0.0, 1.0)
N4H = consonant_from_normal(4.0, 0.5)
EXP2_DEEP = consonant_from_exponential(2.0, truncation_k=40.0)
REFERENCE_FAMILY = [consonant_from_normal(mu, s) for mu in (0.0, 4.0) for s in (1.0, 0.5)]
STRESS_FAMILY = [parse_distribution(spec) for spec in ("exp:2", "normal:0,0.001", "normal:0.5,1")]


def _random_family(seed=3, size=6):
    # scales (sigma or 1 / rate) from 1e-3 to 1e3, offsets up to 5 scales
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size)
    return [consonant_from_exponential(1.0 / s) if i % 3 == 2
            else consonant_from_normal(rng.uniform(-5.0, 5.0) * s, s)
            for i, s in enumerate(scales)]


RANDOM_FAMILY = _random_family()
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _partial(f1, f2):
    return inc_partial(f1, f2, CFG).value


def _scalar(f1, f2):
    return scalar_product(f1, f2, CFG)


def _strict(f1, f2):
    return inc_strict(f1, f2, CFG).value


_MAKE_N01 = functools.partial(consonant_from_normal, 0.0, 1.0)
_MAKE_N4H = functools.partial(consonant_from_normal, 4.0, 0.5)
_MAKE_EXP2_DEEP = functools.partial(consonant_from_exponential, 2.0, truncation_k=40.0)
_MAKE_N01_DEEP = functools.partial(consonant_from_normal, 0.0, 1.0, 40.0)
# at k = 40 no mass is lost in floats, so the rule's own rounding is all that
# shows: at most 2.2e-16 with correctly rounded nodes (8.9e-16 with numpy's)
DEEP_TOL = 4.4e-16


@pytest.mark.parametrize("measure,make,exact,tol", [
    (_partial, _MAKE_N01, 0.5 + 1.0 / math.pi, ANCHOR_TOL),
    (_partial, _MAKE_N4H, 0.5 + 1.0 / math.pi, ANCHOR_TOL),
    (_scalar, _MAKE_N01, 2.0 / math.pi, ANCHOR_TOL),
    (_scalar, _MAKE_N4H, 2.0 / math.pi, ANCHOR_TOL),
    (_partial, _MAKE_EXP2_DEEP, 0.75, DEEP_TOL),
    (_scalar, _MAKE_EXP2_DEEP, 0.5, DEEP_TOL),
    (_strict, _MAKE_EXP2_DEEP, 0.5, DEEP_TOL),
    (_partial, _MAKE_N01_DEEP, 0.5 + 1.0 / math.pi, DEEP_TOL),
    (_scalar, _MAKE_N01_DEEP, 2.0 / math.pi, DEEP_TOL),
    (_strict, _MAKE_N01_DEEP, 0.5, DEEP_TOL),
], ids=["partial-N01", "partial-N4h", "scalar-N01", "scalar-N4h",
        "partial-exp2", "scalar-exp2", "strict-exp2", "partial-N01-k40", "scalar-N01-k40", "strict-N01-k40"])
def test_self_anchor(measure, make, exact, tol):
    # two operands equal but for their labels, so that the rule runs on them
    # rather than reading the cache of equal operands
    assert abs(measure(make(), dataclasses.replace(make(), label="twin")) - exact) < tol


def test_scalar_product_symmetric_on_reference_family():
    for a, b in itertools.combinations(REFERENCE_FAMILY, 2):
        assert _scalar(a, b) == _scalar(b, a)


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
def test_near_identity_distance_slope(eps):
    # d(N(0,1), N(eps,1)) / eps tends to 1/sqrt(pi); the radicand is of
    # order eps^2, so this only holds if every scalar product is accurate
    # far below eps^2
    ratio = distance(N01, consonant_from_normal(eps, 1.0), CFG) / eps
    assert ratio == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-3)


def test_strict_kink_of_exponential_inside_normal():
    # [0, z1] sits in [off - z2, off + z2] once z2 >= max(off, z1 - off):
    # the integrand has a kink at z1 = 2 off, away from every focal crossing
    e = consonant_from_exponential(1.0)
    n = consonant_from_normal(1.5, 0.8)
    off = n.location
    ref, _ = quad(lambda z: e.density(z) * n.tail_mass(max(off, z - off)),
                  0.0, e.support_bound, points=[2.0 * off], epsabs=1e-15, epsrel=1e-13, limit=200)
    assert abs(_strict(e, n) - ref) < 1e-12


def test_partial_inclusion_against_nested_adaptive_quadrature():
    # off-centred normals of different widths, inner integral split by hand
    # at the focal crossings z2 = |z1 - off| and z2 = z1 + off
    f1, f2 = consonant_from_normal(0.0, 1.0), consonant_from_normal(0.7, 1.6)
    off = f2.location - f1.location

    def inner(z1):
        def g(z2):
            lo, hi = max(-z1, off - z2), min(z1, off + z2)
            return f2.density(z2) * max(0.0, hi - lo) / (2.0 * z1)
        cuts = sorted(c for c in (abs(z1 - off), z1 + off) if 0.0 < c < f2.support_bound)
        return quad(g, 0.0, f2.support_bound, points=cuts or None, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    ref, _ = quad(lambda z1: f1.density(z1) * inner(z1), 0.0, f1.support_bound,
                  points=[off, f2.support_bound - off], epsabs=1e-14, epsrel=1e-12, limit=200)
    assert abs(_partial(f1, f2) - ref) < 1e-10


@pytest.mark.parametrize("a,b", list(itertools.combinations(range(3), 2)))
def test_scale_separated_pairs_agree_in_both_integration_orders(a, b):
    # sigma ratios of 1e3 between the stress operands: the scalar product
    # takes the wider operand as f1 in either order, and the partial
    # inclusion agrees with the reference integrated in the other order
    fa, fb = STRESS_FAMILY[a], STRESS_FAMILY[b]
    assert _scalar(fa, fb) == _scalar(fb, fa)
    assert abs(_partial(fa, fb) - inclusion_by_crossings(fa, fb, "partial", outer=1)) < 1e-12


@pytest.mark.parametrize("f1,f2", [
    (N01, consonant_from_normal(1.0, 0.3)),
    (consonant_from_exponential(1.5), consonant_from_normal(-0.5, 2.0)),
    (STRESS_FAMILY[1], STRESS_FAMILY[0]),
])
def test_pair_rule_integrates_the_product_density(monkeypatch, f1, f2):
    # with Jac1 replaced by the mass of f1's focals that meet I2, the scalar
    # product's rule gives the product mass of the region where the focals
    # meet, however its pieces cut and grade u and whichever operand it takes
    # as f1; for each z1 that region is the ray z2 > L(z1)
    off, lo1, lo2 = f2.location - f1.location, f1.shape.lo_slope, f2.shape.lo_slope
    z1_max, z2_max = f1.support_bound, f2.support_bound

    def inner(z1):
        # I1 meets I2(z2) iff z2 + off > lo1*z1 and lo2*z2 + off < z1
        if lo2 == 0.0 and off >= z1:
            return 0.0
        low = max(0.0, lo1 * z1 - off, off - z1 if lo2 < 0.0 else 0.0)
        return max(0.0, f2.tail_mass(low) - f2.tail_mass(z2_max))

    # L(z1) has kinks where its pieces meet each other, 0 or Z2
    kinks = [off, off - z2_max, *((off / lo1, (z2_max + off) / lo1) if lo1 else ()),
             *((2.0 * off / (1.0 + lo1),) if lo1 != -1.0 else ())]
    ref, _ = quad(lambda z1: f1.density(z1) * inner(z1), 0.0, z1_max,
                  points=[z for z in kinks if 0.0 < z < z1_max] or None,
                  epsabs=1e-15, epsrel=1e-13, limit=200)

    def meeting(g1, a, b, k1, x, w, n):
        # I1(t) = [lo1 t, t] meets [a, b] iff t > a and lo1 t < b
        start = np.maximum(a, -b) if g1.shape.lo_slope else np.where(b > 0.0, a, np.inf)
        return g1.shape.tail(np.clip(start, 0.0, k1)) - g1.shape.tail(k1)

    monkeypatch.setattr(cbf.measures, "_jaccard", meeting)
    assert abs(_scalar(f1, f2) - ref) < 1e-13


@pytest.mark.parametrize("family", [REFERENCE_FAMILY, STRESS_FAMILY, RANDOM_FAMILY],
                         ids=["reference", "stress", "random"])
def test_jaccard_matches_the_degree_on_every_piece(family):
    # at random points of every piece of every pair, Jac1 of the ends of I2
    # agrees with the Jaccard degree integrated over f1's focals by scipy,
    # split at the kinks |a| and |b|.  As the scalar product does, a normal
    # f1 takes I2 mirrored where a + b < 0, and a piece's points are one row,
    # a first row where Jac1 straddles (normal f1) or I2 holds f1's end;
    # every point of a piece agrees on which
    rng = np.random.default_rng(5)
    x, w = np.polynomial.legendre.leggauss(32)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    for f1, f2 in itertools.product(family, repeat=2):
        if _order(f2) > _order(f1):
            continue
        off, lo1 = f2.location - f1.location, f1.shape.lo_slope
        _, k1, pieces = _pieces(f1, f2, off)
        assert k1 == min(f1.support_bound / f1.scale, f1.shape.reach)
        for u0, u1, lo, hi in pieces:
            u = rng.uniform(u0, u1, 3)
            a, b = (off + f2.shape.lo_slope * f2.scale * u) / f1.scale, (off + f2.scale * u) / f1.scale
            if lo1 and lo + hi < 0.0:
                a, b = -b, -a
            first = np.abs(a) < np.minimum(b, k1) if lo1 else a < 0.0
            assert first.all() or not first.any(), (f1.label, f2.label, u0, u1)
            jac = _jaccard(f1, a[None], b[None], k1, x, w, int(first[0])).ravel()
            for ai, bi, value in zip(a, b, jac):
                def degree(t):
                    return f1.shape.density(t) * jaccard_delta(lo1 * t, t, ai, bi)
                kinks = [t for t in (abs(ai), abs(bi)) if 0.0 < t < k1]
                ref, _ = quad(degree, 0.0, k1, points=kinks or None, epsabs=1e-15, epsrel=1e-13, limit=200)
                assert abs(value - ref) <= 1e-15, (f1.label, f2.label, ai, bi)


def test_kinks_of_offset_normals():
    # equal supports 8, offset 1: I2's ends in f1's unit are 1 - u and 1 + u,
    # which cross 0 at u = 1 and 8 at u = 7
    z1, k1, pieces = _pieces(N01, consonant_from_normal(1.0, 1.0), 1.0)
    assert z1 == k1 == 8.0
    assert [u0 for u0, *_ in pieces] + [pieces[-1][1]] == [0.0, 1.0, 7.0, 8.0]


def test_kinks_of_normal_in_exponential_are_vertical():
    # I2 = [0, z2] has a fixed lower end, 6 of f1's scales below its centre:
    # the kink of Jac1 at t = |A| stays put, and u is cut only where B
    # crosses 0 (u = 3) and K1 (u = 7) and where I2 is reflected, A + B = 0
    # (u = 6); I2's ends at each piece's midpoint are -3 and u - 3
    _, _, pieces = _pieces(consonant_from_normal(3.0, 0.5), consonant_from_exponential(1.0), -3.0)
    assert pieces == [(0.0, 3.0, -3.0, -1.5), (3.0, 6.0, -3.0, 1.5), (6.0, 7.0, -3.0, 3.5), (7.0, 8.0, -3.0, 4.5)]


def test_scalar_product_rule_runs_in_bounded_memory():
    # no setting sizes the rule: its pieces and the normal's straddling part
    # are bounded by the shapes' reach, so the widest point set, a normal
    # against an exponential graded over 40 units at k = 40, peaks near
    # 0.6 MB; the first pass loads scipy.special, outside the trace
    pairs = [(f1, f2) for k in (8.0, 40.0)
             for f1, f2 in itertools.product([parse_distribution(spec, k) for spec in
                                              ("exp:1", "normal:0.3,0.6", "normal:0.5,1", "normal:0,0.001")], repeat=2)]
    for f1, f2 in pairs:
        scalar_product(f1, f2)
    tracemalloc.start()
    try:
        peak = 0
        for f1, f2 in pairs:
            tracemalloc.reset_peak()
            scalar_product(f1, f2)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# the peak of one call of each measure, in bytes: the test's 200 pairs peak at
# 36 kB (strict), 56 kB (partial) and 471 kB (scalar, distance), 10,000 more
# such pairs at 696 kB (distance)
MEMORY_CEILING = {"strict": 100_000, "partial": 100_000, "scalar": 1_000_000, "distance": 1_000_000}


def test_every_measure_call_stays_under_its_memory_ceiling():
    # both families in both roles, scale ratios 10^U(-3, 3), offsets 0 to 10
    # of the larger scale and k in {0.5, 8, 40, 1000} per operand; the first
    # pair loads scipy.special outside the trace
    rng = np.random.default_rng(9)

    def make(normal, location, scale, k):
        return consonant_from_normal(location, scale, k) if normal else consonant_from_exponential(1.0 / scale, k)

    pairs = []
    for _ in range(200):
        (n1, n2), s2, ks = rng.random(2) < 0.5, 10.0 ** rng.uniform(-3.0, 3.0), rng.choice([0.5, 8.0, 40.0, 1000.0], 2)
        pairs.append((make(n1, 0.0, 1.0, ks[0]), make(n2, rng.uniform(0.0, 10.0) * max(1.0, s2), s2, ks[1])))
    measures = {"strict": _strict, "partial": _partial, "scalar": _scalar, "distance": distance}
    for measure in measures.values():
        measure(*pairs[0])
    peaks = dict.fromkeys(measures, 0)
    tracemalloc.start()
    try:
        for f1, f2 in pairs:
            for name, measure in measures.items():
                tracemalloc.reset_peak()
                measure(f1, f2)
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert all(peaks[name] < ceiling for name, ceiling in MEMORY_CEILING.items()), peaks


def test_scalar_product_blocks_bound_memory_at_the_default_size():
    # a config asking for 512 points per axis and no refinement, at which the
    # blocked 2-D cell rule peaked near 15 MB (118 MB before it ran in
    # blocks), still takes the fixed 32-node rule on its pieces: about 95 kB,
    # or 15 MB when this is the process's first product and loads
    # scipy.special inside the trace
    cfg = QuadratureConfig(points_per_axis=512, refine_max_doublings=0)
    tracemalloc.start()
    try:
        scalar_product(N01, consonant_from_normal(0.5, 0.7), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


# 40-digit values (mpmath, dps=40) of the integral over 0 < z1 < Z2 - off of
# g(z1) [T((z1 + off) / s2) - T(8)], g the Maxwell density and T its tail:
# strict inclusions far below the rounding of the terms they are summed from.
# A cell walk once read the last two 1.6e-17 and 2.5e-17 off
@pytest.mark.parametrize("mu, sigma, exact", [
    (1.5, 0.25, 7.907842146329238e-12),
    (3.5, 0.5, 6.5985731600866627e-14),
    (0.7, 0.1, 5.3915671998169007e-16),
    (1.5, 0.2, 5.8445917917530213e-17),
])
def test_tiny_strict_inclusions_keep_their_digits(mu, sigma, exact):
    assert abs(inc_strict(N01, consonant_from_normal(mu, sigma)).value - exact) < 1e-20


# 30-digit values (mpmath, dps=45) of E over f2 of P(3/2, (q u)^2 / 2) on
# 0 < u < 8: N(0,1) in a far narrower N(0,q) holds only f2's focals shorter
# than f1's.  Bel1 summed as f2's mass less a T1 side read 1.9% low at
# q = 1e-5 and 0 at q = 1e-6
@pytest.mark.parametrize("q, exact", [
    (1e-2, 1.69734719245938908299092476718e-06),
    (1e-4, 1.69765269574408470891641658459e-12),
    (1e-6, 1.69765272629877709426018153856e-18),
])
def test_strict_inclusion_in_a_narrow_normal_keeps_its_relative_digits(q, exact):
    assert abs(inc_strict(N01, consonant_from_normal(0.0, q)).value - exact) <= 1e-14 * exact


# 40-digit values (mpmath, dps=40) of the integral over 0 < r < rho of
# g(r) [T2((r + beta) / a) - T2(8)], g the Maxwell density and T2 the Gamma(2)
# tail, beta the normal's offset inside the exponential's end in its scales
# and a their scale ratio: summed as 1 - T1 under f2's mass, the first two
# read 1.5865032e-11 and 2.3e-17
@pytest.mark.parametrize("f1, f2, exact", [
    (consonant_from_normal(0.5, 1000.0), consonant_from_exponential(2.0), 1.5865001804122898e-11),
    (consonant_from_normal(1e-17, 1.0), consonant_from_exponential(10.0), 2.6515853891303253e-52),
    (consonant_from_normal(1e-5, 1.0), consonant_from_exponential(1.0), 2.6515853886385424e-16),
    (consonant_from_normal(0.2, 1.0), consonant_from_exponential(0.1), 0.0020947225927210559),
], ids=["N(0.5,1000)-exp:2", "N(1e-17,1)-exp:10", "N(1e-5,1)-exp:1", "N(0.2,1)-exp:0.1"])
def test_strict_inclusion_near_an_exponentials_end_keeps_its_relative_digits(f1, f2, exact):
    assert abs(inc_strict(f1, f2).value - exact) <= 1e-15 * exact


# 20-digit values (the definitions of scripts/make_reference.py, dps=50) of
# pairs with a piece, where an end of I2 crosses f1's support, narrower than
# the rounding of its cuts: the ends of its parts must stay in their range
# on the piece, or the rule reads up to 4e-13 off
@pytest.mark.parametrize("spec1, k1, spec2, k2, strict, partial", [
    ("normal:1.7700975596701837e-17,2.143058523239262e-18", 8.0, "normal:0.08651392117091355,0.01953657011997233",
     1000.0, 2.0445615123933954042e-4, 2.0445615123933969154e-4),
    ("exp:5.668284352647255e+18", 40.0, "normal:0.01906877537279455,0.0067298498252782914", 40.0,
     0.045426185199737642001, 0.045426185199737645033),
    ("exp:5.549273985723639e+16", 1000.0, "normal:2.878391165342478,4.964866108074797", 8.0,
     0.95309958758159020201, 0.95309958758159020283),
], ids=["normal", "exp-k40", "exp-k1000"])
def test_pieces_narrower_than_rounding_keep_their_ends_in_range(spec1, k1, spec2, k2, strict, partial):
    f1, f2 = parse_distribution(spec1, k1), parse_distribution(spec2, k2)
    assert abs(inc_strict(f1, f2).value - strict) <= 1e-15
    assert abs(inc_partial(f1, f2).value - partial) <= 1e-15


# mpmath values (dps=32, the mean of pi2 over I1 and its expectation over z1
# both by mp.quad split at the kinks) of a partial inclusion of N(4,0.5) in
# N(0,0.001): focals that mostly pass the narrow operand by.  A cell walk
# read 3.66e-18 and 1.61e-17, dominated by one steep side's rounding
@pytest.mark.parametrize("k, exact", [(8.0, 2.45242778849420393e-19), (40.0, 3.22544509772543764e-17)])
def test_tiny_partial_inclusions_hold_an_absolute_floor(k, exact):
    value = inc_partial(consonant_from_normal(4.0, 0.5, k), consonant_from_normal(0.0, 0.001, k)).value
    assert abs(value - exact) <= 1e-20


# 18-digit values (mpmath, dps=20: a nested mp.quad split at the inner kinks
# +-a, +-b and at the outer cuts) of the scalar products of offset pairs,
# which the concentric forms of tests/test_reference.py do not reach.  The
# last two, 20-digit values of scripts/make_reference.py's scalar() at
# dps=30, pin the mesh graded toward Jac1's log singularity: on even parts
# alone they read 2.0e-11 and 7.3e-14 off
@pytest.mark.parametrize("spec1, spec2, exact", [
    ("exp:2", "normal:0,1", 0.264119561359298136),
    ("normal:0,1", "normal:0.5,0.7", 0.526840003027276427),
    ("normal:0,1", "normal:4,0.5", 0.00100991161732234966),
    ("normal:0.5,1", "normal:0,0.001", 0.00112362789800366995),
    ("exp:0.5", "normal:0,1", 0.27770100576661634766),
    ("exp:0.00116", "normal:-5.37,545", 0.29363651559432566537),
])
def test_scalar_product_of_offset_pairs_against_mpmath(spec1, spec2, exact):
    f1, f2 = parse_distribution(spec1), parse_distribution(spec2)
    assert abs(scalar_product(f1, f2) - exact) <= 1e-15
    assert abs(scalar_product(f2, f1) - exact) <= 1e-15


def test_cli_quadrature_flags_default_to_the_config():
    # --trunc-k is the one quadrature flag: the rules' nodes are fixed
    args = build_parser().parse_args(["tables", "--dists", "normal:0,1", "exp:2"])
    assert args.trunc_k == QuadratureConfig().truncation_k
    for gone in (["--rule", "midpoint"], ["--seed", "1"], ["--tol", "1e-6"], ["--grid", "128"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--dists", "normal:0,1", *gone])


def _cross_check_family(k, seed=11):
    # both families in both roles, scale ratios 1e-3 to 1e3, each normal
    # placed up to 10 of its own scales from the origin
    rng = np.random.default_rng(seed)

    def make(normal, s):
        return consonant_from_normal(rng.uniform(-10.0, 10.0) * s, s, k) if normal \
            else consonant_from_exponential(1.0 / s, k)

    pairs = []
    for ratio in 10.0 ** np.arange(-3.0, 3.5, 1.5):
        for normal1, normal2 in itertools.product((True, False), repeat=2):
            s1 = 10.0 ** rng.uniform(-1.0, 1.0)
            pairs.append((make(normal1, s1), make(normal2, s1 * ratio)))
    return pairs


# The reference integrates over the crossings of the focal endpoints, apart
# from the closed forms (tests/oracles.py); it agrees with them within
# 7.8e-16 on these pairs at k = 8 and 40 alike, and within 1.9e-15 on the
# far-scale pairs below.
REFERENCE_GAP = 1e-14


@pytest.mark.parametrize("k", [8.0, 40.0])
def test_closed_form_partial_matches_the_two_d_rule(k):
    # inc_partial is closed-form; a 2-D integral of the degree is independent of it
    for f1, f2 in _cross_check_family(k):
        rule = inclusion_by_crossings(f1, f2, "partial")
        assert abs(inc_partial(f1, f2).value - rule) <= REFERENCE_GAP, (f1.label, f2.label)


@pytest.mark.parametrize("k", [8.0, 40.0])
def test_closed_form_strict_matches_the_two_d_rule(k):
    # the strict indicator is constant between the crossings the reference splits at
    for f1, f2 in _cross_check_family(k):
        rule = inclusion_by_crossings(f1, f2, "strict")
        assert abs(inc_strict(f1, f2).value - rule) <= REFERENCE_GAP, (f1.label, f2.label)


def _far_scale_family(seed=13):
    # both families in both roles at scale ratios 1e4 to 1e8 either way
    rng = np.random.default_rng(seed)

    def make(normal, s):
        return consonant_from_normal(rng.uniform(-10.0, 10.0) * s, s) if normal else consonant_from_exponential(1.0 / s)

    return [(make(normal1, s1), make(normal2, s1 * ratio))
            for ratio in (1e4, 1e6, 1e8, 1e-4, 1e-6, 1e-8)
            for normal1, normal2 in itertools.product((True, False), repeat=2)
            for s1 in [10.0 ** rng.uniform(-1.0, 1.0)]]


def test_closed_forms_keep_their_digits_at_far_scale_ratios():
    # narrow cells far from the wider operand's centre once cost the partial
    # closed form up to 4e-10 at a ratio of 1e8
    for f1, f2 in _far_scale_family():
        for closed, kind in ((inc_partial, "partial"), (inc_strict, "strict")):
            rule = inclusion_by_crossings(f1, f2, kind)
            assert abs(closed(f1, f2).value - rule) <= REFERENCE_GAP, (f1.label, f2.label, kind)


def test_closed_form_partial_matches_the_reversed_rule():
    # the reference with f2 on the outer axis and f1 on the inner one agrees
    for f1, f2 in _cross_check_family(CFG.truncation_k):
        rule = inclusion_by_crossings(f1, f2, "partial", outer=1)
        assert abs(inc_partial(f1, f2, CFG).value - rule) <= REFERENCE_GAP, (f1.label, f2.label)


def _desk_pairs():
    # the operand pairs of scripts/run_sweeps.py, in both directions
    fixed = consonant_from_normal(0.0, 1.0)
    return [pair for mu in np.arange(0.0, 5.25, 0.5) for s in np.arange(0.25, 5.125, 0.25)
            for pair in ((fixed, consonant_from_normal(mu, s)), (consonant_from_normal(mu, s), fixed))]


def test_strict_never_exceeds_partial_on_the_desk_sweep():
    # Bel1 <= BetP1 on every set; the benchmark compares the two without slack
    for f1, f2 in _desk_pairs():
        assert inc_strict(f1, f2).value <= inc_partial(f1, f2).value, (f1.label, f2.label)


def _pair(normal1, normal2, s1, s2, shift, k=8.0):
    # a normal f2 sits shift of its scales from f1's location, or a normal f1
    # that far from an exponential f2's location 0
    f1 = consonant_from_normal(0.0 if normal2 else shift * s1, s1, k) if normal1 else consonant_from_exponential(1.0 / s1, k)
    f2 = consonant_from_normal(shift * s2, s2, k) if normal2 else consonant_from_exponential(1.0 / s2, k)
    return f1, f2


# both families in both roles, scale ratios 1e-8 to 1e8 and offsets up to 10 scales
PAIRS = st.builds(lambda normal1, normal2, s1, ratio, shift, k: _pair(normal1, normal2, s1, s1 * ratio, shift, k),
                  st.booleans(), st.booleans(), st.floats(0.1, 10.0), st.floats(1e-8, 1e8), st.floats(-10.0, 10.0),
                  st.sampled_from([8.0, 40.0]))


@settings(max_examples=200)
@given(PAIRS)
def test_strict_never_exceeds_partial(pair):
    f1, f2 = pair
    assert inc_strict(f1, f2).value <= inc_partial(f1, f2).value


def _operand(normal, s, location, k=8.0):
    return consonant_from_normal(location, s, k) if normal else consonant_from_exponential(1.0 / s, k)


@settings(max_examples=200)
@given(st.booleans(), st.booleans(), st.floats(0.1, 10.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-10.0, 10.0), st.sampled_from([8.0, 40.0]))
def test_strict_inclusion_grows_with_the_including_operands_scale(normal1, normal2, s1, e, f, shift, k):
    # f2's focals scale about its fixed location, so each one holds the one
    # it grew from; f2 sits shift of f1's scales from a normal f1, or a normal
    # f1 that far from an exponential f2's location 0; no slack.  Scales less
    # than 1% apart would compare rounding: at e = 0, f = 2.2e-16 a value
    # small beside f2's mass there moves by 1e-12 of itself either way
    assume(abs(e - f) >= 0.005)
    f1 = _operand(normal1, s1, 0.0 if normal2 else shift * s1, k)
    narrow, wide = (_operand(normal2, s1 * 10.0 ** x, shift * s1 if normal1 else 0.0, k) for x in sorted((e, f)))
    assert inc_strict(f1, narrow).value <= inc_strict(f1, wide).value, (f1.label, narrow.label, wide.label)


# both families, scales 1e-3 to 1e3, a normal up to 10 of its scales from
# an exponential's location 0
OPERANDS = st.builds(lambda normal, e, shift: _operand(normal, 10.0 ** e, shift * 10.0 ** e),
                     st.booleans(), st.floats(-3.0, 3.0), st.floats(-10.0, 10.0))


@given(OPERANDS, OPERANDS)
def test_scalar_product_operand_order_gap_holds_at_random(f1, f2):
    assert _scalar(f1, f2) == _scalar(f2, f1), (f1.label, f2.label)


@settings(max_examples=200)
@given(PAIRS)
def test_pieces_meet_f1_and_hold_no_kink(pair):
    # in both operand orders, I2 meets f1's support on every piece of the
    # table that all three rules read, and just inside either end of a piece
    # each end of I2 lies on the same side of 0 and +-Z1 (0 and Z1 for an
    # exponential f1), as does lo + hi for a normal f1: no kink of Bel1,
    # BetP1 or Jac1 lies inside a piece.  A side within rounding of its
    # level is not compared
    for f1, f2 in (pair, pair[::-1]):
        off, lo1, lo2, s2 = f2.location - f1.location, f1.shape.lo_slope, f2.shape.lo_slope, f2.scale
        z1, _, pieces = _pieces(f1, f2, off)

        def sides(u):
            lo, hi = off + lo2 * s2 * u, off + s2 * u
            gaps = [end - level for end in (lo, hi) for level in ((0.0, z1, -z1) if lo1 else (0.0, z1))]
            gaps += [lo + hi] if lo1 else []
            tol = 1e-9 * (abs(off) + s2 * u + z1)
            return [gap > 0.0 if abs(gap) > tol else None for gap in gaps]

        for u0, u1, lo, hi in pieces:
            mid = 0.5 * (u0 + u1)
            assert (lo, hi) == (off + lo2 * s2 * mid, off + s2 * mid)
            assert lo < z1 and hi > lo1 * z1, (f1.label, f2.label, u0, u1)
            first, last = sides(u0 + 1e-6 * (u1 - u0)), sides(u1 - 1e-6 * (u1 - u0))
            assert all(a is None or b is None or a == b for a, b in zip(first, last)), (f1.label, f2.label, u0, u1)


@given(PAIRS)
def test_contour_inclusions_take_no_cells_and_no_nodes(pair):
    # both inclusions are one pass of their own rule at every scale ratio:
    # no request for the scalar product's kernel or nodes
    def forbidden(*args, **kwargs):
        raise AssertionError("an inclusion took the scalar product's kernel or nodes")

    f1, f2 = pair
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_jaccard", "nodes_and_weights"):
            patch.setattr(cbf.measures, name, forbidden)
        metas = [inc_strict(f1, f2).quadrature_meta, inc_partial(f1, f2).quadrature_meta]
    for meta in metas:
        assert meta.points_per_axis == 32 and math.isnan(meta.est_error)


@pytest.mark.parametrize("normal1,normal2", list(itertools.product((True, False), repeat=2)))
@pytest.mark.parametrize("shift", [0.0, 0.3, 2.5])
def test_partial_inclusion_is_continuous_across_the_switch_to_the_walk(monkeypatch, normal1, normal2, shift):
    # n2 s2 = 16 n1 s1 at s1 = 1, and 1e-9 and one float either side: the
    # closed form takes each s2 without the cell map, agrees with the
    # reference and moves by no more than the reference gap across a float
    def forbidden(*args, **kwargs):
        raise AssertionError("a partial inclusion took the scalar product's kernel or nodes")

    for name in ("_jaccard", "nodes_and_weights"):
        monkeypatch.setattr(cbf.measures, name, forbidden)
    switch = 16.0 * (1.0 + normal1) / (1.0 + normal2)
    values = {}
    for s2 in (switch * (1.0 - 1e-9), switch, math.nextafter(switch, math.inf), switch * (1.0 + 1e-9)):
        f1, f2 = _pair(normal1, normal2, 1.0, s2, shift)
        values[s2] = inc_partial(f1, f2).value
        assert abs(values[s2] - inclusion_by_crossings(f1, f2, "partial")) <= REFERENCE_GAP, (f1.label, f2.label)
    assert abs(values[switch] - values[math.nextafter(switch, math.inf)]) <= REFERENCE_GAP


def test_inclusions_ask_for_no_nodes(monkeypatch):
    # every inclusion reads its rule's cached nodes, never the scalar
    # product's request, however much wider either operand is
    def forbidden(*args, **kwargs):
        raise AssertionError("an inclusion asked for the scalar product's nodes")

    monkeypatch.setattr(cbf.measures, "nodes_and_weights", forbidden)
    for f1, f2 in itertools.product(REFERENCE_FAMILY + STRESS_FAMILY, repeat=2):
        metas = [inc(f1, f2, CFG).quadrature_meta for inc in (inc_strict, inc_partial, inc_partial_reversed)]
        for meta in metas:
            assert meta.points_per_axis == 32 and math.isnan(meta.est_error), (f1.label, f2.label)


def test_inclusion_of_a_thin_operand_asks_for_no_nodes(monkeypatch):
    # N(0,0.001) in N(0.5,1), a thousand times narrower: one pass of the
    # inclusions' rule, no error estimate, the reversed form gives the same
    # result and the endpoint-crossing reference agrees
    def forbidden(*args, **kwargs):
        raise AssertionError("an inclusion asked for the scalar product's nodes")

    monkeypatch.setattr(cbf.measures, "nodes_and_weights", forbidden)
    narrow, wide = STRESS_FAMILY[1], STRESS_FAMILY[2]
    result = inc_partial(narrow, wide, CFG)
    assert result.quadrature_meta.points_per_axis == 32 and math.isnan(result.quadrature_meta.est_error)
    assert inc_partial_reversed(wide, narrow, CFG) == result
    assert abs(result.value - inclusion_by_crossings(narrow, wide, "partial")) <= REFERENCE_GAP


def test_an_inclusion_makes_one_pass_of_each_special_function(monkeypatch):
    # the rule builds every row of a call in one matrix product, so BetP1
    # takes one ndtr (or exp) pass and Bel1 one erf (or gammainc) pass: the
    # pieces where BetP1 is constant are rows of the same table and those
    # where Bel1 is add float terms, not rows joined by np.concatenate; for
    # every pair of the reference, stress and random families, both kinds
    calls = []

    def counting(name):
        def call(*args):
            calls.append(name)
            return getattr(cbf._special, name)(*args)
        return call

    def forbidden(*args, **kwargs):
        raise AssertionError("an inclusion joined arrays with np.concatenate")

    monkeypatch.setattr(cbf.measures, "_special", types.SimpleNamespace(
        **{name: counting(name) for name in ("ndtr", "erf", "gammainc", "exp1")}))
    monkeypatch.setattr(np, "concatenate", forbidden)
    family = REFERENCE_FAMILY + STRESS_FAMILY + RANDOM_FAMILY
    passes = 0
    for f1, f2 in itertools.product(family, repeat=2):
        for inclusion in (inc_strict, inc_partial):
            calls.clear()
            inclusion(f1, f2)
            assert len(calls) == len(set(calls)), (inclusion.__name__, f1.label, f2.label, calls)
            passes += len(calls)
    assert passes > 0


@pytest.mark.parametrize("f1, f2, calls", [
    (consonant_from_normal(0.0, 0.001), consonant_from_exponential(2.0), 0),
    (N01, consonant_from_normal(2.0, 0.5), 1),
    (consonant_from_normal(2.0, 0.5), N01, 1),
], ids=["narrow-normal-in-exp", "N(0,1)-in-N(2,0.5)", "N(2,0.5)-in-N(0,1)"])
def test_strict_inclusion_builds_no_ends_where_bel1_is_zero(monkeypatch, f1, f2, calls):
    # a strict inclusion skips the pieces on which Bel1 is 0 before it
    # builds their ends, so _affine runs only on pieces that hold belief,
    # and there only on I2's upper end, the one Bel1 reads: none for the
    # narrow normal beside exp:2, which reads 0.0
    real, seen = cbf.measures._affine, []

    def counting(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(cbf.measures, "_affine", counting)
    value = inc_strict(f1, f2).value
    assert len(seen) == calls
    assert value == 0.0 if not calls else value > 0.0


@pytest.mark.parametrize("cfg", [CFG, QuadratureConfig(refine_max_doublings=0),
                                 QuadratureConfig(points_per_axis=512, refine_max_doublings=0)],
                         ids=["default", "no-refinement", "fine-grid"])
def test_scalar_rule_asks_for_nodes_once_per_axis_and_pass(monkeypatch, cfg):
    # the rule runs one pass, and one request for the 32 unit nodes serves
    # both its axes, the outer rule and the normal's straddling part,
    # whatever the config's legacy resolution fields say, offset or
    # concentric; none where I2 never meets f1
    real, seen = cbf.measures.nodes_and_weights, []

    def counting(n, lo, hi):
        seen.append((n, lo, hi))
        return real(n, lo, hi)

    monkeypatch.setattr(cbf.measures, "nodes_and_weights", counting)
    values = [scalar_product(N01, f2, cfg) for f2 in (N4H, consonant_from_normal(0.0, 0.5), EXP2_DEEP)]
    assert seen == [(32, 0.0, 1.0)] * 3
    assert values == [scalar_product(N01, f2) for f2 in (N4H, consonant_from_normal(0.0, 0.5), EXP2_DEEP)]
    seen.clear()
    assert scalar_product(N01, consonant_from_normal(100.0, 1.0), cfg) == 0.0
    assert seen == []


def _order_gap_family(seed=1, count=100):
    # both families in both roles, scales (sigma or 1 / rate) 1e-3 to 1e3;
    # in half the pairs the normals sit at the exponentials' location 0, in
    # the other half up to 10 of their scales from it
    rng = np.random.default_rng(seed)

    def make(exponential, s, shifted):
        if exponential:
            return consonant_from_exponential(1.0 / s)
        return consonant_from_normal(shifted * rng.uniform(-10.0, 10.0) * s, s)

    return [(make(i % 4 >= 2, 10.0 ** rng.uniform(-3.0, 3.0), i % 8 < 4),
             make(i % 2, 10.0 ** rng.uniform(-3.0, 3.0), i % 8 < 4)) for i in range(count)]


@pytest.mark.parametrize("k", [40.0, 1000.0])
def test_scalar_product_holds_at_deep_truncation(k):
    # past 10 scales a normal holds no mass in floats, so the stress pairs'
    # values stop moving with k, in either operand order
    for spec1, spec2 in itertools.combinations(("exp:2", "normal:0,0.001", "normal:0.5,1"), 2):
        f1, f2 = parse_distribution(spec1, k), parse_distribution(spec2, k)
        shallow = _scalar(parse_distribution(spec1, 100.0), parse_distribution(spec2, 100.0))
        assert abs(_scalar(f1, f2) - shallow) <= 1e-15, (spec1, spec2)
        assert abs(_scalar(f2, f1) - shallow) <= 1e-15, (spec2, spec1)


@pytest.mark.parametrize("spec1,spec2", [("normal:0,0.001", "normal:0.5,1"), ("exp:2", "exp:0.01"),
                                         ("normal:0,1", "exp:0.01"), ("normal:0,0.001", "exp:2")])
def test_thin_pairs_hold_at_deep_truncation(spec1, spec2):
    # the closed form stops at each shape's reach, past which a normal holds
    # no mass in floats, so k = 1000 gives the value of k = 40
    deep = inc_partial(parse_distribution(spec1, 1000.0), parse_distribution(spec2, 1000.0)).value
    assert abs(deep - inc_partial(parse_distribution(spec1, 40.0), parse_distribution(spec2, 40.0)).value) <= 1e-15


def _gram_family(seed, size=7):
    # both families, scales (sigma or 1 / rate) from 1e-3 to 1e3, each normal
    # up to 10 of its own scales from the exponentials' location 0
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size)
    return [consonant_from_exponential(1.0 / s) if i % 3 == 2
            else consonant_from_normal(rng.uniform(-10.0, 10.0) * s, s)
            for i, s in enumerate(scales)]


@pytest.mark.parametrize("seed", range(6))
def test_gram_matrix_is_positive_semidefinite(seed):
    # the scalar product is an inner product (Bouchard, Jousselme and Dore,
    # IJAR 2013), so no Gram matrix may have a negative eigenvalue
    family = _gram_family(seed)
    scales = sorted(f.scale for f in family)
    assert scales[-1] > 32.0 * scales[0]  # far scale ratios among the pairs
    gram = np.array([[_scalar(f1, f2) for f2 in family] for f1 in family])
    assert np.linalg.eigvalsh(0.5 * (gram + gram.T)).min() >= -1e-12


def test_scalar_product_operand_order_gap():
    # both orders take the operand of wider focals per unit of nesting as f1
    for f1, f2 in _order_gap_family():
        assert _scalar(f1, f2) == _scalar(f2, f1), (f1.label, f2.label)


def test_names_the_benchmark_tracer_wraps_still_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {(owner, attr) for owner, attr, *_ in tracer.TRACE_POINTS}
    for name in ("nodes_and_weights", "delta_inc_partial", "delta_inc_partial_rev",
                 "delta_inc_strict", "jaccard_delta"):
        assert ("cbf.measures", name) in wrapped
    for name in ("density", "tail_mass", "base_bounds"):
        assert ("cbf.consonant:ConsonantBBD", name) in wrapped
    for owner, attr in wrapped:
        assert callable(getattr(tracer._resolve(owner), attr)), (owner, attr)
