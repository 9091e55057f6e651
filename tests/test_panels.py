"""The kink-aware panel rule behind every consonant pair measure.

Anchors are closed forms; the other references are independent of the
panel splitter (scipy's adaptive quadrature with hand-placed breakpoints,
or the same measure integrated in the other order).
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from cbf.cli import build_parser
from cbf.consonant import consonant_from_exponential, consonant_from_normal, parse_distribution
from cbf.measures import (
    _kinks,
    _pair_expectation,
    distance,
    inc_partial,
    inc_partial_reversed,
    inc_strict,
    scalar_product,
)
from cbf.quadrature import QuadratureConfig, inverse_cdf_table

CFG = QuadratureConfig()
ANCHOR_TOL = 1e-10

N01 = consonant_from_normal(0.0, 1.0)
N4H = consonant_from_normal(4.0, 0.5)
EXP2_DEEP = consonant_from_exponential(2.0, truncation_k=40.0)
REFERENCE_FAMILY = [consonant_from_normal(mu, s) for mu in (0.0, 4.0) for s in (1.0, 0.5)]
STRESS_FAMILY = [parse_distribution(spec) for spec in ("exp:2", "normal:0,0.001", "normal:0.5,1")]


def _partial(f1, f2):
    return inc_partial(f1, f2, CFG).value


def _scalar(f1, f2):
    return scalar_product(f1, f2, CFG)


def _strict(f1, f2):
    return inc_strict(f1, f2, CFG).value


@pytest.mark.parametrize("measure,f,exact", [
    (_partial, N01, 0.5 + 1.0 / math.pi),
    (_partial, N4H, 0.5 + 1.0 / math.pi),
    (_scalar, N01, 2.0 / math.pi),
    (_scalar, N4H, 2.0 / math.pi),
    (_partial, EXP2_DEEP, 0.75),
    (_scalar, EXP2_DEEP, 0.5),
    (_strict, EXP2_DEEP, 0.5),
], ids=["partial-N01", "partial-N4h", "scalar-N01", "scalar-N4h",
        "partial-exp2", "scalar-exp2", "strict-exp2"])
def test_self_anchor(measure, f, exact):
    assert abs(measure(f, f) - exact) < ANCHOR_TOL


def test_scalar_product_symmetric_on_reference_family():
    for a, b in itertools.combinations(REFERENCE_FAMILY, 2):
        assert abs(_scalar(a, b) - _scalar(b, a)) < 1e-12


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
    # sigma ratios of 1e3 between the stress operands: each ordering puts
    # the other operand on the outer axis, so agreement checks the grading
    fa, fb = STRESS_FAMILY[a], STRESS_FAMILY[b]
    assert abs(_scalar(fa, fb) - _scalar(fb, fa)) < 1e-12
    assert abs(_partial(fa, fb) - inc_partial_reversed(fb, fa, CFG).value) < 1e-12


@pytest.mark.parametrize("f1,f2", [
    (N01, consonant_from_normal(1.0, 0.3)),
    (consonant_from_exponential(1.5), consonant_from_normal(-0.5, 2.0)),
    (STRESS_FAMILY[1], STRESS_FAMILY[0]),
])
def test_pair_rule_integrates_the_product_density(f1, f2):
    # a constant degree leaves the product of the truncated masses, however
    # the kink lines cut the rectangle
    def one(a1, b1, a2, b2):
        return np.ones(np.broadcast_shapes(np.shape(a1), np.shape(a2)))

    value, _, _ = _pair_expectation(f1, f2, one, CFG)
    exact = (1.0 - f1.tail_mass(f1.support_bound)) * (1.0 - f2.tail_mass(f2.support_bound))
    assert abs(value - exact) < 1e-13


def test_kinks_of_offset_normals():
    # equal supports 8, offset 1: lines z2 = z1 + 1, z2 = 1 - z1, z2 = z1 - 1
    # and outer breaks at the offset and at Z2 - offset
    lines, outer = _kinks(N01, consonant_from_normal(1.0, 1.0), 1.0)
    assert sorted(map(tuple, lines.tolist())) == [(-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    assert outer.tolist() == [0.0, 1.0, 7.0, 8.0]


def test_kinks_of_normal_in_exponential_are_vertical():
    # I2 = [0, z2] has a fixed lower end, so a1 = 3 - z1 meets it at z1 = 3
    # whatever z2 is
    _, outer = _kinks(consonant_from_normal(3.0, 0.5), consonant_from_exponential(1.0), -3.0)
    assert 3.0 in outer.tolist()


def test_refinement_stops_after_one_doubling_on_smooth_panels():
    # est_error is the change over that doubling, a bound on the coarser rule
    r = inc_partial(N01, N01, CFG)
    assert r.quadrature_meta.points_per_axis == 2 * CFG.points_per_axis
    assert r.quadrature_meta.est_error <= CFG.target_rel_tol * r.value


def test_inverse_cdf_table_matches_scipy_cumulative_trapezoid():
    grid = np.linspace(0.0, N01.support_bound, 8193)
    cdf = cumulative_trapezoid(N01.density(grid), grid, initial=0.0)
    inv = inverse_cdf_table(N01.density, N01.support_bound)
    u = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(inv(u), np.interp(u, cdf / cdf[-1], grid))


def test_cli_quadrature_flags_default_to_the_config():
    args = build_parser().parse_args(["tables", "--dists", "normal:0,1", "exp:2"])
    assert args.grid == QuadratureConfig().points_per_axis
    assert args.trunc_k == QuadratureConfig().truncation_k
    assert args.tol == QuadratureConfig().target_rel_tol
    for gone in (["--rule", "midpoint"], ["--seed", "1"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--dists", "normal:0,1", *gone])
