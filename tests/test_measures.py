import dataclasses
import functools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cbf.measures
from cbf.consonant import (
    consonant_from_exponential,
    consonant_from_normal,
    to_generic,
)
from cbf.intervals import delta_inc_partial, delta_inc_strict, jaccard_delta
from cbf.measures import (
    InclusionResult,
    distance,
    generic_mass,
    inc_avg_partial,
    inc_avg_strict,
    inc_partial,
    inc_partial_reversed,
    inc_strict,
    inc_strict_generic,
    inc_partial_generic,
    nesting_pair_sampler,
    scalar_product,
    scalar_product_generic,
)
from cbf.quadrature import QuadratureConfig, _unit_nodes, mc_estimate

CFG = QuadratureConfig()
LIGHT = QuadratureConfig(points_per_axis=16, refine_max_doublings=0)

F1 = consonant_from_normal(0.0, 1.0)
F2 = consonant_from_normal(0.0, 0.5)
F3 = consonant_from_normal(4.0, 1.0)
F4 = consonant_from_normal(4.0, 0.5)

HALF_PLUS_INV_PI = 0.5 + 1.0 / math.pi


def assert_same_at_extreme_scales(measure, anchor):
    """Pairs of operands equal but for their labels, far from scale 1, give
    ``anchor`` (normal) and the exp:2 value.

    The consonant shapes are unit-scale, so no scale power can under- or
    overflow there.  The operands are not equal, so the rule runs at their
    own scale rather than reading the cache of equal operands.
    """
    def twins(f):
        return f, dataclasses.replace(f, label="twin")

    for sigma in (1e-120, 1e110, 1e300):
        assert measure(*twins(consonant_from_normal(0.0, sigma))) == pytest.approx(anchor, abs=1e-12)
    e2 = twins(consonant_from_exponential(2.0))
    for rate in (1e-200, 1e200):
        assert measure(*twins(consonant_from_exponential(rate))) == pytest.approx(measure(*e2), abs=1e-12)


norm_params = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)


class TestScalarProduct:
    def test_self_product_is_two_over_pi(self):
        # the Jaccard degree of two centred focals is min(z1,z2)/max(z1,z2);
        # its expectation under two Maxwell draws is 2/pi, independent of sigma
        v = scalar_product(F1, F1, CFG)
        assert v == pytest.approx(2.0 / math.pi, abs=1e-5)

    def test_self_product_scale_invariant(self):
        a = scalar_product(F1, F1, CFG)
        b = scalar_product(consonant_from_normal(3.0, 2.5), consonant_from_normal(3.0, 2.5), CFG)
        assert a == pytest.approx(b, abs=1e-12)
        assert_same_at_extreme_scales(lambda f, g: scalar_product(f, g, CFG), 2.0 / math.pi)

    def test_symmetry(self):
        a = scalar_product(F1, F4, CFG)
        b = scalar_product(F4, F1, CFG)
        assert a == pytest.approx(b, abs=1e-6)

    def test_positive_on_self(self):
        assert scalar_product(F2, F2, CFG) > 0.0

    def test_decreases_with_separation(self):
        near = scalar_product(F1, consonant_from_normal(1.0, 1.0), CFG)
        far = scalar_product(F1, consonant_from_normal(5.0, 1.0), CFG)
        assert far < near


class TestDistance:
    def test_identity(self):
        assert distance(F1, F1, CFG) == 0.0

    def test_symmetry(self):
        assert distance(F1, F4, CFG) == pytest.approx(distance(F4, F1, CFG), abs=1e-9)

    def test_grows_with_separation(self):
        d_near = distance(F1, consonant_from_normal(1.0, 1.0), CFG)
        d_far = distance(F1, F3, CFG)
        assert 0.0 < d_near < d_far

    def test_bounded_by_one(self):
        assert distance(F1, consonant_from_normal(50.0, 1.0), CFG) <= 1.0


class TestStrictInclusion:
    def test_self_inclusion_is_half(self):
        # P(Z2 >= Z1) for iid draws: exactly 1/2
        r = inc_strict(F1, F1, CFG)
        assert r.value == pytest.approx(0.5, abs=1e-9)
        assert_same_at_extreme_scales(lambda f, g: inc_strict(f, g, CFG).value, 0.5)

    def test_narrow_in_wide(self):
        assert inc_strict(F2, F1, CFG).value == pytest.approx(0.8576215, abs=1e-4)

    def test_wide_in_narrow(self):
        assert inc_strict(F1, F2, CFG).value == pytest.approx(0.1423785, abs=1e-4)

    def test_directions_sum_to_one_for_equal_means(self):
        a = inc_strict(F1, F2, CFG).value
        b = inc_strict(F2, F1, CFG).value
        assert a + b == pytest.approx(1.0, abs=1e-9)

    def test_distant_pair_is_zero(self):
        v = inc_strict(F1, consonant_from_normal(10.0, 0.1), CFG).value
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_exponential_self_inclusion(self):
        e = consonant_from_exponential(1.3, truncation_k=20.0)
        assert inc_strict(e, e, CFG).value == pytest.approx(0.5, abs=1e-6)

    def test_normal_in_exponential_needs_positive_support(self):
        # focals of N(0,1) straddle 0, never inside [0, z2]
        e = consonant_from_exponential(1.0)
        assert inc_strict(F1, e, CFG).value == 0.0

    def test_positive_normal_in_exponential(self):
        f = consonant_from_normal(3.0, 0.5)
        e = consonant_from_exponential(0.5)
        v = inc_strict(f, e, CFG).value
        assert 0.0 < v < 1.0

    def test_sigma2_monotonicity(self):
        # widening the including density can only help strict inclusion
        values = [
            inc_strict(F1, consonant_from_normal(0.0, s), CFG).value
            for s in np.arange(0.5, 5.01, 0.5)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_result_metadata(self):
        r = inc_strict(F2, F1, CFG)
        assert isinstance(r, InclusionResult)
        assert r.kind == "strict"
        assert r.direction == ("normal:0,0.5", "normal:0,1")
        # one pass of the rule: its nodes per piece, and no error estimate
        assert r.quadrature_meta.points_per_axis == 32
        assert math.isnan(r.quadrature_meta.est_error)
        # an immutable NamedTuple: its four fields in order, and their repr
        with pytest.raises(AttributeError):
            r.value = 0.5
        assert InclusionResult._fields == ("value", "direction", "kind", "quadrature_meta")
        assert repr(r).startswith("InclusionResult(value=")


class TestPartialInclusion:
    def test_self_inclusion_value(self):
        # 1/2 + E[Z2/Z1; Z2 < Z1] = 1/2 + 1/pi for any normal operand
        r = inc_partial(F1, F1, CFG)
        assert r.value == pytest.approx(HALF_PLUS_INV_PI, abs=1e-5)

    def test_self_inclusion_scale_invariant(self):
        v = inc_partial(F4, consonant_from_normal(4.0, 0.5), CFG).value
        assert v == pytest.approx(HALF_PLUS_INV_PI, abs=1e-5)
        assert_same_at_extreme_scales(lambda f, g: inc_partial(f, g, CFG).value, HALF_PLUS_INV_PI)

    def test_narrow_in_wide(self):
        assert inc_partial(F2, F1, CFG).value == pytest.approx(0.9594807, abs=1e-4)

    def test_wide_in_narrow(self):
        assert inc_partial(F1, F2, CFG).value == pytest.approx(0.5498152, abs=1e-4)

    def test_separated_pairs(self):
        assert inc_partial(F1, F3, CFG).value == pytest.approx(0.0253439, abs=1e-4)
        assert inc_partial(F1, F4, CFG).value == pytest.approx(0.0012909, abs=1e-5)
        assert inc_partial(F2, F3, CFG).value == pytest.approx(0.0041411, abs=1e-5)

    def test_exponential_self_inclusion_is_three_quarters(self):
        # E[min(Z1,Z2)/Z1] under iid Gamma(2) draws is exactly 3/4
        e = consonant_from_exponential(0.9, truncation_k=20.0)
        assert inc_partial(e, e, CFG).value == pytest.approx(0.75, abs=1e-5)

    def test_reversed_equals_swapped_operands(self):
        pairs = [(F1, F2), (F1, F3), (consonant_from_exponential(2.0), F1)]
        for fa, fb in pairs:
            r = inc_partial_reversed(fa, fb, CFG).value
            s = inc_partial(fb, fa, CFG).value
            assert r == pytest.approx(s, abs=1e-4)

    def test_result_metadata(self):
        r = inc_partial(F1, F2, CFG)
        assert r.kind == "partial"
        assert r.direction == ("normal:0,1", "normal:0,0.5")

    def test_reversed_metadata_swaps_direction(self):
        r = inc_partial_reversed(F1, F2, CFG)
        assert r.direction == ("normal:0,0.5", "normal:0,1")


class TestInclusionProperties:
    @given(norm_params, norm_params)
    @settings(max_examples=30)
    def test_strict_below_partial_and_bounded(self, p1, p2):
        fa = consonant_from_normal(*p1)
        fb = consonant_from_normal(*p2)
        s = inc_strict(fa, fb, LIGHT).value
        p = inc_partial(fa, fb, LIGHT).value
        assert 0.0 <= s <= 1.0
        assert 0.0 <= p <= 1.0
        assert s <= p + 1e-3

    @given(st.booleans(), st.booleans(), st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=10.0), st.sampled_from([0.5, 8.0, 40.0, 1000.0]),
           st.sampled_from([0.5, 8.0, 40.0, 1000.0]))
    @settings(max_examples=200)
    def test_reversed_is_partial_inclusion_of_the_swapped_pair(self, normal1, normal2, log_ratio, t, k1, k2):
        # both families in both roles, scale ratios 1e-3 to 1e3, offsets up
        # to 10 of the larger scale: the same float, with the swapped direction
        s2 = 10.0 ** log_ratio
        f1 = consonant_from_normal(0.0, 1.0, k1) if normal1 else consonant_from_exponential(1.0, k1)
        f2 = consonant_from_normal(t * max(1.0, s2), s2, k2) if normal2 else consonant_from_exponential(1.0 / s2, k2)
        assert inc_partial_reversed(f1, f2, CFG)[:3] == inc_partial(f2, f1, CFG)[:3]  # value, direction, kind

    @given(norm_params, st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-10.0, max_value=10.0),
           st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=200)
    def test_translation_invariance(self, p, log_ratio, t, shift):
        # scale ratios 1e-3 to 1e3, offsets up to 10 of the larger scale: the
        # measures read the operands' offset alone, so a shift that leaves its
        # float as it was leaves every measure's float as it was
        mu, sigma = p
        sigma2 = sigma * 10.0 ** log_ratio
        mu2 = mu + t * max(sigma, sigma2)
        assume((mu2 + shift) - (mu + shift) == mu2 - mu)
        base = consonant_from_normal(mu, sigma), consonant_from_normal(mu2, sigma2)
        shifted = consonant_from_normal(mu + shift, sigma), consonant_from_normal(mu2 + shift, sigma2)
        for name, measure in MEASURES.items():
            assert measure(*shifted) == measure(*base), name

    @given(st.booleans(), st.booleans(), st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=-10.0, max_value=10.0),
           st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=200)
    def test_joint_scale_invariance(self, normal1, normal2, log_ratio, t1, t2, log_c):
        # both families in both roles, scale ratios 1e-3 to 1e3, normals up
        # to 10 scales from the origin; scaling both operands and their
        # offset by c moves no measure beyond rounding (the self-pair cache
        # rests on this)
        def make(normal, t, s):
            return consonant_from_normal(t * s, s) if normal else consonant_from_exponential(1.0 / s)

        c, s2 = 10.0 ** log_c, 10.0 ** log_ratio
        base = make(normal1, t1, 1.0), make(normal2, t2, s2)
        scaled = make(normal1, t1, c), make(normal2, t2, c * s2)
        for name, measure in MEASURES.items():
            assert abs(measure(*scaled) - measure(*base)) <= 1e-15, (name, base[0].label, base[1].label, c)

    @pytest.mark.parametrize("k", [1.0, 2.0, 8.0])
    def test_strict_below_partial_at_any_truncation(self, k):
        # both inclusions drop the mass of the including operand beyond its
        # support bound, so truncation cannot lift strict above partial
        rng = np.random.default_rng(int(10 * k))

        def draw():
            if rng.random() < 0.5:
                return consonant_from_normal(rng.normal(0.0, 3.0), 10 ** rng.uniform(-1, 1), k)
            return consonant_from_exponential(10 ** rng.uniform(-1, 1), k)

        pairs = [(draw(), draw()) for _ in range(30)]
        pairs += [(consonant_from_normal(0.0, 1.0, k), consonant_from_normal(0.0, 1.0, k)),
                  (consonant_from_exponential(2.0, k), consonant_from_exponential(2.0, k))]
        for fa, fb in pairs:
            assert inc_strict(fa, fb, CFG).value <= inc_partial(fa, fb, CFG).value + 1e-12

    def test_strict_drops_the_tail_beyond_the_support(self):
        # exp:100 sits near the origin of exp:1, so it is nested in almost
        # every focal of exp:1 that the truncation keeps
        narrow, wide = consonant_from_exponential(100.0), consonant_from_exponential(1.0)
        strict, partial = inc_strict(narrow, wide, CFG).value, inc_partial(narrow, wide, CFG).value
        assert strict == pytest.approx(0.99369059, abs=1e-8)
        assert partial == pytest.approx(0.99387680, abs=1e-8)
        # N(8, 0.1) lies in focals of exp:1 that reach past its support bound
        assert inc_strict(consonant_from_normal(8.0, 0.1), wide, CFG).value == 0.0


# the three measures of an ordered pair, by the names the self-pair cache keys on
MEASURES = {"strict": lambda f, g: inc_strict(f, g, CFG).value,
            "partial": lambda f, g: inc_partial(f, g, CFG).value,
            "scalar": lambda f, g: scalar_product(f, g, CFG)}


class TestSelfPairCache:
    """A measure of one object with itself is read from a cache kept per
    (shape, truncation in scales), filled by the rule on unit-scale operands."""

    @staticmethod
    def _twins(normal, location, scale, k):
        # two equal operands built by the same constructor call
        if normal:
            return tuple(consonant_from_normal(location, scale, k) for _ in range(2))
        return tuple(consonant_from_exponential(1.0 / scale, k) for _ in range(2))

    @pytest.mark.parametrize("k", [0.5, 3.7, 8.0, 20.0, 40.0, 1000.0])
    def test_self_pair_agrees_with_an_equal_pair(self, k):
        rng = np.random.default_rng(int(10 * k))
        scales = [*10.0 ** rng.uniform(-6.0, 6.0, 60), 1e-300, 1e300]
        for normal in (True, False):
            for scale in scales:
                f, g = self._twins(normal, rng.uniform(-10.0, 10.0) * scale, scale, k)
                for name, measure in MEASURES.items():
                    assert measure(f, f) == measure(f, g), (name, f.label, k)

    @pytest.mark.filterwarnings("error")
    def test_truncation_that_rounds_past_the_largest(self):
        # 1000 * 0.7 / 0.7 rounds above 1000, which the constructors refuse
        anchors = {True: {"strict": 0.5, "partial": HALF_PLUS_INV_PI, "scalar": 2.0 / math.pi},
                   False: {"strict": 0.5, "partial": 0.75, "scalar": 0.5}}
        for normal, values in anchors.items():
            f, _ = self._twins(normal, 3.0, 0.7, 1000.0)
            assert f.support_bound / f.scale > 1000.0
            for name, measure in MEASURES.items():
                assert measure(f, f) == pytest.approx(values[name], abs=1e-15), (name, f.label)

    def test_cache_holds_one_entry_per_measure(self):
        cache = cbf.measures._self
        assert cache.cache_info().maxsize is not None and cache.cache_info().maxsize <= 64
        cache.cache_clear()
        rng = np.random.default_rng(17)
        for scale in 10.0 ** rng.uniform(-6.0, 6.0, 10_000):
            f = consonant_from_normal(rng.uniform(-10.0, 10.0) * scale, scale)
            for measure in MEASURES.values():
                measure(f, f)
        assert cache.cache_info().currsize == 3

    def test_equal_operands_are_at_distance_zero(self):
        # the cached self products are taken at unit scale, and so is the
        # pair's product of equal operands: the rule at their own scale would
        # leave distances up to 1e-8 at some scales
        rng = np.random.default_rng(3)
        for scale in 10.0 ** rng.uniform(-6.0, 6.0, 200):
            for normal in (True, False):
                f, g = self._twins(normal, rng.uniform(-10.0, 10.0) * scale, scale, 8.0)
                assert distance(f, g, CFG) == 0.0, f.label

    def test_distance_runs_one_pair_rule(self, monkeypatch):
        f1, f2 = consonant_from_exponential(2.0), consonant_from_normal(0.5, 1.0)
        warm = distance(f1, f2, CFG)
        calls = []

        def counted(*args, _pieces=cbf.measures._pieces):
            calls.append(args)
            return _pieces(*args)

        monkeypatch.setattr(cbf.measures, "_pieces", counted)
        assert distance(f1, f2, CFG) == warm
        assert len(calls) == 1
        assert distance(f1, f1, CFG) == distance(f2, f2, CFG) == 0.0
        assert len(calls) == 1


class TestAverages:
    def test_average_matches_manual_mean(self):
        fs = [F1, F2, F3, F4]
        manual = np.mean([inc_strict(F2, g, CFG).value for g in (F1, F3, F4)])
        assert inc_avg_strict(1, fs, CFG) == pytest.approx(manual, abs=1e-12)

    def test_partial_average(self):
        fs = [F1, F2, F3, F4]
        manual = np.mean([inc_partial(F1, g, CFG).value for g in (F2, F3, F4)])
        assert inc_avg_partial(0, fs, CFG) == pytest.approx(manual, abs=1e-12)

    def test_two_member_family_reduces_to_single_pair(self):
        fs = [F1, F2]
        assert inc_avg_strict(0, fs, CFG) == inc_strict(F1, F2, CFG).value

    def test_rejects_small_family(self):
        with pytest.raises(ValueError):
            inc_avg_strict(0, [F1], CFG)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            inc_avg_strict(2, [F1, F2], CFG)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("fa,fb,seed", [
        (F1, F1, 101), (F1, F2, 102), (F2, F1, 103),
        (F1, F3, 104), (F3, F1, 105), (F2, F3, 106), (F1, F4, 107),
    ])
    def test_grid_and_mc_paths_agree(self, fa, fb, seed):
        # the Monte Carlo path uses only raw interval degrees, no tail
        # rewriting, so it cross-validates the fast quadrature routes
        sampler = nesting_pair_sampler(fa, fb)

        def deg(delta):
            def ratio(z1, z2):
                lo1, hi1 = fa.focal_bounds(z1)
                lo2, hi2 = fb.focal_bounds(z2)
                return delta(lo1, hi1, lo2, hi2)
            return ratio

        checks = [
            (inc_strict(fa, fb, CFG).value, deg(delta_inc_strict)),
            (inc_partial(fa, fb, CFG).value, deg(delta_inc_partial)),
            (scalar_product(fa, fb, CFG), deg(jaccard_delta)),
        ]
        for grid_value, ratio in checks:
            mc, se = mc_estimate(sampler, ratio, 400_000, seed=seed)
            assert abs(grid_value - mc) <= 3.0 * se + 2e-6


class TestNestingPairSampler:
    EXP2 = consonant_from_exponential(2.0)  # k = 8 cuts 9 e^-8 = 3e-3 of its mass

    def test_maxwell_mean_and_support(self):
        # consonant-normal nesting density is Maxwell; mean = 2 sigma sqrt(2/pi)
        z1, z2 = nesting_pair_sampler(F1, self.EXP2)(np.random.default_rng(99), 200_000)
        assert z1.mean() == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=0.01)
        assert np.all((z1 >= 0) & (z1 <= F1.support_bound))
        assert np.all((z2 >= 0) & (z2 <= self.EXP2.support_bound))

    @pytest.mark.parametrize("f", [F1, EXP2], ids=["normal", "exp"])
    def test_quantiles_match_the_truncated_cdf(self, f):
        # uniforms q must come back as the q-quantiles of the nesting density
        # truncated at Z and renormalised
        q = np.array([0.1, 0.5, 0.9])
        z1, z2 = nesting_pair_sampler(f, f)(SimpleNamespace(random=lambda n: q), 3)
        kept = 1.0 - f.tail_mass(f.support_bound)
        for z in (z1, z2):
            np.testing.assert_allclose((1.0 - f.tail_mass(z)) / kept, q, rtol=0.0, atol=1e-6)


class TestGenericPath:
    def test_curve_generic_matches_fast_paths(self):
        g1, g2 = to_generic(F1), to_generic(F2)
        assert generic_mass(g1) == pytest.approx(1.0, abs=1e-9)
        assert inc_strict_generic(g1, g2, CFG) == pytest.approx(
            inc_strict(F1, F2, CFG).value, abs=1e-5)
        assert inc_partial_generic(g1, g2, CFG) == pytest.approx(
            inc_partial(F1, F2, CFG).value, abs=1e-5)
        assert scalar_product_generic(g1, g2, CFG) == pytest.approx(
            scalar_product(F1, F2, CFG), abs=1e-5)

    def test_curve_generic_exponential(self):
        e = consonant_from_exponential(1.5)
        ge = to_generic(e)
        assert generic_mass(ge) == pytest.approx(1.0, abs=1e-2)
        assert inc_strict_generic(ge, to_generic(F1), CFG) == pytest.approx(
            inc_strict(e, F1, CFG).value, abs=1e-4)


class TestExtremePairs:
    @pytest.mark.filterwarnings("error")
    def test_scale_ratio_beyond_the_float_range(self):
        # z / scale overflows to inf in one order; the tails give 0 there
        tiny, huge = consonant_from_normal(0.0, 1e-300), consonant_from_normal(0.0, 1e300)
        for measure in (inc_strict, inc_partial):
            assert measure(tiny, huge, CFG).value == pytest.approx(1.0, abs=1e-12)
            assert measure(huge, tiny, CFG).value == pytest.approx(0.0, abs=1e-12)
        assert scalar_product(tiny, huge, CFG) == pytest.approx(0.0, abs=1e-12)
        assert scalar_product(huge, tiny, CFG) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inclusions_return_in_order_across_the_float_range(self):
        # scales and offsets from 10^U(-300, 300), both families, k from 0.5
        # to 1000: off / s1 overflows on many pairs, whose value is 0 or 1,
        # and the inclusions' rule never divides by s1 before it clips
        rng = np.random.default_rng(23)

        def operand(k):
            s = 10.0 ** rng.uniform(-300.0, 300.0)
            if rng.random() < 0.5:
                return consonant_from_exponential(1.0 / s, k)
            return consonant_from_normal(float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-300.0, 300.0), s, k)

        for _ in range(500):
            k = float(rng.uniform(0.5, 1000.0))
            f1, f2 = operand(k), operand(k)
            try:
                strict, partial = inc_strict(f1, f2, CFG).value, inc_partial(f1, f2, CFG).value
            except ValueError as err:  # a hull past the float range is refused by name
                assert "offset between" in str(err)
                continue
            assert 0.0 <= strict <= partial <= 1.0, (f1.label, f2.label, k)

    @pytest.mark.parametrize("measure", [inc_strict, inc_partial, inc_partial_reversed,
                                         scalar_product, distance])
    def test_overflowing_offset_names_both_operands(self, measure):
        # the offset itself overflows, or it does once a support bound is added
        for (mu1, s1), (mu2, s2) in (((1e308, 1.0), (-1e308, 1.0)), ((1.5e308, 1.0), (0.0, 1e307))):
            f1, f2 = consonant_from_normal(mu1, s1), consonant_from_normal(mu2, s2)
            with pytest.raises(ValueError, match=f"offset between {re.escape(f1.label)} and {re.escape(f2.label)}"):
                measure(f1, f2, CFG)

    @pytest.mark.filterwarnings("error")
    def test_self_anchors_at_the_largest_normal_scale(self):
        # the focal [-8 sigma, 8 sigma] is 1.76e308 long, just below the
        # float maximum, and so is the hull of two such focals
        f, g = consonant_from_normal(0.0, 1.1e307), consonant_from_normal(0.0, 1.1e307)
        assert inc_strict(f, g, CFG).value == pytest.approx(0.5, abs=1e-12)
        assert inc_partial(f, g, CFG).value == pytest.approx(HALF_PLUS_INV_PI, abs=1e-12)
        assert scalar_product(f, g, CFG) == pytest.approx(2.0 / math.pi, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("measure", [inc_partial, inc_partial_reversed, scalar_product])
    def test_hull_beyond_the_float_range_names_both_operands(self, measure):
        # each endpoint is finite, but |off| + Z1 + Z2 is not
        for (mu1, s1), (mu2, s2) in (((0.0, 1e307), (7e307, 1e307)), ((0.0, 5e306), (1.2e308, 5e306))):
            f1, f2 = consonant_from_normal(mu1, s1), consonant_from_normal(mu2, s2)
            with pytest.raises(ValueError, match=f"{re.escape(f1.label)} and {re.escape(f2.label)}"):
                measure(f1, f2, CFG)

    @pytest.mark.filterwarnings("error")
    def test_largest_finite_offset(self):
        # far apart but with a finite offset: every degree is 0
        far = consonant_from_normal(1.7e308, 1.0)
        for measure in (inc_strict, inc_partial, inc_partial_reversed):
            assert measure(far, F1, CFG).value == 0.0
            assert measure(F1, far, CFG).value == 0.0
        assert scalar_product(far, F1, CFG) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("off", [1e-307, 2.2250738585072014e-308, 1e-310])
    def test_offset_below_the_panel_floor(self, off):
        # the first panel [0, off / 1] ends below 1e-300, where the sides
        # start; it holds no mass, and reading it backwards once gave a
        # partial inclusion of 0.0
        for measure in (lambda f, g: inc_strict(f, g, CFG).value, lambda f, g: inc_partial(f, g, CFG).value,
                        lambda f, g: scalar_product(f, g, CFG)):
            assert measure(F1, consonant_from_normal(off, 0.25)) == pytest.approx(
                measure(F1, consonant_from_normal(0.0, 0.25)), abs=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("off", [1e-307, 1e-310, 8.4e-323])
    def test_subnormal_offset_of_a_much_wider_normal(self, off):
        # the rule's denominator values start near the offset; their ratio
        # once overflowed and stopped the walk with an OverflowError
        e, wide = consonant_from_exponential(1.0), consonant_from_normal(off, 17.0)
        centred = consonant_from_normal(0.0, 17.0)
        for measure in (lambda f, g: inc_partial(f, g, CFG).value, lambda f, g: scalar_product(f, g, CFG)):
            assert measure(e, wide) == pytest.approx(measure(e, centred), abs=1e-15)
            assert measure(wide, e) == pytest.approx(measure(centred, e), abs=1e-15)

    def test_reversed_partial_where_the_offset_dwarfs_the_second_focal(self):
        # |I2| rounds to 0 once the offset is added; the point convention of
        # the checked degree still gives P(I2 inside I1) = tail of f1 at 1e17
        wide = consonant_from_normal(0.0, 1e17)
        value = inc_partial_reversed(wide, consonant_from_normal(1e17, 1.0), CFG).value
        assert value == pytest.approx(wide.tail_mass(1e17), abs=1e-9)
        assert inc_partial_reversed(F1, consonant_from_normal(1e17, 1.0), CFG).value == 0.0


class TestNonFiniteEstimates:
    # a scalar-product rule whose sum is not finite (forced here through its
    # nodes; the constructors keep real operands from producing one) must
    # raise instead of being clamped into [0, 1]
    @pytest.mark.parametrize("measure", [scalar_product])
    def test_measure_raises(self, measure, monkeypatch):
        def overflowing(n, lo, hi):
            return np.linspace(lo, hi, n), np.full(n, np.inf)

        monkeypatch.setattr(cbf.measures, "nodes_and_weights", overflowing)
        with pytest.raises(ValueError, match=f"{re.escape(F1.label)} and {re.escape(F4.label)}: estimate is (inf|nan)"):
            measure(F1, F4, CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_product_names_both_operands(self, bad, monkeypatch):
        # one non-finite weight spoils the sum, which raises naming the
        # operands in the caller's order, whichever the rule takes as f1
        real = cbf.measures.nodes_and_weights

        def spoiled(n, lo, hi):
            x, w = real(n, lo, hi)
            return x, np.where(np.arange(n) == 0, bad, w)

        monkeypatch.setattr(cbf.measures, "nodes_and_weights", spoiled)
        for f1, f2 in ((F1, F4), (F4, F1)):
            with pytest.raises(ValueError, match=f"scalar product of {re.escape(f1.label)} and "
                                                 f"{re.escape(f2.label)}: estimate is (nan|inf|-inf)"):
                scalar_product(f1, f2, CFG)

    def test_closed_form_raises(self, monkeypatch):
        # a node of the inclusions' rule that is not finite meets the rule's
        # own check, which names both operands (N(0,1) in N(0,0.5) has a
        # piece on which the ends of f2's focals move); the rule's matrix is
        # built from the nodes once per pair of kernels, so it takes a fresh cache
        def nan_node(n):
            x, w = _unit_nodes(n)
            return np.where(np.arange(n) == 0, math.nan, x), w

        monkeypatch.setattr(cbf.measures, "_unit_nodes", nan_node)
        monkeypatch.setattr(cbf.measures, "_rows", functools.lru_cache(cbf.measures._rows.__wrapped__))
        with pytest.raises(ValueError, match=f"strict inclusion of {re.escape(F1.label)} in "
                                             f"{re.escape(F2.label)}: estimate is nan"):
            inc_strict(F1, F2, CFG)
