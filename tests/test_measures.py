import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbf.consonant import (
    GenericBBD,
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
from cbf.quadrature import QuadratureConfig, mc_estimate

CFG = QuadratureConfig()
LIGHT = QuadratureConfig(points_per_axis=16, refine_max_doublings=0)

F1 = consonant_from_normal(0.0, 1.0)
F2 = consonant_from_normal(0.0, 0.5)
F3 = consonant_from_normal(4.0, 1.0)
F4 = consonant_from_normal(4.0, 0.5)

HALF_PLUS_INV_PI = 0.5 + 1.0 / math.pi

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
        assert r.quadrature_meta.points_per_axis >= CFG.points_per_axis


class TestPartialInclusion:
    def test_self_inclusion_value(self):
        # 1/2 + E[Z2/Z1; Z2 < Z1] = 1/2 + 1/pi for any normal operand
        r = inc_partial(F1, F1, CFG)
        assert r.value == pytest.approx(HALF_PLUS_INV_PI, abs=1e-5)

    def test_self_inclusion_scale_invariant(self):
        v = inc_partial(F4, F4, CFG).value
        assert v == pytest.approx(HALF_PLUS_INV_PI, abs=1e-5)

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

    @given(norm_params, st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=20)
    def test_translation_invariance(self, p, shift):
        mu, sigma = p
        fa, fb = consonant_from_normal(mu, sigma), consonant_from_normal(mu + 1.0, 0.8)
        ga, gb = consonant_from_normal(mu + shift, sigma), consonant_from_normal(mu + 1.0 + shift, 0.8)
        assert inc_strict(fa, fb, LIGHT).value == pytest.approx(
            inc_strict(ga, gb, LIGHT).value, abs=1e-9)
        assert inc_partial(fa, fb, LIGHT).value == pytest.approx(
            inc_partial(ga, gb, LIGHT).value, abs=1e-9)


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


class TestGenericPath:
    def test_curve_generic_matches_fast_paths(self):
        g1, g2 = to_generic(F1), to_generic(F2)
        assert generic_mass(g1, CFG) == pytest.approx(1.0, abs=1e-9)
        assert inc_strict_generic(g1, g2, CFG) == pytest.approx(
            inc_strict(F1, F2, CFG).value, abs=1e-5)
        assert inc_partial_generic(g1, g2, CFG) == pytest.approx(
            inc_partial(F1, F2, CFG).value, abs=1e-5)
        assert scalar_product_generic(g1, g2, CFG) == pytest.approx(
            scalar_product(F1, F2, CFG), abs=1e-5)

    def test_curve_generic_exponential(self):
        e = consonant_from_exponential(1.5)
        ge = to_generic(e)
        assert generic_mass(ge, CFG) == pytest.approx(1.0, abs=1e-2)
        assert inc_strict_generic(ge, to_generic(F1), CFG) == pytest.approx(
            inc_strict(e, F1, CFG).value, abs=1e-4)

    def test_literal_density_triangle(self):
        # uniform density on the triangle 0 <= x <= y <= 1; for two
        # independent draws P(I1 inside I2) = 1/6.  The masked-grid
        # discretisation is first-order at the diagonal boundary, hence
        # the loose tolerances and the convergence check.
        tri = GenericBBD(
            density2d=lambda x, y: np.full_like(np.asarray(x, float), 2.0),
            truncation_box=(0.0, 1.0, 0.0, 1.0),
        )
        coarse = QuadratureConfig(points_per_axis_4d=64)
        fine = QuadratureConfig(points_per_axis_4d=128)
        assert generic_mass(tri, coarse) == pytest.approx(1.0, abs=0.03)
        v64 = inc_strict_generic(tri, tri, coarse)
        v128 = inc_strict_generic(tri, tri, fine)
        assert v64 == pytest.approx(1.0 / 6.0, abs=0.03)
        assert abs(v128 - 1.0 / 6.0) < abs(v64 - 1.0 / 6.0)
        p64 = inc_partial_generic(tri, tri, coarse)
        assert v64 <= p64 <= 1.0

    def test_literal_density_validated(self):
        bad = GenericBBD(
            density2d=lambda x, y: np.full_like(np.asarray(x, float), -1.0),
            truncation_box=(0.0, 1.0, 0.0, 1.0),
        )
        with pytest.raises(ValueError):
            generic_mass(bad, QuadratureConfig(points_per_axis_4d=16))
