import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from cbf.consonant import (
    ConsonantBBD,
    consonant_from_exponential,
    consonant_from_normal,
    parse_distribution,
    pignistic_density,
    to_generic,
)
from cbf.quadrature import nodes_and_weights

sigmas = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)
mus = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
rates = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)


class TestConstructors:
    def test_normal_support_bound(self):
        f = consonant_from_normal(1.5, 2.0)
        assert f.location == 1.5
        assert f.support_bound == 16.0

    def test_exponential_support_bound(self):
        f = consonant_from_exponential(2.0)
        assert f.location == 0.0
        assert f.support_bound == 4.0

    # 1e-310 is below the smallest normal float; 8 * 1e308 overflows
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e-310, 1e308])
    def test_normal_rejects_bad_sigma(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            consonant_from_normal(0.0, bad)

    def test_normal_scale_limit_keeps_the_focal_finite(self):
        # the focal at the support bound is 2 * truncation_k * sigma long
        assert consonant_from_normal(0.0, 1.1e307).support_bound == 8.8e307
        with pytest.raises(ValueError, match=r"sigma = 2e\+307 .* 1\.12356e\+307\]"):
            consonant_from_normal(0.0, 2e307)

    def test_normal_scale_limit_holds_for_a_numpy_truncation(self):
        # below k = 0.5 the upper bound max / (2 k) is past the float range:
        # the message gives the largest float rather than a numpy overflow
        with pytest.raises(ValueError, match=r"sigma = 1e-310 .* 1\.79769e\+308\]"):
            consonant_from_normal(0.0, 1e-310, np.float64(0.1))

    def test_normal_rejects_non_finite_mu(self):
        with pytest.raises(ValueError):
            consonant_from_normal(math.inf, 1.0)

    # rate 1e-308: 8 / rate overflows; rate 1e308: 1 / rate is below the smallest normal float
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, 1e-308, 1e308])
    def test_exponential_rejects_bad_rate(self, bad):
        with pytest.raises(ValueError, match="rate"):
            consonant_from_exponential(bad)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            consonant_from_normal(0.0, 1.0, truncation_k=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1000.5, 1e4])
    def test_rejects_truncation_beyond_panel_resolution(self, bad):
        # the scalar product's default rule cannot resolve a density spread
        # over more than 1000 scale units: at k = 1e4 its N(0,1) self anchor
        # 2/pi comes out 1.4e-38
        for build in (lambda k: consonant_from_normal(0.0, 1.0, k),
                      lambda k: consonant_from_exponential(1.0, k)):
            with pytest.raises(ValueError, match="truncation_k"):
                build(bad)

    def test_accepts_largest_truncation(self):
        assert consonant_from_normal(0.0, 1.0, 1000.0).support_bound == 1000.0

    def test_labels(self):
        assert consonant_from_normal(0, 1).label == "normal:0,1"
        assert consonant_from_normal(4, 0.5).label == "normal:4,0.5"
        assert consonant_from_exponential(2).label == "exp:2"


class TestNestingDensity:
    def test_normal_density_is_maxwell(self):
        f = consonant_from_normal(3.0, 1.7)
        z = np.linspace(0.0, 10.0, 200)
        np.testing.assert_allclose(f.density(z), stats.maxwell.pdf(z, scale=1.7),
                                   rtol=1e-12, atol=1e-300)

    def test_exponential_density_is_gamma2(self):
        f = consonant_from_exponential(0.8)
        z = np.linspace(0.0, 20.0, 200)
        np.testing.assert_allclose(f.density(z), stats.gamma.pdf(z, a=2, scale=1.25),
                                   rtol=1e-10, atol=1e-300)

    def test_density_zero_for_negative_argument(self):
        f = consonant_from_normal(0.0, 1.0)
        assert f.density(-0.5) == 0.0
        assert consonant_from_exponential(1.0).density(-2.0) == 0.0

    def test_normal_density_mode_at_sqrt2_sigma(self):
        f = consonant_from_normal(0.0, 2.5)
        z = np.linspace(0.0, 20.0, 40_001)
        mode = z[np.argmax(f.density(z))]
        assert mode == pytest.approx(math.sqrt(2.0) * 2.5, abs=1e-3)

    def test_normal_density_normalises(self):
        f = consonant_from_normal(0.0, 1.3)
        z, w = nodes_and_weights(512, 0.0, f.support_bound)
        assert float(w @ f.density(z)) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_density_normalises(self):
        # Gamma(2) tail needs a deeper truncation than the normal default
        f = consonant_from_exponential(1.5, truncation_k=20.0)
        z, w = nodes_and_weights(512, 0.0, f.support_bound)
        assert float(w @ f.density(z)) == pytest.approx(1.0, abs=1e-6)

    @given(mus, sigmas)
    def test_normal_density_non_negative(self, mu, sigma):
        f = consonant_from_normal(mu, sigma)
        z = np.linspace(0.0, f.support_bound, 64)
        assert np.all(f.density(z) >= 0.0)


class TestTailMass:
    def test_at_zero_and_below(self):
        f = consonant_from_normal(0.0, 1.0)
        assert f.tail_mass(0.0) == 1.0
        assert f.tail_mass(-3.0) == 1.0

    def test_matches_numeric_integral_normal(self):
        f = consonant_from_normal(0.0, 1.4)
        for t in (0.3, 1.0, 2.5, 5.0):
            z, w = nodes_and_weights(512, t, f.support_bound)
            assert f.tail_mass(t) == pytest.approx(float(w @ f.density(z)), abs=1e-10)

    def test_matches_numeric_integral_exponential(self):
        f = consonant_from_exponential(0.7, truncation_k=40.0)
        for t in (0.5, 2.0, 8.0):
            z, w = nodes_and_weights(512, t, f.support_bound)
            assert f.tail_mass(t) == pytest.approx(float(w @ f.density(z)), abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_zero_where_the_scaled_argument_overflows(self):
        for f in (consonant_from_normal(0.0, 1e-300), consonant_from_exponential(1e300)):
            assert f.tail_mass(1e300) == 0.0
            assert f.tail_mass(np.inf) == 0.0
            np.testing.assert_array_equal(f.tail_mass(np.array([-1.0, 1e300])), [1.0, 0.0])

    @given(st.floats(min_value=-5, max_value=30, allow_nan=False), rates)
    def test_monotone_decreasing(self, t, rate):
        f = consonant_from_exponential(rate)
        assert f.tail_mass(t) >= f.tail_mass(t + 0.5)


class TestFocalGeometry:
    def test_normal_focal_is_centred(self):
        f = consonant_from_normal(2.0, 1.0)
        assert f.focal_bounds(1.5) == (0.5, 3.5)

    def test_exponential_focal_starts_at_origin(self):
        f = consonant_from_exponential(1.0)
        assert f.focal_bounds(2.0) == (0.0, 2.0)

    def test_nesting(self):
        # focal families are nested: z1 <= z2 implies focal(z1) inside focal(z2)
        rng = np.random.default_rng(7)
        for f in (consonant_from_normal(-1.0, 0.7), consonant_from_exponential(1.3)):
            z = np.sort(rng.uniform(0.0, f.support_bound, size=(1000, 2)), axis=1)
            lo1, hi1 = f.focal_bounds(z[:, 0])
            lo2, hi2 = f.focal_bounds(z[:, 1])
            assert np.all((lo2 <= lo1) & (hi1 <= hi2))

    @given(mus, sigmas, st.floats(min_value=0.0, max_value=8.0))
    def test_scale_and_shift_equivariance(self, mu, sigma, z):
        base = consonant_from_normal(0.0, 1.0)
        scaled = consonant_from_normal(mu, sigma)
        lo, hi = base.focal_bounds(z)
        slo, shi = scaled.focal_bounds(sigma * z)
        assert slo == pytest.approx(mu + sigma * lo, abs=1e-9)
        assert shi == pytest.approx(mu + sigma * hi, abs=1e-9)


class TestPignisticRoundTrip:
    def test_normal_round_trip(self):
        f = consonant_from_normal(0.0, 1.0)
        x = np.linspace(-5.0, 5.0, 1001)
        err = np.max(np.abs(pignistic_density(f, x) - stats.norm.pdf(x)))
        assert err < 1e-6

    def test_shifted_scaled_normal_round_trip(self):
        f = consonant_from_normal(4.0, 0.5)
        x = np.linspace(1.5, 6.5, 1001)
        err = np.max(np.abs(pignistic_density(f, x) - stats.norm.pdf(x, loc=4.0, scale=0.5)))
        assert err < 1e-6

    def test_exponential_round_trip(self):
        f = consonant_from_exponential(1.0, truncation_k=20.0)
        x = np.linspace(0.0, 5.0, 1001)
        err = np.max(np.abs(pignistic_density(f, x) - stats.expon.pdf(x)))
        assert err < 1e-6

    def test_exponential_round_trip_other_rate(self):
        f = consonant_from_exponential(2.5, truncation_k=20.0)
        x = np.linspace(0.0, 3.0, 1001)
        err = np.max(np.abs(pignistic_density(f, x) - stats.expon.pdf(x, scale=0.4)))
        assert err < 1e-6

    def test_deep_truncation_round_trip_is_exact(self):
        # the closed-form transform misses only the tail beyond k = 40:
        # phi(40) is 0 in floats and e^-40 is 4e-18
        x = np.linspace(-5.0, 5.0, 1001)
        f = consonant_from_normal(0.0, 1.0, truncation_k=40.0)
        assert np.max(np.abs(pignistic_density(f, x) - stats.norm.pdf(x))) < 1e-16
        e = consonant_from_exponential(1.0, truncation_k=40.0)
        xe = np.linspace(0.0, 5.0, 1001)
        assert np.max(np.abs(pignistic_density(e, xe) - stats.expon.pdf(xe))) < 1e-16

    def test_pignistic_zero_outside_support(self):
        f = consonant_from_exponential(1.0)
        np.testing.assert_array_equal(pignistic_density(f, np.array([-2.0, -0.01])), 0.0)

    def test_scalar_input_returns_float(self):
        f = consonant_from_normal(0.0, 1.0)
        v = pignistic_density(f, 0.0)
        assert isinstance(v, float)
        assert v == pytest.approx(stats.norm.pdf(0.0), abs=1e-9)


class TestGenericView:
    def test_curve_matches_focal_family(self):
        f = consonant_from_normal(1.0, 2.0)
        g = to_generic(f)
        z = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(g.endpoints(z), f.focal_bounds(z))
        np.testing.assert_allclose(g.weight(z), f.density(z))
        assert g.z_max == f.support_bound
        assert g.label == f.label


class TestParseDistribution:
    def test_normal(self):
        f = parse_distribution("normal:-1.5,2")
        assert isinstance(f.location, float)
        assert (f.location, f.scale, f.label) == (-1.5, 2.0, "normal:-1.5,2")

    def test_exponential(self):
        f = parse_distribution("exp:2.5")
        assert (f.location, f.scale, f.label) == (0.0, 0.4, "exp:2.5")

    def test_truncation_passes_through(self):
        f = parse_distribution("normal:0,2", truncation_k=4.0)
        assert f.support_bound == 8.0

    @pytest.mark.parametrize("bad", [
        "normal", "normal:1", "normal:a,b", "normal:0,1,2",
        "exp:", "exp:zzz", "uniform:0,1", "normal:0,-1",
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_distribution(bad)

    def test_error_names_the_token(self):
        with pytest.raises(ValueError, match="uniform"):
            parse_distribution("uniform:0,1")
