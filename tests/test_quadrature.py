import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbf.consonant import consonant_from_normal
from cbf.quadrature import (
    QuadratureConfig,
    inverse_cdf_table,
    mc_estimate,
    nodes_and_weights,
)


class TestConfigValidation:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.points_per_axis == 16
        assert cfg.points_per_axis_4d == 64
        assert cfg.truncation_k == 8.0

    @pytest.mark.parametrize("kwargs", [
        {"points_per_axis": 8},
        {"points_per_axis_4d": 15},
        {"target_rel_tol": math.nan},
        {"truncation_k": 0.0},
        {"truncation_k": -1.0},
        {"target_rel_tol": 0.0},
        {"refine_max_doublings": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)


class TestNodesAndWeights:
    def test_weights_sum_to_width(self):
        x, w = nodes_and_weights(64, 2.0, 5.0)
        assert x.shape == w.shape == (64,)
        assert np.all((x >= 2.0) & (x <= 5.0))
        assert w.sum() == pytest.approx(3.0, rel=1e-12)

    def test_linear_exact(self):
        x, w = nodes_and_weights(64, 0.0, 1.0)
        assert float(w @ x) == pytest.approx(0.5, rel=1e-12)

    def test_gauss_legendre_polynomial_exactness(self):
        # degree 2n-1 polynomials are integrated exactly
        x, w = nodes_and_weights(16, 0.0, 1.0)
        assert float(w @ x**20) == pytest.approx(1.0 / 21.0, rel=1e-13)

    def test_zero_width_domain(self):
        x, w = nodes_and_weights(16, 3.0, 3.0)
        assert np.all(x == 3.0)
        assert w.sum() == 0.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            nodes_and_weights(16, 1.0, 0.0)
        with pytest.raises(ValueError):
            nodes_and_weights(16, 0.0, math.inf)
        with pytest.raises(ValueError):
            nodes_and_weights(0, 0.0, 1.0)


class TestMonteCarlo:
    @staticmethod
    def _uniform_pair(rng, n):
        return rng.random(n), rng.random(n)

    def test_constant_ratio(self):
        mean, se = mc_estimate(self._uniform_pair, lambda a, b: np.ones_like(a), 10_000)
        assert mean == 1.0
        assert se == 0.0

    def test_exchangeable_indicator_is_half(self):
        mean, se = mc_estimate(self._uniform_pair, lambda a, b: (a < b).astype(float),
                               100_000, seed=3)
        assert abs(mean - 0.5) < 3.0 * se

    def test_seeded_reproducibility(self):
        r1 = mc_estimate(self._uniform_pair, lambda a, b: a * b, 50_000, seed=11)
        r2 = mc_estimate(self._uniform_pair, lambda a, b: a * b, 50_000, seed=11)
        assert r1 == r2

    def test_different_seeds_differ(self):
        r1 = mc_estimate(self._uniform_pair, lambda a, b: a * b, 50_000, seed=1)
        r2 = mc_estimate(self._uniform_pair, lambda a, b: a * b, 50_000, seed=2)
        assert r1 != r2

    def test_non_finite_integrand_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            mc_estimate(self._uniform_pair, lambda a, b: np.full_like(a, np.nan), 10_000)

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            mc_estimate(self._uniform_pair, lambda a, b: a, 100)


class TestInverseCdfTable:
    def test_maxwell_moments(self):
        # consonant-normal nesting density is Maxwell; mean = 2 sigma sqrt(2/pi)
        f = consonant_from_normal(0.0, 1.0)
        inv = inverse_cdf_table(f.density, f.support_bound)
        rng = np.random.default_rng(99)
        z = inv(rng.random(200_000))
        expected_mean = 2.0 * math.sqrt(2.0 / math.pi)
        assert z.mean() == pytest.approx(expected_mean, abs=0.01)
        assert np.all((z >= 0) & (z <= f.support_bound))

    def test_quantiles_match_closed_form_cdf(self):
        f = consonant_from_normal(0.0, 1.0)
        inv = inverse_cdf_table(f.density, f.support_bound)
        for u in (0.1, 0.5, 0.9):
            z = float(inv(u))
            # CDF(z) = 1 - tail_mass(z) should give back u
            assert 1.0 - f.tail_mass(z) == pytest.approx(u, abs=1e-6)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            inverse_cdf_table(lambda z: -np.ones_like(z), 1.0)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            inverse_cdf_table(lambda z: np.zeros_like(z), 1.0)


@given(st.integers(min_value=16, max_value=200))
def test_weights_are_positive_where_expected(n):
    _, w = nodes_and_weights(n, 0.0, 1.0)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
