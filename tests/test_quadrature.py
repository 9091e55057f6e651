import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbf.consonant import consonant_from_normal
from cbf.measures import inc_partial, inc_strict, scalar_product
import cbf
from cbf import _special
from cbf.quadrature import (
    QuadratureConfig,
    _unit_nodes,
    mc_estimate,
    nodes_and_weights,
)


class TestConfigValidation:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.points_per_axis == 16
        assert cfg.truncation_k == 8.0

    @pytest.mark.parametrize("kwargs", [
        {"points_per_axis": 8},
        {"truncation_k": math.inf},
        {"truncation_k": math.nan},
        {"truncation_k": 0.0},
        {"truncation_k": -1.0},
        {"points_per_axis": 15},
        {"refine_max_doublings": -1},
        {"truncation_k": 1000.5},
        {"points_per_axis": 16.5},
        {"refine_max_doublings": 1.5},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            QuadratureConfig(**kwargs)

    def test_refinement_tolerance_is_not_a_setting(self):
        with pytest.raises(TypeError):
            QuadratureConfig(target_rel_tol=1e-6)

    def test_accepts_numpy_integers(self):
        f, g = consonant_from_normal(0.0, 1.0), consonant_from_normal(0.0, 1.0)
        cfg = QuadratureConfig(points_per_axis=np.int64(32), refine_max_doublings=np.int32(1))
        assert scalar_product(f, g, cfg) == scalar_product(f, g, QuadratureConfig(32, refine_max_doublings=1))

    def test_accepts_a_numpy_truncation(self):
        # a numpy float truncation_k made every support bound a numpy float,
        # whose comparisons then broke the pair measures' indexing
        for k in (np.float64(8.0), np.float32(40.0)):
            pair = consonant_from_normal(0.0, 1.0, k), consonant_from_normal(1.0, 0.7, k)
            ref = consonant_from_normal(0.0, 1.0, float(k)), consonant_from_normal(1.0, 0.7, float(k))
            for measure in (lambda f, g: inc_strict(f, g).value, lambda f, g: inc_partial(f, g).value, scalar_product):
                assert measure(*pair) == measure(*ref)


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


@given(st.integers(min_value=16, max_value=200))
def test_weights_are_positive_where_expected(n):
    _, w = nodes_and_weights(n, 0.0, 1.0)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n,bound", [(16, 2e-15), (32, 2e-14), (64, 1e-13), (512, 5e-12)])
def test_unit_nodes_integrate_their_highest_exact_degree(n, bound):
    # n nodes integrate x^(2n-1) on [0, 1] exactly but for rounding: numpy's
    # leggauss measured 1.3e-15, 1.4e-14, 5.0e-14 and 2.4e-12 here
    x, w = _unit_nodes(n)
    assert abs(2 * n * float(w @ x ** (2 * n - 1)) - 1.0) <= bound


def test_nodes_past_512_raise():
    # numpy's leggauss holds an n x n companion matrix, so a rule is capped
    # at 512 nodes (the generic curve's), which bounds its memory
    with pytest.raises(ValueError, match="need 1 to 512 nodes, got 513"):
        nodes_and_weights(513, 0.0, 1.0)


_BBA = ("a:0.5\na|b:0.3\na|b|c:0.2\n", "b:0.6\nb|c:0.4\n")


@pytest.mark.parametrize("code,module,loaded", [
    # the discrete path never reads cbf._special, so it runs without scipy
    ("import cbf; m1, m2 = (cbf.parse_bba(t, 'abc') for t in BBA); cbf.conflict(m1, m2)", "scipy", False),
    ("import cbf.cli; cbf.cli.main(['discrete', 'conf', '--m1', FILES[0], '--m2', FILES[1]])", "scipy", False),
    # an inclusion reads the special functions, so the loader loads them
    ("from cbf import consonant_from_normal as N, inc_partial; inc_partial(N(0, 1), N(4, 0.5))",
     "scipy.special", True),
    # a scalar product that runs the rule; scipy.linalg is 44 modules and
    # about 6 MB of resident memory
    ("from cbf import consonant_from_normal as N, scalar_product; scalar_product(N(0, 1), N(4, 0.5))",
     "scipy.linalg", False),
], ids=["discrete-conflict", "cli-discrete-conf", "inclusion", "scalar-product-rule"])
def test_what_a_fresh_process_imports(tmp_path, code, module, loaded):
    files = [tmp_path / "m1.bba", tmp_path / "m2.bba"]
    for path, text in zip(files, _BBA):
        path.write_text(text)
    check = (f"import sys; BBA, FILES = {_BBA!r}, {[str(f) for f in files]!r}; {code}; "
             f"print(any(m == {module!r} or m.startswith({module + '.'!r}) for m in sys.modules))")
    src = str(pathlib.Path(cbf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == str(loaded)


def test_the_loader_keeps_what_it_loads():
    with pytest.raises(AttributeError):
        _special.no_such_function
    _special.ndtr  # the first read may run __getattr__; it stores the function
    assert "ndtr" in vars(_special)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_special, "__getattr__", None)  # a later read never calls it
        assert _special.ndtr(0.0) == 0.5
