"""Acceptance gate: nine criteria anchoring the package to its reference
values.  Each test is one criterion, so ``pytest -v tests/test_acceptance.py``
prints one pass/fail line per criterion.

Reference values come from two sources and are tagged accordingly:

* published: values quoted by the reference tables for the four benchmark
  densities N(0,1), N(0,0.5), N(4,1), N(4,0.5).  Their quoted precision is
  limited by the coarse grid used to produce them, so the comparisons carry
  the documented reproduction bands (0.01 .. 0.02).
* derived: closed forms (0.5 exchangeability, 1/2 + 1/pi, 2/pi, 3/4) and
  values recomputed here with independent estimators (Monte Carlo over raw
  interval degrees); these get tight tolerances.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from oracles import (
    conflict_naive,
    d_inc_naive,
    jousselme_naive,
    random_bba,
    sigma_inc_naive,
)

from cbf.consonant import (
    consonant_from_exponential,
    consonant_from_normal,
    pignistic_density,
    to_generic,
)
from cbf.discrete import DiscreteMassFunction, conflict, d_inc, jousselme_distance, sigma_inc
from cbf.intervals import delta_inc_partial
from cbf.measures import (
    distance,
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
from cbf.quadrature import QuadratureConfig, mc_estimate, nodes_and_weights

CFG = QuadratureConfig()
LIGHT = QuadratureConfig(points_per_axis=16, refine_max_doublings=1)

F1 = consonant_from_normal(0.0, 1.0)
F2 = consonant_from_normal(0.0, 0.5)
F3 = consonant_from_normal(4.0, 1.0)
F4 = consonant_from_normal(4.0, 0.5)
FAMILY = [F1, F2, F3, F4]

PUBLISHED = {
    "strict_diag": 0.5032,
    "partial_diag": 0.8183,
    "strict_narrow_in_wide": 0.8586,
    "partial_narrow_in_wide": 0.9595,
    "strict_wide_in_narrow": 0.1437,
    "partial_wide_in_narrow": 0.5498,
    "strict_row_avgs": (0.0509, 0.3038),
    "partial_row_avgs": (0.1921, 0.3217),
}


def test_criterion_01_strict_self_inclusion_diagonal():
    # derived: P(Z2 >= Z1) = 1/2 for iid nesting draws; the published
    # diagonal 0.5032 must then sit within its own grid error of ours
    start = time.perf_counter()
    value = inc_strict(F1, F1, CFG).value
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(0.5, abs=1e-3)
    assert abs(value - PUBLISHED["strict_diag"]) < 0.01
    assert elapsed < 1.0


def test_criterion_02_partial_self_inclusion_with_mc_cross_check():
    start = time.perf_counter()
    value = inc_partial(F1, F1, CFG).value
    assert abs(value - PUBLISHED["partial_diag"]) < 0.005
    # derived closed form for the same quantity
    assert value == pytest.approx(0.5 + 1.0 / math.pi, abs=1e-4)

    # seeded Monte Carlo over raw interval degrees, no tail rewriting
    sampler = nesting_pair_sampler(F1, F1)

    def ratio(z1, z2):
        lo1, hi1 = F1.focal_bounds(z1)
        lo2, hi2 = F1.focal_bounds(z2)
        return delta_inc_partial(lo1, hi1, lo2, hi2)

    mc, se = mc_estimate(sampler, ratio, 1_000_000, seed=20240817)
    assert abs(value - mc) <= 3.0 * se
    assert time.perf_counter() - start < 5.0


def test_criterion_03_asymmetric_nested_pair():
    # N(0,0.5) into N(0,1) and back, both inclusion kinds, against the
    # published values with the documented 0.02 reproduction band
    assert abs(inc_strict(F2, F1, CFG).value - PUBLISHED["strict_narrow_in_wide"]) < 0.02
    assert abs(inc_partial(F2, F1, CFG).value - PUBLISHED["partial_narrow_in_wide"]) < 0.02
    assert abs(inc_strict(F1, F2, CFG).value - PUBLISHED["strict_wide_in_narrow"]) < 0.02
    assert abs(inc_partial(F1, F2, CFG).value - PUBLISHED["partial_wide_in_narrow"]) < 0.02


def test_criterion_04_translation_invariance():
    # (F3, F4) is (F1, F2) shifted by 4; every measure must agree
    checks = [
        (inc_strict(F1, F2, CFG).value, inc_strict(F3, F4, CFG).value),
        (inc_strict(F2, F1, CFG).value, inc_strict(F4, F3, CFG).value),
        (inc_partial(F1, F2, CFG).value, inc_partial(F3, F4, CFG).value),
        (inc_partial(F2, F1, CFG).value, inc_partial(F4, F3, CFG).value),
        (inc_partial_reversed(F1, F2, CFG).value, inc_partial_reversed(F3, F4, CFG).value),
        (scalar_product(F1, F2, CFG), scalar_product(F3, F4, CFG)),
        (distance(F1, F2, CFG), distance(F3, F4, CFG)),
    ]
    for base, shifted in checks:
        assert abs(base - shifted) < 1e-6


def test_criterion_05_row_averages():
    # rows 1 and 2 of the published average columns; each row average is
    # the mean inclusion of that density in the other three
    for i, expected in enumerate(PUBLISHED["strict_row_avgs"]):
        assert abs(inc_avg_strict(i, FAMILY, CFG) - expected) < 0.02
    for i, expected in enumerate(PUBLISHED["partial_row_avgs"]):
        assert abs(inc_avg_partial(i, FAMILY, CFG) - expected) < 0.02


def test_criterion_06_pignistic_round_trips():
    # both constructions must reproduce their source pdf on a 1001-point
    # grid and carry unit mass.  The exponential needs a deeper truncation
    # to push the Gamma(2) tail below the assertion level.
    x = np.linspace(-5.0, 5.0, 1001)
    err_n = np.max(np.abs(pignistic_density(F1, x) - stats.norm.pdf(x)))
    assert err_n < 1e-6

    exp_deep = consonant_from_exponential(1.0, truncation_k=20.0)
    xe = np.linspace(0.0, 5.0, 1001)
    err_e = np.max(np.abs(pignistic_density(exp_deep, xe) - stats.expon.pdf(xe)))
    assert err_e < 1e-6

    z, w = nodes_and_weights(512, 0.0, F1.support_bound)
    assert abs(float(w @ F1.density(z)) - 1.0) < 1e-6
    z, w = nodes_and_weights(512, 0.0, exp_deep.support_bound)
    assert abs(float(w @ exp_deep.density(z)) - 1.0) < 1e-6


def test_criterion_07_property_battery():
    start = time.perf_counter()
    rng = np.random.default_rng(20240818)

    # strict never exceeds partial, and both stay in [0, 1]: 500 random pairs
    for _ in range(500):
        mu_a, mu_b = rng.uniform(-5.0, 5.0, 2)
        s_a, s_b = rng.uniform(0.1, 3.0, 2)
        fa = consonant_from_normal(mu_a, s_a)
        fb = consonant_from_normal(mu_b, s_b)
        s = inc_strict(fa, fb, LIGHT).value
        p = inc_partial(fa, fb, LIGHT).value
        assert 0.0 <= s <= 1.0
        assert 0.0 <= p <= 1.0
        assert s <= p + 1e-3

    # reversed partial inclusion equals partial inclusion with swapped
    # operands, including across families
    swap_pairs = [(F1, F2), (F1, F3), (F2, F4),
                  (consonant_from_exponential(2.0), F1),
                  (F3, consonant_from_exponential(0.7))]
    for _ in range(15):
        mu, s_ = rng.uniform(-4.0, 4.0), rng.uniform(0.2, 2.5)
        swap_pairs.append((consonant_from_normal(mu, s_), F1))
    for fa, fb in swap_pairs:
        r = inc_partial_reversed(fa, fb, CFG).value
        s = inc_partial(fb, fa, CFG).value
        assert abs(r - s) < 1e-4

    # strict inclusion grows with the including density's spread
    for mu2 in (0.0, 2.0):
        values = [
            inc_strict(F1, consonant_from_normal(mu2, sig), CFG).value
            for sig in np.arange(0.5, 5.01, 0.5)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    assert time.perf_counter() - start < 120.0


def test_criterion_08_discrete_brute_force_equivalence():
    # packed bitmask implementation against the frozenset oracle:
    # 1000 random mass functions on frames of size 1..4, paired up
    rng = np.random.default_rng(20240819)
    frames = [("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")]
    for _ in range(500):
        frame = frames[int(rng.integers(0, len(frames)))]
        m1 = random_bba(rng, frame)
        m2 = random_bba(rng, frame)
        assert abs(d_inc(m1, m2) - d_inc_naive(m1, m2)) <= 1e-12
        assert abs(sigma_inc(m1, m2) - sigma_inc_naive(m1, m2)) <= 1e-12
        assert abs(jousselme_distance(m1, m2) - jousselme_naive(m1, m2)) <= 1e-12
        assert abs(conflict(m1, m2) - conflict_naive(m1, m2)) <= 1e-12

    # spot values: identity is conflict-free, disjoint categoricals maximal
    m = DiscreteMassFunction(("a", "b"), {("a",): 0.4, ("a", "b"): 0.6})
    assert conflict(m, m) == 0.0
    ca = DiscreteMassFunction(("a", "b"), {("a",): 1.0})
    cb = DiscreteMassFunction(("a", "b"), {("b",): 1.0})
    assert conflict(ca, cb) == pytest.approx(1.0, abs=1e-12)


def test_criterion_09_generic_path_agreement():
    # the generic double-sum over discretised focal atoms must match the
    # consonant fast paths on three representative pairs
    pairs = [(F1, F2), (F3, F1), (consonant_from_exponential(1.5), F1)]
    for fa, fb in pairs:
        ga, gb = to_generic(fa), to_generic(fb)
        assert abs(inc_strict_generic(ga, gb, CFG) - inc_strict(fa, fb, CFG).value) < 1e-3
        assert abs(inc_partial_generic(ga, gb, CFG) - inc_partial(fa, fb, CFG).value) < 1e-3
        assert abs(scalar_product_generic(ga, gb, CFG) - scalar_product(fa, fb, CFG)) < 1e-3
