import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbf.intervals import (
    delta_inc_partial,
    delta_inc_partial_rev,
    delta_inc_strict,
    jaccard_delta,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@st.composite
def endpoint_pair(draw, min_len=0.0):
    a = draw(finite)
    b = draw(finite)
    lo, hi = min(a, b), max(a, b)
    if hi - lo < min_len:
        hi = lo + min_len
    return lo, hi


class TestJaccardDelta:
    def test_partial_overlap(self):
        # [0,2] vs [1,4]: intersection [1,2], hull [0,4]
        assert jaccard_delta(0, 2, 1, 4) == pytest.approx(0.25)

    def test_known_third(self):
        assert jaccard_delta(0, 1, 0, 3) == pytest.approx(1.0 / 3.0)

    def test_identical_intervals(self):
        assert jaccard_delta(-1, 5, -1, 5) == 1.0

    def test_disjoint(self):
        assert jaccard_delta(0, 1, 2, 3) == 0.0

    def test_identical_points(self):
        assert jaccard_delta(1.0, 1.0, 1.0, 1.0) == 1.0

    def test_point_outside_interval(self):
        assert jaccard_delta(5.0, 5.0, 0.0, 1.0) == 0.0

    def test_point_inside_interval(self):
        # zero-length intersection against a positive hull
        assert jaccard_delta(0.5, 0.5, 0.0, 1.0) == 0.0

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            jaccard_delta(2, 1, 0, 1)
        with pytest.raises(ValueError):
            jaccard_delta(0, 1, 2, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            jaccard_delta(0, np.inf, 0, 1)

    @given(endpoint_pair(), endpoint_pair())
    def test_symmetry(self, p1, p2):
        a = jaccard_delta(*p1, *p2)
        b = jaccard_delta(*p2, *p1)
        assert a == b

    @given(endpoint_pair(), endpoint_pair())
    def test_bounds(self, p1, p2):
        v = jaccard_delta(*p1, *p2)
        assert 0.0 <= v <= 1.0

    @given(
        endpoint_pair(min_len=0.01),
        endpoint_pair(min_len=0.01),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    def test_translation_invariance(self, p1, p2, c):
        v = jaccard_delta(*p1, *p2)
        w = jaccard_delta(p1[0] + c, p1[1] + c, p2[0] + c, p2[1] + c)
        assert v == pytest.approx(w, abs=1e-9)


class TestStrictDelta:
    def test_subset(self):
        assert delta_inc_strict(1, 2, 0, 3) == 1.0

    def test_not_subset(self):
        assert delta_inc_strict(0, 3, 1, 2) == 0.0

    def test_equal_intervals_count_as_included(self):
        assert delta_inc_strict(0, 1, 0, 1) == 1.0

    def test_partial_overlap_is_zero(self):
        assert delta_inc_strict(0, 2, 1, 3) == 0.0

    @given(endpoint_pair(), endpoint_pair())
    def test_indicator_values_only(self, p1, p2):
        assert delta_inc_strict(*p1, *p2) in (0.0, 1.0)

    @given(endpoint_pair(), endpoint_pair())
    def test_strict_implies_full_partial(self, p1, p2):
        if delta_inc_strict(*p1, *p2) == 1.0:
            assert delta_inc_partial(*p1, *p2) == pytest.approx(1.0)


class TestPartialDelta:
    def test_half_covered(self):
        # [0,2] overlaps [1,5] on [1,2], half of the first interval
        assert delta_inc_partial(0, 2, 1, 5) == pytest.approx(0.5)

    def test_subset_fully_covered(self):
        assert delta_inc_partial(1, 2, 0, 3) == 1.0

    def test_disjoint_zero(self):
        assert delta_inc_partial(0, 1, 2, 3) == 0.0

    def test_point_first_interval_inside(self):
        assert delta_inc_partial(0.5, 0.5, 0.0, 1.0) == 1.0

    def test_point_first_interval_outside(self):
        assert delta_inc_partial(5.0, 5.0, 0.0, 1.0) == 0.0

    @given(endpoint_pair(), endpoint_pair())
    def test_bounds(self, p1, p2):
        v = delta_inc_partial(*p1, *p2)
        assert 0.0 <= v <= 1.0

    @given(endpoint_pair(), endpoint_pair())
    def test_dominates_strict(self, p1, p2):
        assert delta_inc_strict(*p1, *p2) <= delta_inc_partial(*p1, *p2)


class TestPartialReversedDelta:
    def test_normalised_by_second_length(self):
        # overlap [1,2] against second interval [1,5] of length 4
        assert delta_inc_partial_rev(0, 2, 1, 5) == pytest.approx(0.25)

    def test_point_second_interval(self):
        assert delta_inc_partial_rev(0.0, 1.0, 0.5, 0.5) == 1.0
        assert delta_inc_partial_rev(0.0, 1.0, 5.0, 5.0) == 0.0

    @given(endpoint_pair(), endpoint_pair())
    def test_swap_identity_is_exact(self, p1, p2):
        # reversing the normalisation equals swapping the operand roles
        assert delta_inc_partial_rev(*p1, *p2) == delta_inc_partial(*p2, *p1)

    @given(endpoint_pair(), endpoint_pair())
    def test_bounds(self, p1, p2):
        v = delta_inc_partial_rev(*p1, *p2)
        assert 0.0 <= v <= 1.0


class TestBroadcasting:
    def test_scalar_inputs_return_float(self):
        assert isinstance(jaccard_delta(0, 1, 0, 2), float)
        assert isinstance(delta_inc_partial(0, 1, 0, 2), float)

    def test_array_broadcast(self):
        lo1 = np.array([[0.0], [1.0]])
        hi1 = lo1 + 1.0
        lo2 = np.array([[0.0, 2.0]])
        hi2 = lo2 + 2.0
        v = delta_inc_partial(lo1, hi1, lo2, hi2)
        assert v.shape == (2, 2)
        expected = np.array(
            [[delta_inc_partial(0, 1, 0, 2), delta_inc_partial(0, 1, 2, 4)],
             [delta_inc_partial(1, 2, 0, 2), delta_inc_partial(1, 2, 2, 4)]]
        )
        np.testing.assert_allclose(v, expected)

    def test_strict_array(self):
        v = delta_inc_strict(np.array([1.0, 0.0]), np.array([2.0, 3.0]), 0.0, 3.0)
        np.testing.assert_array_equal(v, [1.0, 1.0])
