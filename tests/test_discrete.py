import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bel_naive,
    d_inc_naive,
    jousselme_naive,
    jousselme_union,
    pl_naive,
    q_naive,
    random_bba,
    random_bba_with_empty,
    subsets as _subsets,
)

from cbf import discrete
from cbf.discrete import (
    MAX_FRAME,
    DiscreteMassFunction,
    conflict,
    d_inc,
    jousselme_distance,
    parse_bba,
    sigma_inc,
)


class TestConstruction:
    def test_basic(self):
        m = DiscreteMassFunction(("a", "b"), {("a",): 0.3, ("a", "b"): 0.7})
        assert m.mass(("a",)) == 0.3
        assert m.mass("a") == 0.3
        assert m.mass(("b",)) == 0.0

    def test_singleton_string_shorthand(self):
        m = DiscreteMassFunction(("a", "b"), {"a": 1.0})
        assert m.mass(("a",)) == 1.0

    def test_duplicate_subsets_accumulate(self):
        m = DiscreteMassFunction(("a", "b"), {("a", "b"): 0.5, ("b", "a"): 0.5})
        assert m.mass(("a", "b")) == 1.0

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="'c'"):
            DiscreteMassFunction(("a", "b"), {("c",): 1.0})

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DiscreteMassFunction(("a",), {("a",): -0.1, (): 1.1})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMassFunction(("a", "b"), {("a",): 0.6, ("b",): 0.6})

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            DiscreteMassFunction((), {})

    def test_rejects_oversized_frame(self):
        frame = tuple(f"e{i}" for i in range(MAX_FRAME + 1))
        with pytest.raises(ValueError):
            DiscreteMassFunction(frame, {frame: 1.0})

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            DiscreteMassFunction(("a", "a"), {("a",): 1.0})

    def test_slightly_off_total_within_tolerance(self):
        third = 1.0 / 3.0
        m = DiscreteMassFunction(("a", "b", "c"), {"a": third, "b": third, "c": third})
        assert m.mass("a") == third

    def test_focal_sets_sorted_and_positive(self):
        m = DiscreteMassFunction(("a", "b"), {("b",): 0.4, ("a",): 0.6, ("a", "b"): 0.0})
        assert m.focal_sets() == (("a",), ("b",))

    def test_equality(self):
        m1 = DiscreteMassFunction(("a", "b"), {"a": 0.5, "b": 0.5})
        m2 = DiscreteMassFunction(("a", "b"), {("b",): 0.5, ("a",): 0.5})
        assert m1 == m2


class TestBelPlQ:
    def test_vacuous(self):
        m = DiscreteMassFunction(("a", "b", "c"), {("a", "b", "c"): 1.0})
        assert m.bel(("a",)) == 0.0
        assert m.bel(("a", "b", "c")) == 1.0
        assert m.pl(("a",)) == 1.0
        assert m.q(("a", "b")) == 1.0

    def test_categorical(self):
        m = DiscreteMassFunction(("a", "b"), {("a",): 1.0})
        assert m.bel(("a",)) == 1.0
        assert m.pl(("b",)) == 0.0
        assert m.q(("a",)) == 1.0
        assert m.q(("a", "b")) == 0.0

    def test_mixed(self):
        m = DiscreteMassFunction(("a", "b"), {("a",): 0.4, ("a", "b"): 0.6})
        assert m.bel(("a",)) == pytest.approx(0.4)
        assert m.pl(("a",)) == pytest.approx(1.0)
        assert m.pl(("b",)) == pytest.approx(0.6)
        assert m.q(("a",)) == pytest.approx(1.0)

    def test_empty_argument(self):
        m = DiscreteMassFunction(("a", "b"), {("a",): 1.0})
        assert m.bel(()) == 0.0
        assert m.pl(()) == 0.0
        assert m.q(()) == 1.0

    def test_bel_below_pl(self):
        rng = np.random.default_rng(5)
        frame = ("a", "b", "c")
        for _ in range(50):
            m = random_bba(rng, frame)
            for x in _subsets(frame):
                assert m.bel(x) <= m.pl(x) + 1e-12

    def test_pl_complement_duality(self):
        rng = np.random.default_rng(6)
        frame = ("a", "b", "c")
        for _ in range(50):
            m = random_bba(rng, frame)
            for x in _subsets(frame):
                comp = frozenset(frame) - x
                assert m.pl(x) == pytest.approx(1.0 - m.bel(comp), abs=1e-12)


class TestJousselme:
    def test_identical(self):
        m = DiscreteMassFunction(("a", "b"), {("a",): 0.4, ("a", "b"): 0.6})
        assert jousselme_distance(m, m) == 0.0

    def test_disjoint_categoricals(self):
        m1 = DiscreteMassFunction(("a", "b"), {("a",): 1.0})
        m2 = DiscreteMassFunction(("a", "b"), {("b",): 1.0})
        assert jousselme_distance(m1, m2) == pytest.approx(1.0)

    def test_nested_categoricals(self):
        m1 = DiscreteMassFunction(("a", "b"), {("a",): 1.0})
        m2 = DiscreteMassFunction(("a", "b"), {("a", "b"): 1.0})
        # J({a},{a,b}) = 1/2 -> d = sqrt(0.5 * (1 + 1 - 2*0.5)) = sqrt(0.5)
        assert jousselme_distance(m1, m2) == pytest.approx(math.sqrt(0.5))

    def test_rejects_mismatched_frames(self):
        m1 = DiscreteMassFunction(("a", "b"), {("a",): 1.0})
        m2 = DiscreteMassFunction(("a", "c"), {("a",): 1.0})
        with pytest.raises(ValueError, match="frames differ"):
            jousselme_distance(m1, m2)

    def test_matches_naive_on_random_pairs(self):
        rng = np.random.default_rng(11)
        frame = ("a", "b", "c", "d")
        for _ in range(100):
            m1, m2 = random_bba(rng, frame), random_bba(rng, frame)
            assert jousselme_distance(m1, m2) == pytest.approx(
                jousselme_naive(m1, m2), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        frame = ("a", "b", "c")
        for _ in range(30):
            m1, m2 = random_bba(rng, frame), random_bba(rng, frame)
            assert jousselme_distance(m1, m2) == pytest.approx(
                jousselme_distance(m2, m1), abs=1e-15)

    def test_empty_set_mass_is_handled(self):
        # the Jaccard matrix convention puts the empty set at similarity 1
        # with itself, so stored empty-set mass cancels instead of exploding
        m1 = DiscreteMassFunction(("a",), {(): 0.5, ("a",): 0.5})
        m2 = DiscreteMassFunction(("a",), {(): 0.5, ("a",): 0.5})
        assert jousselme_distance(m1, m2) == 0.0
        m3 = DiscreteMassFunction(("a",), {(): 0.2, ("a",): 0.8})
        assert jousselme_distance(m1, m3) == pytest.approx(jousselme_naive(m1, m3), abs=1e-12)


class TestJousselmeKernel:
    FRAME = tuple(f"e{i}" for i in range(MAX_FRAME))

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(41)
        return tuple(random_bba_with_empty(rng, self.FRAME, 200) for _ in range(2))

    def test_popcount_table(self):
        np.testing.assert_array_equal(
            discrete._POPCOUNT, [k.bit_count() for k in range(1 << MAX_FRAME)])

    def test_reference_agrees_with_the_full_enumeration(self):
        rng = np.random.default_rng(42)
        frame = ("a", "b", "c", "d")
        for _ in range(20):
            m1, m2 = random_bba_with_empty(rng, frame, 4), random_bba(rng, frame)
            assert jousselme_union(m1, m2) == pytest.approx(jousselme_naive(m1, m2), abs=1e-12)

    def test_full_frame_matches_the_union_reference(self, pair):
        m1, m2 = pair
        assert jousselme_distance(m1, m2) == pytest.approx(jousselme_union(m1, m2), abs=1e-12)

    def test_row_blocks_match_one_block(self, pair, monkeypatch):
        m1, m2 = pair
        whole = jousselme_distance(m1, m2)
        # about 400 masks in the union: 7 rows per block, some 60 blocks
        monkeypatch.setattr(discrete, "_BLOCK_ELEMS", 3000)
        assert jousselme_distance(m1, m2) == pytest.approx(whole, abs=1e-15)

    def test_self_distance_is_exactly_zero(self, pair):
        for m in pair:
            assert m.mass(()) > 0.0
            assert jousselme_distance(m, m) == 0.0


class TestInclusionDegrees:
    def test_nested_family_fully_included(self):
        m1 = DiscreteMassFunction(("a", "b"), {("a",): 0.5, ("a", "b"): 0.5})
        m2 = DiscreteMassFunction(("a", "b"), {("a", "b"): 1.0})
        assert d_inc(m1, m2) == 1.0
        assert d_inc(m2, m1) == 0.5

    def test_categorical_in_vacuous(self):
        m1 = DiscreteMassFunction(("a", "b", "c"), {("a",): 1.0})
        vac = DiscreteMassFunction(("a", "b", "c"), {("a", "b", "c"): 1.0})
        assert d_inc(m1, vac) == 1.0
        assert d_inc(vac, m1) == 0.0

    def test_sigma_is_symmetric_max(self):
        m1 = DiscreteMassFunction(("a", "b"), {("a",): 0.5, ("a", "b"): 0.5})
        m2 = DiscreteMassFunction(("a", "b"), {("a", "b"): 1.0})
        assert sigma_inc(m1, m2) == sigma_inc(m2, m1) == 1.0

    def test_rejects_pure_empty_focal(self):
        m1 = DiscreteMassFunction(("a",), {(): 1.0})
        m2 = DiscreteMassFunction(("a",), {("a",): 1.0})
        with pytest.raises(ValueError):
            d_inc(m1, m2)

    def test_matches_naive_on_random_pairs(self):
        rng = np.random.default_rng(21)
        frame = ("a", "b", "c", "d")
        for _ in range(100):
            m1, m2 = random_bba(rng, frame), random_bba(rng, frame)
            assert d_inc(m1, m2) == pytest.approx(d_inc_naive(m1, m2), abs=1e-15)


class TestConflict:
    def test_identical_is_conflict_free(self):
        m = DiscreteMassFunction(("a", "b"), {("a",): 0.3, ("a", "b"): 0.7})
        assert conflict(m, m) == 0.0

    def test_disjoint_categoricals_fully_conflict(self):
        m1 = DiscreteMassFunction(("a", "b"), {("a",): 1.0})
        m2 = DiscreteMassFunction(("a", "b"), {("b",): 1.0})
        assert conflict(m1, m2) == pytest.approx(1.0)

    def test_included_pair_is_conflict_free(self):
        m1 = DiscreteMassFunction(("a", "b"), {("a",): 1.0})
        m2 = DiscreteMassFunction(("a", "b"), {("a", "b"): 1.0})
        assert conflict(m1, m2) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        frame = ("a", "b", "c")
        for _ in range(30):
            m1, m2 = random_bba(rng, frame), random_bba(rng, frame)
            assert conflict(m1, m2) == pytest.approx(conflict(m2, m1), abs=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(32)
        frame = ("a", "b", "c", "d")
        for _ in range(100):
            m1, m2 = random_bba(rng, frame), random_bba(rng, frame)
            assert 0.0 <= conflict(m1, m2) <= 1.0


class TestParseBba:
    def test_round_trip(self):
        text = "a:0.4\na|b:0.6\n"
        m = parse_bba(text)
        assert m.frame == ("a", "b")
        assert m.mass("a") == 0.4
        assert m.mass(("a", "b")) == 0.6

    def test_comments_and_blank_lines(self):
        text = "# header\n\na:1.0\n"
        m = parse_bba(text)
        assert m.mass("a") == 1.0

    def test_whitespace_tolerant(self):
        m = parse_bba("  a | b : 0.25\n a:0.75")
        assert m.mass(("a", "b")) == 0.25

    def test_duplicate_lines_accumulate(self):
        m = parse_bba("a:0.5\na:0.5")
        assert m.mass("a") == 1.0

    def test_explicit_frame(self):
        m = parse_bba("a:1.0", frame=("a", "b", "c"))
        assert m.frame == ("a", "b", "c")
        assert m.pl(("b",)) == 0.0

    def test_rejects_missing_colon(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_bba("a|b 0.7")

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="oops"):
            parse_bba("a:oops")

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError) as err:
            parse_bba("a:0.5\n# c\na||b:0.5")
        assert str(err.value) == "line 3: empty label in 'a||b:0.5'"

    def test_rejects_label_outside_explicit_frame(self):
        with pytest.raises(ValueError) as err:
            parse_bba("a:0.5\nz:0.5", frame=("a", "b"))
        assert str(err.value) == "label 'z' is not in the frame ('a', 'b')"

    def test_reports_errors_ahead_of_an_unknown_label_first(self):
        with pytest.raises(ValueError, match=re.escape("mass for ('a',) must be finite and >= 0, got -0.5")):
            parse_bba("a:-0.5\nz:1.5", frame=("a", "b"))
        with pytest.raises(ValueError, match=re.escape("frame labels must be unique: ('a', 'a')")):
            parse_bba("z:1.0", frame=("a", "a"))

    def test_bad_mass_names_the_sorted_labels(self):
        with pytest.raises(ValueError, match=re.escape("mass for ('a', 'b') must be finite and >= 0, got nan")):
            parse_bba("b|a:nan\na:1.0", frame=("b", "a"))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            parse_bba("# nothing\n")

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            parse_bba("a:0.4\nb:0.4")


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25)
def test_randomised_oracle_equivalence(seed):
    rng = np.random.default_rng(seed)
    frame = ("a", "b", "c")[: int(rng.integers(1, 4))]
    m1, m2 = random_bba(rng, frame), random_bba(rng, frame)
    assert jousselme_distance(m1, m2) == pytest.approx(jousselme_naive(m1, m2), abs=1e-12)
    assert d_inc(m1, m2) == pytest.approx(d_inc_naive(m1, m2), abs=1e-15)
    for x in _subsets(frame):
        assert m1.bel(x) == pytest.approx(bel_naive(m1, x), abs=1e-12)
        assert m1.pl(x) == pytest.approx(pl_naive(m1, x), abs=1e-12)
        assert m1.q(x) == pytest.approx(q_naive(m1, x), abs=1e-12)
