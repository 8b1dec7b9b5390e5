import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrecon.grid import (
    IndexSet2D,
    count_shifts,
    dilate,
    predicted_rank,
    valid_output_set,
)


def brute_dilate(a: IndexSet2D, b: IndexSet2D) -> set:
    return {(x1 + y1, x2 + y2) for (x1, x2) in a.indices for (y1, y2) in b.indices}


def reflect(s: IndexSet2D) -> IndexSet2D:
    """The box -s."""
    return IndexSet2D((-s.kmax[0], -s.kmax[1]), s.extents)


small_extents = st.integers(min_value=1, max_value=5)
small_offsets = st.integers(min_value=-3, max_value=3)


def rect_sets(draw):
    e1, e2 = draw(small_extents), draw(small_extents)
    o1, o2 = draw(small_offsets), draw(small_offsets)
    return IndexSet2D.rect(e1, e2, offset=(o1, o2))


rects = st.builds(
    IndexSet2D.rect,
    small_extents,
    small_extents,
    st.tuples(small_offsets, small_offsets),
)


class TestIndexSet2D:
    def test_centered_convention_odd(self):
        assert list(IndexSet2D.rect(5, 1).axis_ranges()[0]) == [-2, -1, 0, 1, 2]

    def test_centered_convention_even(self):
        assert list(IndexSet2D.rect(1, 4).axis_ranges()[1]) == [-2, -1, 0, 1]

    def test_rect_is_rectangular(self):
        s = IndexSet2D.rect(3, 4)
        assert len(s) == 12 == len(s.indices)
        assert s.extents == (3, 4)

    def test_bounding_box_tight(self):
        s = IndexSet2D((-1, 0), (4, 4))
        assert s.kmin == (-1, 0)
        assert s.kmax == (2, 3)

    @given(rects)
    def test_stored_bounds_match_reductions(self, s):
        idx = s.indices
        assert np.array_equal(s.kmin, idx.min(axis=0))
        assert np.array_equal(s.kmax, idx.max(axis=0))
        assert len(s) == len(idx) == len(set(map(tuple, idx)))
        r1, r2 = s.axis_ranges()
        assert np.array_equal(r1, np.arange(s.kmin[0], s.kmax[0] + 1))
        assert np.array_equal(r2, np.arange(s.kmin[1], s.kmax[1] + 1))
        # row-major: lexicographically sorted
        assert idx.tolist() == sorted(idx.tolist())
        assert s.indices is idx and not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0

    def test_equality_and_hash_from_the_box(self):
        a = IndexSet2D.rect(4, 6, offset=(1, -2))
        b = IndexSet2D((-1, -5), (4, 6))
        assert a == b and hash(a) == hash(b) and a.kmin == (-1, -5)
        assert a != IndexSet2D.rect(4, 6)

    def test_integer_extents_accepted(self):
        s = IndexSet2D((np.int64(-1), 0), (np.int64(3), 1))
        assert len(s) == 3 and s == IndexSet2D((-1, 0), (3, 1))
        assert all(type(v) is int for v in s.kmin + s.extents)

    @pytest.mark.parametrize("extents", [(2.5, 3), (3, 3.0), (True, 3), (0, 3), (3, -1)],
                             ids=["fraction", "float", "bool", "zero", "negative"])
    def test_non_integer_or_empty_extents_raise(self, extents):
        with pytest.raises(ValueError, match="integers >= 1"):
            IndexSet2D((0, 0), extents)

    @pytest.mark.parametrize("kmin", [(0.5, 0), (True, 0), (0, 0, 0)],
                             ids=["fraction", "bool", "triple"])
    def test_kmin_must_be_an_integer_pair(self, kmin):
        with pytest.raises(ValueError, match="pair of integers"):
            IndexSet2D(kmin, (3, 3))

    def test_json_roundtrip_rect(self):
        s = IndexSet2D.rect(4, 6, offset=(1, -2))
        assert IndexSet2D.from_json_dict(s.to_json_dict()) == s

    @given(rects)
    def test_json_roundtrip_property(self, s):
        assert IndexSet2D.from_json_dict(s.to_json_dict()) == s

    @pytest.mark.parametrize("d,field", [
        ({"kind": "rect", "extents": ["a", 3]}, "extents"),
        ({"kind": "rect", "extents": [3.5, 3]}, "extents"),
        ({"kind": "rect", "extents": [True, 3]}, "extents"),
        ({"kind": "rect", "extents": [3]}, "extents"),
        ({"kind": "rect", "extents": [3, 3], "offset": 5}, "offset"),
        ({"kind": "rect", "extents": [3, 3], "offset": ["x", 0]}, "offset"),
        ({"kind": "list", "elements": [[0, 0]]}, "list"),  # boxes only
    ])
    def test_json_ill_typed_fields_rejected(self, d, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            IndexSet2D.from_json_dict(d)

    @given(rects, rects)
    def test_contains_matches_set_definition(self, a, b):
        mine = set(map(tuple, a.indices))
        assert a.contains(b) == all(tuple(row) in mine for row in b.indices)

    @given(rects, st.data())
    def test_contains_every_subset(self, a, data):
        # every sub-box, and no box reaching one step past any side
        lo = [data.draw(st.integers(k, k + e - 1)) for k, e in zip(a.kmin, a.extents)]
        ext = [data.draw(st.integers(1, k + e - l)) for k, e, l in zip(a.kmin, a.extents, lo)]
        assert a.contains(IndexSet2D(lo, ext))
        for axis in (0, 1):
            for step in (-1, 1):
                out = list(a.kmin)
                out[axis] += step
                assert not a.contains(IndexSet2D(out, a.extents))


class TestDilate:
    def test_identity_element(self):
        origin = IndexSet2D((0, 0), (1, 1))
        b = IndexSet2D.rect(3, 2, offset=(1, 0))
        assert dilate(origin, b) == b

    def test_extent_arithmetic(self):
        a = IndexSet2D.rect(2, 2)
        b = IndexSet2D.rect(3, 3)
        assert dilate(a, b).extents == (4, 4)

    def test_rect_3x3_by_5x5_matches_brute_force(self):
        a = IndexSet2D.rect(3, 3)
        b = IndexSet2D.rect(5, 5)
        d = dilate(a, b)
        assert d.extents == (7, 7)
        assert set(map(tuple, d.indices)) == brute_dilate(a, b)

    @given(rects, rects)
    @settings(max_examples=50)
    def test_matches_brute_force(self, a, b):
        assert set(map(tuple, dilate(a, b).indices)) == brute_dilate(a, b)

    @given(rects, rects)
    @settings(max_examples=30)
    def test_commutative(self, a, b):
        assert dilate(a, b) == dilate(b, a)

    @given(rects, rects, rects)
    @settings(max_examples=20)
    def test_associative(self, a, b, c):
        assert dilate(dilate(a, b), c) == dilate(a, dilate(b, c))


class TestValidOutputSet:
    def test_7x7_with_3x3(self):
        out = valid_output_set(IndexSet2D.rect(7, 7), IndexSet2D.rect(3, 3))
        assert out.extents == (5, 5)

    def test_255_with_15(self):
        out = valid_output_set(IndexSet2D.rect(255, 255), IndexSet2D.rect(15, 15))
        assert out.extents == (241, 241)

    def test_full_size_filter(self):
        out = valid_output_set(IndexSet2D.rect(4, 6), IndexSet2D.rect(4, 6))
        assert out.extents == (1, 1)

    def test_filter_larger_than_grid(self):
        with pytest.raises(ValueError, match="larger than grid"):
            valid_output_set(IndexSet2D.rect(3, 3), IndexSet2D.rect(5, 5))

    @given(rects, rects)
    @settings(max_examples=60)
    def test_dilate_reproduces_gamma(self, gamma, lambda1):
        ge, fe = gamma.extents, lambda1.extents
        if fe[0] > ge[0] or fe[1] > ge[1]:
            with pytest.raises(ValueError):
                valid_output_set(gamma, lambda1)
            return
        # every window l - lambda1 lies in gamma, and together they read it all
        l2 = valid_output_set(gamma, lambda1)
        assert dilate(l2, reflect(lambda1)) == gamma


class TestShiftCounting:
    @pytest.mark.parametrize(
        "e1, e0, expected",
        [((3, 3), (2, 2), 4), ((5, 5), (3, 3), 9), ((5, 5), (5, 5), 1)],
    )
    def test_counts(self, e1, e0, expected):
        assert count_shifts(IndexSet2D.rect(*e1), IndexSet2D.rect(*e0)) == expected

    def test_zero_when_larger(self):
        assert count_shifts(IndexSet2D.rect(2, 2), IndexSet2D.rect(3, 3)) == 0

    @pytest.mark.parametrize(
        "e1, e0, expected",
        [((3, 3), (2, 2), 5), ((5, 5), (3, 3), 16)],
    )
    def test_predicted_rank(self, e1, e0, expected):
        assert predicted_rank(IndexSet2D.rect(*e1), IndexSet2D.rect(*e0)) == expected

    def test_rank_monotone_in_filter_size(self):
        lam0 = IndexSet2D.rect(3, 3)
        ranks = [
            predicted_rank(IndexSet2D.rect(e, e), lam0) for e in range(3, 12)
        ]
        assert all(r2 >= r1 for r1, r2 in zip(ranks, ranks[1:]))
