import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrecon.grid import (
    GridShape,
    IndexSet2D,
    centered_range,
    count_shifts,
    dilate,
    predicted_rank,
    valid_output_set,
)


def brute_dilate(a: IndexSet2D, b: IndexSet2D) -> set:
    return {(x1 + y1, x2 + y2) for (x1, x2) in a for (y1, y2) in b}


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

arbitrary_sets = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=12
).map(IndexSet2D.from_indices)


class TestGridShape:
    def test_integer_dimensions_accepted(self):
        assert GridShape(np.int64(3), 1).size == 3

    @pytest.mark.parametrize("dims", [(2.5, 3), (3, 3.0), (True, 3), (0, 3), (3, -1)],
                             ids=["fraction", "float", "bool", "zero", "negative"])
    def test_non_integer_or_empty_dimensions_raise(self, dims):
        with pytest.raises(ValueError, match="integers >= 1"):
            GridShape(*dims)


class TestIndexSet2D:
    def test_centered_convention_odd(self):
        assert list(centered_range(5)) == [-2, -1, 0, 1, 2]

    def test_centered_convention_even(self):
        assert list(centered_range(4)) == [-2, -1, 0, 1]

    def test_rect_is_rectangular(self):
        s = IndexSet2D.rect(3, 4)
        assert s.rectangular
        assert len(s) == 12
        assert s.extents == (3, 4)

    def test_bounding_box_tight(self):
        s = IndexSet2D.from_indices([(0, 0), (2, 3), (-1, 1)])
        assert tuple(s.kmin) == (-1, 0)
        assert tuple(s.kmax) == (2, 3)
        assert not s.rectangular

    @given(st.one_of(arbitrary_sets, rects))
    def test_stored_bounds_match_reductions(self, s):
        idx = s.indices
        assert np.array_equal(s.kmin, idx.min(axis=0))
        assert np.array_equal(s.kmax, idx.max(axis=0))
        e = idx.max(axis=0) - idx.min(axis=0) + 1
        assert s.extents == (int(e[0]), int(e[1]))
        assert s.rectangular == (len(s) == int(e[0]) * int(e[1]))
        arrays = [idx, s.kmin, s.kmax]
        if s.rectangular:
            r1, r2 = s.axis_ranges()
            assert np.array_equal(r1, np.arange(s.kmin[0], s.kmax[0] + 1))
            assert np.array_equal(r2, np.arange(s.kmin[1], s.kmax[1] + 1))
            arrays += [r1, r2]
        else:
            with pytest.raises(ValueError, match="rectangular"):
                s.axis_ranges()
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_duplicates_removed(self):
        s = IndexSet2D.from_indices([(0, 0), (0, 0), (1, 1)])
        assert len(s) == 2

    def test_json_roundtrip_rect(self):
        s = IndexSet2D.rect(4, 6, offset=(1, -2))
        assert IndexSet2D.from_json_dict(s.to_json_dict()) == s

    def test_json_roundtrip_list(self):
        s = IndexSet2D.from_indices([(0, 0), (3, -1), (2, 2)])
        assert IndexSet2D.from_json_dict(s.to_json_dict()) == s

    @given(arbitrary_sets)
    def test_json_roundtrip_property(self, s):
        assert IndexSet2D.from_json_dict(s.to_json_dict()) == s

    @pytest.mark.parametrize("d,field", [
        ({"kind": "rect", "extents": ["a", 3]}, "extents"),
        ({"kind": "rect", "extents": [3.5, 3]}, "extents"),
        ({"kind": "rect", "extents": [True, 3]}, "extents"),
        ({"kind": "rect", "extents": [3]}, "extents"),
        ({"kind": "rect", "extents": [3, 3], "offset": 5}, "offset"),
        ({"kind": "rect", "extents": [3, 3], "offset": ["x", 0]}, "offset"),
        ({"kind": "list", "elements": [[1.5, 2]]}, "elements"),
        ({"kind": "list", "elements": [[1, 2, 3]]}, "elements"),
        ({"kind": "list", "elements": [4]}, "elements"),
    ])
    def test_json_ill_typed_fields_rejected(self, d, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            IndexSet2D.from_json_dict(d)

    @given(arbitrary_sets, arbitrary_sets)
    def test_contains_matches_set_definition(self, a, b):
        mine = set(map(tuple, a.indices))
        assert a.contains(b) == all(tuple(row) in mine for row in b.indices)

    @given(arbitrary_sets, st.data())
    def test_contains_every_subset(self, a, data):
        rows = data.draw(st.lists(st.sampled_from([tuple(r) for r in a.indices]), min_size=1))
        assert a.contains(IndexSet2D.from_indices(rows))
        outside = IndexSet2D.from_indices(rows + [(7, 0)])  # arbitrary_sets stay within +-6
        assert not a.contains(outside)


class TestDilate:
    def test_identity_element(self):
        origin = IndexSet2D.from_indices([(0, 0)])
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

    @given(arbitrary_sets, arbitrary_sets)
    @settings(max_examples=50)
    def test_matches_brute_force(self, a, b):
        assert set(map(tuple, dilate(a, b).indices)) == brute_dilate(a, b)

    @given(arbitrary_sets, arbitrary_sets)
    @settings(max_examples=30)
    def test_commutative(self, a, b):
        assert dilate(a, b) == dilate(b, a)

    @given(arbitrary_sets, arbitrary_sets, arbitrary_sets)
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
        assert dilate(l2, IndexSet2D(-lambda1.indices)) == gamma


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
