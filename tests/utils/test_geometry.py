"""Rectangle geometry: unit + property-based tests.

The decomposition correctness proof (module docstring of
``repro.core.decomposition``) rests on interval arithmetic, so this module
gets the heaviest property coverage.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.geometry import Rect, intervals_overlap, union_rects


def rects(max_coord=50, max_size=30):
    """Strategy for non-empty rectangles."""
    return st.builds(
        lambda r0, h, c0, w: Rect(r0, r0 + h, c0, c0 + w),
        st.integers(-max_coord, max_coord),
        st.integers(1, max_size),
        st.integers(-max_coord, max_coord),
        st.integers(1, max_size),
    )


class TestBasics:
    def test_shape_and_area(self):
        r = Rect(2, 5, 10, 14)
        assert r.height == 3
        assert r.width == 4
        assert r.shape == (3, 4)
        assert r.area == 12
        assert not r.is_empty

    def test_empty_rect(self):
        assert Rect(3, 3, 0, 5).is_empty
        assert Rect(0, 5, 3, 3).is_empty
        assert Rect(3, 3, 3, 3).area == 0

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(5, 2, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 5, 2)

    def test_rect_is_hashable_and_ordered(self):
        a, b = Rect(0, 1, 0, 1), Rect(0, 1, 0, 2)
        assert len({a, b, Rect(0, 1, 0, 1)}) == 2
        assert sorted([b, a])[0] == a

    def test_contains_point(self):
        r = Rect(0, 2, 0, 2)
        assert r.contains_point(0, 0)
        assert r.contains_point(1, 1)
        assert not r.contains_point(2, 0)  # half-open
        assert not r.contains_point(0, 2)
        assert not r.contains_point(-1, 0)

    def test_iter_points_row_major(self):
        pts = list(Rect(0, 2, 5, 7).iter_points())
        assert pts == [(0, 5), (0, 6), (1, 5), (1, 6)]


class TestIntervals:
    def test_overlap_positive(self):
        assert intervals_overlap(0, 5, 3, 8)
        assert intervals_overlap(3, 8, 0, 5)

    def test_touching_is_not_overlap(self):
        assert not intervals_overlap(0, 5, 5, 8)

    def test_disjoint(self):
        assert not intervals_overlap(0, 2, 3, 4)


class TestSetOps:
    def test_intersect_basic(self):
        a, b = Rect(0, 4, 0, 4), Rect(2, 6, 2, 6)
        assert a.intersect(b) == Rect(2, 4, 2, 4)

    def test_intersect_disjoint_is_none(self):
        assert Rect(0, 2, 0, 2).intersect(Rect(5, 7, 5, 7)) is None

    def test_intersect_touching_is_none(self):
        assert Rect(0, 2, 0, 2).intersect(Rect(2, 4, 0, 2)) is None

    def test_union_bbox(self):
        a, b = Rect(0, 1, 0, 1), Rect(5, 6, 5, 6)
        assert a.union_bbox(b) == Rect(0, 6, 0, 6)

    def test_contains(self):
        outer, inner = Rect(0, 10, 0, 10), Rect(2, 5, 3, 7)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.contains(outer)

    def test_union_rects(self):
        assert union_rects([Rect(0, 1, 0, 1), Rect(3, 4, 2, 5)]) == Rect(
            0, 4, 0, 5
        )

    def test_union_rects_empty_raises(self):
        with pytest.raises(ValueError):
            union_rects([])


class TestTransforms:
    def test_expand(self):
        assert Rect(5, 10, 5, 10).expand(2) == Rect(3, 12, 3, 12)

    def test_expand_asymmetric(self):
        assert Rect(5, 10, 5, 10).expand(1, 3) == Rect(4, 11, 2, 13)

    def test_clip_inside_is_identity(self):
        bounds = Rect(0, 20, 0, 20)
        r = Rect(2, 5, 3, 9)
        assert r.clip(bounds) == r

    def test_clip_overhang(self):
        bounds = Rect(0, 10, 0, 10)
        assert Rect(-3, 5, 8, 14).clip(bounds) == Rect(0, 5, 8, 10)

    def test_clip_fully_outside_collapses(self):
        bounds = Rect(0, 10, 0, 10)
        clipped = Rect(20, 25, 20, 25).clip(bounds)
        assert clipped.is_empty

    def test_shift(self):
        assert Rect(0, 2, 0, 2).shift(3, -1) == Rect(3, 5, -1, 1)


class TestSlices:
    def test_slices_in_frame(self):
        frame = Rect(10, 20, 10, 20)
        inner = Rect(12, 15, 11, 13)
        sr, sc = inner.slices_in(frame)
        assert (sr, sc) == (slice(2, 5), slice(1, 3))

    def test_slices_in_rejects_escape(self):
        with pytest.raises(ValueError):
            Rect(0, 5, 0, 5).slices_in(Rect(2, 10, 2, 10))

    def test_global_slices(self):
        assert Rect(1, 3, 4, 8).global_slices() == (slice(1, 3), slice(4, 8))

    def test_slices_roundtrip_through_array(self):
        frame = Rect(0, 10, 0, 10)
        region = Rect(2, 5, 3, 7)
        arr = np.zeros(frame.shape)
        sl = region.slices_in(frame)
        arr[sl] = 1.0
        assert arr.sum() == region.area


# ----------------------------------------------------------------------
# Property-based
# ----------------------------------------------------------------------
class TestProperties:
    @given(rects(), rects())
    def test_intersection_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersect(b)
        if inter is not None:
            assert a.contains(inter) and b.contains(inter)

    @given(rects(), rects())
    def test_overlaps_iff_intersection(self, a, b):
        assert a.overlaps(b) == (a.intersect(b) is not None)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union_bbox(b)
        assert u.contains(a) and u.contains(b)

    @given(rects(), st.integers(0, 5), st.integers(0, 5))
    def test_expand_then_contains(self, r, mr, mc):
        assert r.expand(mr, mc).contains(r)

    @given(rects(), rects())
    def test_clip_result_inside_bounds(self, r, bounds):
        clipped = r.clip(bounds)
        assert bounds.r0 <= clipped.r0 <= clipped.r1 <= bounds.r1
        assert bounds.c0 <= clipped.c0 <= clipped.c1 <= bounds.c1

    @given(rects(), st.integers(-10, 10), st.integers(-10, 10))
    def test_shift_preserves_shape(self, r, dr, dc):
        assert r.shift(dr, dc).shape == r.shape

    @given(
        st.integers(0, 30),
        st.integers(1, 10),
        st.integers(0, 30),
        st.integers(1, 10),
        st.integers(0, 30),
        st.integers(1, 10),
    )
    def test_ordered_interval_containment(self, a0, ah, g1, bh, g2, ch):
        """The transitivity lemma of the pass proof: for ordered
        intervals A <= B <= C, A intersect C is contained in B."""
        b0 = a0 + g1
        c0 = b0 + g2
        # Make end points ordered as well.
        a1 = a0 + ah
        b1 = max(b0 + bh, a1)
        c1 = max(c0 + ch, b1)
        lo = max(a0, c0)
        hi = min(a1, c1)
        if lo < hi:  # A and C overlap
            assert b0 <= lo and hi <= b1
