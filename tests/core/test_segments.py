"""Thread-segment planning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import (
    DEFAULT_THREAD_CUTOFFS,
    choose_thread_count,
    plan_segments_range,
)


def whole_image(rows, mcus_x, threads):
    """Segments of a whole ``rows`` x ``mcus_x`` image: the range [0, n)."""
    return plan_segments_range(0, rows * mcus_x, mcus_x, threads)


class TestThreadCutoffs:
    @pytest.mark.parametrize("size,expected", [
        (1_000, 1),
        (64 * 1024 - 1, 1),
        (64 * 1024, 2),
        (256 * 1024, 4),
        (1024 * 1024, 8),
        (4 * 1024 * 1024, 8),
    ])
    def test_size_cutoffs(self, size, expected):
        assert choose_thread_count(size) == expected

    def test_custom_cutoffs(self):
        cutoffs = ((100, 1), (None, 3))
        assert choose_thread_count(50, cutoffs) == 1
        assert choose_thread_count(100, cutoffs) == 3


class TestPlanSegments:
    def test_single_thread_covers_everything(self):
        assert whole_image(10, 4, 1) == [(0, 40)]

    def test_even_split(self):
        assert whole_image(8, 2, 4) == [(0, 4), (4, 8), (8, 12), (12, 16)]

    def test_uneven_split_front_loads_remainder(self):
        segs = whole_image(5, 3, 2)
        assert segs == [(0, 9), (9, 15)]

    def test_more_threads_than_rows_capped(self):
        segs = whole_image(3, 4, 8)
        assert len(segs) == 3

    def test_threads_capped_at_max(self):
        assert len(whole_image(100, 1, 99)) == 8

    def test_no_mcus_rejected(self):
        with pytest.raises(ValueError):
            whole_image(0, 4, 2)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 20), st.integers(1, 12))
    def test_partition_properties(self, rows, mcus_x, threads):
        segs = whole_image(rows, mcus_x, threads)
        # Contiguous, non-empty, covering, row-aligned.
        assert segs[0][0] == 0
        assert segs[-1][1] == rows * mcus_x
        for (a, b), (c, _) in zip(segs, segs[1:]):
            assert b == c
        for a, b in segs:
            assert b > a
            assert a % mcus_x == 0
            assert b % mcus_x == 0


class TestPlanSegmentsRange:
    def test_full_range_is_row_bands(self):
        assert plan_segments_range(0, 40, 4, 2) == [(0, 20), (20, 40)]

    def test_partial_rows_absorbed_at_ends(self):
        segs = plan_segments_range(3, 37, 8, 2)
        assert segs[0][0] == 3
        assert segs[-1][1] == 37
        # Interior boundaries are row-aligned.
        for _, b in segs[:-1]:
            assert b % 8 == 0

    def test_tiny_range_single_segment(self):
        assert plan_segments_range(5, 7, 8, 4) == [(5, 7)]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            plan_segments_range(5, 5, 8, 2)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 100), st.integers(1, 16),
           st.integers(1, 10))
    def test_range_partition_properties(self, start, length, mcus_x, threads):
        end = start + length
        segs = plan_segments_range(start, end, mcus_x, threads)
        assert segs[0][0] == start
        assert segs[-1][1] == end
        for (a, b), (c, _) in zip(segs, segs[1:]):
            assert b == c
        assert all(b > a for a, b in segs)
