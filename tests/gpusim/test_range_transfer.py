"""``range_transfer_bytes`` is ``stream_transfer_bytes`` of the expanded ranges.

The closed form prices a concatenation of contiguous id ranges from the
``(starts, lengths)`` pairs; every test here holds it to the per-access
replay over the materialised gather, byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.efg import csr_gather_indices
from repro.gpusim.cost import (
    COALESCE_WINDOW,
    CostModel,
    range_transfer_bytes,
    stream_transfer_bytes,
)
from repro.gpusim.device import TITAN_XP
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import MemoryManager

WINDOWS = (1, 2, 32, 33)

#: (elem_bytes, unit_bytes): elements below, equal to and above the unit,
#: dividing it or not.
SIZES = ((1, 32), (1, 128), (4, 32), (4, 128), (8, 32), (3, 8), (32, 32),
         (9, 32), (64, 32), (5, 3))


def replay(starts, lengths, elem_bytes, unit_bytes, window):
    ids, _ = csr_gather_indices(starts, lengths)
    return stream_transfer_bytes(ids, elem_bytes, unit_bytes, window)


@st.composite
def range_streams(draw):
    """(starts, lengths) under one of several start layouts, with
    lengths from 0 to well past the largest window."""
    n = draw(st.integers(0, 12))
    lengths = draw(st.lists(st.integers(0, 80), min_size=n, max_size=n))
    layout = draw(
        st.sampled_from(["scattered", "overlapping", "repeated", "reversed",
                         "strided"])
    )
    if layout == "scattered":
        starts = draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n))
    elif layout == "overlapping":
        starts = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    elif layout == "repeated":
        starts = [draw(st.integers(0, 500))] * n
    elif layout == "reversed":
        starts = sorted(
            draw(st.lists(st.integers(0, 3000), min_size=n, max_size=n)),
            reverse=True,
        )
    else:
        base, stride = draw(st.integers(0, 500)), draw(st.integers(1, 140))
        starts = [base + i * stride for i in range(n)]
    return (np.array(starts, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


class TestMatchesReplay:
    @given(
        ranges=range_streams(),
        window=st.sampled_from(WINDOWS),
        sizes=st.sampled_from(SIZES),
    )
    @settings(max_examples=400, deadline=None)
    def test_property(self, ranges, window, sizes):
        starts, lengths = ranges
        elem, unit = sizes
        assert range_transfer_bytes(
            starts, lengths, elem, unit, window
        ) == replay(starts, lengths, elem, unit, window)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("sizes", SIZES)
    def test_random_batch(self, window, sizes):
        rng = np.random.default_rng(window * 1000 + sizes[0] * 10 + sizes[1])
        elem, unit = sizes
        for _ in range(40):
            n = int(rng.integers(0, 20))
            starts = rng.integers(0, int(rng.choice([50, 5000])), n)
            lengths = rng.integers(0, int(rng.choice([3, 40, 100])), n)
            assert range_transfer_bytes(
                starts, lengths, elem, unit, window
            ) == replay(starts, lengths, elem, unit, window)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_lengths_around_the_window(self, window):
        # Ranges shorter than, equal to and longer than the window, with
        # an 8-id gap between neighbours.
        for length in (window - 1, window, window + 1, 3 * window):
            lengths = np.full(5, max(length, 0))
            starts = np.arange(5) * (int(lengths[0]) + 8)
            for elem, unit in SIZES:
                assert range_transfer_bytes(
                    starts, lengths, elem, unit, window
                ) == replay(starts, lengths, elem, unit, window)

    def test_zero_length_ranges_are_dropped(self):
        starts = np.array([0, 7, 7, 300, 64])
        lengths = np.array([5, 0, 0, 40, 0])
        want = replay(starts, lengths, 4, 32, COALESCE_WINDOW)
        assert range_transfer_bytes(starts, lengths, 4, 32) == want
        assert range_transfer_bytes(
            starts[lengths > 0], lengths[lengths > 0], 4, 32
        ) == want

    def test_all_empty(self):
        assert range_transfer_bytes(np.array([3, 9]), np.array([0, 0]), 4, 32) == 0
        assert range_transfer_bytes(np.empty(0), np.empty(0), 4, 32) == 0

    def test_sequential_is_compact(self):
        # One 1000-element range of 4 B: 125 sectors, like the replay.
        assert range_transfer_bytes(np.array([0]), np.array([1000]), 4, 32) == (
            125 * 32
        )

    def test_earlier_tail_merges_the_next_head(self):
        # The second range lies in the sector the first ended in.
        starts, lengths = np.array([0, 5]), np.array([4, 3])
        assert range_transfer_bytes(starts, lengths, 4, 32) == 32


class TestValidation:
    @pytest.mark.parametrize(
        "elem, unit, window",
        [(0, 32, 32), (-4, 32, 32), (4, 0, 32), (4, -1, 32), (4, 32, 0)],
    )
    def test_same_errors_as_replay(self, elem, unit, window):
        starts, lengths = np.array([0, 100]), np.array([3, 2])
        with pytest.raises(ValueError) as replayed:
            replay(starts, lengths, elem, unit, window)
        with pytest.raises(ValueError) as closed:
            range_transfer_bytes(starts, lengths, elem, unit, window)
        assert str(closed.value) == str(replayed.value)

    def test_negative_lengths(self):
        starts, lengths = np.array([0, 100]), np.array([3, -2])
        with pytest.raises(ValueError):
            replay(starts, lengths, 4, 32, COALESCE_WINDOW)
        with pytest.raises(ValueError):
            range_transfer_bytes(starts, lengths, 4, 32)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            range_transfer_bytes(np.array([0, 1]), np.array([3]), 4, 32)


class TestReadRanges:
    """``read_ranges`` leaves the traffic row ``read_stream`` would."""

    @staticmethod
    def _launch():
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("dev_array", 100)
        mm.register("host_array", 5000)
        return KernelLaunch("k", CostModel(device=TITAN_XP, memory=mm))

    @given(
        ranges=st.lists(range_streams(), min_size=1, max_size=4),
        array=st.sampled_from(["dev_array", "host_array"]),
        elem=st.sampled_from([1, 4, 8, 9, 64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_traffic_rows_identical(self, ranges, array, elem):
        by_ranges, by_stream = self._launch(), self._launch()
        for starts, lengths in ranges:
            by_ranges.read_ranges(array, starts, lengths, elem)
            by_stream.read_stream(
                array, csr_gather_indices(starts, lengths)[0], elem
            )
        assert by_ranges.cost.traffic.keys() == by_stream.cost.traffic.keys()
        assert (
            by_ranges.cost.traffic[array].to_dict()
            == by_stream.cost.traffic[array].to_dict()
        )
