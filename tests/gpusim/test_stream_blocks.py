"""Blocked ``stream_transfer_bytes`` equals the whole-stream replay.

The priced function walks its stream one block of accesses at a time,
each block loaded behind the ``window`` accesses before it.  The
oracle here is the whole-array form it replaced: one unit per access,
then ``window`` shifted comparisons over the whole stream.  The block
size is shrunk so that short streams cross many block edges.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import cost
from repro.gpusim.cost import stream_transfer_bytes

#: (elem_bytes, unit_bytes): elements below, equal to and above the unit.
SIZES = ((1, 32), (4, 32), (4, 128), (3, 8), (32, 32), (64, 32), (5, 3))

BLOCKS = (1, 7, 32, 33, 64, 100)


def whole_stream(ids, elem_bytes, unit_bytes, window=cost.COALESCE_WINDOW):
    """The whole-array pricing: an access misses unless its unit was
    touched within the ``window`` accesses before it."""
    ids = np.asarray(ids)
    if ids.size == 0:
        return 0
    units = (ids.astype(np.int64) * elem_bytes) // unit_bytes
    merged = np.zeros(units.shape[0], dtype=bool)
    for k in range(1, min(window, units.shape[0] - 1) + 1):
        merged[k:] |= units[k:] == units[:-k]
    return int((~merged).sum()) * unit_bytes


def _stream(layout, n, period, rng):
    i = np.arange(n, dtype=np.int64)
    if layout == "descents":
        # Ascending runs that fall back every ``period`` accesses.
        return 1000 + (i % period) * 3 - (i // period)
    if layout == "strided":
        return i * period
    if layout == "reversed":
        return (n - i) * 2
    if layout == "equal":
        return np.full(n, 77, dtype=np.int64)
    return rng.integers(0, 4 * period, size=n)


@st.composite
def blocked_cases(draw):
    block = draw(st.sampled_from(BLOCKS))
    window = draw(st.integers(1, 40))
    # Lengths straddle a block multiple by up to one window either way.
    n = max(0, draw(st.integers(0, 4)) * block + draw(st.integers(-41, 41)))
    layout = draw(
        st.sampled_from(["descents", "strided", "reversed", "equal", "random"])
    )
    period = draw(st.sampled_from([31, 32, 33]))
    elem, unit = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    ids = _stream(layout, n, period, rng)
    return block, window, ids, elem, unit


@settings(max_examples=400, deadline=None)
@given(blocked_cases())
def test_blocked_equals_whole_stream(case):
    block, window, ids, elem, unit = case
    with mock.patch.object(cost, "_STREAM_BLOCK", block):
        got = stream_transfer_bytes(ids, elem, unit, window)
    assert got == whole_stream(ids, elem, unit, window)


@pytest.mark.parametrize("window", [1, 2, 32, 40])
def test_long_stream_at_the_real_block(window):
    rng = np.random.default_rng(window)
    n = 3 * cost._STREAM_BLOCK + window + 5
    ids = np.cumsum(rng.integers(-3, 9, size=n))
    assert stream_transfer_bytes(ids, 4, 32, window) == whole_stream(
        ids, 4, 32, window
    )


@pytest.mark.parametrize("elem", [1, 8, 1 << 31])
@pytest.mark.parametrize("offset", [-(1 << 31), (1 << 28) - 40, 1 << 40])
def test_units_past_int32(elem, offset):
    """Ids whose byte offsets straddle or pass 2^31 price at int64."""
    ids = offset + np.cumsum(np.random.default_rng(3).integers(-2, 6, 300))
    with mock.patch.object(cost, "_STREAM_BLOCK", 64):
        for unit in (32, 1 << 33):
            assert stream_transfer_bytes(ids, elem, unit) == whole_stream(
                ids, elem, unit
            )


def test_non_contiguous_ids():
    ids = np.arange(400, dtype=np.int32)[::-3]
    with mock.patch.object(cost, "_STREAM_BLOCK", 16):
        assert stream_transfer_bytes(ids, 4, 32) == whole_stream(ids, 4, 32)


def test_scratch_is_bounded_by_the_block():
    """Pricing 2M ids needs well under 1 MiB of scratch: one block of
    units plus two bools per access, not a copy of the stream."""
    ids = np.random.default_rng(1).integers(0, 1 << 24, size=2_000_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        moved = stream_transfer_bytes(ids, 4, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert moved > 0
    assert peak - before < 1 << 20, peak - before
