"""Tests for forward pointers (Sec. IV-A / VI-C).

The encoder computes pointer ``j`` as ``x_{jk-1} >> l``; the scalar
``select1_scalar`` walk over the upper bits is the reference it must
match, i.e. ``select1(jk-1) - (jk-1)``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CorruptStreamError
from repro.ef.bitstream import BitWriter
from repro.ef.encoding import EFSequence, ef_decode_at, ef_decode_range, ef_encode
from repro.ef.select import select1_scalar


def _reference_pointers(seq):
    """Pointer values re-derived by scanning the upper bits."""
    k = seq.quantum
    return [
        select1_scalar(seq.upper, j * k - 1) - (j * k - 1)
        for j in range(1, seq.n // k + 1)
    ]


class TestBuild:
    def test_count(self, rng):
        for n, k in [(100, 8), (100, 512), (16, 8), (7, 8), (24, 8)]:
            vals = np.sort(rng.integers(0, 10**6, size=n))
            seq = ef_encode(vals, quantum=k)
            assert seq.forward.shape[0] == n // k

    def test_values_are_upper_halves(self, rng):
        # Pointer j stores select1(jk-1) - (jk-1) = x_{jk-1} >> l.
        vals = np.sort(rng.integers(0, 10**6, size=64))
        seq = ef_encode(vals, quantum=8)
        for j in range(1, 64 // 8 + 1):
            anchor = j * 8 - 1
            assert seq.forward[j - 1] == vals[anchor] >> seq.num_lower_bits

    def test_paper_fig6_convention(self, rng):
        # Fig. 6: k=8, pointer for x_12 is forward[floor((12+1)/8)-1],
        # i.e. the first pointer, anchoring x_7 at select1(7).
        vals = np.sort(rng.integers(0, 10**4, size=16))
        seq = ef_encode(vals, quantum=8)
        j = (12 + 1) // 8
        assert j == 1
        assert select1_scalar(seq.upper, 7) == int(seq.forward[j - 1]) + 7

    def test_rebuild_from_upper_matches(self, rng):
        vals = np.sort(rng.integers(0, 10**5, size=100))
        seq = ef_encode(vals, quantum=8)
        assert seq.forward.tolist() == _reference_pointers(seq)


def _sequence(forward, n, upper, quantum=8):
    """An ``l = 0`` sequence with hand-set pointers and upper bits."""
    return EFSequence(
        n=n,
        u=0,
        num_lower_bits=0,
        lower=np.empty(0, dtype=np.uint8),
        upper=np.asarray(upper, dtype=np.uint8),
        forward=np.asarray(forward, dtype=np.uint32),
        quantum=quantum,
    )


#: l = 0, k = 8: x_7 = 10 and x_15 = 20, so forward = [10, 20] and the
#: anchors sit at stop bits 17 and 35.
_ANCHORED = np.array(
    [0, 1, 2, 3, 4, 5, 6, 10, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24]
)


class TestAnchors:
    """Floor and ceil anchors are arithmetic on the stored pointers.

    Pointer ``j`` anchors element ``jk-1`` at stop bit
    ``forward[j-1] + jk-1``.  Random access starts from the closest
    anchor at or before ``i``; a range decode stops at the closest
    anchor at or after ``b - 1``, or at the end of the upper bits.
    """

    def test_floor_anchor_none(self, rng):
        # No pointers: the scan starts at bit 0.
        vals = np.sort(rng.integers(0, 10**4, size=20))
        seq = replace(ef_encode(vals, quantum=8), forward=np.empty(0, dtype=np.uint32))
        assert [ef_decode_at(seq, i) for i in range(20)] == vals.tolist()

    def test_floor_anchor_exact(self):
        # At an anchor the value is the pointer itself: no stop bit is read.
        seq = _sequence([10, 20], n=16, upper=np.zeros(8))
        assert ef_decode_at(seq, 7) == 10
        assert ef_decode_at(seq, 15) == 20

    def test_floor_anchor_uses_latest(self):
        # Past the last pointer the scan starts after element 15's stop
        # bit 35: stop bits only from bit 36 on put x_100 at 36 + 84 - 100.
        upper = np.zeros(32, dtype=np.uint8)
        upper[4] = 0xF0
        upper[5:] = 0xFF
        seq = _sequence([10, 20], n=101, upper=upper)
        assert ef_decode_at(seq, 16) == 20
        assert ef_decode_at(seq, 100) == 20

    def test_ceil_anchor_basic(self):
        seq = ef_encode(_ANCHORED, quantum=8)
        assert seq.num_lower_bits == 0 and seq.forward.tolist() == [10, 20]
        # Break pointer 2: ranges ending at or before element 7 stop at
        # anchor 7 and never read it; those ending at 8..15 stop at anchor
        # 15, whose broken stop bit cuts the scan short.
        broken = replace(seq, forward=np.array([10, 0], dtype=np.uint32))
        assert ef_decode_range(broken, 0, 4).tolist() == _ANCHORED[:4].tolist()
        assert ef_decode_range(broken, 0, 8).tolist() == _ANCHORED[:8].tolist()
        with pytest.raises(CorruptStreamError):
            ef_decode_range(broken, 0, 9)

    def test_ceil_anchor_none_when_past_last(self):
        # Ranges ending past the last anchor scan to the end of the upper
        # bits and read no pointer for their end.
        seq = ef_encode(_ANCHORED, quantum=8)
        broken = replace(seq, forward=np.array([10, 0], dtype=np.uint32))
        assert ef_decode_range(broken, 0, 20).tolist() == _ANCHORED.tolist()
        short = replace(seq, forward=seq.forward[:1])
        assert ef_decode_range(short, 0, 10).tolist() == _ANCHORED[:10].tolist()
        truncated = replace(short, upper=seq.upper[:4])
        with pytest.raises(CorruptStreamError):
            ef_decode_range(truncated, 0, 20)

    def test_nbytes(self):
        seq = _sequence([1, 2, 3], n=24, upper=np.zeros(7))
        assert seq.nbytes == 12 + 7
        assert seq.to_blob()[:12].view("<u4").tolist() == [1, 2, 3]


@st.composite
def _sequences(draw):
    """Monotone sequences over the pointer edge cases.

    ``n < k``, ``n`` a multiple of ``k``, ``u`` above the last value,
    all-equal values and ``l = 0`` (dense values), plus free draws.
    """
    k = draw(st.sampled_from([1, 2, 3, 8, 64]))
    case = draw(
        st.sampled_from(
            ["short", "multiple", "u-above", "all-equal", "l-zero", "free"]
        )
    )
    if case == "short":
        n = draw(st.integers(1, max(1, k - 1)))
    elif case == "multiple":
        n = k * draw(st.integers(1, 6))
    else:
        n = draw(st.integers(1, 300))
    if case == "all-equal":
        values = [draw(st.integers(0, 2**40))] * n
    elif case == "l-zero":
        values = sorted(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
    else:
        values = sorted(
            draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
        )
    u = None
    if case == "u-above":
        u = values[-1] + draw(st.integers(1, 2**41))
    return np.array(values, dtype=np.int64), u, k, case


class TestEncodeTimePointers:
    @given(case=_sequences(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_stored_pointers_match_select_reference(self, case, data):
        vals, u, k, kind = case
        seq = ef_encode(vals, u=u, quantum=k)
        if kind == "l-zero":
            assert seq.num_lower_bits == 0
        assert seq.forward.dtype == np.dtype("<u4")
        assert seq.forward.tolist() == _reference_pointers(seq)
        assert seq.nbytes == 4 * (len(vals) // k) + seq.lower.shape[0] + seq.upper.shape[0]
        # The lower section is the l-bit fields packed LSB-first.
        w = BitWriter()
        for x in vals:
            w.write_bits(int(x) & ((1 << seq.num_lower_bits) - 1), seq.num_lower_bits)
        assert np.array_equal(seq.lower, w.getvalue())
        # Decoders anchor on the stored values: random access at, before
        # and between anchors, and a range whose ends straddle them.
        i = data.draw(st.integers(0, len(vals) - 1))
        assert ef_decode_at(seq, i) == vals[i]
        a = data.draw(st.integers(0, len(vals)))
        b = data.draw(st.integers(a, len(vals)))
        assert np.array_equal(ef_decode_range(seq, a, b), vals[a:b])

    def test_bad_quantum(self):
        with pytest.raises(ValueError):
            ef_encode(np.array([1, 2, 3]), quantum=0)
