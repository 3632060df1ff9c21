"""Tests for Elias-Fano encode/decode of single sequences."""

import numpy as np
import pytest

from repro.ef.bounds import ef_num_lower_bits, ef_total_bits
from repro.ef.encoding import ef_decode, ef_decode_at, ef_decode_range, ef_encode
from repro.ef.select import select1_scalar


class TestPaperExample:
    """The Fig. 2 worked example: {1,3,5,11,15,21,25,32}, u=32, n=8."""

    VALUES = np.array([1, 3, 5, 11, 15, 21, 25, 32])

    def test_lower_bits_count(self):
        seq = ef_encode(self.VALUES)
        assert seq.num_lower_bits == 2  # floor(log2(32/8)) = 2

    def test_total_at_most_bound(self):
        seq = ef_encode(self.VALUES)
        used_bits = (seq.lower.shape[0] + seq.upper.shape[0]) * 8
        # Paper: 32 bits (16 lower + 16 upper) before byte padding.
        assert used_bits <= ef_total_bits(8, 32) + 2 * 7  # byte padding

    def test_roundtrip(self):
        assert np.array_equal(ef_decode(ef_encode(self.VALUES)), self.VALUES)

    def test_decode_x4(self):
        # Paper: select1(4) - 4 = 7 - 4 = 3, lower = 11b, value 15.
        seq = ef_encode(self.VALUES)
        assert ef_decode_at(seq, 4) == 15


class TestEncodeValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ef_encode(np.array([], dtype=np.int64))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            ef_encode(np.array([3, 1]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ef_encode(np.array([-1, 2]))

    def test_rejects_bad_upper_bound(self):
        with pytest.raises(ValueError):
            ef_encode(np.array([1, 10]), u=5)

    def test_accepts_duplicates(self):
        vals = np.array([2, 2, 2, 7])
        assert np.array_equal(ef_decode(ef_encode(vals)), vals)

    def test_accepts_zero(self):
        vals = np.array([0, 0, 1])
        assert np.array_equal(ef_decode(ef_encode(vals)), vals)


class TestRoundtrip:
    @pytest.mark.parametrize("universe", [1, 10, 1000, 10**6, 10**9])
    def test_random_sequences(self, rng, universe):
        for _ in range(10):
            n = int(rng.integers(1, 100))
            vals = np.sort(rng.integers(0, universe, size=n))
            seq = ef_encode(vals)
            assert np.array_equal(ef_decode(seq), vals)

    def test_single_element(self):
        seq = ef_encode(np.array([42]))
        assert ef_decode(seq).tolist() == [42]
        assert ef_decode_at(seq, 0) == 42

    def test_all_zeros(self):
        vals = np.zeros(10, dtype=np.int64)
        assert np.array_equal(ef_decode(ef_encode(vals)), vals)

    def test_contiguous_run(self):
        vals = np.arange(1000)
        assert np.array_equal(ef_decode(ef_encode(vals)), vals)

    def test_explicit_upper_bound(self):
        vals = np.array([1, 5, 9])
        seq = ef_encode(vals, u=1000)
        assert seq.u == 1000
        assert np.array_equal(ef_decode(seq), vals)


class TestRandomAccess:
    def test_every_index(self, rng):
        vals = np.sort(rng.integers(0, 10**5, size=200))
        seq = ef_encode(vals, quantum=16)
        for i in range(200):
            assert ef_decode_at(seq, i) == vals[i]

    def test_out_of_range(self):
        seq = ef_encode(np.array([1, 2]))
        with pytest.raises(IndexError):
            ef_decode_at(seq, 2)
        with pytest.raises(IndexError):
            ef_decode_at(seq, -1)


class TestRangeDecode:
    def test_all_subranges_small(self, rng):
        vals = np.sort(rng.integers(0, 5000, size=40))
        for quantum in (4, 8, 512):
            seq = ef_encode(vals, quantum=quantum)
            for a in range(41):
                for b in range(a, 41):
                    assert np.array_equal(
                        ef_decode_range(seq, a, b), vals[a:b]
                    ), (quantum, a, b)

    def test_empty_range(self):
        seq = ef_encode(np.array([5, 10]))
        assert ef_decode_range(seq, 1, 1).shape == (0,)

    def test_invalid_range(self):
        seq = ef_encode(np.array([5, 10]))
        with pytest.raises(IndexError):
            ef_decode_range(seq, 1, 3)
        with pytest.raises(IndexError):
            ef_decode_range(seq, -1, 1)

    def test_quantum_boundary_ranges(self, rng):
        # Ranges that start or end exactly at forward-pointer anchors.
        vals = np.sort(rng.integers(0, 10**6, size=64))
        seq = ef_encode(vals, quantum=8)
        for a in (7, 8, 15, 16, 23):
            for b in (a, a + 1, 24, 64):
                if b < a:
                    continue
                assert np.array_equal(ef_decode_range(seq, a, b), vals[a:b])


class TestBlobLayout:
    def test_sections_in_order(self, rng):
        vals = np.sort(rng.integers(0, 10**6, size=100))
        seq = ef_encode(vals, quantum=16)
        blob = seq.to_blob()
        n_fwd = 100 // 16
        assert blob.shape[0] == seq.nbytes
        fwd = blob[: 4 * n_fwd].view("<u4")
        assert np.array_equal(fwd, seq.forward)
        lower_end = 4 * n_fwd + seq.lower.shape[0]
        assert np.array_equal(blob[4 * n_fwd : lower_end], seq.lower)
        assert np.array_equal(blob[lower_end:], seq.upper)


class TestDecodeAtAnchorBranches:
    """ef_decode_at has three select paths depending on the closest
    anchor ``j*quantum - 1`` with ``j = (i + 1) // quantum``: the index
    IS an anchor, no pointer precedes it, or a mid-quantum scan from the
    closest preceding anchor.  Exercise each explicitly with a small
    quantum."""

    def _seq(self, rng, n=20, quantum=4):
        vals = np.sort(rng.integers(0, 10**5, size=n))
        return ef_encode(vals, quantum=quantum), vals

    def test_index_is_anchor(self, rng):
        # i = j*quantum - 1 is anchored exactly: select comes straight
        # from the forward pointer, no upper-bits scan at all.
        seq, vals = self._seq(rng)
        for i in (3, 7, 11, 15, 19):
            j = (i + 1) // 4
            assert j * 4 - 1 == i
            assert select1_scalar(seq.upper, i) == int(seq.forward[j - 1]) + i
            assert ef_decode_at(seq, i) == vals[i]

    def test_no_preceding_anchor(self, rng):
        # Indices before the first pointer scan from bit 0.
        seq, vals = self._seq(rng)
        for i in (0, 1, 2):
            assert (i + 1) // 4 == 0
            assert ef_decode_at(seq, i) == vals[i]

    def test_mid_quantum(self, rng):
        # Between anchors: bounded scan from the preceding stop bit.
        seq, vals = self._seq(rng)
        for i in (4, 5, 6, 12, 18):
            assert 0 <= (i + 1) // 4 * 4 - 1 < i
            assert ef_decode_at(seq, i) == vals[i]

    def test_out_of_range(self, rng):
        seq, _ = self._seq(rng)
        with pytest.raises(IndexError):
            ef_decode_at(seq, 20)
        with pytest.raises(IndexError):
            ef_decode_at(seq, -1)

    def test_all_indices_all_quanta(self, rng):
        vals = np.sort(rng.integers(0, 10**6, size=33))
        for quantum in (2, 4, 8, 64):
            seq = ef_encode(vals, quantum=quantum)
            for i in range(33):
                assert ef_decode_at(seq, i) == vals[i], (quantum, i)
