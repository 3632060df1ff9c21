"""Property-based tests for the Elias-Fano substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ef.bounds import ef_total_bits
from repro.ef.encoding import ef_decode, ef_decode_at, ef_decode_range, ef_encode
from repro.ef.partitioned import pef_encode, pef_from_blob, pef_to_blob


monotone_sequences = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300
).map(sorted)

strictly_increasing = st.sets(
    st.integers(min_value=0, max_value=2**32), min_size=1, max_size=300
).map(sorted)

quanta = st.sampled_from([1, 2, 3, 7, 8, 64, 512])


class TestEFRoundtrip:
    @given(values=monotone_sequences, quantum=quanta)
    @settings(max_examples=150, deadline=None)
    def test_decode_inverts_encode(self, values, quantum):
        vals = np.array(values, dtype=np.int64)
        seq = ef_encode(vals, quantum=quantum)
        assert np.array_equal(ef_decode(seq), vals)

    @given(values=monotone_sequences, quantum=quanta, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_access(self, values, quantum, data):
        vals = np.array(values, dtype=np.int64)
        seq = ef_encode(vals, quantum=quantum)
        i = data.draw(st.integers(0, len(values) - 1))
        assert ef_decode_at(seq, i) == vals[i]

    @given(values=monotone_sequences, quantum=quanta, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_range_decode(self, values, quantum, data):
        vals = np.array(values, dtype=np.int64)
        seq = ef_encode(vals, quantum=quantum)
        a = data.draw(st.integers(0, len(values)))
        b = data.draw(st.integers(a, len(values)))
        assert np.array_equal(ef_decode_range(seq, a, b), vals[a:b])

    @given(values=monotone_sequences)
    @settings(max_examples=100, deadline=None)
    def test_storage_bound_holds(self, values):
        # Sec. IV: at most n(2 + ceil(log2(u/n))) bits (+ padding).
        vals = np.array(values, dtype=np.int64)
        seq = ef_encode(vals)
        n, u = len(values), int(vals[-1])
        payload_bits = (seq.lower.shape[0] + seq.upper.shape[0]) * 8
        assert payload_bits <= ef_total_bits(n, u) + 14  # two sections pad

    @given(values=monotone_sequences)
    @settings(max_examples=60, deadline=None)
    def test_size_independent_of_quantum_payload(self, values):
        # Forward pointers change, lower/upper payload must not.
        vals = np.array(values, dtype=np.int64)
        a = ef_encode(vals, quantum=2)
        b = ef_encode(vals, quantum=512)
        assert a.lower.shape == b.lower.shape
        assert np.array_equal(a.upper, b.upper)


class TestPEFRoundtrip:
    @given(values=strictly_increasing, size=st.sampled_from([4, 16, 128]))
    @settings(max_examples=100, deadline=None)
    def test_decode_inverts_encode(self, values, size):
        vals = np.array(values, dtype=np.int64)
        seq = pef_encode(vals, partition_size=size)
        if any(p.base >= 1 << 32 for p in seq.partitions):
            # The blob's skip entry holds a u32 base; wider ones are refused.
            with pytest.raises(ValueError, match="skip-entry"):
                pef_to_blob(seq)
        else:
            assert np.array_equal(pef_from_blob(pef_to_blob(seq)), vals)

    @given(values=strictly_increasing)
    @settings(max_examples=60, deadline=None)
    def test_never_catastrophically_worse_than_ef(self, values):
        vals = np.array(values, dtype=np.int64)
        pef_bytes = pef_encode(vals).nbytes
        ef_bytes = (ef_total_bits(len(vals), int(vals[-1])) + 7) // 8 if vals[-1] else 8
        # Skip metadata bounded: 8 B per 128-element partition.
        assert pef_bytes <= ef_bytes + 8 * (len(vals) // 128 + 1) + 16
