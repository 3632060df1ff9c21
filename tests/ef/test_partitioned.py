"""Tests for partitioned Elias-Fano (Sec. IX extension)."""

import hashlib

import numpy as np
import pytest

from repro.ef.bounds import ef_total_bits
from repro.ef.partitioned import (
    PartitionCodec,
    pef_decode,
    pef_encode,
    pef_from_blob,
    pef_to_blob,
)


class TestRoundtrip:
    def test_random(self, rng):
        for _ in range(30):
            vals = np.unique(rng.integers(0, 10**6, size=int(rng.integers(1, 400))))
            for size in (4, 32, 128):
                seq = pef_encode(vals, partition_size=size)
                assert np.array_equal(pef_decode(seq), vals)

    def test_single_element(self):
        seq = pef_encode(np.array([7]))
        assert pef_decode(seq).tolist() == [7]

    def test_contiguous_run(self):
        vals = np.arange(100, 600)
        seq = pef_encode(vals, partition_size=128)
        assert np.array_equal(pef_decode(seq), vals)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            pef_encode(np.array([1, 1, 2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pef_encode(np.array([], dtype=np.int64))

    def test_rejects_bad_partition_size(self):
        with pytest.raises(ValueError):
            pef_encode(np.array([1, 2]), partition_size=0)


class TestCodecSelection:
    def test_run_partitions(self):
        seq = pef_encode(np.arange(256), partition_size=128)
        assert all(p.codec is PartitionCodec.RUN for p in seq.partitions)
        # Runs store no payload bits.
        assert all(p.payload_bits == 0 for p in seq.partitions)

    def test_dense_picks_bitmap(self):
        # Half-dense partition: bitmap (local_u+1 bits) beats EF.
        vals = np.arange(0, 256, 2)
        seq = pef_encode(vals, partition_size=128)
        assert seq.partitions[0].codec is PartitionCodec.BITMAP

    def test_sparse_picks_ef(self, rng):
        vals = np.unique(rng.integers(0, 10**8, size=128))
        seq = pef_encode(vals, partition_size=128)
        assert seq.partitions[0].codec is PartitionCodec.EF


class TestMotivatingExample:
    def test_sec9_sequence(self):
        # S = [0, 1, ..., n-2, u-1]: plain EF ignores the run, PEF
        # collapses it (the paper's motivating example for PEF).
        n, u = 1024, 10**7
        vals = np.concatenate([np.arange(n - 1), [u - 1]])
        pef_bytes = pef_encode(vals).nbytes
        ef_bytes = (ef_total_bits(n, u - 1) + 7) // 8
        assert pef_bytes < ef_bytes / 5

    def test_random_sequence_roughly_neutral(self, rng):
        # On random data PEF should not be much worse than plain EF
        # (skip metadata overhead only).
        vals = np.unique(rng.integers(0, 10**7, size=2000))
        pef_bytes = pef_encode(vals).nbytes
        ef_bytes = (ef_total_bits(vals.shape[0], int(vals[-1])) + 7) // 8
        assert pef_bytes < ef_bytes * 1.5


class TestOptimalStrategy:
    def test_roundtrip(self, rng):
        for _ in range(20):
            vals = np.unique(rng.integers(0, 10**6, size=int(rng.integers(1, 400))))
            seq = pef_encode(vals, strategy="optimal")
            assert np.array_equal(pef_decode(seq), vals)

    def test_never_worse_than_runs(self, rng):
        # The DP's candidate set includes the run-aligned boundaries,
        # so it can only match or beat the greedy strategy.
        for _ in range(15):
            base = np.unique(rng.integers(0, 10**5, size=int(rng.integers(2, 300))))
            s = int(rng.integers(0, 5 * 10**4))
            vals = np.unique(
                np.concatenate([base, np.arange(s, s + rng.integers(5, 250))])
            )
            opt = pef_encode(vals, strategy="optimal").nbytes
            greedy = pef_encode(vals, strategy="runs").nbytes
            assert opt <= greedy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            pef_encode(np.array([1, 2, 3]), strategy="magic")


class TestPinnedBlob:
    def test_pinned_digest(self):
        # Runs, a dense stretch and a sparse tail: every partition codec
        # appears, so any drift in the EF or bitmap payload bytes fails.
        rng = np.random.default_rng(2024)
        vals = np.concatenate([
            np.arange(0, 100),
            200 + np.sort(rng.choice(160, 128, replace=False)),
            np.arange(400, 450),
            np.sort(rng.choice(np.arange(1000, 100000), 300, replace=False)),
        ])
        seq = pef_encode(vals)
        assert {p.codec for p in seq.partitions} == set(PartitionCodec)
        blob = pef_to_blob(seq)
        assert blob.shape[0] == 563
        assert hashlib.sha256(blob.tobytes()).hexdigest() == (
            "337d7ff33d4bbfe2ffeba4338f4013982bc02d532e0250dcdf6ebbe3b9535818"
        )
        assert np.array_equal(pef_from_blob(blob), vals)
