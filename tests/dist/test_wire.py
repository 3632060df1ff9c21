"""Tests for the frontier wire codecs."""

import hashlib

import numpy as np
import pytest

from repro.core.errors import CorruptStreamError
from repro.dist.wire import (
    FRONTIER_ID_BYTES,
    WIRE_CODECS,
    AutoCodec,
    BitmapCodec,
    EliasFanoCodec,
    RawCodec,
    Raw64Codec,
    VarintCodec,
    get_codec,
)
from repro.ef.bounds import ef_num_lower_bits, ef_upper_bits

CONCRETE = [
    RawCodec(), Raw64Codec(), BitmapCodec(), VarintCodec(), EliasFanoCodec()
]


def _ids(rng, lo, hi, n):
    pool = rng.choice(np.arange(lo, hi), size=min(n, hi - lo), replace=False)
    return np.sort(pool).astype(np.int64)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", CONCRETE, ids=lambda c: c.name)
    def test_roundtrip_random(self, rng, codec):
        lo, hi = 1000, 9000
        ids = _ids(rng, lo, hi, 500)
        payload = codec.encode(ids, lo, hi)
        assert payload.dtype == np.uint8
        back = codec.decode(payload, lo, hi)
        assert back.dtype == np.int64
        assert np.array_equal(back, ids)

    @pytest.mark.parametrize("codec", CONCRETE, ids=lambda c: c.name)
    def test_roundtrip_empty(self, codec):
        empty = np.empty(0, dtype=np.int64)
        back = codec.decode(codec.encode(empty, 10, 20), 10, 20)
        # Bitmap decodes an empty payload to the empty set of the range.
        assert back.shape == (0,)

    @pytest.mark.parametrize("codec", CONCRETE, ids=lambda c: c.name)
    def test_roundtrip_boundaries(self, codec):
        lo, hi = 64, 192
        ids = np.array([lo, lo + 1, hi - 1], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(ids, lo, hi), lo, hi), ids)

    def test_rejects_unsorted(self):
        for codec in CONCRETE:
            with pytest.raises(ValueError):
                codec.encode(np.array([5, 3, 9]), 0, 16)

    def test_rejects_duplicates(self):
        for codec in CONCRETE:
            with pytest.raises(ValueError):
                codec.encode(np.array([3, 3, 9]), 0, 16)


class TestSizes:
    def test_raw_is_4_bytes_per_id(self, rng):
        ids = _ids(rng, 0, 1000, 100)
        assert RawCodec().encode(ids, 0, 1000).shape[0] == 4 * ids.shape[0]

    def test_raw64_is_frontier_width(self, rng):
        ids = _ids(rng, 0, 1000, 100)
        assert (
            Raw64Codec().encode(ids, 0, 1000).shape[0]
            == FRONTIER_ID_BYTES * ids.shape[0]
        )

    def test_raw_rejects_wide_ids(self):
        with pytest.raises(ValueError):
            RawCodec().encode(np.array([1 << 31]), 0, 1 << 32)
        # raw64 takes them fine
        ids = np.array([1 << 31], dtype=np.int64)
        back = Raw64Codec().decode(Raw64Codec().encode(ids, 0, 1 << 32), 0, 1 << 32)
        assert np.array_equal(back, ids)

    def test_bitmap_size_is_range_bits(self):
        ids = np.array([0], dtype=np.int64)
        assert BitmapCodec().encode(ids, 0, 800).shape[0] == 100
        assert BitmapCodec().encode(ids, 0, 801).shape[0] == 101

    def test_bitmap_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BitmapCodec().encode(np.array([20]), 0, 16)

    def test_dense_frontier_bitmap_beats_raw(self):
        # Density > 1/32 of the range: one bit per vertex wins over 4 B.
        ids = np.arange(0, 1024, 8, dtype=np.int64)
        bitmap = BitmapCodec().encode(ids, 0, 1024).shape[0]
        raw = RawCodec().encode(ids, 0, 1024).shape[0]
        assert bitmap < raw

    def test_sparse_frontier_varint_beats_bitmap(self):
        ids = np.array([5, 900_000], dtype=np.int64)
        varint = VarintCodec().encode(ids, 0, 1_000_000).shape[0]
        bitmap = BitmapCodec().encode(ids, 0, 1_000_000).shape[0]
        assert varint < bitmap

    def test_varint_small_gaps_one_byte_each(self):
        ids = np.arange(100, 150, dtype=np.int64)
        # First gap (100-lo=100) also fits one byte? 100 < 128 yes.
        assert VarintCodec().encode(ids, 0, 1000).shape[0] == 50


class TestVarintEdges:
    def test_empty_payload_decodes_empty(self):
        back = VarintCodec().decode(np.empty(0, dtype=np.uint8), 10, 20)
        assert back.shape == (0,)
        assert back.dtype == np.int64

    def test_single_id(self):
        codec = VarintCodec()
        ids = np.array([123], dtype=np.int64)
        payload = codec.encode(ids, 100, 200)
        assert payload.shape[0] == 1  # one sub-128 delta, one byte
        assert np.array_equal(codec.decode(payload, 100, 200), ids)

    def test_max_gap_near_2_63(self):
        # A delta of ~2^63 needs the full 9-byte LEB128 chain; the
        # continuation arithmetic must not overflow int64.
        codec = VarintCodec()
        hi = (1 << 63) - 1
        ids = np.array([0, hi - 1], dtype=np.int64)
        payload = codec.encode(ids, 0, hi)
        assert np.array_equal(codec.decode(payload, 0, hi), ids)

    def test_truncated_payload_is_typed_corruption(self):
        codec = VarintCodec()
        ids = np.array([5, 300, 4000], dtype=np.int64)
        payload = codec.encode(ids, 0, 4096)
        # Chop the terminating byte: the last varint never completes.
        with pytest.raises(CorruptStreamError):
            codec.decode(payload[:-1], 0, 4096)


class TestEliasFano:
    def test_count_header_plus_closed_form_sections(self, rng):
        codec = EliasFanoCodec()
        lo, hi = 512, 5000
        ids = _ids(rng, lo, hi, 400)
        payload = codec.encode(ids, lo, hi)
        # 4-byte count, then lower/upper bitvectors sized by (n, u).
        assert int.from_bytes(payload[:4].tobytes(), "little") == 400
        u = hi - lo - 1
        l = ef_num_lower_bits(400, u)
        assert payload.shape[0] == (
            4 + (400 * l + 7) // 8 + (ef_upper_bits(400, u) + 7) // 8
        )

    def test_sparse_frontier_ef_beats_raw_and_bitmap(self, rng):
        lo, hi = 0, 1 << 20
        ids = _ids(rng, lo, hi, 256)
        ef = EliasFanoCodec().encode(ids, lo, hi).shape[0]
        assert ef < RawCodec().encode(ids, lo, hi).shape[0]
        assert ef < BitmapCodec().encode(ids, lo, hi).shape[0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EliasFanoCodec().encode(np.array([20], dtype=np.int64), 0, 16)

    def test_truncated_payload_is_typed_corruption(self, rng):
        codec = EliasFanoCodec()
        ids = _ids(rng, 0, 4096, 100)
        payload = codec.encode(ids, 0, 4096)
        with pytest.raises(CorruptStreamError):
            codec.decode(payload[:-1], 0, 4096)
        with pytest.raises(CorruptStreamError):
            codec.decode(payload[:3], 0, 4096)

    @pytest.mark.parametrize("n", [100, 1334])
    def test_zeroed_back_half_is_typed_corruption(self, n):
        # 1,334 ids span more than one forward-pointer quantum at encode
        # time; the whole-message decode must still raise the typed
        # error when the stop bits are gone.
        codec = EliasFanoCodec()
        ids = np.arange(0, 3 * n, 3, dtype=np.int64)
        payload = codec.encode(ids, 0, 4096).copy()
        payload[payload.shape[0] // 2 :] = 0
        with pytest.raises(CorruptStreamError):
            codec.decode(payload, 0, 4096)

    def test_absurd_count_is_typed_corruption(self):
        codec = EliasFanoCodec()
        ids = np.array([1, 2, 3], dtype=np.int64)
        payload = codec.encode(ids, 0, 16).copy()
        payload[:4] = np.frombuffer(
            (1 << 20).to_bytes(4, "little"), dtype=np.uint8
        )
        with pytest.raises(CorruptStreamError):
            codec.decode(payload, 0, 16)


    def test_pinned_payloads(self):
        # Byte-for-byte pin of the EF wire format over a fixed message
        # set: >= 512 ids (forward pointers at encode time, never
        # shipped), l = 0, a single id, a sparse and a dense range.
        rng = np.random.default_rng(2024)
        messages = [
            (np.arange(0, 4000, 3), 0, 4096),
            (np.arange(0, 300, 3), 0, 4096),
            (np.arange(1024, 2048), 1024, 2048),
            (np.array([7]), 0, 16),
            (np.sort(rng.choice(1 << 20, 256, replace=False)), 0, 1 << 20),
            (
                np.sort(rng.choice(np.arange(5000, 9096), 3000, replace=False)),
                5000,
                9096,
            ),
        ]
        codec = EliasFanoCodec()
        digest = hashlib.sha256()
        sizes = []
        for ids, lo, hi in messages:
            payload = codec.encode(ids.astype(np.int64), lo, hi)
            sizes.append(int(payload.shape[0]))
            digest.update(len(payload).to_bytes(4, "little") + payload.tobytes())
        assert sizes == [594, 96, 260, 6, 452, 891]
        assert digest.hexdigest() == (
            "c751ae9a8dd414aa6f79eed477a16f3bc231f9fa69865347bf43708f7cc3e6fb"
        )


class TestAuto:
    def test_choose_picks_smallest(self, rng):
        auto = AutoCodec()
        lo, hi = 0, 4096
        for ids in (
            np.arange(0, 4096, 2, dtype=np.int64),  # dense -> bitmap
            np.array([7, 4000], dtype=np.int64),  # sparse -> varint
        ):
            chosen = auto.trial(ids, lo, hi)[0]
            assert chosen.encode(ids, lo, hi).shape[0] == min(
                c.encode(ids, lo, hi).shape[0] for c in auto._candidates
            )

    def test_auto_decode_raises(self):
        with pytest.raises(NotImplementedError):
            AutoCodec().decode(np.empty(0, dtype=np.uint8), 0, 8)

    def test_auto_nbytes_is_min(self, rng):
        ids = _ids(rng, 0, 2048, 200)
        auto = AutoCodec()
        assert auto.encode(ids, 0, 2048).shape[0] == min(
            c.encode(ids, 0, 2048).shape[0] for c in auto._candidates
        )

    def test_ef_is_a_candidate_and_wins_sparse_wide_ranges(self, rng):
        auto = AutoCodec()
        assert any(c.name == "ef" for c in auto._candidates)
        lo, hi = 0, 1 << 20
        ids = _ids(rng, lo, hi, 256)
        assert auto.trial(ids, lo, hi)[0].name == "ef"

    @pytest.mark.parametrize(
        "make_ids",
        [
            lambda rng: np.arange(0, 4096, 2, dtype=np.int64),
            lambda rng: np.array([7], dtype=np.int64),
            lambda rng: _ids(rng, 0, 4096, 100),
            lambda rng: _ids(rng, 0, 4096, 2000),
            lambda rng: np.empty(0, dtype=np.int64),
        ],
        ids=["dense", "single", "sparse", "heavy", "empty"],
    )
    def test_never_transmits_more_than_best_fixed_codec(self, rng, make_ids):
        # The regression the trial-encode selection guarantees: for any
        # frontier shape, auto's actual payload is <= every fixed codec
        # that can represent the message.
        auto = AutoCodec()
        ids = make_ids(rng)
        lo, hi = 0, 4096
        nbytes = auto.encode(ids, lo, hi).shape[0]
        for codec in CONCRETE:
            assert nbytes <= codec.encode(ids, lo, hi).shape[0]

    def test_wide_ids_skip_raw_but_still_encode(self):
        # raw can't represent ids >= 2^31; auto must fall through to a
        # candidate that can instead of raising.
        auto = AutoCodec()
        lo, hi = 0, 1 << 33
        ids = np.array([5, 1 << 31, (1 << 32) + 17], dtype=np.int64)
        chosen = auto.trial(ids, lo, hi)[0]
        assert chosen.name != "raw"
        back = chosen.decode(auto.encode(ids, lo, hi), lo, hi)
        assert np.array_equal(back, ids)

    def test_trial_matches_always_encode_reference(self, rng):
        # Skipping a bitmap that cannot win must leave the winner, the
        # tie-break and the payload exactly as a trial that encodes
        # every candidate.
        auto = AutoCodec()
        reference = [
            RawCodec(), BitmapCodec(), VarintCodec(), EliasFanoCodec()
        ]
        winners = set()
        for _ in range(300):
            lo = int(rng.integers(0, 1 << 32))
            hi = lo + int(rng.choice([1, 8, 64, 1000, 1 << 16]))
            ids = _ids(rng, lo, hi, int(rng.integers(0, 301)))
            best = None
            for codec in reference:
                try:
                    payload = codec.encode(ids, lo, hi)
                except ValueError:
                    continue
                if best is None or payload.shape[0] < best[1].shape[0]:
                    best = (codec, payload)
            chosen, payload = auto.trial(ids, lo, hi)
            assert chosen.name == best[0].name
            assert np.array_equal(payload, best[1])
            winners.add(chosen.name)
        assert winners == {"raw", "bitmap", "varint", "ef"}

    def test_bad_input_still_raises(self):
        with pytest.raises(ValueError):
            AutoCodec().encode(np.array([5, 3], dtype=np.int64), 0, 16)
        with pytest.raises(ValueError):
            AutoCodec().encode(np.array([3, 3], dtype=np.int64), 0, 16)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in WIRE_CODECS:
            assert get_codec(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_codec("zstd")
