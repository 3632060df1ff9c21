"""Frontier wire codecs for the inter-GPU exchange.

Romera et al. (PAPERS.md: *Optimizing Communication by Compression for
Multi-GPU Scalable BFS*, *ButterFly BFS*) show that the frontier
exchange — not local expansion — bounds multi-GPU BFS scaling, and that
compressing the exchanged frontier changes the verdict.  These codecs
model the standard menu:

* ``raw``    — one int32 per vertex id (the uncompressed wire format of
  the multi-GPU BFS literature; valid while |V| < 2^31);
* ``raw64``  — one int64 per id, i.e. the device-side frontier width
  shipped unpacked (what the pre-codec simulator should always have
  charged — see :data:`FRONTIER_ID_BYTES`);
* ``bitmap`` — one bit per vertex of the destination range, the win
  once frontier density crosses ~1/32 of the shard;
* ``varint`` — delta-encode the sorted ids, LEB128-varint the gaps —
  the sparse-frontier compressor (gaps within a shard are small);
* ``ef``     — Elias-Fano over the sorted ids relative to the message
  range, reusing the :mod:`repro.ef` substrate the storage format is
  built on (a sorted-unique frontier is exactly the monotone sequence
  EF wants);
* ``auto``   — per message, whichever concrete codec trial-encodes
  smallest (real payload sizes, not a density heuristic; the winner's
  tag rides in the header the receiver reads anyway).

Every codec really encodes and decodes (the drivers traverse what came
off the wire), so "levels bit-identical across codecs" is a property of
the code, not an assumption.  Ids inside one message must be sorted and
unique — the pack kernel dedupes before encoding, which is itself part
of the communication-reduction story.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.errors import CorruptStreamError
from repro.ef.bounds import ef_num_lower_bits, ef_upper_bits
from repro.ef.encoding import EFSequence, ef_decode, ef_encode
from repro.primitives.bitops import pack_varints

__all__ = [
    "FRONTIER_ID_BYTES",
    "MESSAGE_HEADER_BYTES",
    "VALUE_BYTES",
    "WIRE_CODECS",
    "WireCodec",
    "RawCodec",
    "Raw64Codec",
    "BitmapCodec",
    "VarintCodec",
    "EliasFanoCodec",
    "AutoCodec",
    "get_codec",
]

#: Width of one device-side frontier id.  Frontiers are int64 arrays on
#: every simulated device; kernel writes of frontier entries and any
#: unpacked (``raw64``) wire accounting must both use this constant.
FRONTIER_ID_BYTES = 8

#: Width of the value an id carries in a valued exchange (an SSSP
#: distance, a PageRank partial sum): the pack's value write and the
#: uncompressed value bytes on the wire both use this constant.
VALUE_BYTES = 4

#: Fixed per-message envelope: codec tag, id count, range base —
#: everything the receiver needs before touching the payload.
MESSAGE_HEADER_BYTES = 16


def _check_sorted_unique(ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and np.any(np.diff(ids) <= 0):
        raise ValueError("wire codecs require sorted unique ids")
    return ids


def _varint_decode(payload: np.ndarray) -> np.ndarray:
    """Decode an LEB128 byte stream back to a uint64 array."""
    data = np.asarray(payload, dtype=np.uint8)
    if data.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero((data & 0x80) == 0)
    if ends.size == 0 or ends[-1] != data.size - 1:
        # The last byte still has its continuation bit set: the stream
        # was cut mid-value.  Typed per the repro.core.errors contract.
        raise CorruptStreamError("truncated varint stream", fmt="wire")
    starts = np.empty(ends.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    seg = np.repeat(np.arange(ends.size), ends - starts + 1)
    pos = np.arange(data.size, dtype=np.int64) - starts[seg]
    values = np.zeros(ends.size, dtype=np.uint64)
    np.add.at(
        values,
        seg,
        (data.astype(np.uint64) & np.uint64(0x7F))
        << (np.uint64(7) * pos.astype(np.uint64)),
    )
    return values


class WireCodec(abc.ABC):
    """One frontier wire format: encode to bytes, decode back to ids."""

    name: str
    #: Per-id ALU cost of packing ids into this format on the sender.
    encode_instr_per_id: float
    #: Per-id ALU cost of unpacking on the receiver (claim side).
    decode_instr_per_id: float

    @abc.abstractmethod
    def encode(self, ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Encode sorted unique ids in ``[lo, hi)`` to a uint8 payload."""

    @abc.abstractmethod
    def decode(self, payload: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Recover the exact id array from one message payload."""


class RawCodec(WireCodec):
    """Uncompressed int32 ids — the literature's baseline wire format."""

    name = "raw"
    encode_instr_per_id = 1.0
    decode_instr_per_id = 1.0

    def encode(self, ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
        ids = _check_sorted_unique(ids)
        if ids.size and int(ids[-1]) >= 1 << 31:
            raise ValueError("raw int32 wire format needs ids < 2^31")
        return ids.astype("<i4").view(np.uint8)

    def decode(self, payload: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return (
            np.asarray(payload, dtype=np.uint8)
            .view("<i4")
            .astype(np.int64)
        )


class Raw64Codec(WireCodec):
    """Device-width int64 ids shipped unpacked (no pack kernel at all)."""

    name = "raw64"
    encode_instr_per_id = 0.0
    decode_instr_per_id = 1.0

    def encode(self, ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return _check_sorted_unique(ids).astype("<i8").view(np.uint8)

    def decode(self, payload: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return np.asarray(payload, dtype=np.uint8).view("<i8").astype(np.int64)


class BitmapCodec(WireCodec):
    """One bit per vertex of the message's ``[lo, hi)`` range."""

    name = "bitmap"
    encode_instr_per_id = 2.0
    decode_instr_per_id = 2.0

    def encode(self, ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
        ids = _check_sorted_unique(ids)
        if ids.size and (int(ids[0]) < lo or int(ids[-1]) >= hi):
            raise ValueError("bitmap codec: id outside message range")
        bits = np.zeros(max(0, hi - lo), dtype=np.uint8)
        bits[ids - lo] = 1
        return np.packbits(bits)

    def decode(self, payload: np.ndarray, lo: int, hi: int) -> np.ndarray:
        bits = np.unpackbits(
            np.asarray(payload, dtype=np.uint8), count=hi - lo
        )
        return np.flatnonzero(bits).astype(np.int64) + lo


class VarintCodec(WireCodec):
    """Delta + LEB128 varint over the sorted ids (gap encoding)."""

    name = "varint"
    encode_instr_per_id = 4.0
    decode_instr_per_id = 6.0

    def encode(self, ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
        ids = _check_sorted_unique(ids)
        if ids.size == 0:
            return np.empty(0, dtype=np.uint8)
        gaps = np.empty(ids.shape[0], dtype=np.uint64)
        gaps[0] = np.uint64(int(ids[0]) - lo)
        gaps[1:] = np.diff(ids).astype(np.uint64)
        return pack_varints(gaps)[0]

    def decode(self, payload: np.ndarray, lo: int, hi: int) -> np.ndarray:
        gaps = _varint_decode(payload)
        if gaps.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.cumsum(gaps.astype(np.int64)) + lo


class EliasFanoCodec(WireCodec):
    """Elias-Fano over the sorted ids, relative to the message range.

    The id stream rebased to ``[0, hi - lo)`` is a strictly increasing
    sequence with a known universe — the textbook EF input — so the
    payload is the EF lower/upper sections from :func:`repro.ef.
    encoding.ef_encode` behind a 4-byte element count.  Both section
    lengths are closed-form in ``(n, u)`` (the a-priori bound the
    storage format advertises), so the count is the whole header and
    any truncation or padding is detected as a length mismatch.
    A message is always decoded whole, which needs no forward pointers,
    so none are shipped or rebuilt.
    """

    name = "ef"
    #: Lower/upper split, lower-bit store, unary stop-bit scatter.
    encode_instr_per_id = 6.0
    #: The Sec. VI-B select decomposition.  Priced as it was when the
    #: receiver also rebuilt forward pointers, so simulated exchange
    #: times stay fixed.
    decode_instr_per_id = 8.0

    @staticmethod
    def _universe(lo: int, hi: int) -> int:
        # Largest rebased value a valid message can carry.
        return max(hi - lo - 1, 0)

    def encode(self, ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
        ids = _check_sorted_unique(ids)
        if ids.size == 0:
            return np.empty(0, dtype=np.uint8)
        if int(ids[0]) < lo or int(ids[-1]) >= hi:
            raise ValueError("ef codec: id outside message range")
        seq = ef_encode(ids - lo, u=self._universe(lo, hi))
        count = np.array([ids.shape[0]], dtype="<u4").view(np.uint8)
        return np.concatenate([count, seq.lower, seq.upper])

    def decode(self, payload: np.ndarray, lo: int, hi: int) -> np.ndarray:
        data = np.asarray(payload, dtype=np.uint8)
        if data.size == 0:
            return np.empty(0, dtype=np.int64)
        if data.size < 4:
            raise CorruptStreamError(
                f"ef wire payload of {data.size} bytes is shorter than "
                "its 4-byte count header",
                fmt="wire",
            )
        n = int(data[:4].view("<u4")[0])
        if not 1 <= n <= hi - lo:
            raise CorruptStreamError(
                f"ef wire count {n} invalid for a range of {hi - lo} ids",
                fmt="wire",
            )
        u = self._universe(lo, hi)
        l = ef_num_lower_bits(n, u)
        lower_len = (n * l + 7) >> 3
        upper_len = (ef_upper_bits(n, u) + 7) >> 3
        if data.size != 4 + lower_len + upper_len:
            raise CorruptStreamError(
                f"ef wire payload holds {data.size - 4} section bytes, "
                f"{lower_len + upper_len} implied by count {n}",
                fmt="wire",
            )
        seq = EFSequence(
            n=n,
            u=u,
            num_lower_bits=l,
            lower=data[4 : 4 + lower_len],
            upper=data[4 + lower_len :],
        )
        return ef_decode(seq) + lo


class AutoCodec(WireCodec):
    """Per-message selection by actual trial-encoded payload size.

    Every concrete candidate (raw/bitmap/varint/ef) that could still
    win encodes the message; the smallest real payload wins, with
    earlier candidates breaking ties (raw first — the cheapest decode).
    Candidates that cannot represent the message (raw past 2^31) drop
    out of the trial.  The winner's tag rides in the message header the
    receiver parses anyway.  Functional decode delegates to the chosen
    codec, recovered the same way.
    """

    name = "auto"

    def __init__(self) -> None:
        self._candidates = (
            RawCodec(),
            BitmapCodec(),
            VarintCodec(),
            EliasFanoCodec(),
        )

    def trial(
        self, ids: np.ndarray, lo: int, hi: int
    ) -> tuple[WireCodec, np.ndarray]:
        """``(winner, payload)`` — the smallest actual encoding.

        The bitmap's encode allocates one byte per vertex of the range
        (8 GiB for a 2^33-id range), so it is tried last and skipped
        when its exact size (one bit per vertex of ``[lo, hi)``) already
        exceeds the smallest payload of the others — it could not win.
        """
        bitmap = self._candidates[1]
        order = [c for c in self._candidates if c is not bitmap] + [bitmap]
        best: tuple[int, int, WireCodec, np.ndarray] | None = None
        for candidate in order:
            if (
                candidate is bitmap
                and best is not None
                and (hi - lo + 7) // 8 > best[0]
            ):
                continue
            try:
                payload = candidate.encode(ids, lo, hi)
            except ValueError:
                if candidate is self._candidates[0]:
                    # Only representation limits are skippable; bad input
                    # (unsorted/duplicate ids) fails every candidate, so
                    # let the first one surface the error.
                    _check_sorted_unique(ids)
                continue
            # Smallest payload wins; earlier candidates break ties.
            key = (payload.shape[0], self._candidates.index(candidate))
            if best is None or key < best[:2]:
                best = (*key, candidate, payload)
        if best is None:
            raise ValueError("no wire codec can represent this message")
        return best[2], best[3]

    @property
    def encode_instr_per_id(self) -> float:  # type: ignore[override]
        return max(c.encode_instr_per_id for c in self._candidates)

    @property
    def decode_instr_per_id(self) -> float:  # type: ignore[override]
        return max(c.decode_instr_per_id for c in self._candidates)

    def encode(self, ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return self.trial(ids, lo, hi)[1]

    def decode(self, payload: np.ndarray, lo: int, hi: int) -> np.ndarray:
        raise NotImplementedError(
            "auto is a selector; decode with the codec trial() returned"
        )


#: CLI-facing codec names.
WIRE_CODECS = ("raw", "raw64", "bitmap", "varint", "ef", "auto")

_CODECS: dict[str, WireCodec] = {
    c.name: c
    for c in (
        RawCodec(),
        Raw64Codec(),
        BitmapCodec(),
        VarintCodec(),
        EliasFanoCodec(),
        AutoCodec(),
    )
}


def get_codec(name: str) -> WireCodec:
    """Look up a wire codec by name."""
    try:
        return _CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown wire codec {name!r}; pick from {WIRE_CODECS}"
        ) from None
