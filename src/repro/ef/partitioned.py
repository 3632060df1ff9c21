"""Partitioned Elias-Fano (PEF) — the Sec. IX extension.

Plain EF spends ``2 + ceil(log2(u/n))`` bits per element even on highly
compressible runs (e.g. web-graph lists ``[0, 1, ..., n-2, u-1]``).
PEF (Ottaviano & Venturini) partitions the sequence and encodes each
partition with the cheapest of several representations.  We implement
the three classic partition codecs:

* ``RUN`` — the partition is a contiguous run ``[first, first+m)``;
  only the skip metadata is needed (0 payload bits).
* ``BITMAP`` — a dense partition is stored as a plain bitvector over its
  local universe.
* ``EF`` — fall back to Elias-Fano relative to the partition base.

Partition boundaries here are fixed-size (a simplification of the
paper's dynamic-programming splitter, adequate to demonstrate the
compression win on run-heavy inputs and the neutrality elsewhere).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.ef.bounds import ef_total_bits
from repro.ef.encoding import EFSequence, ef_decode, ef_encode

__all__ = ["PartitionCodec", "PEFPartition", "PEFSequence", "pef_encode", "pef_decode"]

#: Default number of elements per partition.
DEFAULT_PARTITION_SIZE = 128


class PartitionCodec(enum.Enum):
    """Representation chosen for one partition."""

    RUN = "run"
    BITMAP = "bitmap"
    EF = "ef"


@dataclass(frozen=True)
class PEFPartition:
    """One encoded partition.

    ``base`` is subtracted from all elements before encoding; ``count``
    elements with local universe ``local_u`` (largest local value).
    """

    codec: PartitionCodec
    base: int
    count: int
    local_u: int
    payload: np.ndarray | EFSequence | None

    @property
    def payload_bits(self) -> int:
        """Payload size in bits (excludes skip metadata)."""
        if self.codec is PartitionCodec.RUN:
            return 0
        if self.codec is PartitionCodec.BITMAP:
            _require_payload_type(self, np.ndarray)
            return int(self.payload.shape[0]) * 8
        _require_payload_type(self, EFSequence)
        return self.payload.nbytes * 8


def _require_payload_type(partition: "PEFPartition", expected: type) -> None:
    """Typed replacement for the old ``assert isinstance`` guards.

    Those asserts vanished under ``python -O``, letting a corrupt
    partition reach the codec-specific decode with the wrong payload
    class and die on an arbitrary ``AttributeError``.
    """
    if not isinstance(partition.payload, expected):
        raise CorruptMetadataError(
            f"{partition.codec.value} partition carries "
            f"{type(partition.payload).__name__} payload, expected "
            f"{expected.__name__}",
            fmt="pef",
        )


@dataclass(frozen=True)
class PEFSequence:
    """A partitioned-EF-coded strictly-increasing sequence."""

    n: int
    u: int
    partitions: tuple[PEFPartition, ...]

    @property
    def nbytes(self) -> int:
        """Total bytes: payloads plus 8 B of skip metadata per partition.

        Skip metadata per partition: base (4 B), count+codec (4 B) —
        matching the fixed-width skip lists PEF implementations use.
        """
        payload = sum((p.payload_bits + 7) >> 3 for p in self.partitions)
        return payload + 8 * len(self.partitions)


def _encode_partition(values: np.ndarray) -> PEFPartition:
    """Pick the cheapest codec for one partition of strictly-increasing ints."""
    base = int(values[0])
    local = (values - base).astype(np.int64)
    count = int(values.shape[0])
    local_u = int(local[-1])

    # RUN: elements are exactly base, base+1, ..., base+count-1.
    if local_u == count - 1:
        return PEFPartition(PartitionCodec.RUN, base, count, local_u, None)

    bitmap_bits = local_u + 1
    ef_bits = ef_total_bits(count, local_u) if local_u > 0 else 8
    if bitmap_bits <= ef_bits:
        bitmap = np.zeros((bitmap_bits + 7) >> 3, dtype=np.uint8)
        np.bitwise_or.at(
            bitmap, local >> 3, (np.uint8(1) << (local & 7).astype(np.uint8))
        )
        return PEFPartition(PartitionCodec.BITMAP, base, count, local_u, bitmap)

    seq = ef_encode(local, quantum=1 << 30)  # short partitions: no fwd ptrs
    return PEFPartition(PartitionCodec.EF, base, count, local_u, seq)


#: A run must be at least this long for a dedicated RUN partition to
#: amortise its skip metadata (8 B ~= 5-6 EF-coded elements).
MIN_RUN_PARTITION = 8


def _run_aware_boundaries(values: np.ndarray, partition_size: int) -> list[int]:
    """Greedy partition boundaries aligned to long runs.

    A light-weight stand-in for the dynamic-programming splitter of
    Ottaviano & Venturini: maximal runs of consecutive integers of
    length >= :data:`MIN_RUN_PARTITION` become their own partitions
    (encodable as RUN at zero payload bits); the stretches between
    runs are chopped into ``partition_size`` chunks.
    """
    n = values.shape[0]
    breaks = np.flatnonzero(np.diff(values) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [n]])
    lengths = ends - starts
    bounds = [0]
    cursor = 0
    for s, e, ln in zip(starts, ends, lengths):
        if ln < MIN_RUN_PARTITION:
            continue
        # Chunk the gap region before the run.
        while s - cursor > partition_size:
            cursor += partition_size
            bounds.append(cursor)
        if s > cursor:
            bounds.append(s)
        bounds.append(e)
        cursor = e
    while n - cursor > partition_size:
        cursor += partition_size
        bounds.append(cursor)
    if bounds[-1] != n:
        bounds.append(n)
    return bounds


#: Per-partition metadata bytes (skip entry) used by the DP cost model.
_SKIP_BYTES = 8


def _partition_cost_bits(values: np.ndarray, a: int, b: int) -> int:
    """Payload bits the cheapest codec needs for ``values[a:b]``."""
    count = b - a
    local_u = int(values[b - 1] - values[a])
    if local_u == count - 1:
        return 0  # RUN
    bitmap_bits = local_u + 1
    ef_bits = ef_total_bits(count, local_u) if local_u > 0 else 8
    return min(bitmap_bits, ef_bits)


def _dp_boundaries(values: np.ndarray, max_span: int = 4096) -> list[int]:
    """Near-optimal partition boundaries by shortest-path DP.

    Ottaviano & Venturini's (1 + eps)-approximation restricts candidate
    partition lengths to a geometric set; we use the power-of-two
    ladder ``{1, 2, 4, ..., max_span}`` *plus, per position, the start
    of the maximal run ending there* — so the DP can align exactly to
    run boundaries, which the pure geometric ladder cannot.  ``dp[j]``
    is the cheapest encoding of the prefix ``values[:j]``.
    """
    n = values.shape[0]
    spans = [1]
    while spans[-1] < min(max_span, n):
        spans.append(spans[-1] * 2)
    # run_start[t] = index of the first element of the maximal run of
    # consecutive integers containing values[t].
    run_start = np.zeros(n, dtype=np.int64)
    for t in range(1, n):
        run_start[t] = run_start[t - 1] if values[t] == values[t - 1] + 1 else t
    skip_bits = 8 * _SKIP_BYTES
    dp = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    dp[0] = 0
    parent = np.zeros(n + 1, dtype=np.int64)
    for j in range(1, n + 1):
        candidates = [j - span for span in spans if j - span >= 0]
        candidates.append(int(run_start[j - 1]))  # align to the run start
        for i in candidates:
            if i >= j:
                continue
            cost = dp[i] + skip_bits + _partition_cost_bits(values, i, j)
            if cost < dp[j]:
                dp[j] = cost
                parent[j] = i
    bounds = [n]
    while bounds[-1] > 0:
        bounds.append(int(parent[bounds[-1]]))
    bounds.reverse()
    return bounds


def pef_encode(
    values: np.ndarray,
    partition_size: int = DEFAULT_PARTITION_SIZE,
    strategy: str = "runs",
) -> PEFSequence:
    """Encode a strictly-increasing sequence with PEF.

    Parameters
    ----------
    values:
        Strictly increasing non-negative integers.
    partition_size:
        Chunk size for non-run regions (and the fixed strategy).
    strategy:
        ``"runs"`` (default) aligns partition boundaries to maximal
        runs — the property the Sec. IX discussion is about;
        ``"fixed"`` uses fixed-size partitions (the simplest PEF
        baseline); ``"optimal"`` runs the Ottaviano-Venturini-style
        shortest-path DP over power-of-two spans (slowest, smallest).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1 or values.shape[0] == 0:
        raise ValueError("pef_encode requires a non-empty 1-D sequence")
    if np.any(np.diff(values) <= 0):
        raise ValueError("pef_encode requires a strictly increasing sequence")
    if values[0] < 0:
        raise ValueError("pef_encode requires non-negative values")
    if partition_size <= 0:
        raise ValueError(f"partition size must be positive, got {partition_size}")
    if strategy == "fixed":
        bounds = list(range(0, values.shape[0], partition_size)) + [values.shape[0]]
        bounds = sorted(set(bounds))
    elif strategy == "runs":
        bounds = _run_aware_boundaries(values, partition_size)
    elif strategy == "optimal":
        # The DP's candidate spans are geometric + run-aligned; the
        # greedy strategies can occasionally find boundaries outside
        # that set, so take the best of all three (still offline-cheap
        # and guarantees optimal <= runs <= ... in bytes).
        best: PEFSequence | None = None
        for alt in ("fixed", "runs"):
            seq = pef_encode(values, partition_size, strategy=alt)
            if best is None or seq.nbytes < best.nbytes:
                best = seq
        dp_bounds = _dp_boundaries(values)
        parts = [
            _encode_partition(values[a:b])
            for a, b in zip(dp_bounds[:-1], dp_bounds[1:])
        ]
        dp_seq = PEFSequence(
            n=int(values.shape[0]), u=int(values[-1]), partitions=tuple(parts)
        )
        return dp_seq if dp_seq.nbytes <= best.nbytes else best
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    parts = [
        _encode_partition(values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    ]
    seq = PEFSequence(
        n=int(values.shape[0]), u=int(values[-1]), partitions=tuple(parts)
    )
    if len(parts) > 1:
        # PEF always considers the trivial split; on short or
        # structure-free lists the skip metadata of many partitions can
        # exceed what partitioning saves.
        whole = PEFSequence(
            n=seq.n, u=seq.u, partitions=(_encode_partition(values),)
        )
        if whole.nbytes <= seq.nbytes:
            return whole
    return seq


def pef_to_blob(seq: PEFSequence) -> np.ndarray:
    """Serialize a PEF sequence to a byte blob.

    Layout (little-endian): ``u16 #partitions``, then per partition a
    skip entry ``u32 base | u16 count | u8 codec | u8 pad`` (the 8 B of
    metadata :attr:`PEFSequence.nbytes` accounts), followed by all
    payloads back to back, byte aligned, in partition order.
    """
    if len(seq.partitions) >= 1 << 16:
        raise ValueError("too many partitions for u16 header")
    header = bytearray()
    header += int(len(seq.partitions)).to_bytes(2, "little")
    payloads = bytearray()
    codec_ids = {PartitionCodec.RUN: 0, PartitionCodec.BITMAP: 1,
                 PartitionCodec.EF: 2}
    for p in seq.partitions:
        if p.count >= 1 << 16 or p.base >= 1 << 32:
            raise ValueError("partition exceeds skip-entry field widths")
        header += int(p.base).to_bytes(4, "little")
        header += int(p.count).to_bytes(2, "little")
        header += bytes([codec_ids[p.codec], 0])
        if p.codec is PartitionCodec.BITMAP:
            _require_payload_type(p, np.ndarray)
            payloads += int(p.payload.shape[0]).to_bytes(3, "little")
            payloads += p.payload.tobytes()
        elif p.codec is PartitionCodec.EF:
            _require_payload_type(p, EFSequence)
            blob = p.payload.to_blob()
            payloads += int(blob.shape[0]).to_bytes(3, "little")
            payloads += int(p.payload.num_lower_bits).to_bytes(1, "little")
            payloads += int(p.payload.upper.shape[0]).to_bytes(3, "little")
            payloads += blob.tobytes()
    return np.frombuffer(bytes(header) + bytes(payloads), dtype=np.uint8)


def pef_from_blob(blob: np.ndarray) -> np.ndarray:
    """Decode a :func:`pef_to_blob` blob back to the original values.

    Every read is bounds-checked: a truncated blob, an unknown codec id
    or a bitmap with fewer set bits than its skip entry promises raises
    a typed :class:`CorruptStreamError` / :class:`CorruptMetadataError`
    instead of slicing garbage.
    """
    data = np.asarray(blob, dtype=np.uint8)
    raw = data.tobytes()

    def _take(pos: int, n: int, what: str) -> tuple[bytes, int]:
        if pos + n > len(raw):
            raise CorruptStreamError(
                f"blob truncated reading {what} at byte {pos} "
                f"({len(raw)} bytes total)",
                fmt="pef",
            )
        return raw[pos : pos + n], pos + n

    chunk, pos = _take(0, 2, "partition count")
    npart = int.from_bytes(chunk, "little")
    skips = []
    for p in range(npart):
        chunk, pos = _take(pos, 8, f"skip entry {p}")
        base = int.from_bytes(chunk[0:4], "little")
        count = int.from_bytes(chunk[4:6], "little")
        codec = chunk[6]
        if codec > 2:
            raise CorruptMetadataError(
                f"unknown codec id {codec} in skip entry {p}", fmt="pef"
            )
        skips.append((base, count, codec))
    out: list[np.ndarray] = []
    for base, count, codec in skips:
        if codec == 0:  # RUN
            local = np.arange(count, dtype=np.int64)
        elif codec == 1:  # BITMAP
            chunk, pos = _take(pos, 3, "bitmap length")
            nbytes = int.from_bytes(chunk, "little")
            chunk, pos = _take(pos, nbytes, "bitmap payload")
            bitmap = np.frombuffer(chunk, dtype=np.uint8)
            bits = np.unpackbits(bitmap, bitorder="little")
            local = np.flatnonzero(bits).astype(np.int64)
            if local.shape[0] != count:
                raise CorruptStreamError(
                    f"bitmap has {local.shape[0]} set bits, skip entry "
                    f"promises {count}",
                    fmt="pef",
                )
        else:  # EF
            chunk, pos = _take(pos, 7, "EF partition header")
            nbytes = int.from_bytes(chunk[0:3], "little")
            l = chunk[3]
            upper_bytes = int.from_bytes(chunk[4:7], "little")
            if upper_bytes > nbytes:
                raise CorruptMetadataError(
                    f"EF partition claims {upper_bytes} upper bytes of a "
                    f"{nbytes}-byte payload",
                    fmt="pef",
                )
            chunk, pos = _take(pos, nbytes, "EF partition payload")
            payload = np.frombuffer(chunk, dtype=np.uint8)
            lower = payload[: nbytes - upper_bytes]
            upper = payload[nbytes - upper_bytes :]
            seq = EFSequence(
                n=count, u=0, num_lower_bits=int(l), lower=lower, upper=upper
            )
            local = ef_decode(seq)
        out.append(local + base)
    if pos != len(raw):
        raise CorruptStreamError(
            f"{len(raw) - pos} trailing bytes after the last partition",
            fmt="pef",
        )
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def pef_decode(seq: PEFSequence) -> np.ndarray:
    """Decode all partitions back to the original sequence."""
    out: list[np.ndarray] = []
    for p in seq.partitions:
        if p.codec is PartitionCodec.RUN:
            local = np.arange(p.count, dtype=np.int64)
        elif p.codec is PartitionCodec.BITMAP:
            _require_payload_type(p, np.ndarray)
            bits = np.unpackbits(p.payload, bitorder="little")
            local = np.flatnonzero(bits).astype(np.int64)
            if local.shape[0] != p.count:
                raise CorruptStreamError(
                    f"bitmap has {local.shape[0]} set bits, partition "
                    f"promises {p.count}",
                    fmt="pef",
                )
        else:
            _require_payload_type(p, EFSequence)
            local = ef_decode(p.payload)
        out.append(local + p.base)
    return np.concatenate(out)
