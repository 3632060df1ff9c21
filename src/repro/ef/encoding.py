"""Elias-Fano encode / decode of a single monotone sequence (Sec. IV).

A sequence ``0 <= x_0 <= ... <= x_{n-1} <= u`` is split per element into
``l = max(0, floor(log2(u/n)))`` lower bits (stored contiguously) and the
remaining upper bits (stored as unary-coded gaps with 1 as the stop bit).
Total storage is at most ``n * (2 + ceil(log2(u/n)))`` bits.

There is one Elias-Fano codec in the package: a sequence is a one-list
EFG, so :func:`ef_encode` runs the batched EFG list encoder, random
access shares ``EFGraph.edge_at``'s implementation, and range decode
runs the same batched :func:`~repro.ef.select.select1_bitarray` as
:func:`repro.core.efg.decode_lists`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.ef.bitstream import extract_fields
from repro.ef.forward import DEFAULT_QUANTUM
from repro.ef.select import select1_bitarray
from repro.primitives.bitops import POPCOUNT_TABLE

__all__ = ["EFSequence", "ef_encode", "ef_decode", "ef_decode_at", "ef_decode_range"]


@dataclass(frozen=True)
class EFSequence:
    """One Elias-Fano-coded monotone sequence.

    Attributes
    ----------
    n:
        Number of elements.
    u:
        Upper bound used at encode time (the largest element by default).
    num_lower_bits:
        Per-element lower-bit width ``l``.
    lower:
        Byte-packed lower-bits section (LSB-first).
    upper:
        Byte-packed unary upper-bits section (LSB-first).
    forward:
        Forward pointers over ``upper`` (uint32): ``forward[j-1] =
        x_{jk-1} >> l``, i.e. ``select1(jk-1) - (jk-1)``.  Empty for
        short lists and for sequences read back without them.
    quantum:
        Forward-pointer spacing ``k``.
    """

    n: int
    u: int
    num_lower_bits: int
    lower: np.ndarray
    upper: np.ndarray
    forward: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint32), repr=False
    )
    quantum: int = DEFAULT_QUANTUM

    @property
    def nbytes(self) -> int:
        """Total payload bytes (forward + lower + upper, byte aligned)."""
        return 4 * self.forward.shape[0] + self.lower.shape[0] + self.upper.shape[0]

    def to_blob(self) -> np.ndarray:
        """Serialize payload sections in EFG order: forward | lower | upper."""
        fwd_bytes = self.forward.astype("<u4").view(np.uint8)
        return np.concatenate([fwd_bytes, self.lower, self.upper])


def ef_encode(
    values: np.ndarray,
    u: int | None = None,
    quantum: int = DEFAULT_QUANTUM,
) -> EFSequence:
    """Encode a non-decreasing sequence of non-negative integers.

    Parameters
    ----------
    values:
        Sorted (non-decreasing) integers; duplicates are allowed by the
        encoding (adjacency lists are strictly increasing, but EF itself
        is defined for monotone sequences).
    u:
        Upper bound on the last value; defaults to ``values[-1]``.
    quantum:
        Forward-pointer spacing ``k`` (paper default 512).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1 or values.shape[0] == 0:
        raise ValueError("ef_encode requires a non-empty 1-D sequence")
    if values[0] < 0:
        raise ValueError("ef_encode requires non-negative values")
    if np.any(np.diff(values) < 0):
        raise ValueError("ef_encode requires a non-decreasing sequence")
    n = int(values.shape[0])
    last = int(values[-1])
    if u is None:
        u = last
    elif u < last:
        raise ValueError(f"upper bound {u} below the last value {last}")

    # Deferred: repro.core.efg imports this package.
    from repro.core.efg import _encode_lists

    l, _, data = _encode_lists(
        np.array([0, n], dtype=np.int64),
        values,
        np.array([u], dtype=np.int64),
        quantum,
    )
    l = int(l[0])
    lower_start = 4 * (n // quantum)
    upper_start = lower_start + ((n * l + 7) >> 3)
    return EFSequence(
        n=n,
        u=int(u),
        num_lower_bits=l,
        lower=data[lower_start:upper_start],
        upper=data[upper_start:],
        forward=data[:lower_start].view("<u4"),
        quantum=quantum,
    )


def _check_sequence(seq: EFSequence) -> None:
    """Cheap metadata guard for the random-access decoders.

    Rejects parameter corruption (``l`` past 64, a lower-bits section
    too short for ``n`` fields) with a typed error before any gather can
    read out of bounds or feed numpy a negative repeat count.
    """
    l = int(seq.num_lower_bits)
    if not 0 <= l <= 64:
        raise CorruptMetadataError(
            f"num_lower_bits {l} out of range [0, 64]", fmt="ef"
        )
    need_lower = (seq.n * l + 7) >> 3
    if int(seq.lower.shape[0]) < need_lower:
        raise CorruptMetadataError(
            f"lower section holds {int(seq.lower.shape[0])} bytes, "
            f"{need_lower} needed for {seq.n} fields of {l} bits",
            fmt="ef",
        )


def ef_decode(seq: EFSequence) -> np.ndarray:
    """Decode the full sequence with the batched select decomposition."""
    return ef_decode_range(seq, 0, seq.n)


def ef_decode_at(seq: EFSequence, i: int) -> int:
    """Random access to element ``i`` using forward pointers.

    ``x_i = ((select1(i) - i) << l) | lower[i]`` — the forward pointer
    bounds the select scan to at most one quantum of stop bits.
    """
    from repro.core.efg import _value_at  # deferred, as in ef_encode

    if not 0 <= i < seq.n:
        raise IndexError(f"index {i} out of range for sequence of {seq.n}")
    _check_sequence(seq)
    return _value_at(
        seq.forward,
        seq.lower,
        seq.upper,
        int(seq.num_lower_bits),
        seq.quantum,
        i,
        fmt="ef",
    )


def ef_decode_range(seq: EFSequence, a: int, b: int) -> np.ndarray:
    """Decode elements ``[a, b)`` scanning only the covering byte range.

    This is the partial-list problem of Sec. VI-C: locate the closest
    forward pointer preceding ``a`` and the closest covering pointer at
    or after ``b - 1``, then run the popcount/scan/binsearch/select
    pipeline over just the bytes in between.
    """
    if not 0 <= a <= b <= seq.n:
        raise IndexError(f"range [{a}, {b}) invalid for sequence of {seq.n}")
    if a == b:
        return np.empty(0, dtype=np.int64)
    _check_sequence(seq)

    # --- bound the upper-bits scan with forward pointers (Fig. 6) ---
    # Pointer j anchors element jk-1 at stop bit forward[j-1] + jk-1.
    k = seq.quantum
    num_fwd = seq.forward.shape[0]
    j = min((a + 1) // k, num_fwd)
    start_bit = base_rank = 0
    if j:
        base_rank = j * k - 1
        start_bit = int(seq.forward[j - 1]) + base_rank
        if base_rank < a:
            # Scan from just past the anchor's own stop bit.
            start_bit += 1
            base_rank += 1
    j = -(-b // k)  # closest anchor at or after element b - 1
    if j <= num_fwd:
        stop_bit = int(seq.forward[j - 1]) + j * k
    else:
        stop_bit = seq.upper.shape[0] * 8

    first_byte = start_bit >> 3
    window = seq.upper[first_byte : min((stop_bit + 7) >> 3, seq.upper.shape[0])]
    # Ranks count from the window's bit 0; the stop bits of its first
    # byte below start_bit precede element base_rank.
    skipped = 0
    if window.shape[0]:
        skipped = int(POPCOUNT_TABLE[int(window[0]) & ((1 << (start_bit & 7)) - 1)])

    want = np.arange(a, b, dtype=np.int64)
    try:
        select_pos = select1_bitarray(window, want - base_rank + skipped)
    except IndexError as exc:
        # Fewer stop bits in the covering window than the requested
        # element ranks imply — missing or truncated upper bits.
        raise CorruptStreamError(str(exc), fmt="ef") from exc

    l = int(seq.num_lower_bits)
    upper_half = select_pos + first_byte * 8 - want
    lower_half = extract_fields(seq.lower, want * l, l).astype(np.int64)
    return (upper_half << np.int64(l)) | lower_half
