"""Stream integrity and the list-at-a-time container the comparators share.

Structural validation (monotone offsets, plausible section sizes) can
prove a stream is *malformed*, but a flipped bit deep inside a lower-
bits section still decodes to a well-formed, silently-wrong neighbour
list.  Closing that gap needs content integrity: every encoder stamps
its container with two CRC32s — one over the payload bytes, one over
the metadata arrays — and ``verify_integrity`` on the container checks
them (:func:`check_crcs`) before a trusted decode.  This is the same
table-stakes check archive-scale Elias-Fano deployments (swh-graph,
WebGraph) run on their streams.

CGR, Ligra+, BV and PEF are one shape: a byte blob per neighbour list
behind an ``offsets`` array.  :class:`ListContainer` is that shape once
(offsets, payload, CRC stamps, fault surface, checked list starts, the
per-vertex full decode) and :func:`pack_lists` builds it from the
per-list blobs; a format adds its own fields, its ``nbytes`` formula
and ``decode_list``.

The module is deliberately dependency-light so that ``repro.core``,
``repro.formats`` and ``repro.serve`` modules can share it without an
import cycle; it also holds the typed structural checks the CSR-shaped
serve container runs at load time.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError, DecodeError

__all__ = [
    "ListContainer",
    "arrays_crc32",
    "check_crcs",
    "pack_lists",
    "parse_payload_words",
    "validate_csr_arrays",
]


def arrays_crc32(*arrays: np.ndarray | int) -> int:
    """CRC32 over the raw bytes of the given arrays (and bare ints).

    Arrays are hashed in C order; bare integers are folded in as 8-byte
    little-endian words so scalar parameters (quantum, window, ...) are
    covered too.  The result is a stable uint32 for any fixed input.
    """
    crc = 0
    for a in arrays:
        if isinstance(a, (int, np.integer)):
            crc = zlib.crc32(int(a).to_bytes(8, "little", signed=True), crc)
        else:
            crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc & 0xFFFFFFFF


def check_crcs(container, fmt: str, *metadata: np.ndarray | int) -> None:
    """Check ``container``'s encode-time CRC stamps against its bytes.

    ``meta_crc`` covers ``metadata`` (arrays and bare ints, hashed as
    :func:`arrays_crc32` does) and ``payload_crc`` the container's
    ``PAYLOAD_FIELD``; an unstamped (``None``) CRC is skipped.  A
    mismatch raises :class:`~repro.core.errors.CorruptMetadataError`
    or :class:`~repro.core.errors.CorruptStreamError`, metadata first,
    naming the stored and the actual CRC.
    """
    payload = getattr(container, container.PAYLOAD_FIELD)
    for what, stored, arrays, error in (
        ("metadata", container.meta_crc, metadata, CorruptMetadataError),
        ("payload", container.payload_crc, (payload,), CorruptStreamError),
    ):
        if stored is None:
            continue
        actual = arrays_crc32(*arrays)
        if actual != stored:
            raise error(
                f"{what} CRC mismatch: stored {stored:#010x} != actual "
                f"{actual:#010x}",
                fmt=fmt,
            )


def pack_lists(blobs: Iterable[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate per-list byte blobs into frozen ``(offsets, data)``.

    ``offsets`` is the int64 exclusive prefix sum of the blob lengths
    (|blobs| + 1 entries) and ``data`` the uint8 payload, a read-only
    view of the joined bytes.
    """
    blobs = list(blobs)
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs)),
        out=offsets[1:],
    )
    offsets.flags.writeable = False
    return offsets, np.frombuffer(b"".join(blobs), dtype=np.uint8)


@dataclass(frozen=True, kw_only=True)
class ListContainer:
    """One byte blob per neighbour list behind an ``offsets`` array.

    List ``v`` is ``data[offsets[v] : offsets[v + 1]]``.  A format
    subclasses this with its own fields, a ``vlist`` (the degree prefix
    sum: a field, or its embedded graph's), ``FMT`` (its error tag),
    ``nbytes`` and ``decode_list(v)``; everything else is shared:

    * the fault surface a campaign reads — ``PAYLOAD_FIELD``,
      ``METADATA_FIELDS`` (integer arrays it may perturb; mutants are
      rebuilt with :func:`dataclasses.replace`, which recomputes
      :attr:`degrees`), :meth:`decode_all` and :meth:`verify_integrity`;
    * :meth:`neighbours`: a range check, then ``decode_list``, with an
      untagged :class:`~repro.core.errors.DecodeError` tagged with the
      format and vertex.
    """

    offsets: np.ndarray  # int64, |V|+1, exclusive byte offsets into data
    data: np.ndarray  # uint8 payload
    #: CRC32 over ``data`` / the metadata, stamped by the encoder;
    #: ``None`` on hand-built containers.
    payload_crc: int | None = None
    meta_crc: int | None = None

    PAYLOAD_FIELD = "data"
    METADATA_FIELDS = ("offsets",)

    @property
    def num_nodes(self) -> int:
        """|V|."""
        return int(self.vlist.shape[0]) - 1

    @property
    def num_edges(self) -> int:
        """|E|."""
        return int(self.vlist[-1])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex, computed once from ``vlist``."""
        return np.diff(self.vlist)

    def list_nbytes(self, v: int | np.ndarray) -> np.ndarray:
        """Compressed byte length of one or many lists."""
        v = np.asarray(v)
        return (self.offsets[v + 1] - self.offsets[v]).astype(np.int64)

    def list_start(self, v: int) -> int:
        """Byte offset of list ``v``, checked to lie within the payload."""
        lo = int(self.offsets[v])
        if not 0 <= lo <= int(self.data.shape[0]):
            raise CorruptMetadataError(
                f"list offset {lo} outside the {int(self.data.shape[0])}"
                "-byte payload",
                fmt=self.FMT,
                vertex=v,
            )
        return lo

    def neighbours(self, v: int) -> np.ndarray:
        """Decode vertex ``v``'s list."""
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"vertex {v} out of range")
        return self._decode_tagged(v)

    def _decode_tagged(self, v: int, *args) -> np.ndarray:
        """``decode_list(v, *args)``, naming the format and ``v`` on an
        untagged decode error."""
        try:
            return self.decode_list(v, *args)
        except DecodeError as exc:
            if exc.vertex is not None:
                raise
            raise type(exc)(exc.detail, fmt=self.FMT, vertex=v) from exc

    def decode_all(self) -> np.ndarray:
        """Every list, flat int64 in CSR order.

        One :meth:`neighbours` call per vertex, so a corrupt stream
        surfaces as the format's typed error for the first bad list.
        """
        rows = [self.neighbours(v) for v in range(self.num_nodes)]
        return np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)

    def verify_integrity(self) -> None:
        """Check the encode-time CRCs; no-op when they were never stamped."""
        check_crcs(self, self.FMT, *self._crc_metadata())

    def _crc_metadata(self) -> tuple[np.ndarray | int, ...]:
        """What ``meta_crc`` covers: the ``METADATA_FIELDS`` arrays."""
        return tuple(getattr(self, name) for name in self.METADATA_FIELDS)


def parse_payload_words(payload: np.ndarray, *, fmt: str) -> np.ndarray:
    """Reinterpret a raw uint8 payload as little-endian int64 words.

    The wire shape of the serve container: 8 bytes per neighbour
    id.  A byte count that is not a multiple of 8 can only come from a
    truncated or padded stream, so it raises the typed
    :class:`~repro.core.errors.CorruptStreamError` instead of letting a
    numpy reshape error escape.
    """
    payload = np.ascontiguousarray(payload, dtype=np.uint8)
    if payload.shape[0] % 8:
        raise CorruptStreamError(
            f"payload is {payload.shape[0]} bytes, not a multiple of the "
            "8-byte neighbour word",
            fmt=fmt,
        )
    return payload.view("<i8")


def validate_csr_arrays(
    vlist: np.ndarray, elist: np.ndarray, *, fmt: str
) -> None:
    """Structural validation of a CSR offsets/neighbours pair.

    Raises :class:`~repro.core.errors.CorruptMetadataError` when the
    offsets are malformed (wrong shape, negative start, non-monotone,
    terminal offset != len(elist)) and
    :class:`~repro.core.errors.CorruptStreamError` when the neighbour
    ids fall outside ``[0, num_nodes)`` — the checks that turn a
    hand-edited container into a load-time diagnosis instead of an
    ``IndexError`` deep inside a traversal kernel.
    """
    if vlist.ndim != 1 or vlist.shape[0] < 1:
        raise CorruptMetadataError(
            "offsets array must be 1-D with at least one entry", fmt=fmt
        )
    if elist.ndim != 1:
        raise CorruptStreamError("neighbour array must be 1-D", fmt=fmt)
    if int(vlist[0]) != 0:
        raise CorruptMetadataError(
            f"offsets must start at 0, got {int(vlist[0])}", fmt=fmt
        )
    if int(vlist[-1]) != int(elist.shape[0]):
        raise CorruptMetadataError(
            f"terminal offset {int(vlist[-1])} != {int(elist.shape[0])} "
            "stored neighbours",
            fmt=fmt,
        )
    steps = np.diff(vlist)
    if steps.size and np.any(steps < 0):
        vertex = int(np.flatnonzero(steps < 0)[0])
        raise CorruptMetadataError(
            "offsets are not non-decreasing", fmt=fmt, vertex=vertex
        )
    num_nodes = int(vlist.shape[0]) - 1
    if elist.size:
        lo, hi = int(elist.min()), int(elist.max())
        if lo < 0 or hi >= num_nodes:
            raise CorruptStreamError(
                f"neighbour id out of range [0, {num_nodes}): "
                f"min {lo}, max {hi}",
                fmt=fmt,
            )
