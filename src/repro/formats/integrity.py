"""Stream-integrity checksums for the compressed-graph containers.

Structural validation (monotone offsets, plausible section sizes) can
prove a stream is *malformed*, but a flipped bit deep inside a lower-
bits section still decodes to a well-formed, silently-wrong neighbour
list.  Closing that gap needs content integrity: every encoder stamps
its container with two CRC32s — one over the payload bytes, one over
the metadata arrays — and ``verify_integrity`` on the container checks
them before a trusted decode.  This is the same table-stakes check
archive-scale Elias-Fano deployments (swh-graph, WebGraph) run on
their streams.

The helpers here are deliberately tiny and dependency-light so that
``repro.core``, ``repro.formats`` and ``repro.serve`` modules can share
them without an import cycle: the CRC fold, the typed structural
checks the CSR-shaped serve container runs at load time, and the
per-vertex full decode the list-at-a-time containers share.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError

__all__ = [
    "arrays_crc32",
    "decode_by_vertex",
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


def decode_by_vertex(container) -> np.ndarray:
    """Every list of ``container``, flat int64 in CSR order.

    One ``container.neighbours(v)`` call per vertex, so a corrupt stream
    surfaces as that decoder's typed error for the first bad list.
    """
    rows = [container.neighbours(v) for v in range(container.num_nodes)]
    return np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)


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
