"""PEF-coded graph format — the Sec. IX extension to EFG.

Identical top-level layout to :class:`~repro.core.efg.EFGraph` (vlist +
per-list offsets into one payload blob) but every neighbour list is
encoded with run-aware partitioned Elias-Fano instead of plain EF.
Web-graph lists full of consecutive-id runs collapse into RUN
partitions, closing most of the Fig. 8 gap to CGR while keeping EF's
per-partition random access.

This is a storage/offline-decode extension: the traversal simulator's
hot path stays on plain EFG (the paper did not integrate PEF either —
"we did not incorporate this here, but extensions to the EFG format
are possible").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import CorruptMetadataError, CorruptStreamError
from repro.ef.partitioned import pef_encode, pef_from_blob, pef_to_blob
from repro.formats.graph import Graph
from repro.formats.integrity import arrays_crc32, decode_by_vertex

__all__ = ["PEFGraph", "pefg_encode"]


@dataclass
class PEFGraph:
    """Whole-graph partitioned-Elias-Fano container."""

    vlist: np.ndarray
    offsets: np.ndarray  # int64, |V|+1, byte offsets into data
    data: np.ndarray  # uint8, concatenated pef blobs
    name: str = ""
    #: CRC32 over ``data`` / the metadata arrays, stamped by
    #: :func:`pefg_encode`; ``None`` on hand-built containers.
    payload_crc: int | None = None
    meta_crc: int | None = None

    #: Fault surface (see :class:`~repro.core.efg.EFGraph`).
    PAYLOAD_FIELD = "data"
    METADATA_FIELDS = ("vlist", "offsets")

    @property
    def num_nodes(self) -> int:
        """|V|."""
        return int(self.vlist.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """|E|."""
        return int(self.vlist[-1])

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex."""
        return np.diff(self.vlist)

    @property
    def nbytes(self) -> int:
        """Storage: 4 B vlist + 4 B offsets per vertex + payload."""
        nv = self.num_nodes
        return 4 * (nv + 1) + 4 * (nv + 1) + int(self.data.shape[0])

    def neighbours(self, v: int) -> np.ndarray:
        """Decode one list."""
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"vertex {v} out of range")
        deg = int(self.degrees[v])
        if deg < 0:
            raise CorruptMetadataError(
                "negative degree (vlist not monotone)", fmt="pef", vertex=v
            )
        if deg == 0:
            return np.empty(0, dtype=np.int64)
        lo, hi = int(self.offsets[v]), int(self.offsets[v + 1])
        if not 0 <= lo <= hi <= int(self.data.shape[0]):
            raise CorruptMetadataError(
                f"blob slice [{lo}, {hi}) outside the {int(self.data.shape[0])}"
                "-byte payload",
                fmt="pef",
                vertex=v,
            )
        try:
            nbrs = pef_from_blob(self.data[lo:hi])
        except (CorruptStreamError, CorruptMetadataError) as exc:
            raise type(exc)(exc.detail, fmt="pef", vertex=v) from exc
        if nbrs.shape[0] != deg:
            raise CorruptStreamError(
                f"decoded {nbrs.shape[0]} neighbours, vlist promises {deg}",
                fmt="pef",
                vertex=v,
            )
        return nbrs

    def verify_integrity(self) -> None:
        """Check the encode-time CRCs; no-op when they were never stamped."""
        if self.meta_crc is not None and arrays_crc32(
            self.vlist, self.offsets
        ) != self.meta_crc:
            raise CorruptMetadataError("metadata checksum mismatch", fmt="pef")
        if self.payload_crc is not None and arrays_crc32(self.data) != self.payload_crc:
            raise CorruptStreamError("payload checksum mismatch", fmt="pef")

    def decode_all(self) -> np.ndarray:
        """Every list, flat int64 in CSR order."""
        return decode_by_vertex(self)

    def to_graph(self) -> Graph:
        """Decode the whole graph."""
        return Graph(
            vlist=self.vlist.copy(), elist=self.decode_all(), name=self.name
        )


def pefg_encode(graph: Graph, partition_size: int = 128) -> PEFGraph:
    """Encode every neighbour list with run-aware PEF (offline)."""
    chunks: list[bytes] = []
    offsets = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    for v in range(graph.num_nodes):
        nbrs = graph.neighbours(v)
        if nbrs.shape[0] == 0:
            blob = b""
        else:
            blob = pef_to_blob(
                pef_encode(nbrs, partition_size=partition_size)
            ).tobytes()
        chunks.append(blob)
        offsets[v + 1] = offsets[v] + len(blob)
    data = (
        np.frombuffer(b"".join(chunks), dtype=np.uint8)
        if chunks
        else np.empty(0, dtype=np.uint8)
    )
    vlist = graph.vlist.copy()
    for arr in (vlist, offsets, data):
        if arr.flags.writeable:
            arr.flags.writeable = False
    return PEFGraph(
        vlist=vlist, offsets=offsets, data=data, name=graph.name,
        payload_crc=arrays_crc32(data),
        meta_crc=arrays_crc32(vlist, offsets),
    )
