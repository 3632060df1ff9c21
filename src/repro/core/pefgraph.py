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
from repro.formats.integrity import ListContainer, arrays_crc32, pack_lists

__all__ = ["PEFGraph", "pefg_encode"]


@dataclass(frozen=True)
class PEFGraph(ListContainer):
    """Whole-graph partitioned-Elias-Fano container."""

    vlist: np.ndarray
    name: str = ""

    FMT = "pef"
    METADATA_FIELDS = ("vlist", "offsets")

    @property
    def nbytes(self) -> int:
        """Storage: 4 B vlist + 4 B offsets per vertex + payload."""
        nv = self.num_nodes
        return 4 * (nv + 1) + 4 * (nv + 1) + int(self.data.shape[0])

    def decode_list(self, v: int) -> np.ndarray:
        """Decode one list; an empty list needs no blob."""
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
        nbrs = pef_from_blob(self.data[lo:hi])
        if nbrs.shape[0] != deg:
            raise CorruptStreamError(
                f"decoded {nbrs.shape[0]} neighbours, vlist promises {deg}",
                fmt="pef",
                vertex=v,
            )
        return nbrs

    def to_graph(self) -> Graph:
        """Decode the whole graph."""
        return Graph(
            vlist=self.vlist.copy(), elist=self.decode_all(), name=self.name
        )


def pefg_encode(graph: Graph, partition_size: int = 128) -> PEFGraph:
    """Encode every neighbour list with run-aware PEF (offline)."""
    offsets, data = pack_lists(
        pef_to_blob(pef_encode(nbrs, partition_size=partition_size)).tobytes()
        if nbrs.shape[0]
        else b""
        for nbrs in map(graph.neighbours, range(graph.num_nodes))
    )
    vlist = graph.vlist.copy()
    vlist.flags.writeable = False
    return PEFGraph(
        vlist=vlist, offsets=offsets, data=data, name=graph.name,
        payload_crc=arrays_crc32(data),
        meta_crc=arrays_crc32(vlist, offsets),
    )
