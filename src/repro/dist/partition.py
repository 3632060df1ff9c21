"""1-D vertex partitioning for sharded traversal.

Vertices are range-partitioned into ``num_gpus`` contiguous shards;
each GPU expands the out-lists of its own vertices (in any backend
format) and claims only its own vertices.  This is the standard 1-D
decomposition of the multi-GPU BFS literature: local expansion produces
neighbours owned by arbitrary shards, which the exchange step routes to
their owners.

What a shard stores is wider than what it owns.  :meth:`VertexPartition.
subgraph` keeps the full ``nv + 1`` row offsets (rows of other shards
are empty), and each run places its ``work:*`` arrays on every shard at
the global ``nv``.  For ``work:visited`` that is a stated choice:
distributed BFS keeps one global-sized visited view per GPU, its own
slice plus the remote ids it has sent, so it can drop ids their owners
already hold before they reach the wire (``docs/model.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.graph import Graph

__all__ = ["VertexPartition"]


@dataclass(frozen=True)
class VertexPartition:
    """Contiguous 1-D vertex ranges, one per GPU."""

    boundaries: np.ndarray  # int64, num_gpus + 1, [0, ..., num_nodes]

    @classmethod
    def even(cls, num_nodes: int, num_gpus: int) -> "VertexPartition":
        """Split |V| into ``num_gpus`` near-equal contiguous ranges."""
        if num_gpus < 1:
            raise ValueError("need at least one GPU")
        bounds = np.linspace(0, num_nodes, num_gpus + 1).astype(np.int64)
        return cls(boundaries=bounds)

    @property
    def num_gpus(self) -> int:
        """Number of shards."""
        return int(self.boundaries.shape[0] - 1)

    @property
    def num_nodes(self) -> int:
        """|V| of the partitioned graph."""
        return int(self.boundaries[-1])

    def bounds(self, gpu: int) -> tuple[int, int]:
        """Half-open vertex range ``[lo, hi)`` owned by ``gpu``."""
        return int(self.boundaries[gpu]), int(self.boundaries[gpu + 1])

    def owner(self, vertices: np.ndarray) -> np.ndarray:
        """GPU id owning each vertex."""
        return (
            np.searchsorted(self.boundaries, vertices, side="right") - 1
        ).astype(np.int64)

    def subgraph(self, graph: Graph, gpu: int) -> Graph:
        """Out-lists of the vertices owned by ``gpu``.

        The shard keeps global vertex ids (standard 1-D partitioning):
        row ``v`` of the shard is empty unless ``gpu`` owns ``v``.
        """
        lo, hi = self.bounds(gpu)
        vlist = np.zeros(graph.num_nodes + 1, dtype=np.int64)
        degrees = np.zeros(graph.num_nodes, dtype=np.int64)
        degrees[lo:hi] = graph.degrees[lo:hi]
        np.cumsum(degrees, out=vlist[1:])
        elist = graph.elist[graph.vlist[lo] : graph.vlist[hi]]
        return Graph(
            vlist=vlist, elist=elist, directed=graph.directed,
            name=f"{graph.name}/gpu{gpu}",
        )
