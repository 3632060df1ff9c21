"""Compressed Sparse Row baseline (Sec. III-D).

The paper's storage accounting uses 32-bit ids: CSR takes
``4 * (|V| + 1)`` bytes of row offsets plus ``4 * |E|`` bytes of column
indices.  :class:`CSRGraph` wraps a :class:`~repro.formats.graph.Graph`
with that accounting and constant-time edge access — the property EFG
gives up (Sec. VI-A) in exchange for compression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.graph import Graph

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """32-bit CSR view of a graph for the simulator and size accounting."""

    graph: Graph
    vlist32: np.ndarray
    elist32: np.ndarray

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Narrow to 32-bit arrays (the paper's 'with 32-bit types')."""
        if graph.num_nodes >= 2**31 or graph.num_edges >= 2**32:
            raise ValueError("graph too large for 32-bit CSR")
        return cls(
            graph=graph,
            vlist32=graph.vlist.astype(np.uint32),
            elist32=graph.elist.astype(np.uint32),
        )

    @property
    def num_nodes(self) -> int:
        """|V|."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """|E|."""
        return self.graph.num_edges

    @property
    def nbytes(self) -> int:
        """Storage: 4 B per offset + 4 B per edge."""
        return int(self.vlist32.nbytes + self.elist32.nbytes)

    def neighbours(self, v: int) -> np.ndarray:
        """Sorted neighbour list of ``v``."""
        return self.elist32[self.vlist32[v] : self.vlist32[v + 1]].astype(np.int64)
