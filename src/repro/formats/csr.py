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
    """32-bit CSR accounting over a graph's own arrays, for the simulator."""

    graph: Graph

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Wrap ``graph``, checking its ids fit the paper's 32-bit types."""
        if graph.num_nodes >= 2**31 or graph.num_edges >= 2**32:
            raise ValueError("graph too large for 32-bit CSR")
        return cls(graph=graph)

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
        return 4 * (self.num_nodes + 1) + 4 * self.num_edges

    def neighbours(self, v: int) -> np.ndarray:
        """Sorted neighbour list of ``v`` (a view, do not mutate)."""
        return self.graph.neighbours(v)
