"""The in-memory :class:`Graph` container.

A static unweighted graph held as sorted adjacency structure (CSR
layout) with the bookkeeping the rest of the library needs: direction
flag, symmetrisation (the ``_sym`` variants of the paper's suite),
relabelling (for the reordering study), and basic statistics.

The EFG requirement (Sec. V) is simply that each neighbour list is
sorted; :meth:`Graph.from_edges` sorts and deduplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.primitives.unique import dedupe_sorted, sorted_unique

__all__ = ["Graph"]


def _as_ids(ids: np.ndarray) -> np.ndarray:
    """``ids`` as an array whose dtype int64 holds exactly; any other
    dtype (floats, uint64, an empty list's float64) converts to int64."""
    ids = np.asarray(ids)
    if not np.can_cast(ids.dtype, np.int64):
        ids = ids.astype(np.int64)
    return ids


@dataclass
class Graph:
    """Sorted-adjacency static graph.

    Attributes
    ----------
    vlist:
        int64 row offsets, length ``num_nodes + 1``.
    elist:
        int64 column indices (sorted within each row), length
        ``num_edges``.
    directed:
        Whether the edge set is interpreted as directed.  The paper
        denotes directed graphs with ``(d)`` and undirected ones — stored
        with both arc directions present — with ``(u)``.
    name:
        Optional dataset name (used in reports).
    """

    vlist: np.ndarray
    elist: np.ndarray
    directed: bool = True
    name: str = ""
    _degree_cache: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.vlist = np.ascontiguousarray(self.vlist, dtype=np.int64)
        self.elist = np.ascontiguousarray(self.elist, dtype=np.int64)
        if self.vlist.ndim != 1 or self.vlist.shape[0] < 1:
            raise ValueError("vlist must be a 1-D array of length >= 1")
        if self.vlist[0] != 0 or self.vlist[-1] != self.elist.shape[0]:
            raise ValueError("vlist must start at 0 and end at len(elist)")
        if np.any(np.diff(self.vlist) < 0):
            raise ValueError("vlist must be non-decreasing")
        if self.elist.size and (
            self.elist.min() < 0 or self.elist.max() >= self.num_nodes
        ):
            raise ValueError("elist contains out-of-range vertex ids")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int | None = None,
        directed: bool = True,
        name: str = "",
    ) -> "Graph":
        """Build from an edge list; sorts rows and drops duplicate edges.

        ``src`` and ``dst`` may hold ids of any integer dtype (anything
        else is converted to int64 first).  Neither input is mutated: the
        one working array is an int64 ``src * num_nodes + dst`` key, which
        becomes ``elist`` in place after the dedup.
        """
        src = _as_ids(src)
        dst = _as_ids(dst)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal length")
        if num_nodes is None:
            num_nodes = max(
                int(src.max()) if src.size else -1,
                int(dst.max()) if dst.size else -1,
            ) + 1
        if int(num_nodes) ** 2 > np.iinfo(np.int64).max:
            raise ValueError(
                f"{num_nodes} vertices overflow the int64 src * num_nodes + dst key"
            )
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValueError("negative vertex ids")
        if src.size and (src.max() >= num_nodes or dst.max() >= num_nodes):
            raise ValueError("vertex id >= num_nodes")
        # Sort by (src, dst) in place, then dedupe.
        key = src.astype(np.int64)
        key *= np.int64(num_nodes)
        key += dst
        key.sort()
        key = dedupe_sorted(key)
        # Row v holds the keys in [v * num_nodes, (v + 1) * num_nodes).
        bounds = np.arange(num_nodes + 1, dtype=np.int64)
        bounds *= np.int64(num_nodes)
        vlist = np.searchsorted(key, bounds)
        elist = np.remainder(key, num_nodes, out=key)
        return cls(vlist=vlist, elist=elist, directed=directed, name=name)

    @classmethod
    def from_adjacency(
        cls, neighbours: list[np.ndarray] | list[list[int]], directed: bool = True,
        name: str = "",
    ) -> "Graph":
        """Build from per-vertex neighbour lists (sorted+deduped here)."""
        num_nodes = len(neighbours)
        rows = [sorted_unique(np.asarray(nbrs, dtype=np.int64)) for nbrs in neighbours]
        degrees = np.array([r.shape[0] for r in rows], dtype=np.int64)
        vlist = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=vlist[1:])
        elist = (
            np.concatenate(rows) if num_nodes else np.empty(0, dtype=np.int64)
        )
        return cls(vlist=vlist, elist=elist, directed=directed, name=name)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """|V|."""
        return int(self.vlist.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """|E| (arcs as stored; an undirected edge counts twice)."""
        return int(self.elist.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex (cached)."""
        if self._degree_cache is None:
            self._degree_cache = np.diff(self.vlist)
        return self._degree_cache

    def neighbours(self, v: int) -> np.ndarray:
        """Sorted neighbour list of ``v`` (a view, do not mutate)."""
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"vertex {v} out of range")
        return self.elist[self.vlist[v] : self.vlist[v + 1]]

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------

    def symmetrized(self) -> "Graph":
        """Union of the graph and its transpose (the ``_sym`` variants)."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        both_src = np.concatenate([src, self.elist])
        both_dst = np.concatenate([self.elist, src])
        name = f"{self.name}_sym" if self.name else ""
        return Graph.from_edges(
            both_src, both_dst, num_nodes=self.num_nodes, directed=False, name=name
        )

    def transposed(self) -> "Graph":
        """Reverse every arc (used by pull-style PageRank)."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        return Graph.from_edges(
            self.elist, src, num_nodes=self.num_nodes, directed=self.directed,
            name=f"{self.name}_T" if self.name else "",
        )

    def relabelled(self, perm: np.ndarray) -> "Graph":
        """Apply a vertex permutation: new id of old vertex v is perm[v]."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape[0] != self.num_nodes:
            raise ValueError("permutation length must equal num_nodes")
        check = np.zeros(self.num_nodes, dtype=bool)
        check[perm] = True
        if not check.all():
            raise ValueError("perm is not a permutation")
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        return Graph.from_edges(
            perm[src], perm[self.elist], num_nodes=self.num_nodes,
            directed=self.directed, name=self.name,
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Summary statistics used by dataset reports."""
        deg = self.degrees
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "directed": self.directed,
            "max_degree": int(deg.max()) if deg.size else 0,
            "mean_degree": float(deg.mean()) if deg.size else 0.0,
            "isolated_nodes": int((deg == 0).sum()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        label = self.name or "graph"
        return f"Graph({label!r}, |V|={self.num_nodes}, |E|={self.num_edges}, {kind})"
