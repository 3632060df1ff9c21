"""Level-synchronous BFS on any backend (Alg. 1, Sec. VI).

Each level: (optionally) partially sort the frontier (Sec. VI-E),
expand it via the backend's decode kernel, claim unvisited neighbours
with atomics, and compact the winners into the next frontier.  The
simulated time accumulates per kernel; GTEPS = traversed edges over
simulated seconds (the paper's Fig. 1 metric).  The level bodies
:func:`expand_and_probe` and :func:`claim` also run the
direction-optimizing and distributed BFS levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.kernel import KernelLaunch
from repro.primitives.compact import atomic_or_claim
from repro.primitives.sort import launch_partial_sort
from repro.traversal.backends import BFS_WORKING, GraphBackend

__all__ = ["BFSResult", "bfs", "claim", "expand_and_probe"]


@dataclass(frozen=True)
class BFSResult:
    """Outcome of one BFS run.

    ``parents`` is the BFS tree (Graph500-style): ``parents[source] ==
    source``, unreached vertices hold -1, and every other entry names
    the frontier vertex whose expansion claimed it.
    """

    source: int
    levels: np.ndarray
    parents: np.ndarray
    #: Number of BFS levels, counting the source's level 0 — i.e.
    #: ``levels.max() + 1``, which equals the number of expansion rounds
    #: that claimed at least one vertex plus one.  (The loop's ``depth``
    #: counter also counts the final round that claims nothing, so on
    #: natural termination ``num_levels == depth``.)
    num_levels: int
    edges_traversed: int
    sim_seconds: float

    @property
    def gteps(self) -> float:
        """Billions of traversed edges per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.edges_traversed / self.sim_seconds / 1e9

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime in milliseconds (Table II units)."""
        return self.sim_seconds * 1e3


def expand_and_probe(
    backend: GraphBackend, frontier: np.ndarray, kernel: KernelLaunch
) -> tuple[np.ndarray, np.ndarray]:
    """Expand ``frontier``; charge the decode and a 1-byte visited
    probe per neighbour to ``kernel`` (Alg. 1 line 3)."""
    nbrs, seg = backend.expand(frontier, kernel)
    kernel.read_stream("work:visited", nbrs, 1)
    return nbrs, seg


def claim(
    visited: np.ndarray, candidates: np.ndarray, kernel: KernelLaunch,
    id_bytes: int = 4,
) -> np.ndarray:
    """Claim ``candidates`` in ``visited``; returns the winner mask.

    Charged to ``kernel`` (Alg. 1 lines 4-6): a visited probe and two
    instructions per candidate, and the winners' frontier write at
    ``id_bytes`` each.
    """
    won = atomic_or_claim(visited, candidates)
    kernel.read_stream("work:visited", candidates, 1)
    kernel.instructions(2.0 * candidates.shape[0])
    kernel.write("work:frontier", int(np.count_nonzero(won)), id_bytes)
    return won


def bfs(
    backend: GraphBackend,
    source: int,
    partial_sort: bool = True,
    max_levels: int | None = None,
) -> BFSResult:
    """Breadth-first search from ``source``.

    Parameters
    ----------
    backend:
        Graph representation bound to a simulated device.
    source:
        Start vertex.
    partial_sort:
        Apply the Sec. VI-E partial radix sort to each frontier.
    max_levels:
        Optional safety cap (default: |V|).
    """
    nv = backend.num_nodes
    if not 0 <= source < nv:
        raise IndexError(f"source {source} out of range")
    engine = backend.engine
    engine.reset_timeline()
    backend.place_working(BFS_WORKING)

    levels = np.full(nv, -1, dtype=np.int64)
    parents = np.full(nv, -1, dtype=np.int64)
    visited = np.zeros(nv, dtype=bool)
    levels[source] = 0
    parents[source] = source
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)

    depth = 0
    cap = max_levels if max_levels is not None else nv
    with engine.algorithm(
        "bfs", gauge="bfs", source=int(source), partial_sort=partial_sort
    ) as run:
        while frontier.size and depth < cap:
            with engine.level(
                f"level:{depth}", depth,
                frontier=frontier.size, histogram="bfs.frontier_size",
            ) as sp:
                if partial_sort and frontier.size > 1:
                    frontier = launch_partial_sort(
                        engine, "frontier_sort", frontier, nv, 4,
                    )

                with engine.launch("bfs_expand") as k:
                    nbrs, seg = expand_and_probe(backend, frontier, k)
                run.edges += int(nbrs.shape[0])

                with engine.launch("bfs_filter") as k:
                    unvisited = ~visited[nbrs]
                    candidates = nbrs[unvisited]
                    won = claim(visited, candidates, k)
                    next_vertices = candidates[won]
                    parents[next_vertices] = frontier[seg[unvisited]][won]

                depth += 1
                levels[next_vertices] = depth
                frontier = next_vertices
                sp.annotate(
                    edges_expanded=int(nbrs.shape[0]),
                    claimed=int(next_vertices.shape[0]),
                )

    return BFSResult(
        source=source,
        levels=levels,
        parents=parents,
        num_levels=int(levels.max()) + 1,
        edges_traversed=run.edges,
        sim_seconds=engine.elapsed_seconds,
    )
