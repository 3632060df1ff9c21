"""Direction-optimizing BFS (the Sec. VII discussion, Beamer-style).

Ligra+ uses direction optimisation by default; the paper runs it
top-down for parity because bottom-up needs the *in*-edges too, which
"doubles the storage requirements for directed graphs".  This module
implements the hybrid as an extension so that trade-off can be
measured:

* **top-down** steps run :func:`repro.traversal.bfs.bfs`'s expand and
  claim bodies, under the kernel names ``bfs_top_down`` and ``bfs_filter``;
* **bottom-up** steps scan every unvisited vertex's in-list for a
  frontier parent, stopping at the first hit — functionally exact, and
  the cost model charges only the *scanned prefix* of each compressed
  list (the early-exit that makes bottom-up pay off on large
  frontiers).

The switch uses Beamer's heuristics: go bottom-up when the frontier's
out-edge count exceeds ``|unvisited edges| / alpha``; return top-down
when the frontier shrinks below ``|V| / beta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.primitives.scan import exclusive_scan
from repro.traversal.backends import BFS_WORKING, GraphBackend
from repro.traversal.bfs import claim, expand_and_probe

__all__ = ["DirectionOptimizingResult", "bfs_direction_optimizing"]


@dataclass(frozen=True)
class DirectionOptimizingResult:
    """Outcome of one hybrid BFS run."""

    source: int
    levels: np.ndarray
    #: Number of BFS levels counting the source's level 0 (levels.max()+1).
    num_levels: int
    edges_examined: int
    bottom_up_levels: int
    sim_seconds: float

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime in milliseconds."""
        return self.sim_seconds * 1e3


def bfs_direction_optimizing(
    out_backend: GraphBackend,
    in_backend: GraphBackend | None = None,
    source: int = 0,
    alpha: float = 15.0,
    beta: float = 18.0,
) -> DirectionOptimizingResult:
    """Hybrid top-down / bottom-up BFS.

    Parameters
    ----------
    out_backend:
        Backend over the out-edges (drives top-down steps and the
        simulated engine/timeline).
    in_backend:
        Backend over the in-edges for bottom-up steps.  For undirected
        (symmetrised) graphs pass ``None`` to reuse ``out_backend`` —
        that is the storage-free case; for directed graphs a separate
        in-edge structure doubles storage (the paper's Sec. VII point).
    alpha, beta:
        Beamer's switching thresholds.
    """
    if in_backend is None:
        in_backend = out_backend
    nv = out_backend.num_nodes
    if not 0 <= source < nv:
        raise IndexError(f"source {source} out of range")
    engine = out_backend.engine
    engine.reset_timeline()
    out_backend.place_working(BFS_WORKING)

    levels = np.full(nv, -1, dtype=np.int64)
    visited = np.zeros(nv, dtype=bool)
    levels[source] = 0
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    in_frontier = np.zeros(nv, dtype=bool)

    out_deg = out_backend.degrees
    unexplored_edges = int(out_deg.sum()) - int(out_deg[source])
    depth = 0
    bottom_up_levels = 0

    with engine.algorithm(
        "direction_optimizing", source=int(source), alpha=alpha, beta=beta
    ) as run:
        while frontier.size:
            frontier_edges = int(out_deg[frontier].sum())
            go_bottom_up = (
                unexplored_edges > 0
                and frontier_edges > unexplored_edges / alpha
                and frontier.size > nv / beta
            )
            direction = "bottom_up" if go_bottom_up else "top_down"
            engine.metrics.inc(f"dobfs.levels_{direction}")
            with engine.level(
                f"level:{depth}", depth,
                frontier=frontier.size, histogram="dobfs.frontier_size",
                direction=direction,
            ) as sp:
                if go_bottom_up:
                    bottom_up_levels += 1
                    in_frontier[:] = False
                    in_frontier[frontier] = True
                    candidates = np.flatnonzero(~visited)
                    with engine.launch("bfs_bottom_up") as k:
                        scanned, found = _bottom_up_step(
                            in_backend, candidates, in_frontier, k
                        )
                    run.edges += scanned
                    sp.annotate(edges_expanded=scanned)
                    next_vertices = found
                    visited[next_vertices] = True
                else:
                    with engine.launch("bfs_top_down") as k:
                        nbrs, _ = expand_and_probe(out_backend, frontier, k)
                    run.edges += int(nbrs.shape[0])
                    sp.annotate(edges_expanded=int(nbrs.shape[0]))
                    with engine.launch("bfs_filter") as k:
                        fresh = nbrs[~visited[nbrs]]
                        next_vertices = fresh[claim(visited, fresh, k)]

                unexplored_edges -= int(out_deg[next_vertices].sum())
                depth += 1
                levels[next_vertices] = depth
                frontier = next_vertices
                sp.annotate(claimed=int(next_vertices.shape[0]))

    return DirectionOptimizingResult(
        source=source,
        levels=levels,
        num_levels=int(levels.max()) + 1,
        edges_examined=run.edges,
        bottom_up_levels=bottom_up_levels,
        sim_seconds=engine.elapsed_seconds,
    )


def _bottom_up_step(
    in_backend: GraphBackend,
    candidates: np.ndarray,
    in_frontier: np.ndarray,
    kernel,
) -> tuple[int, np.ndarray]:
    """One bottom-up level: find a frontier parent per candidate.

    Returns ``(edges_scanned, newly_found_vertices)``.  Functionally
    each candidate's in-list is decoded in full; the *charge* covers
    only the prefix up to (and including) the first frontier parent,
    which is what the early-exiting kernel reads.
    """
    if candidates.size == 0:
        return 0, candidates
    nbrs, seg = in_backend._decode(candidates)
    hit_idx = np.flatnonzero(in_frontier[nbrs])
    del nbrs

    # Per candidate: the position of its first frontier parent in its
    # list, else its full degree.  Hits come in list order, so a
    # candidate's first hit starts its run of hits.
    hit_seg = seg[hit_idx]
    del seg
    first = np.ones(hit_idx.shape[0], dtype=bool)
    np.not_equal(hit_seg[1:], hit_seg[:-1], out=first[1:])
    found = hit_seg[first]
    deg = in_backend.degrees[candidates]
    ex, _ = exclusive_scan(deg)
    scanned = deg.copy()
    scanned[found] = hit_idx[first] - ex[found] + 1
    total_scanned = int(scanned.sum())
    in_backend.charge_scan_prefix(candidates, scanned, kernel)
    return total_scanned, candidates[found]
