"""Single-source shortest paths by frontier relaxation (Sec. VI-F).

Bellman-Ford-style: expand the active frontier, relax a float32
distance per candidate edge, mark improved vertices atomically in an
O(|V|) bitmap, and build the next frontier with a parallel scatter —
exactly the structure the paper describes.  Edge weights live in an
uncompressed O(|E|) float array in *both* CSR and EFG (weights are not
compressed), which is why SSSP hits the out-of-core regime much
earlier than BFS and produces the five regions of Fig. 10.  The level
body :func:`relax` is shared with the distributed driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.kernel import KernelLaunch
from repro.primitives.compact import scatter_bitmap_to_indices
from repro.traversal.backends import BFS_WORKING, GraphBackend

__all__ = ["SSSPResult", "relax", "sssp"]


@dataclass(frozen=True)
class SSSPResult:
    """Outcome of one SSSP run."""

    source: int
    distances: np.ndarray
    iterations: int
    edges_relaxed: int
    sim_seconds: float

    @property
    def gteps(self) -> float:
        """Billions of relaxed edges per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.edges_relaxed / self.sim_seconds / 1e9

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime in milliseconds."""
        return self.sim_seconds * 1e3


def relax(
    backend: GraphBackend, frontier: np.ndarray, dist: np.ndarray,
    weights: np.ndarray, kernel: KernelLaunch,
) -> tuple[np.ndarray, np.ndarray]:
    """Relax ``frontier``'s out-edges, charging the weighted expansion
    to ``kernel``; returns ``(nbrs, dist[source] + weight)``."""
    nbrs, seg, w = backend.expand_weighted(frontier, kernel, weights)
    return nbrs, dist[frontier[seg]] + w


def sssp(
    backend: GraphBackend,
    source: int,
    weights: np.ndarray,
    max_iterations: int | None = None,
) -> SSSPResult:
    """Shortest paths from ``source`` with non-negative edge weights.

    ``weights`` is indexed by CSR edge slot (``vlist[v] + n``); the
    backend must have been constructed with ``weight_bytes`` so the
    memory planner knows about the array (it streams over PCIe when it
    does not fit — regions 3-5 of Fig. 10).
    """
    nv = backend.num_nodes
    if not 0 <= source < nv:
        raise IndexError(f"source {source} out of range")
    weights = backend.check_weights(weights)
    engine = backend.engine
    engine.reset_timeline()
    backend.place_working(BFS_WORKING)

    dist = np.full(nv, np.inf, dtype=np.float64)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    iterations = 0
    cap = max_iterations if max_iterations is not None else nv

    with engine.algorithm("sssp", gauge="sssp", source=int(source)) as run:
        while frontier.size and iterations < cap:
            with engine.level(
                f"iteration:{iterations}", iterations,
                frontier=frontier.size, histogram="sssp.frontier_size",
            ) as sp:
                with engine.launch("sssp_relax") as k:
                    nbrs, cand = relax(backend, frontier, dist, weights, k)
                run.edges += int(nbrs.shape[0])

                with engine.launch("sssp_update") as k:
                    best = np.full(nv, np.inf, dtype=np.float64)
                    np.minimum.at(best, nbrs, cand)
                    improved_bitmap = best < dist
                    dist = np.where(improved_bitmap, best, dist)
                    improved_count = int(improved_bitmap.sum())
                    k.atomic("work:visited", improved_count, 1)
                    k.instructions(2.0 * nbrs.shape[0])

                with engine.launch("sssp_scatter") as k:
                    frontier = scatter_bitmap_to_indices(improved_bitmap)
                    # Bitmap scan + compacted frontier write (Sec. VI-F).
                    k.read("work:visited", nv, 1)
                    k.write("work:frontier", int(frontier.shape[0]), 4)
                    k.instructions(float(nv))
                iterations += 1
                sp.annotate(
                    edges_expanded=int(nbrs.shape[0]),
                    improved=improved_count,
                )

    return SSSPResult(
        source=source,
        distances=dist,
        iterations=iterations,
        edges_relaxed=run.edges,
        sim_seconds=engine.elapsed_seconds,
    )
