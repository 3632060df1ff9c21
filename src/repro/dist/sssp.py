"""Distributed SSSP: frontier relaxation with a min-combining exchange.

Bellman-Ford over the 1-D partition: each iteration every GPU relaxes
the edges of its owned frontier shard with the single-GPU
:func:`~repro.traversal.sssp.relax` (float32 weights, uncompressed),
producing ``(vertex, candidate distance)`` pairs for arbitrary owners.
The exchange ships the id stream through the wire codec while each id
carries one 4-byte distance, and duplicates met anywhere along the way
— in the pack kernel, between senders, at butterfly hops — fold with
``min``.  Owners keep the candidates that beat their stored distance;
those vertices form the next frontier.  The exchange hands each owner
sorted unique ids, so every frontier is strictly ascending, as the
single-GPU driver's bitmap scatter makes it, and needs no sort.

Because min-folding is exact (no floating-point reassociation), the
resulting distances are bit-identical to single-GPU
:func:`repro.traversal.sssp.sssp` for every codec and schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.cluster import DistRunResult, ShardedCluster
from repro.dist.wire import FRONTIER_ID_BYTES
from repro.traversal.backends import BFS_WORKING
from repro.traversal.sssp import relax

__all__ = ["DistSSSPResult", "distributed_sssp"]


@dataclass(frozen=True)
class DistSSSPResult(DistRunResult):
    """Outcome of one distributed SSSP run."""

    source: int
    distances: np.ndarray
    iterations: int
    edges_relaxed: int

    @property
    def gteps(self) -> float:
        """Billions of relaxed edges per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.edges_relaxed / self.sim_seconds / 1e9


def distributed_sssp(
    cluster: ShardedCluster,
    source: int,
    weights: np.ndarray,
    max_iterations: int | None = None,
) -> DistSSSPResult:
    """Shortest paths from ``source`` across the cluster's shards.

    ``weights`` is one non-negative float per arc in global CSR slot
    order.  The cluster must have been built with ``with_weights=True``
    so every shard's memory plan includes its weight slice.
    """
    nv = cluster.num_nodes
    if not 0 <= source < nv:
        raise IndexError(f"source {source} out of range")
    weights = np.asarray(weights, dtype=np.float32)
    if weights.shape[0] != cluster.graph.num_edges:
        raise ValueError("one weight per stored arc required")
    for b in cluster.backends:
        b.place_working(BFS_WORKING)
    # Shard g stores global CSR slots [vlist[lo], vlist[hi]), local slot
    # 0 first: the slots ``expand_weighted`` gathers for global ids.
    vlist = cluster.graph.vlist
    shard_weights = []
    for g, backend in enumerate(cluster.backends):
        lo, hi = cluster.partition.bounds(g)
        shard_weights.append(
            backend.check_weights(weights[vlist[lo] : vlist[hi]])
        )

    dist = np.full(nv, np.inf, dtype=np.float64)
    dist[source] = 0.0
    frontiers = cluster.source_frontiers(source)

    def local_relax(g, backend):
        frontier = frontiers[g]
        if not frontier.size:
            return None
        with backend.engine.launch("dist_relax") as k:
            return relax(backend, frontier, dist, shard_weights[g], k)

    def update(g, k, ids, cand):
        better = cand < dist[ids]
        mine = ids[better]
        dist[mine] = cand[better]
        k.read_stream("work:labels", ids, 4)
        k.atomic("work:visited", int(mine.shape[0]), 1)
        k.instructions(2.0 * ids.shape[0])
        k.write("work:frontier", int(mine.shape[0]), FRONTIER_ID_BYTES)
        return mine

    iterations = 0
    cap = max_iterations if max_iterations is not None else nv
    with cluster.algorithm("dist_sssp", source=int(source)):
        while any(f.size for f in frontiers) and iterations < cap:
            with cluster.level(
                f"iteration:{iterations}", iterations,
                frontier=int(sum(f.size for f in frontiers)),
            ) as sp:
                frontiers = cluster.superstep(
                    sp, local_relax, update,
                    expand_kernel="dist_relax", claim_kernel="dist_update",
                    combine="min",
                )
                sp.annotate(improved=int(sum(f.shape[0] for f in frontiers)))
            iterations += 1

    return DistSSSPResult(
        source=source,
        distances=dist,
        iterations=iterations,
        edges_relaxed=cluster.edges,
        **cluster.run_fields(),
    )
