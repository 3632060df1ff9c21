"""Distributed SSSP: frontier relaxation with a min-combining exchange.

Bellman-Ford over the 1-D partition: each iteration every GPU relaxes
the edges of its owned frontier shard (uncompressed float32 weights, as
in the single-GPU driver — weights are not compressed), producing
``(vertex, candidate distance)`` pairs for arbitrary owners.  The
exchange ships the id stream through the wire codec while each id
carries one 4-byte distance, and duplicates met anywhere along the way
— in the pack kernel, between senders, at butterfly hops — fold with
``min``.  Owners keep the candidates that beat their stored distance;
those vertices form the next frontier.

Because min-folding is exact (no floating-point reassociation), the
resulting distances are bit-identical to single-GPU
:func:`repro.traversal.sssp.sssp` for every codec and schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.cluster import DistRunResult, ShardedCluster
from repro.dist.wire import FRONTIER_ID_BYTES
from repro.primitives.sort import SORT_FRACTION, partial_sort_frontier

__all__ = ["DistSSSPResult", "distributed_sssp"]

#: Wire width of one candidate distance (float32, like the weights).
DISTANCE_VALUE_BYTES = 4


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


def _shard_weight_slices(
    cluster: ShardedCluster, weights: np.ndarray
) -> list[np.ndarray]:
    """Per-shard weight arrays indexed by shard-local edge slot.

    Shard ``g`` stores the contiguous global CSR slot range
    ``[vlist[lo], vlist[hi])`` of its owned rows, and its local slot 0
    is global slot ``vlist[lo]`` — so the slice lines up with the edge
    slots that
    :meth:`~repro.traversal.backends.GraphBackend.expand_weighted`
    gathers for global frontier ids.
    """
    vlist = cluster.graph.vlist
    slices = []
    for g in range(cluster.num_gpus):
        lo, hi = cluster.partition.bounds(g)
        slices.append(weights[vlist[lo] : vlist[hi]])
    return slices


def distributed_sssp(
    cluster: ShardedCluster,
    source: int,
    weights: np.ndarray,
    max_iterations: int | None = None,
    partial_sort: bool = True,
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
    slices = _shard_weight_slices(cluster, weights)
    shard_weights = [
        b.check_weights(w) for b, w in zip(cluster.backends, slices)
    ]
    cluster.reset()

    dist = np.full(nv, np.inf, dtype=np.float64)
    dist[source] = 0.0
    frontiers = cluster.source_frontiers(source)

    def relax(g, backend):
        frontier = frontiers[g]
        if not frontier.size:
            return None
        if partial_sort and frontier.size > 1:
            frontier = partial_sort_frontier(frontier, nv, SORT_FRACTION)
        with backend.engine.launch("dist_relax") as k:
            nbrs, seg, w = backend.expand_weighted(
                frontier, k, shard_weights[g]
            )
            cand = dist[frontier[seg]] + w
        return nbrs, cand

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
                    sp, relax, update,
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
