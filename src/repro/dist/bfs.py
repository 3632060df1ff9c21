"""Distributed level-synchronous BFS over a sharded cluster.

The classic 1-D partitioned BFS the multi-GPU systems in the paper's
introduction run: every level, each GPU partially sorts and expands its
shard of the frontier (the same Sec. VI-E sort the single-GPU drivers
use), packs the discovered neighbours into per-owner buckets, exchanges
them through the wire codec, and the owners claim unvisited vertices to
form the next frontier.  Per-level simulated time is the
bulk-synchronous ``max`` over GPUs of local work plus the exchange.

Levels are bit-identical to single-GPU :func:`repro.traversal.bfs.bfs`
for every codec and schedule: codecs round-trip exactly and claims are
order-independent, so only the *costs* differ — which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.cluster import DistRunResult, ShardedCluster
from repro.dist.wire import FRONTIER_ID_BYTES
from repro.primitives.compact import atomic_or_claim
from repro.primitives.sort import launch_partial_sort

__all__ = ["DistBFSResult", "distributed_bfs"]


@dataclass(frozen=True)
class DistBFSResult(DistRunResult):
    """Outcome of one distributed BFS run."""

    source: int
    levels: np.ndarray
    #: Number of BFS levels counting the source's level 0 (levels.max()+1).
    num_levels: int
    edges_traversed: int

    @property
    def gteps(self) -> float:
        """Billions of traversed edges per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.edges_traversed / self.sim_seconds / 1e9


def distributed_bfs(
    cluster: ShardedCluster,
    source: int,
    partial_sort: bool = True,
) -> DistBFSResult:
    """BFS from ``source`` across the cluster's shards.

    Parameters
    ----------
    cluster:
        A built :class:`~repro.dist.cluster.ShardedCluster`.
    source:
        Start vertex (global id).
    partial_sort:
        Apply the Sec. VI-E partial radix sort to each local frontier
        shard before expansion (65% of the id bits).
    """
    nv = cluster.num_nodes
    if not 0 <= source < nv:
        raise IndexError(f"source {source} out of range")
    cluster.reset()

    levels = np.full(nv, -1, dtype=np.int64)
    visited = np.zeros(nv, dtype=bool)
    levels[source] = 0
    visited[source] = True
    frontiers = cluster.source_frontiers(source)

    def expand(g, backend):
        frontier = frontiers[g]
        if not frontier.size:
            return None
        engine = backend.engine
        if partial_sort and frontier.size > 1:
            frontier = launch_partial_sort(
                engine, "dist_sort", frontier, nv, FRONTIER_ID_BYTES,
            )
        with engine.launch("dist_expand") as k:
            nbrs, _ = backend.expand(frontier, k)
            k.read_stream("work:visited", nbrs, 1)
        return nbrs, None

    def claim(g, k, candidates, _):
        fresh = candidates[~visited[candidates]]
        won = atomic_or_claim(visited, fresh)
        mine = fresh[won]
        k.read_stream("work:visited", candidates, 1)
        k.instructions(2.0 * candidates.shape[0])
        k.write("work:frontier", int(mine.shape[0]), FRONTIER_ID_BYTES)
        levels[mine] = depth + 1
        return mine

    depth = 0
    with cluster.algorithm(
        "dist_bfs", source=int(source), partial_sort=partial_sort
    ):
        while any(f.size for f in frontiers):
            with cluster.level(
                f"level:{depth}", depth,
                frontier=int(sum(f.size for f in frontiers)),
            ) as sp:
                frontiers = cluster.superstep(
                    sp, expand, claim,
                    expand_kernel="dist_expand", claim_kernel="dist_claim",
                )
                sp.annotate(claimed=int(sum(f.shape[0] for f in frontiers)))
            depth += 1

    return DistBFSResult(
        source=source,
        levels=levels,
        num_levels=int(levels.max()) + 1,
        edges_traversed=cluster.edges,
        **cluster.run_fields(),
    )
