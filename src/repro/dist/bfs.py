"""Distributed level-synchronous BFS over a sharded cluster.

The classic 1-D partitioned BFS the multi-GPU systems in the paper's
introduction run: every level, each GPU partially sorts and expands its
shard of the frontier (the same Sec. VI-E sort the single-GPU drivers
use), drops the neighbours its visited view already holds, packs the
rest into per-owner buckets, exchanges them through the wire codec, and
the owners claim unvisited vertices to form the next frontier.  Expand
and claim run :mod:`repro.traversal.bfs`'s bodies on 8-byte global ids;
a level adds only the view's drop, the pack, the exchange and the
receive-side decode.  Per-level simulated time is the bulk-synchronous
``max`` over GPUs of local work plus the exchange.

Each GPU's visited view (``work:visited``, one flag per vertex of the
whole graph) is its record of what the owners already hold: its own
slice, set by its claims, plus every remote id it has sent.  A sent id
is claimed by its owner at the next level or was visited already, so a
resend could never win a claim: the view sends each id at most once
per GPU and run without changing a level (the sender-side filter of
the Romera thesis; Gunrock culls with a visited bitmask the same way).
The level's ``edges`` still count every expanded neighbour.

Levels are bit-identical to single-GPU :func:`repro.traversal.bfs.bfs`
for every codec and schedule: codecs round-trip exactly, claims are
order-independent and the view drops only ids no claim could take, so
only the *costs* differ — which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.cluster import DistRunResult, ShardedCluster
from repro.dist.wire import FRONTIER_ID_BYTES
from repro.primitives.sort import launch_partial_sort
from repro.traversal.backends import BFS_WORKING
from repro.traversal.bfs import claim, expand_and_probe

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


def distributed_bfs(cluster: ShardedCluster, source: int) -> DistBFSResult:
    """BFS from ``source`` (a global id) across the cluster's shards.

    Each GPU applies the Sec. VI-E partial radix sort (65% of the id
    bits) to its frontier shard before expanding it.
    """
    nv = cluster.num_nodes
    if not 0 <= source < nv:
        raise IndexError(f"source {source} out of range")
    for b in cluster.backends:
        b.place_working(BFS_WORKING)

    levels = np.full(nv, -1, dtype=np.int64)
    levels[source] = 0
    frontiers = cluster.source_frontiers(source)
    views = [np.zeros(nv, dtype=bool) for _ in frontiers]
    for view, frontier in zip(views, frontiers):
        view[frontier] = True

    def expand(g, backend):
        frontier = frontiers[g]
        if not frontier.size:
            return None
        engine = backend.engine
        if frontier.size > 1:
            frontier = launch_partial_sort(
                engine, "dist_sort", frontier, nv, FRONTIER_ID_BYTES,
            )
        with engine.launch("dist_expand") as k:
            nbrs, _ = expand_and_probe(backend, frontier, k)
            # One compare per probed neighbour drops the ids whose
            # owners already hold them.
            k.instructions(nbrs.shape[0])
            kept = nbrs[~views[g][nbrs]]
        return kept, None, int(nbrs.shape[0] - kept.shape[0])

    def owner_claim(g, k, candidates, _):
        mine = candidates[claim(views[g], candidates, k, FRONTIER_ID_BYTES)]
        levels[mine] = depth + 1
        return mine

    depth = 0
    with cluster.algorithm("dist_bfs", source=int(source)):
        while any(f.size for f in frontiers):
            with cluster.level(
                f"level:{depth}", depth,
                frontier=int(sum(f.size for f in frontiers)),
            ) as sp:
                frontiers = cluster.superstep(
                    sp, expand, owner_claim,
                    expand_kernel="dist_expand", claim_kernel="dist_claim",
                    views=views,
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
