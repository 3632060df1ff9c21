"""Distributed push-style PageRank with a sum-combining exchange.

Every iteration every vertex is active: each GPU pushes
``rank[v] / deg[v]`` along its owned out-lists (the single-GPU
:func:`~repro.traversal.pagerank.push`), pre-aggregates the partial
sums per destination in the pack kernel, and the exchange delivers
``(vertex, partial mass)`` pairs to the owners — ids through
the wire codec, masses uncompressed at 4 bytes each, duplicates folded
with ``sum``.  The per-destination pre-aggregation is the classic
communication optimisation: the wire carries at most one entry per
(sender, destination vertex) pair instead of one per edge.

Dangling mass and the convergence delta are scalar allreduces; they are
charged as one tiny 8-byte-per-peer exchange step per iteration rather
than through the codecs (compressing eight bytes is noise), each peer
message priced on the tier it crosses.

Unlike BFS/SSSP, float addition order differs from the single-GPU
driver (partial sums are folded per sender first), so ranks match
:func:`repro.traversal.pagerank.pagerank` to floating-point tolerance,
not bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.cluster import DistRunResult, ShardedCluster
from repro.dist.topology import tier_record
from repro.dist.wire import MESSAGE_HEADER_BYTES
from repro.traversal.pagerank import PAGERANK_WORKING, charge_finalize, push

#: Distributed PageRank's working set, bytes per vertex: PageRank's, plus
#: the frontier array the pack kernel writes its sorted-unique ids and
#: folded masses to.
DIST_PAGERANK_WORKING = {**PAGERANK_WORKING, "work:frontier": 8}

__all__ = ["DistPageRankResult", "distributed_pagerank"]


@dataclass(frozen=True)
class DistPageRankResult(DistRunResult):
    """Outcome of one distributed PageRank run."""

    ranks: np.ndarray
    iterations: int
    edges_processed: int
    converged: bool

    @property
    def gteps(self) -> float:
        """Billions of edges processed per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.edges_processed / self.sim_seconds / 1e9


def distributed_pagerank(
    cluster: ShardedCluster,
    damping: float = 0.85,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
) -> DistPageRankResult:
    """PageRank with uniform teleport across the cluster's shards."""
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    nv = cluster.num_nodes
    num_gpus = cluster.num_gpus
    partition = cluster.partition
    for b in cluster.backends:
        b.place_working(DIST_PAGERANK_WORKING)

    degrees = cluster.graph.degrees.astype(np.float64)
    out_deg_safe = np.maximum(degrees, 1.0)
    dangling = degrees == 0
    vertices = np.arange(nv, dtype=np.int64)

    ranks = np.full(nv, 1.0 / nv, dtype=np.float64)
    converged = False
    cached: list[tuple[np.ndarray, np.ndarray] | None] = [None] * num_gpus

    # Scalar allreduce (dangling mass + delta): 8 bytes to each peer,
    # one message per peer, priced by the cluster as a serial sync on
    # the tier each message crosses.
    node_size = cluster.topology.node_size
    peers = {"intra": node_size - 1, "inter": num_gpus - node_size}
    allreduce_record = {}
    for tier, count in peers.items():
        if count:
            scalar_bytes = np.full(
                num_gpus, (8.0 + MESSAGE_HEADER_BYTES) * count
            )
            allreduce_record[tier] = tier_record(
                scalar_bytes, scalar_bytes, np.full(num_gpus, count)
            )

    def local_push(g, backend):
        lo, hi = partition.bounds(g)
        with backend.engine.launch("dist_pr_push") as k:
            nbrs, seg, contrib = push(
                backend, vertices[lo:hi], share[lo:hi], cached[g], k
            )
        cached[g] = nbrs, seg
        return nbrs, contrib

    def finalize(g, k, ids, mass):
        lo, hi = partition.bounds(g)
        acc = np.zeros(hi - lo, dtype=np.float64)
        if ids.size:
            acc[ids - lo] = mass
        new_ranks[lo:hi] = (1 - damping) / nv + damping * (acc + dangling_mass)
        charge_finalize(k, hi - lo)
        return float(np.abs(new_ranks[lo:hi] - ranks[lo:hi]).sum())

    it = 0
    with cluster.algorithm(
        "dist_pagerank", damping=damping, max_iterations=max_iterations
    ):
        for it in range(1, max_iterations + 1):
            dangling_mass = ranks[dangling].sum() / nv
            share = ranks / out_deg_safe
            new_ranks = np.zeros(nv, dtype=np.float64)
            with cluster.level(f"iteration:{it}", it) as sp:
                # The scalar allreduce needs the finalized ranks: a
                # serial sync on top of the (possibly overlapped) level.
                delta = sum(
                    cluster.superstep(
                        sp, local_push, finalize,
                        expand_kernel="dist_pr_push",
                        claim_kernel="dist_pr_finalize",
                        combine="sum",
                        sync_record=allreduce_record,
                    )
                )
                sp.annotate(rank_delta=delta)
            ranks = new_ranks
            if delta < tolerance:
                converged = True
                break

    return DistPageRankResult(
        ranks=ranks,
        iterations=it,
        edges_processed=cluster.edges,
        converged=converged,
        **cluster.run_fields(),
    )
