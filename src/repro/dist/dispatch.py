"""One entry point for the distributed drivers.

``run_distributed(cluster, algo, ...)`` maps an algorithm name to its
bulk-synchronous driver, so both front-ends that run a named workload
on a :class:`~repro.dist.cluster.ShardedCluster` — ``repro dist`` and
``repro whatif`` — share one dispatch.
"""

from __future__ import annotations

from repro.dist.bfs import distributed_bfs
from repro.dist.pagerank import distributed_pagerank
from repro.dist.sssp import distributed_sssp

__all__ = ["DIST_ALGOS", "run_distributed"]

#: Algorithms :func:`run_distributed` can drive.
DIST_ALGOS = ("bfs", "sssp", "pagerank")


def run_distributed(cluster, algo: str, source: int = 0, weights=None):
    """Run ``algo`` on ``cluster`` and return the driver's result.

    ``source`` is ignored by PageRank and ``weights`` (edge weights in
    CSR slot order) is used by SSSP only.
    """
    if algo == "bfs":
        return distributed_bfs(cluster, source)
    if algo == "sssp":
        return distributed_sssp(cluster, source, weights)
    if algo == "pagerank":
        return distributed_pagerank(cluster)
    raise ValueError(
        f"unknown distributed algorithm {algo!r}; pick from {DIST_ALGOS}"
    )
