"""Push-style PageRank (Sec. VI-F, Fig. 11).

Every vertex is active each iteration (the frontier is all of V), so
each iteration decodes the whole graph and atomically accumulates
``rank[src] / deg[src]`` into each destination.  Runs are capped at 50
iterations like the paper's evaluation.  The level bodies :func:`push`,
:func:`charge_finalize` and the working set :data:`PAGERANK_WORKING` are
shared with the distributed driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.kernel import KernelLaunch
from repro.traversal.backends import GraphBackend

__all__ = [
    "PAGERANK_WORKING", "PageRankResult", "charge_finalize", "pagerank",
    "push",
]

#: PageRank's working set, bytes per vertex: the ranks (``work:labels``)
#: and the second rank buffer the push accumulates into.  The frontier
#: is all of V, so there is no visited or frontier array.
PAGERANK_WORKING = {"work:labels": 4, "work:rank2": 4}


@dataclass(frozen=True)
class PageRankResult:
    """Outcome of one PageRank run."""

    ranks: np.ndarray
    iterations: int
    edges_processed: int
    sim_seconds: float
    converged: bool

    @property
    def gteps(self) -> float:
        """Billions of edges processed per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.edges_processed / self.sim_seconds / 1e9

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime in milliseconds."""
        return self.sim_seconds * 1e3


def push(
    backend: GraphBackend, vertices: np.ndarray, share: np.ndarray,
    cached: tuple[np.ndarray, np.ndarray] | None, kernel: KernelLaunch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push ``share`` (``rank / out_degree``, one per entry of
    ``vertices``) along the out-lists; returns ``(nbrs, seg, contrib)``.

    Charged to ``kernel``: the expansion and one atomic float add per
    edge into ``work:rank2``.  The graph is static, so a ``cached``
    ``(nbrs, seg)`` of an earlier push over the same vertices skips the
    functional decode; its identical traffic is still charged.
    """
    if cached is None:
        nbrs, seg = backend.expand(vertices, kernel)
    else:
        nbrs, seg = cached
        backend.charge_expand(vertices, nbrs, kernel)
    contrib = share[seg]
    kernel.read_stream("work:rank2", nbrs, 4)
    kernel.instructions(4.0 * nbrs.shape[0])
    return nbrs, seg, contrib


def charge_finalize(kernel: KernelLaunch, num_vertices: int) -> None:
    """Charge the finalize of ``num_vertices`` ranks to ``kernel``."""
    kernel.read("work:labels", num_vertices, 4)
    kernel.write("work:rank2", num_vertices, 4)
    kernel.instructions(4.0 * num_vertices)


def pagerank(
    backend: GraphBackend,
    damping: float = 0.85,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
) -> PageRankResult:
    """PageRank with uniform teleport and dangling-mass redistribution."""
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    nv = backend.num_nodes
    engine = backend.engine
    engine.reset_timeline()
    backend.place_working(PAGERANK_WORKING)

    all_vertices = np.arange(nv, dtype=np.int64)
    degrees = backend.degrees.astype(np.float64)
    out_deg_safe = np.maximum(degrees, 1.0)
    dangling = degrees == 0

    ranks = np.full(nv, 1.0 / nv, dtype=np.float64)
    converged = False
    cached: tuple[np.ndarray, np.ndarray] | None = None

    with engine.algorithm(
        "pagerank", gauge="pagerank",
        damping=damping, max_iterations=max_iterations,
    ) as run:
        it = 0
        for it in range(1, max_iterations + 1):
            with engine.level(f"iteration:{it}", it) as sp:
                with engine.launch("pr_push") as k:
                    nbrs, seg, contrib = push(
                        backend, all_vertices, ranks / out_deg_safe,
                        cached, k,
                    )
                    cached = nbrs, seg
                    new_ranks = np.zeros(nv, dtype=np.float64)
                    np.add.at(new_ranks, nbrs, contrib)
                run.edges += int(nbrs.shape[0])

                with engine.launch("pr_finalize") as k:
                    dangling_mass = ranks[dangling].sum() / nv
                    new_ranks = (
                        (1 - damping) / nv
                        + damping * (new_ranks + dangling_mass)
                    )
                    delta = float(np.abs(new_ranks - ranks).sum())
                    ranks = new_ranks
                    charge_finalize(k, nv)
                sp.annotate(
                    edges_expanded=int(nbrs.shape[0]), rank_delta=delta
                )
            engine.sample("rank_delta", delta)
            if delta < tolerance:
                converged = True
                break

    return PageRankResult(
        ranks=ranks,
        iterations=it,
        edges_processed=run.edges,
        sim_seconds=engine.elapsed_seconds,
        converged=converged,
    )
