"""Push-style PageRank (Sec. VI-F, Fig. 11).

Every vertex is active each iteration (the frontier is all of V), so
each iteration decodes the whole graph and atomically accumulates
``rank[src] / deg[src]`` into each destination.  Runs are capped at 50
iterations like the paper's evaluation.

The full-graph expansion is identical every iteration, so backends'
functional decode output is cached after the first iteration while the
*costs* are re-charged each iteration (the simulated device re-decodes
every time; the simulator just avoids redundant Python work — the
charged traffic is byte-identical because it is recomputed from the
same arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traversal.backends import GraphBackend

__all__ = ["PageRankResult", "pagerank"]


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
    # Second rank buffer for ping-pong accumulation.
    engine.memory.register("work:rank2", 4 * nv, priority=-1)

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
                    if cached is None:
                        nbrs, seg = backend.expand(all_vertices, k)
                        cached = (nbrs, seg)
                    else:
                        nbrs, seg = cached
                        # Re-charge the identical decode traffic for this
                        # iteration; the functional decode is reused
                        # because the graph is static across iterations.
                        backend.charge_expand(all_vertices, nbrs, k)
                    # One share per vertex, gathered once per edge.
                    contrib = (ranks / out_deg_safe)[seg]
                    new_ranks = np.zeros(nv, dtype=np.float64)
                    np.add.at(new_ranks, nbrs, contrib)
                    # Atomic float add per edge into the destination ranks.
                    k.read_stream("work:rank2", nbrs, 4)
                    k.instructions(4.0 * nbrs.shape[0])
                run.edges += int(nbrs.shape[0])

                with engine.launch("pr_finalize") as k:
                    dangling_mass = ranks[dangling].sum() / nv
                    new_ranks = (
                        (1 - damping) / nv
                        + damping * (new_ranks + dangling_mass)
                    )
                    delta = float(np.abs(new_ranks - ranks).sum())
                    ranks = new_ranks
                    k.read("work:labels", nv, 4)
                    k.write("work:rank2", nv, 4)
                    k.instructions(4.0 * nv)
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
