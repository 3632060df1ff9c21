"""Betweenness centrality via Brandes' algorithm (Sec. I / III-B).

One of the analytics the paper names as implementable "using a similar
approach": each source's contribution is two frontier sweeps — a
forward level-synchronous BFS accumulating shortest-path counts, and a
backward dependency accumulation over the same levels.  Both sweeps
expand frontiers through the backend, so the per-format decode costs
are charged exactly like BFS.

Exact betweenness is O(|V| * |E|); callers sample sources (the
standard approximation) via ``sources=``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.primitives.unique import sorted_unique
from repro.traversal.backends import GraphBackend

__all__ = ["BetweennessResult", "betweenness_centrality"]


@dataclass(frozen=True)
class BetweennessResult:
    """Outcome of a (sampled) betweenness run."""

    scores: np.ndarray
    num_sources: int
    edges_traversed: int
    sim_seconds: float

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime in milliseconds."""
        return self.sim_seconds * 1e3


def betweenness_centrality(
    backend: GraphBackend,
    sources: np.ndarray | None = None,
    normalized: bool = True,
) -> BetweennessResult:
    """Brandes betweenness from the given (or all) source vertices."""
    nv = backend.num_nodes
    engine = backend.engine
    engine.reset_timeline()
    if sources is None:
        sources = np.arange(nv, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size and (sources.min() < 0 or sources.max() >= nv):
            raise IndexError("source out of range")

    scores = np.zeros(nv, dtype=np.float64)
    edges_traversed = 0

    for s in sources:
        # --- forward sweep: levels + shortest-path counts ---
        dist = np.full(nv, -1, dtype=np.int64)
        sigma = np.zeros(nv, dtype=np.float64)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = np.array([s], dtype=np.int64)
        levels: list[np.ndarray] = [frontier]
        depth = 0
        while frontier.size:
            with engine.launch("bc_forward") as k:
                nbrs, seg = backend.expand(frontier, k)
                k.read_stream("work:labels", nbrs, 4)
                k.instructions(6.0 * nbrs.shape[0])
            edges_traversed += int(nbrs.shape[0])
            depth += 1
            # Vertices first reached at this depth.
            fresh_mask = dist[nbrs] == -1
            fresh = sorted_unique(nbrs[fresh_mask])
            dist[fresh] = depth
            # sigma[w] += sigma[v] over tree/equal-level edges.
            on_shortest = dist[nbrs] == depth
            np.add.at(sigma, nbrs[on_shortest], sigma[frontier[seg[on_shortest]]])
            frontier = fresh
            if frontier.size:
                levels.append(frontier)

        # --- backward sweep: dependency accumulation ---
        delta = np.zeros(nv, dtype=np.float64)
        for level in reversed(levels[1:]):
            with engine.launch("bc_backward") as k:
                nbrs, seg = backend.expand(level, k)
                k.read_stream("work:labels", nbrs, 8)
                k.instructions(8.0 * nbrs.shape[0])
            edges_traversed += int(nbrs.shape[0])
            srcs = level[seg]
            # Edge (v in level) -> (w one level deeper) contributes
            # sigma[v]/sigma[w] * (1 + delta[w]) to delta[v].
            deeper = dist[nbrs] == dist[srcs] + 1
            contrib = np.zeros(nbrs.shape[0], dtype=np.float64)
            d_idx = np.flatnonzero(deeper)
            if d_idx.size:
                w = nbrs[d_idx]
                v = srcs[d_idx]
                contrib[d_idx] = sigma[v] / sigma[w] * (1.0 + delta[w])
                np.add.at(delta, v, contrib[d_idx])
        mask = np.ones(nv, dtype=bool)
        mask[s] = False
        scores[mask] += delta[mask]

    if normalized and nv > 2:
        # Matches networkx: directed raw * 1/((n-1)(n-2)); undirected
        # raw is double-counted and its normalizer is 2x, so the same
        # factor applies either way.  Sampled sources rescale by n/k.
        scale = 1.0 / ((nv - 1) * (nv - 2))
        scores = scores * scale * (nv / max(len(sources), 1))

    return BetweennessResult(
        scores=scores,
        num_sources=int(len(sources)),
        edges_traversed=edges_traversed,
        sim_seconds=engine.elapsed_seconds,
    )

