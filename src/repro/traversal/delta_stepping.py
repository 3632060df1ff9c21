"""Delta-stepping SSSP — the classic GPU shortest-path algorithm.

The paper's SSSP is plain frontier relaxation (Bellman-Ford style,
Sec. VI-F).  Production GPU SSSP implementations (Gunrock, ADDS,
Davidson et al.'s near-far) use *delta-stepping*: distances are
bucketed at granularity ``delta``; the current bucket's vertices relax
their **light** edges (weight < delta, which can re-enter the same
bucket) to a fixpoint before everyone's **heavy** edges are relaxed
once.  Compared to frontier relaxation it wastes far fewer relaxations
on vertices whose tentative distance will still improve.

The implementation runs on the same format backends, so the
compression trade-offs (structure resident, weights streamed) apply
unchanged; an ablation benchmark compares relaxation counts and
simulated runtime against the paper's variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.primitives.unique import sorted_unique
from repro.traversal.backends import BFS_WORKING, GraphBackend

__all__ = ["DeltaSteppingResult", "delta_stepping_sssp", "suggest_delta"]


@dataclass(frozen=True)
class DeltaSteppingResult:
    """Outcome of one delta-stepping run."""

    source: int
    distances: np.ndarray
    delta: float
    buckets_processed: int
    light_phases: int
    edges_relaxed: int
    sim_seconds: float

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime in milliseconds."""
        return self.sim_seconds * 1e3

    @property
    def gteps(self) -> float:
        """Billions of relaxed edges per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.edges_relaxed / self.sim_seconds / 1e9


def suggest_delta(weights: np.ndarray, degrees: np.ndarray) -> float:
    """The classic heuristic: mean weight / average degree scale.

    Meyer & Sanders suggest ``Theta(1 / max_degree)`` for uniform
    weights; in practice ``mean_weight * c`` with small c works well on
    power-law graphs.  We use mean weight divided by the root of the
    average degree — close to Gunrock's default policy.
    """
    mean_w = float(np.mean(weights)) if weights.size else 1.0
    avg_deg = float(np.mean(degrees[degrees > 0])) if degrees.size else 1.0
    return max(mean_w / max(np.sqrt(avg_deg), 1.0), 1e-9)


def delta_stepping_sssp(
    backend: GraphBackend,
    source: int,
    weights: np.ndarray,
    delta: float | None = None,
    max_buckets: int | None = None,
) -> DeltaSteppingResult:
    """Delta-stepping shortest paths from ``source``.

    Parameters
    ----------
    backend:
        Graph representation (must be constructed with ``weight_bytes``).
    source:
        Start vertex.
    weights:
        Non-negative float edge weights in CSR slot order.
    delta:
        Bucket width; defaults to :func:`suggest_delta`.
    max_buckets:
        Safety cap on processed buckets.
    """
    nv = backend.num_nodes
    if not 0 <= source < nv:
        raise IndexError(f"source {source} out of range")
    weights = backend.check_weights(weights)
    engine = backend.engine
    engine.reset_timeline()
    backend.place_working(BFS_WORKING)
    if delta is None:
        delta = suggest_delta(weights, backend.degrees)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")

    dist = np.full(nv, np.inf, dtype=np.float64)
    dist[source] = 0.0
    light_phases = 0
    buckets_processed = 0
    cap = max_buckets if max_buckets is not None else 64 * nv

    def bucket_of(d: np.ndarray) -> np.ndarray:
        out = np.full(d.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
        finite = np.isfinite(d)
        out[finite] = (d[finite] / delta).astype(np.int64)
        return out

    def relax(frontier: np.ndarray, light_only: bool) -> np.ndarray:
        """Relax frontier's (light|heavy) edges; return improved verts."""
        with engine.launch("ds_relax") as k:
            nbrs, seg, w = backend.expand_weighted(frontier, k, weights)
            mask = (w < delta) if light_only else (w >= delta)
            cand = dist[frontier[seg[mask]]] + w[mask]
            targets = nbrs[mask]
        run.edges += int(mask.sum())
        if targets.size == 0:
            return np.empty(0, dtype=np.int64)
        best = np.full(nv, np.inf, dtype=np.float64)
        np.minimum.at(best, targets, cand)
        improved = best < dist
        dist[improved] = best[improved]
        with engine.launch("ds_update") as k:
            k.atomic("work:labels", int(improved.sum()), 4)
            k.instructions(2.0 * targets.shape[0])
        return np.flatnonzero(improved)

    with engine.algorithm(
        "delta_stepping", gauge="delta_stepping",
        source=int(source), delta=float(delta),
    ) as run:
        current = 0
        while buckets_processed < cap:
            in_bucket = np.flatnonzero(bucket_of(dist) == current)
            if in_bucket.size == 0:
                finite = np.isfinite(dist)
                remaining = bucket_of(dist[finite])
                ahead = remaining[remaining > current]
                if ahead.size == 0:
                    break
                current = int(ahead.min())
                continue
            with engine.level(
                f"bucket:{current}", current,
                frontier=in_bucket.size,
                histogram="delta_stepping.bucket_size",
            ) as sp:
                phases_before = light_phases
                edges_before = run.edges
                settled: list[np.ndarray] = []
                frontier = in_bucket
                # Light-edge fixpoint within the bucket.
                while frontier.size:
                    settled.append(frontier)
                    light_phases += 1
                    improved = relax(frontier, light_only=True)
                    frontier = improved[bucket_of(dist[improved]) == current]
                # Heavy edges once for everything settled in this bucket.
                all_settled = sorted_unique(np.concatenate(settled))
                relax(all_settled, light_only=False)
                buckets_processed += 1
                current += 1
                sp.annotate(
                    light_phases=light_phases - phases_before,
                    edges_expanded=run.edges - edges_before,
                )

    return DeltaSteppingResult(
        source=source,
        distances=dist,
        delta=float(delta),
        buckets_processed=buckets_processed,
        light_phases=light_phases,
        edges_relaxed=run.edges,
        sim_seconds=engine.elapsed_seconds,
    )
