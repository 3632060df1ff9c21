"""Synthetic closed-loop client for :class:`~repro.serve.GraphService`.

Benchmarking a serving layer needs a *workload*, not a single call: a
stream of queries with realistic skew (hot sources repeat), mixed
deadlines, and bursty arrival.  This module provides a deterministic
one — seeded numpy RNG, simulated-clock timing — so two runs with the
same seed and settings produce byte-identical metrics, which is what
lets ``queries/sec`` become a diffable bench column.

The headline number is the **batching speedup**: the same query list is
also replayed one :func:`~repro.traversal.bfs.bfs` at a time against a
fresh backend (same format, same decoded-list cache budget), and the
ratio of simulated times is reported.  The paper's premise says this
should be large — a 64-wide wave decodes each union-frontier list once
where 64 sequential runs decode it up to 64 times.
"""

from __future__ import annotations

import numpy as np

from repro.serve.service import GraphService

__all__ = [
    "make_labeled_stream",
    "parse_deadline_mix",
    "drive",
    "sequential_seconds",
    "with_sequential_baseline",
]


def make_labeled_stream(
    num_nodes: int,
    num_queries: int,
    *,
    hot_fraction: float = 0.5,
    hot_set_size: int = 8,
    seed: int = 7,
) -> tuple[np.ndarray, list[str]]:
    """Deterministic skewed source stream with per-query class labels.

    A ``hot_fraction`` share of queries draws from a small fixed hot
    set (exercising lane coalescing and the result LRU); the rest is
    uniform over all vertices.  The second return value labels each
    query ``"hot"`` or ``"cold"`` — the telemetry ``source_class``
    dimension, so the ``service`` section's ``by_class`` counts can
    attribute misses per workload.
    """
    if num_queries <= 0:
        raise ValueError(f"num_queries must be > 0, got {num_queries}")
    if not (0.0 <= hot_fraction <= 1.0):
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    rng = np.random.default_rng([seed, num_nodes, num_queries])
    hot = rng.choice(num_nodes, size=min(hot_set_size, num_nodes),
                     replace=False)
    is_hot = rng.random(num_queries) < hot_fraction
    uniform = rng.integers(0, num_nodes, size=num_queries)
    hot_pick = hot[rng.integers(0, hot.shape[0], size=num_queries)]
    sources = np.where(is_hot, hot_pick, uniform).astype(np.int64)
    classes = ["hot" if flag else "cold" for flag in is_hot.tolist()]
    return sources, classes


def parse_deadline_mix(spec: str) -> tuple[float | None, ...]:
    """Parse a deadline mix ("none,0.5,none", in ms) into second budgets.

    Raises ``ValueError`` on malformed entries; ``repro serve`` exits
    with the message, prefixed ``--deadline-ms:``.
    """
    mix: list[float | None] = []
    for part in spec.split(","):
        part = part.strip().lower()
        if part in ("none", "inf", ""):
            mix.append(None)
        else:
            try:
                value = float(part)
            except ValueError:
                raise ValueError(
                    f"deadline mix entries must be numbers (ms) or "
                    f"'none', got {part!r}"
                ) from None
            if value < 0:
                raise ValueError(
                    f"deadline mix entries must be >= 0, got {part}"
                )
            mix.append(value / 1e3)
    return tuple(mix) if mix else (None,)


def drive(
    service: GraphService,
    sources: np.ndarray,
    *,
    deadline_mix: tuple[float | None, ...] = (None,),
    burst: int = 16,
    classes: list[str] | None = None,
) -> None:
    """Run a closed-loop client: submit in bursts, drain between them.

    ``deadline_mix`` cycles per query (``None`` = no deadline), so a
    mixed-deadline run interleaves patient and impatient clients.
    Submissions arrive ``burst`` at a time; after each burst the
    service steps one wave, and the queue fully drains at the end —
    closed loop, no unbounded backlog.

    ``classes`` (from :func:`make_labeled_stream`) labels each query's
    telemetry ``source_class``.  The run's outcome lives on the
    service: its results, :meth:`~GraphService.metrics_section` and the
    ``serve.qps`` / ``serve.elapsed_seconds`` gauges set here.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if burst < 1:
        raise ValueError(f"burst must be >= 1, got {burst}")
    if classes is not None and len(classes) != sources.shape[0]:
        raise ValueError(
            f"classes length {len(classes)} != queries {sources.shape[0]}"
        )
    for i, source in enumerate(sources.tolist()):
        service.submit(
            source,
            deadline_s=deadline_mix[i % len(deadline_mix)],
            source_class=classes[i] if classes is not None else "any",
        )
        if (i + 1) % burst == 0:
            service.step_wave()
    while service.num_pending:
        service.step_wave()

    section = service.metrics_section()
    metrics = service.backend.engine.metrics
    metrics.set_gauge("serve.qps", section["qps"])
    metrics.set_gauge("serve.elapsed_seconds", section["elapsed_seconds"])


def sequential_seconds(
    make_backend, sources: np.ndarray
) -> float:
    """Replay ``sources`` one :func:`bfs` at a time; total simulated time.

    ``make_backend`` is a zero-argument factory building a *fresh*
    backend of the same format and cache budget as the service — the
    fair baseline a non-batching server would run.  The decoded-list
    cache (if any) persists across the replayed queries, exactly as it
    would in a sequential server, so the measured gap is the batching
    win, not a cache handicap.
    """
    from repro.traversal.bfs import bfs

    backend = make_backend()
    total = 0.0
    # bfs() resets the engine timeline per call (its sim_seconds is the
    # whole run), but the decoded-list cache *contents* persist across
    # calls — as they would in a real sequential server.
    for source in np.asarray(sources, dtype=np.int64).tolist():
        total += bfs(backend, int(source)).sim_seconds
    return total


def with_sequential_baseline(
    service: GraphService, make_backend, sources
) -> float:
    """Price the sequential-replay baseline of a driven service.

    Sets the ``serve.qps_sequential`` and ``serve.speedup_vs_sequential``
    gauges (batched-over-sequential throughput; 0 when either clock is
    0) and returns the sequential simulated seconds.
    """
    seq = sequential_seconds(make_backend, sources)
    section = service.metrics_section()
    elapsed = section["elapsed_seconds"]
    metrics = service.backend.engine.metrics
    metrics.set_gauge(
        "serve.qps_sequential", section["served"] / seq if seq > 0 else 0.0
    )
    metrics.set_gauge(
        "serve.speedup_vs_sequential",
        seq / elapsed if seq > 0 and elapsed > 0 else 0.0,
    )
    return seq
