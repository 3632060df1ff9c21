"""Human-readable serving report (``repro serve`` output lines).

The :mod:`repro.dist` layer prints a per-level table plus total/tier
summary lines; :func:`serve_report` is the serving-side equivalent —
one block with the admission and result-LRU counters (hits, evictions,
rejects) from the engine's registry, together with the exact latency
percentiles and wave widths computed from the query results.
"""

from __future__ import annotations

from repro.serve.service import GraphService

__all__ = ["serve_report"]


def serve_report(service: GraphService) -> str:
    """dist-style text block for one finished serve run."""
    counters = service.backend.engine.metrics.counters
    tel = service.telemetry
    counts = service.counts()
    elapsed = service.clock
    served = counts.get("done", 0) + counts.get("cached", 0)

    submitted = int(counters.get("serve.queries.submitted", 0.0))
    admitted = int(counters.get("serve.queries.admitted", 0.0))
    rejected = int(counters.get("serve.queries.rejected", 0.0))
    expired = int(counters.get("serve.queries.expired", 0.0))
    hits = int(counters.get("serve.cache.hits", 0.0))
    evictions = int(counters.get("serve.cache.evictions", 0.0))

    lines = [
        f"serve run: epoch {service.epoch[:12]}, "
        f"{submitted} submitted, {service.num_waves} waves, "
        f"{elapsed * 1e3:.4f} ms simulated",
        f"admission: {admitted} admitted, {rejected} rejected "
        f"(queue bound {service.max_pending}), {expired} expired "
        f"({100 * tel.miss_rate:.2f}% miss rate)",
        f"result lru: {hits} hits, {evictions} evictions, "
        f"{len(service._cache)} resident "
        f"(bound {service.result_cache_entries}), "
        f"{100 * tel.hit_rate:.2f}% of served answered from cache",
    ]
    if tel.latency.count:
        lines.append(
            f"latency: p50 {tel.latency.quantile(0.5) * 1e6:.4f} us, "
            f"p95 {tel.latency.quantile(0.95) * 1e6:.4f} us, "
            f"p99 {tel.latency.quantile(0.99) * 1e6:.4f} us, "
            f"max {tel.latency.max * 1e6:.4f} us "
            f"(queue wait p99 {tel.queue_wait.quantile(0.99) * 1e6:.4f} us)"
        )
    if tel.wave_lanes.count:
        lines.append(
            f"waves: {service.num_waves} run, mean {tel.wave_lanes.mean:.1f} "
            f"lanes ({100 * tel.lane_occupancy():.1f}% occupancy), "
            f"widest {int(tel.wave_lanes.max)}"
        )
    lines.append(
        f"throughput: {served / elapsed if elapsed > 0 else 0.0:,.0f} "
        f"queries/sec over the run"
    )
    return "\n".join(lines)
