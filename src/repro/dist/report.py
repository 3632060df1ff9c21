"""Metrics dumps and text reports for distributed runs.

:func:`dist_run_metrics` serialises one cluster run into the same
versioned schema single-GPU :func:`repro.obs.metrics.run_metrics` uses
— aggregated per-kernel rows (summed over GPUs), the cluster registry
(wire-byte counters, codec tallies), and per-level exchange breakdowns
pulled from the span tree.  Identical runs produce byte-identical
dumps, so ``repro compare`` gates distributed workloads exactly like
single-GPU ones.

:func:`dist_report` renders the per-level story as a table: frontier
size, wire bytes (split intra/inter on two-tier topologies), the
expand/exchange/claim split, and which term bound each level.

:func:`verify_dist_attribution` extends the single-GPU attribution
invariant (:func:`repro.obs.counters.verify_attribution`) to cluster
runs: every shard engine's per-array bytes must sum exactly to its
launch columns, and the cluster's wire counters must decompose exactly
— ``id + value + header == wire`` and ``intra + inter == wire`` — with
the per-level span annotations summing back to the counters.
"""

from __future__ import annotations

from repro.dist.cluster import ShardedCluster
from repro.dist.topology import TIERS
from repro.obs.counters import verify_attribution
from repro.obs.metrics import METRICS_SCHEMA, git_sha

__all__ = [
    "dist_run_metrics",
    "dist_report",
    "level_annotations",
    "overlap_ratio",
    "verify_dist_attribution",
]

#: Kernel-summary fields summed across the per-GPU engines.
_KERNEL_FIELDS = (
    "launches",
    "device_bytes",
    "host_bytes",
    "cached_bytes",
    "instructions",
    "floor_seconds",
    "seconds",
)

#: Level-span attributes exported per level (all numeric, diffable).
_LEVEL_FIELDS = (
    "frontier_size",
    "edges_expanded",
    "wire_bytes",
    "intra_bytes",
    "inter_bytes",
    "overlap_ratio",
    "messages",
    "expand_seconds",
    "exchange_seconds",
    "claim_seconds",
    "sync_seconds",
    "intra_seconds",
    "inter_seconds",
)

#: Per-tier counter suffixes exported in the ``tiers`` section.
_TIER_FIELDS = ("bytes", "messages", "transfer_seconds", "latency_seconds")


def overlap_ratio(
    overlapped_seconds: float, exchange_seconds: float
) -> float:
    """Fraction of the exchange hidden under compute for one level.

    Guarded against zero- (and degenerate negative-) duration exchanges
    — the empty frontier on a traversal's last level produces a level
    with no wire traffic, whose ratio is defined as 0.0 rather than a
    division error.  The three drivers all annotate their level spans
    through this one helper.
    """
    if exchange_seconds <= 0.0:
        return 0.0
    return overlapped_seconds / exchange_seconds


def level_annotations(
    expand_seconds: float,
    ex,
    claim_seconds: float,
    overlapped_seconds: float,
    bound: str,
    sync_seconds: float = 0.0,
    expand_kernel: str = "",
    claim_kernel: str = "",
) -> dict:
    """The shared per-level span annotations all three drivers attach.

    ``ex`` is the level's :class:`repro.dist.exchange.ExchangeStats`.
    Numeric keys listed in :data:`_LEVEL_FIELDS` flow into the metrics
    dump; the kernel names feed the critical-path extractor.
    """
    return {
        "expand_seconds": expand_seconds,
        "exchange_seconds": ex.seconds,
        "claim_seconds": claim_seconds,
        "sync_seconds": sync_seconds,
        "wire_bytes": ex.wire_bytes,
        "intra_bytes": ex.tier_bytes["intra"],
        "inter_bytes": ex.tier_bytes["inter"],
        "intra_seconds": ex.tier_transfer_seconds["intra"]
        + ex.tier_latency_seconds["intra"],
        "inter_seconds": ex.tier_transfer_seconds["inter"]
        + ex.tier_latency_seconds["inter"],
        "overlap_ratio": overlap_ratio(overlapped_seconds, ex.seconds),
        "messages": ex.messages,
        "bound": bound,
        "expand_kernel": expand_kernel,
        "claim_kernel": claim_kernel,
    }


def _level_spans(cluster: ShardedCluster) -> list:
    if cluster.tracer.root is None:
        return []
    return cluster.tracer.root.find("level")


def dist_run_metrics(cluster: ShardedCluster, meta: dict | None = None) -> dict:
    """Serialise one finished cluster run to the stable metrics schema.

    Every dump is a checked run: :func:`verify_dist_attribution` and
    :func:`~repro.obs.critpath.verify_critpath` must hold, or this
    raises ``AssertionError`` (under ``python -O`` too).
    """
    from repro.obs.critpath import (
        critical_path_section,
        extract_cluster_critical_path,
        verify_critpath,
    )
    from repro.obs.whatif import rank_cluster_whatifs, whatif_section

    verify_dist_attribution(cluster)
    critpath = extract_cluster_critical_path(cluster)
    verify_critpath(critpath)
    kernels: dict[str, dict[str, float]] = {}
    totals = {
        "elapsed_seconds": cluster.clock,
        "launches": 0.0,
        "device_bytes": 0.0,
        "host_bytes": 0.0,
        "cached_bytes": 0.0,
        "instructions": 0.0,
    }
    for backend in cluster.backends:
        for name, row in backend.engine.kernel_summary().items():
            agg = kernels.setdefault(
                name, {field: 0.0 for field in _KERNEL_FIELDS}
            )
            for field in _KERNEL_FIELDS:
                agg[field] += row[field]
    for row in kernels.values():
        for field in totals:
            if field != "elapsed_seconds":
                totals[field] += row[field]
    levels = {}
    for span in _level_spans(cluster):
        levels[span.name] = {
            field: float(span.attrs.get(field, 0.0))
            for field in _LEVEL_FIELDS
        }
    device = cluster.backends[0].engine.device
    topology = cluster.topology
    base_meta = {
        "num_gpus": cluster.num_gpus,
        "num_nodes": topology.num_nodes,
        "gpus_per_node": topology.node_size,
        "fmt": cluster.fmt,
        "wire": cluster.codec.name,
        "schedule": cluster.schedule,
        "overlap": cluster.overlap,
        "link_bandwidth": topology.link_bandwidth,
        "inter_bandwidth": topology.tier_params("inter")[0],
        "contention": topology.contention,
        "git_sha": git_sha(),
        "schema_versions": {"metrics": METRICS_SCHEMA},
    }
    counters = cluster.metrics.counters
    tiers = {
        tier: {
            field: counters.get(f"dist.tier.{tier}.{field}", 0.0)
            for field in _TIER_FIELDS
        }
        for tier in TIERS
    }
    return {
        "schema": METRICS_SCHEMA,
        "meta": dict(sorted({**base_meta, **(meta or {})}.items())),
        "device": {
            "name": device.name,
            "dram_bandwidth": device.dram_bandwidth,
            "link_bandwidth": device.link_bandwidth,
            "memory_bytes": float(device.memory_bytes),
        },
        "totals": totals,
        "kernels": {
            name: dict(sorted(row.items()))
            for name, row in sorted(kernels.items())
        },
        **cluster.metrics.to_dict(),
        "tiers": tiers,
        "levels": levels,
        "critical_path": critical_path_section(critpath),
        "whatif": whatif_section(rank_cluster_whatifs(cluster)),
    }


def dist_report(cluster: ShardedCluster) -> str:
    """Per-level table of one finished cluster run."""
    spans = _level_spans(cluster)
    tiered = cluster.topology.num_nodes > 1
    header = (
        f"{'level':14s} {'frontier':>9s} {'edges':>9s} {'wire B':>9s} "
    )
    if tiered:
        header += f"{'inter B':>9s} "
    header += (
        f"{'expand us':>10s} {'exch us':>9s} {'claim us':>9s} "
        f"{'ovl':>5s} {'bound':>8s}"
    )
    topo_note = ""
    if tiered:
        topo_note = (
            f", {cluster.topology.num_nodes} nodes x "
            f"{cluster.topology.node_size} GPUs"
        )
    lines = [
        f"distributed run: {cluster.num_gpus} GPUs{topo_note}, "
        f"fmt={cluster.fmt}, wire={cluster.codec.name}, "
        f"schedule={cluster.schedule}"
        + (", overlap" if cluster.overlap else ""),
        header,
    ]
    for span in spans:
        a = span.attrs
        row = (
            f"{span.name:14s} "
            f"{int(a.get('frontier_size', 0)):9d} "
            f"{int(a.get('edges_expanded', 0)):9d} "
            f"{int(a.get('wire_bytes', 0)):9d} "
        )
        if tiered:
            row += f"{int(a.get('inter_bytes', 0)):9d} "
        row += (
            f"{1e6 * float(a.get('expand_seconds', 0.0)):10.2f} "
            f"{1e6 * float(a.get('exchange_seconds', 0.0)):9.2f} "
            f"{1e6 * float(a.get('claim_seconds', 0.0)):9.2f} "
            f"{float(a.get('overlap_ratio', 0.0)):5.2f} "
            f"{str(a.get('bound', '-')):>8s}"
        )
        lines.append(row)
    counters = cluster.metrics.counters
    wire = counters.get("dist.wire_bytes", 0.0)
    msgs = counters.get("dist.messages", 0.0)
    lines.append(
        f"total: {cluster.clock * 1e3:.4f} ms simulated, "
        f"{int(wire)} wire bytes in {int(msgs)} messages"
    )
    if tiered:
        for tier in TIERS:
            tb = counters.get(f"dist.tier.{tier}.bytes", 0.0)
            tm = counters.get(f"dist.tier.{tier}.messages", 0.0)
            ts = counters.get(
                f"dist.tier.{tier}.transfer_seconds", 0.0
            ) + counters.get(f"dist.tier.{tier}.latency_seconds", 0.0)
            lines.append(
                f"tier {tier}: {int(tb)} bytes in {int(tm)} messages, "
                f"{ts * 1e3:.4f} ms on the fabric"
            )
    hidden = counters.get("dist.overlapped_seconds", 0.0)
    if cluster.overlap:
        lines.append(
            f"overlap: {hidden * 1e3:.4f} ms of exchange hidden under compute"
        )
    from repro.obs.critpath import (
        critpath_report_line,
        extract_cluster_critical_path,
    )

    critpath = extract_cluster_critical_path(cluster)
    if critpath.segments:
        lines.append(critpath_report_line(critpath))
    return "\n".join(lines)


def verify_dist_attribution(cluster: ShardedCluster) -> None:
    """Assert the byte accounting of a finished cluster run is exact.

    Three layers, all exact equalities (every charge path records
    integer byte amounts, so float sums are exact):

    1. every shard engine passes the single-GPU per-array attribution
       invariant (:func:`repro.obs.counters.verify_attribution`);
    2. the wire counters decompose without loss or double count —
       ``id_bytes + value_bytes + header_bytes == wire_bytes`` and
       ``sum(tier bytes) == wire_bytes``;
    3. the per-level span annotations sum back to the counters, both in
       aggregate and per tier.

    Raises ``AssertionError`` naming the first violated equality.
    """
    for g, backend in enumerate(cluster.backends):
        try:
            verify_attribution(backend.engine)
        except AssertionError as exc:
            raise AssertionError(f"gpu {g}: {exc}") from exc
    counters = cluster.metrics.counters
    wire = counters.get("dist.wire_bytes", 0.0)
    parts = (
        counters.get("dist.id_bytes", 0.0)
        + counters.get("dist.value_bytes", 0.0)
        + counters.get("dist.header_bytes", 0.0)
    )
    if parts != wire:
        raise AssertionError(
            f"id+value+header bytes {parts} != wire bytes {wire}"
        )
    tier_total = sum(
        counters.get(f"dist.tier.{tier}.bytes", 0.0) for tier in TIERS
    )
    if tier_total != wire:
        raise AssertionError(
            f"per-tier bytes {tier_total} != wire bytes {wire}"
        )
    span_wire = 0.0
    span_tier = {tier: 0.0 for tier in TIERS}
    for span in _level_spans(cluster):
        span_wire += float(span.attrs.get("wire_bytes", 0))
        span_tier["intra"] += float(span.attrs.get("intra_bytes", 0))
        span_tier["inter"] += float(span.attrs.get("inter_bytes", 0))
    if span_wire != wire:
        raise AssertionError(
            f"span wire bytes {span_wire} != counter {wire}"
        )
    for tier in TIERS:
        counted = counters.get(f"dist.tier.{tier}.bytes", 0.0)
        if span_tier[tier] != counted:
            raise AssertionError(
                f"span {tier} bytes {span_tier[tier]} != counter {counted}"
            )
