"""Metrics dumps and text reports for distributed runs.

:func:`dist_run_metrics` serialises one cluster run into the same
versioned schema single-GPU :func:`repro.obs.metrics.run_metrics` uses
— aggregated per-kernel rows (summed over GPUs), the cluster registry
(wire-byte counters, codec tallies, built from the level charges when
the run ends), and per-level exchange breakdowns read off the level
charges (:class:`~repro.dist.cluster.LevelCharge`), with only the
drivers' facts (frontier size) taken from the level spans.  Identical
runs produce byte-identical dumps, so ``repro compare`` gates
distributed workloads exactly like single-GPU ones.

:func:`dist_report` renders the per-level story as a table: frontier
size, expanded edges (and, for a run with visited views, the ids the
views dropped), wire bytes (split intra/inter on two-tier topologies),
the expand/exchange/claim split, and which term bound each level.

:func:`verify_dist_attribution` extends the single-GPU attribution
invariant (:func:`repro.obs.counters.verify_attribution`) to cluster
runs: every shard engine's per-array bytes must sum exactly to its
launch columns, and every level charge must decompose exactly — its
exchange's ``id + value + header == wire`` and ``intra + inter ==
wire``, and its expanded ids split into filtered and packed ids.
"""

from __future__ import annotations

from repro.dist.cluster import LevelCharge, ShardedCluster
from repro.dist.topology import TIERS
from repro.obs.counters import verify_attribution
from repro.obs.metrics import METRICS_SCHEMA, git_sha

__all__ = [
    "dist_run_metrics",
    "dist_report",
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

#: Per-tier counter suffixes exported in the ``tiers`` section.
_TIER_FIELDS = ("bytes", "messages", "transfer_seconds", "latency_seconds")


def _levels(cluster: ShardedCluster) -> list[tuple[LevelCharge, dict]]:
    """Each level charge, in level order, with its level span's driver
    facts (matched by name)."""
    root = cluster.tracer.root
    spans = root.find("level") if root is not None else []
    facts = {span.name: span.attrs for span in spans}
    return [(charge, facts.get(charge.name, {})) for charge in cluster.charges]


def _level_section(charge: LevelCharge, facts: dict) -> dict:
    """One level's numeric row of the dump's ``levels`` section."""
    ex = charge.exchange
    row = {
        "frontier_size": float(facts.get("frontier_size", 0.0)),
        "edges_expanded": float(charge.edges),
        "wire_bytes": float(ex.wire_bytes),
        "intra_bytes": float(ex.tier_bytes["intra"]),
        "inter_bytes": float(ex.tier_bytes["inter"]),
        "overlap_ratio": charge.overlap_ratio,
        "messages": float(ex.messages),
        "expand_seconds": charge.expand_seconds,
        "exchange_seconds": ex.seconds,
        "claim_seconds": charge.claim_seconds,
        "sync_seconds": charge.sync_seconds,
        "intra_seconds": ex.tier_seconds("intra"),
        "inter_seconds": ex.tier_seconds("inter"),
    }
    if charge.filtered is not None:
        row["filtered_ids"] = float(charge.filtered)
    return row


def dist_run_metrics(cluster: ShardedCluster, meta: dict | None = None) -> dict:
    """Serialise one finished cluster run to the stable metrics schema.

    The run was checked when it ended (:meth:`~repro.dist.cluster.
    ShardedCluster.algorithm`), so a dump needs no check of its own.
    """
    from repro.obs.critpath import (
        critical_path_section,
        extract_cluster_critical_path,
    )
    from repro.obs.whatif import rank_cluster_whatifs, whatif_section

    critpath = extract_cluster_critical_path(cluster)
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
    levels = {
        charge.name: _level_section(charge, facts)
        for charge, facts in _levels(cluster)
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
    tiered = cluster.topology.num_nodes > 1
    viewed = any(charge.filtered is not None for charge in cluster.charges)
    header = f"{'level':14s} {'frontier':>9s} {'edges':>9s} "
    if viewed:
        header += f"{'filtered':>9s} "
    header += f"{'wire B':>9s} "
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
    for charge, facts in _levels(cluster):
        ex = charge.exchange
        row = (
            f"{charge.name:14s} "
            f"{int(facts.get('frontier_size', 0)):9d} "
            f"{charge.edges:9d} "
        )
        if viewed:
            row += f"{charge.filtered or 0:9d} "
        row += f"{int(ex.wire_bytes):9d} "
        if tiered:
            row += f"{int(ex.tier_bytes['inter']):9d} "
        row += (
            f"{1e6 * charge.expand_seconds:10.2f} "
            f"{1e6 * ex.seconds:9.2f} "
            f"{1e6 * charge.claim_seconds:9.2f} "
            f"{charge.overlap_ratio:5.2f} "
            f"{charge.bound:>8s}"
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

    All exact equalities (every charge path records integer amounts),
    checked per level so no error can cancel across levels:

    1. every shard engine passes the single-GPU per-array attribution
       invariant (:func:`repro.obs.counters.verify_attribution`);
    2. each level's :class:`~repro.dist.exchange.ExchangeStats`
       decomposes without loss or double count — ``id_bytes +
       value_bytes + header_bytes == wire_bytes`` and ``sum(tier
       bytes) == wire_bytes``;
    3. each level's expanded ids are exactly the ids a visited view
       filtered plus the ids handed to the pack (so a view's drops never
       leak out of ``edges``).

    The ``dist.*`` counters are built from these charges at run exit,
    so they need no check of their own.  Raises ``AssertionError``
    naming the level and the first violated equality.
    """
    for g, backend in enumerate(cluster.backends):
        try:
            verify_attribution(backend.engine)
        except AssertionError as exc:
            raise AssertionError(f"gpu {g}: {exc}") from exc
    for charge in cluster.charges:
        ex = charge.exchange
        parts = ex.id_bytes + ex.value_bytes + ex.header_bytes
        if parts != ex.wire_bytes:
            raise AssertionError(
                f"{charge.name}: id+value+header bytes {parts} != wire "
                f"bytes {ex.wire_bytes}"
            )
        tiers = sum(ex.tier_bytes[tier] for tier in TIERS)
        if tiers != ex.wire_bytes:
            raise AssertionError(
                f"{charge.name}: per-tier bytes {tiers} != wire bytes "
                f"{ex.wire_bytes}"
            )
        dropped = charge.filtered or 0
        if charge.edges != dropped + charge.packed:
            raise AssertionError(
                f"{charge.name}: expanded ids {charge.edges} != filtered "
                f"{dropped} + packed {charge.packed}"
            )
