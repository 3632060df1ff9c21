"""Sharded cluster: the machinery every distributed driver shares.

A :class:`ShardedCluster` binds one graph to ``num_gpus`` simulated
devices: the 1-D partition, one backend per shard (CSR or EFG — the
head-to-head the paper's introduction sets up), the link topology, the
wire codec and the exchange schedule.  Drivers (BFS, SSSP, PageRank)
use it for the three shared steps of every bulk-synchronous level —

* :meth:`pack` — dedupe/sort locally discovered ids (optionally folding
  a value per id), bucket them by owner, and charge the pack kernel at
  the device frontier width (:data:`~repro.dist.wire.FRONTIER_ID_BYTES`);
* :meth:`exchange_buckets` — run the all-to-all through the codec and
  topology, folding the stats into the cluster metrics;
* :meth:`charge_unpack` — the receive-side decode cost on each claim
  kernel.

The cluster also owns the run's telemetry: a :class:`~repro.obs.spans.
Tracer` over the *cluster* clock (max-over-GPUs per phase, the
bulk-synchronous convention) whose level spans carry the expand /
exchange / claim breakdown, and a :class:`~repro.obs.metrics.
MetricsRegistry` of wire-byte counters — the same obs layer single-GPU
runs feed, so ``repro compare`` can gate distributed runs too.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.dist.exchange import SCHEDULES, ExchangeStats, exchange
from repro.dist.partition import VertexPartition
from repro.dist.topology import LinkTopology
from repro.dist.wire import FRONTIER_ID_BYTES, WireCodec, get_codec
from repro.formats.graph import Graph
from repro.gpusim.device import DeviceSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, Tracer
from repro.traversal.backends import GraphBackend, build_backend

__all__ = ["DIST_FORMATS", "LevelCharge", "ShardedCluster"]

#: Shard storage formats the cluster can build.
DIST_FORMATS = ("csr", "efg")

#: Pack-kernel bookkeeping per candidate id (sort pass + owner bucket).
PACK_INSTR_PER_ID = 8.0


@dataclass
class LevelCharge:
    """The recorded pricing inputs of one bulk-synchronous level.

    The clock only ever advances through :meth:`ShardedCluster.
    finish_level`, which appends one charge per level — so the
    sequence is a complete replayable account of ``cluster.clock``:
    the critical-path extractor and the what-if engine re-price these
    records (no re-traversal) and reproduce the clock bit-exactly.
    ``sync_record`` holds the step-record-shaped inputs of a serial
    post-level synchronization (PageRank's scalar allreduce), when one
    was priced into the level.
    """

    name: str
    level: int
    expand_seconds: float
    claim_seconds: float
    exchange: ExchangeStats
    sync_seconds: float = 0.0
    sync_record: dict | None = None


class ShardedCluster:
    """One graph partitioned across ``num_gpus`` simulated devices."""

    def __init__(
        self,
        graph: Graph,
        partition: VertexPartition,
        backends: list[GraphBackend],
        topology: LinkTopology,
        codec: WireCodec,
        schedule: str,
        fmt: str,
        overlap: bool = False,
        record_wire: bool = False,
    ) -> None:
        self.graph = graph
        self.partition = partition
        self.backends = backends
        self.topology = topology
        self.codec = codec
        self.schedule = schedule
        self.fmt = fmt
        self.overlap = overlap
        self.record_wire = record_wire
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.clock = 0.0
        self.charges: list[LevelCharge] = []
        self.reset()

    @classmethod
    def build(
        cls,
        graph: Graph,
        num_gpus: int,
        device: DeviceSpec,
        fmt: str = "csr",
        wire: str = "auto",
        schedule: str = "flat",
        topology: LinkTopology | None = None,
        with_weights: bool = False,
        overlap: bool = False,
        record_wire: bool = False,
    ) -> "ShardedCluster":
        """Partition ``graph`` and stand up one backend per shard.

        ``overlap=True`` turns on the async exchange/compute pipeline
        in the cost model: each level's expand phase hides behind the
        exchange (or vice versa), so the level costs
        ``max(expand, exchange)`` plus the unoverlapped claim.

        ``record_wire=True`` additionally trial-encodes every concrete
        wire codec on every message, recording per-codec payload sizes
        the what-if engine needs to predict codec swaps.  Off by
        default: it multiplies functional encode work without changing
        any priced charge.
        """
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; pick from {SCHEDULES}"
            )
        if fmt not in DIST_FORMATS:
            raise ValueError(
                f"unsupported distributed format {fmt!r}; "
                f"pick from {DIST_FORMATS}"
            )
        partition = VertexPartition.even(graph.num_nodes, num_gpus)
        backends = []
        for g in range(num_gpus):
            shard = partition.subgraph(graph, g)
            wb = 4 * shard.num_edges if with_weights else 0
            backends.append(
                build_backend(fmt, shard, device, weight_bytes=wb)
            )
        if topology is None:
            topology = LinkTopology.for_device(device, num_gpus)
        elif topology.num_gpus != num_gpus:
            raise ValueError(
                f"topology is for {topology.num_gpus} GPUs, need {num_gpus}"
            )
        return cls(
            graph=graph,
            partition=partition,
            backends=backends,
            topology=topology,
            codec=get_codec(wire),
            schedule=schedule,
            fmt=fmt,
            overlap=overlap,
            record_wire=record_wire,
        )

    # -- run lifecycle ----------------------------------------------------

    @property
    def num_gpus(self) -> int:
        """Number of shards/devices."""
        return self.partition.num_gpus

    @property
    def num_nodes(self) -> int:
        """|V| of the full graph."""
        return self.graph.num_nodes

    def reset(self) -> None:
        """Fresh run: clear every engine timeline and the telemetry."""
        for b in self.backends:
            b.engine.reset_timeline()
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.clock = 0.0
        self.charges = []

    def advance(self, seconds: float) -> None:
        """Advance the cluster (bulk-synchronous) clock."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self.clock += seconds

    def open_algorithm(self, name: str, **attrs) -> Span:
        """Open the algorithm span (under the lazily created run root)."""
        return self.tracer.open(
            name, "algorithm", self.clock,
            {
                "num_gpus": self.num_gpus,
                "fmt": self.fmt,
                "wire": self.codec.name,
                "schedule": self.schedule,
                **attrs,
            },
        )

    def close_algorithm(self) -> None:
        """Close the algorithm span at the current cluster clock."""
        self.tracer.close(self.clock)

    @contextmanager
    def level(self, name: str, **attrs) -> Iterator[Span]:
        """One bulk-synchronous level span over the cluster clock."""
        span = self.tracer.open(name, "level", self.clock, attrs)
        try:
            yield span
        finally:
            self.tracer.close(self.clock)

    # -- the shared per-level steps ---------------------------------------

    def gpu_seconds(self, gpu: int) -> float:
        """Engine clock of one shard (for before/after deltas)."""
        return self.backends[gpu].engine.elapsed_seconds

    def pack(
        self,
        gpu: int,
        ids: np.ndarray,
        values: np.ndarray | None = None,
        combine: str | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
        """Dedupe + owner-bucket one GPU's discoveries; charge the kernel.

        Returns one sorted-unique id bucket per owner (and the folded
        values per bucket when ``values`` is given).  The bucket write
        is charged at the device frontier width — the wire encoding is
        charged later, on the link, by :meth:`exchange_buckets`.
        """
        backend = self.backends[gpu]
        ids = np.asarray(ids, dtype=np.int64)
        with backend.engine.launch("dist_pack") as k:
            uniq, inverse = np.unique(ids, return_inverse=True)
            folded: np.ndarray | None = None
            if values is not None:
                values = np.asarray(values, dtype=np.float64)
                if combine == "min":
                    folded = np.full(uniq.shape[0], np.inf, dtype=np.float64)
                    np.minimum.at(folded, inverse, values)
                elif combine == "sum":
                    folded = np.zeros(uniq.shape[0], dtype=np.float64)
                    np.add.at(folded, inverse, values)
                else:
                    raise ValueError(f"unknown combiner {combine!r}")
            cuts = np.searchsorted(uniq, self.partition.boundaries)
            buckets = [
                uniq[cuts[h] : cuts[h + 1]] for h in range(self.num_gpus)
            ]
            val_buckets = None
            if folded is not None:
                val_buckets = [
                    folded[cuts[h] : cuts[h + 1]] for h in range(self.num_gpus)
                ]
            k.instructions(
                PACK_INSTR_PER_ID * ids.shape[0]
                + self.codec.encode_instr_per_id * uniq.shape[0]
            )
            k.write("work:frontier", int(uniq.shape[0]), FRONTIER_ID_BYTES)
            if folded is not None:
                k.write("work:frontier", int(uniq.shape[0]), 4)
        return buckets, val_buckets

    def exchange_buckets(
        self,
        outgoing: list[list[np.ndarray]],
        values: list[list[np.ndarray]] | None = None,
        combine: str | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray] | None, ExchangeStats]:
        """All-to-all through the codec/topology; fold stats into metrics."""
        incoming, in_vals, stats = exchange(
            outgoing,
            self.partition,
            self.topology,
            self.codec,
            schedule=self.schedule,
            values=values,
            combine=combine,
            record_trials=self.record_wire,
        )
        m = self.metrics
        m.inc("dist.wire_bytes", stats.wire_bytes)
        m.inc("dist.id_bytes", stats.id_bytes)
        m.inc("dist.value_bytes", stats.value_bytes)
        m.inc("dist.header_bytes", stats.header_bytes)
        m.inc("dist.messages", stats.messages)
        m.inc("dist.sent_ids", stats.sent_ids)
        for name, count in stats.codec_messages.items():
            m.inc(f"dist.codec.{name}", count)
        for name, instr in stats.codec_instructions.items():
            m.inc(f"dist.codec_instr.{name}", instr)
        for tier in stats.tier_bytes:
            m.inc(f"dist.tier.{tier}.bytes", stats.tier_bytes[tier])
            m.inc(f"dist.tier.{tier}.messages", stats.tier_messages[tier])
            m.inc(
                f"dist.tier.{tier}.transfer_seconds",
                stats.tier_transfer_seconds[tier],
            )
            m.inc(
                f"dist.tier.{tier}.latency_seconds",
                stats.tier_latency_seconds[tier],
            )
        m.observe("dist.level_wire_bytes", stats.wire_bytes)
        return incoming, in_vals, stats

    def charge_unpack(self, kernel, gpu: int, stats: ExchangeStats) -> None:
        """Receive-side decode instructions for one GPU's wire ids."""
        received = int(stats.received_ids_per_gpu[gpu])
        if received:
            kernel.instructions(self.codec.decode_instr_per_id * received)

    def level_seconds(
        self,
        expand_seconds: float,
        stats: ExchangeStats,
        claim_seconds: float,
    ) -> tuple[float, float]:
        """``(total, overlapped)`` seconds of one bulk-synchronous level.

        Serial cost model (default): the three phases queue one after
        another.  With :attr:`overlap` the exchange streams buckets
        while expansion is still producing them (double-buffered
        pipeline), so the level pays ``max(expand, exchange)`` plus the
        claim that needs the full incoming set; ``overlapped`` is the
        time hidden under the longer phase.
        """
        if not self.overlap:
            return expand_seconds + stats.seconds + claim_seconds, 0.0
        overlapped = min(expand_seconds, stats.seconds)
        total = max(expand_seconds, stats.seconds) + claim_seconds
        self.metrics.inc("dist.overlapped_seconds", overlapped)
        return total, overlapped

    def finish_level(
        self,
        span: Span,
        expand_seconds: float,
        stats: ExchangeStats,
        claim_seconds: float,
        *,
        sync_seconds: float = 0.0,
        sync_record: dict | None = None,
        expand_kernel: str = "",
        claim_kernel: str = "",
        **annotations,
    ) -> tuple[float, float]:
        """Price one level, advance the clock, record and annotate it.

        The shared tail of every driver's level: compute the level's
        wall-clock via :meth:`level_seconds` (overlap-aware), advance
        the cluster clock (plus any serial post-level ``sync_seconds``,
        e.g. PageRank's scalar allreduce), append the
        :class:`LevelCharge` the replay engines consume, and attach the
        canonical annotations (:func:`repro.dist.report.
        level_annotations`) plus any driver-specific ``annotations`` to
        the level span.  Returns ``(total, overlapped)`` seconds.
        """
        # Function-level import: report imports this module at top level.
        from repro.dist.report import level_annotations

        total, overlapped = self.level_seconds(
            expand_seconds, stats, claim_seconds
        )
        advance = total + sync_seconds if sync_seconds else total
        self.advance(advance)
        self.charges.append(
            LevelCharge(
                name=span.name,
                level=int(span.attrs.get("level", len(self.charges))),
                expand_seconds=expand_seconds,
                claim_seconds=claim_seconds,
                exchange=stats,
                sync_seconds=sync_seconds,
                sync_record=sync_record,
            )
        )
        span.annotate(
            **level_annotations(
                expand_seconds,
                stats,
                claim_seconds,
                overlapped,
                self.level_bound(expand_seconds, stats, claim_seconds),
                sync_seconds=sync_seconds,
                expand_kernel=expand_kernel,
                claim_kernel=claim_kernel,
            ),
            **annotations,
        )
        return total, overlapped

    @staticmethod
    def level_bound(
        expand_seconds: float, stats: ExchangeStats, claim_seconds: float
    ) -> str:
        """Label the binding term of one level — ``link`` means the
        exchange serialization dominated (the scaling bottleneck the
        wire codecs attack), ``latency`` the per-message cost."""
        terms = {
            "expand": expand_seconds,
            "link": stats.transfer_seconds,
            "latency": stats.latency_seconds,
            "claim": claim_seconds,
        }
        return max(terms.items(), key=lambda kv: kv[1])[0]

    def finish_run(self, edges: int, algorithm: str) -> None:
        """End-of-run gauges shared by every driver."""
        m = self.metrics
        m.set_gauge("dist.sim_seconds", self.clock)
        m.set_gauge("dist.num_gpus", float(self.num_gpus))
        m.set_gauge("dist.num_nodes", float(self.topology.num_nodes))
        m.set_gauge("dist.overlap", float(self.overlap))
        if self.clock > 0:
            m.set_gauge(f"{algorithm}.gteps", edges / self.clock / 1e9)
        wire = self.metrics.counters.get("dist.wire_bytes", 0.0)
        if edges:
            m.set_gauge("dist.wire_bytes_per_edge", wire / edges)
