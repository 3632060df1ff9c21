"""Sharded cluster: the machinery every distributed driver shares.

A :class:`ShardedCluster` binds one graph to ``num_gpus`` simulated
devices: the 1-D partition, one backend per shard (CSR or EFG — the
head-to-head the paper's introduction sets up), the link topology, the
wire codec and the exchange schedule.

The cluster owns the run and level lifecycle, so a driver (BFS, SSSP,
PageRank) is its state plus two kernel bodies per level:

* :meth:`algorithm` opens the run's algorithm span and records the
  end-of-run gauges; :meth:`level` opens one level span;
* :meth:`superstep` runs one bulk-synchronous level: the driver's
  per-GPU local phase, :meth:`pack` (dedupe/sort the discovered ids,
  optionally folding a value per id, bucket them by owner, charged at
  the device frontier width
  :data:`~repro.dist.wire.FRONTIER_ID_BYTES`), :meth:`exchange_buckets`
  (the all-to-all through the codec and topology), and the driver's
  per-GPU owner phase inside the claim kernel, which is charged the
  receive-side decode first.  It then prices the level, advances the
  clock and adds to the run totals the driver's result reports.

The cluster also owns the run's telemetry: a :class:`~repro.obs.spans.
Tracer` over the *cluster* clock (max-over-GPUs per phase, the
bulk-synchronous convention) whose level spans carry the expand /
exchange / claim breakdown, and a :class:`~repro.obs.metrics.
MetricsRegistry` of wire-byte counters — the same obs layer single-GPU
runs feed, so ``repro compare`` can gate distributed runs too.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.dist.exchange import SCHEDULES, ExchangeStats, exchange
from repro.dist.partition import VertexPartition
from repro.dist.topology import LinkTopology
from repro.dist.wire import FRONTIER_ID_BYTES, WireCodec, get_codec
from repro.formats.graph import Graph
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelLaunch
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, Tracer
from repro.primitives.unique import fold_duplicates, sorted_unique
from repro.traversal.backends import GraphBackend, build_backend

__all__ = ["DIST_FORMATS", "DistRunResult", "LevelCharge", "ShardedCluster"]

#: Shard storage formats the cluster can build.
DIST_FORMATS = ("csr", "efg")

#: Pack-kernel bookkeeping per candidate id (sort pass + owner bucket).
PACK_INSTR_PER_ID = 8.0


@dataclass
class LevelCharge:
    """The recorded pricing inputs of one bulk-synchronous level.

    The clock only ever advances through :meth:`ShardedCluster.
    superstep`, which appends one charge per level — so the
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
        # Run totals the drivers' results report.
        self.edges = 0
        self.wire_bytes = 0
        self.exchange_seconds = 0.0
        self.overlapped_seconds = 0.0
        self.messages = 0

    @contextmanager
    def algorithm(self, name: str, **attrs) -> Iterator[Span]:
        """The run's algorithm span; records the end-of-run gauges.

        ``name`` is also the namespace of the ``<name>.gteps`` gauge.
        """
        span = self.tracer.open(
            name, "algorithm", self.clock,
            {
                "num_gpus": self.num_gpus,
                "fmt": self.fmt,
                "wire": self.codec.name,
                "schedule": self.schedule,
                **attrs,
            },
        )
        try:
            yield span
            self._finish_run(name)
        finally:
            self.tracer.close(self.clock)

    @contextmanager
    def level(
        self, name: str, level: int, *, frontier: int | None = None
    ) -> Iterator[Span]:
        """One bulk-synchronous level span over the cluster clock.

        A ``frontier`` size is observed in ``dist.frontier_size`` and
        recorded on the span.
        """
        attrs: dict[str, Any] = {"level": level}
        if frontier is not None:
            self.metrics.observe("dist.frontier_size", frontier)
            attrs["frontier_size"] = frontier
        span = self.tracer.open(name, "level", self.clock, attrs)
        try:
            yield span
        finally:
            self.tracer.close(self.clock)

    def source_frontiers(self, source: int) -> list[np.ndarray]:
        """Per-GPU starting frontiers: ``source`` on its owner only."""
        owner = int(self.partition.owner(np.array([source]))[0])
        return [
            np.array([source], dtype=np.int64) if g == owner else
            np.empty(0, dtype=np.int64)
            for g in range(self.num_gpus)
        ]

    # -- the shared per-level steps ---------------------------------------

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
            folded: np.ndarray | None = None
            if values is None:
                uniq = sorted_unique(ids)
            else:
                uniq, folded = fold_duplicates(
                    ids, np.asarray(values, dtype=np.float64), combine
                )
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

    def superstep(
        self,
        span: Span,
        local: Callable[
            [int, GraphBackend], tuple[np.ndarray, np.ndarray | None] | None
        ],
        owner: Callable[
            [int, KernelLaunch, np.ndarray, np.ndarray | None], Any
        ],
        *,
        expand_kernel: str,
        claim_kernel: str,
        combine: str | None = None,
        sync_seconds: float = 0.0,
        sync_record: dict | None = None,
    ) -> list:
        """Run one bulk-synchronous level and price it; returns the
        ``owner`` results in GPU order.

        * ``local(g, backend)`` runs GPU ``g``'s ``expand_kernel`` work
          and returns ``(ids, values)`` — the discovered ids, with one
          value per id to fold by ``combine`` (``values`` is ``None``
          without one) — or ``None`` when it has nothing to send.  The
          cluster packs returned ids on the same engine, so the phase
          costs the max over GPUs of local work plus pack.
        * :meth:`exchange_buckets` delivers the buckets to their owners.
        * ``owner(g, kernel, ids, values)`` runs inside GPU ``g``'s
          ``claim_kernel`` launch, after the receive-side decode of the
          wire ids is charged to it; this phase also costs the max over
          GPUs.

        The level's time (overlap-aware, plus any serial post-level
        ``sync_seconds`` such as PageRank's scalar allreduce, whose
        step-record-shaped pricing inputs are ``sync_record``) advances
        the clock and is appended as a :class:`LevelCharge` for the
        replay engines.  ``span`` gets the canonical annotations
        (:func:`repro.dist.report.level_annotations`) plus
        ``edges_expanded``, the number of ids the local phase returned;
        edges, wire bytes, exchange and overlapped seconds and messages
        add to the run totals.
        """
        outgoing: list[list[np.ndarray]] = []
        out_values: list[list[np.ndarray] | None] = []
        expand_seconds = 0.0
        edges = 0
        for g, backend in enumerate(self.backends):
            before = backend.engine.elapsed_seconds
            found = local(g, backend)
            if found is None:
                buckets = [np.empty(0, dtype=np.int64)] * self.num_gpus
                vals = None
                if combine is not None:
                    vals = [np.empty(0, dtype=np.float64)] * self.num_gpus
            else:
                ids, values = found
                edges += int(ids.shape[0])
                buckets, vals = self.pack(g, ids, values, combine)
            outgoing.append(buckets)
            out_values.append(vals)
            expand_seconds = max(
                expand_seconds, backend.engine.elapsed_seconds - before
            )

        incoming, in_values, stats = self.exchange_buckets(
            outgoing, out_values if combine is not None else None, combine
        )

        results = []
        claim_seconds = 0.0
        for g, backend in enumerate(self.backends):
            engine = backend.engine
            before = engine.elapsed_seconds
            with engine.launch(claim_kernel) as k:
                received = int(stats.received_ids_per_gpu[g])
                if received:
                    k.instructions(self.codec.decode_instr_per_id * received)
                results.append(
                    owner(
                        g, k, incoming[g],
                        None if in_values is None else in_values[g],
                    )
                )
            claim_seconds = max(
                claim_seconds, engine.elapsed_seconds - before
            )

        overlapped = self._finish_level(
            span, expand_seconds, stats, claim_seconds,
            sync_seconds=sync_seconds,
            sync_record=sync_record,
            expand_kernel=expand_kernel,
            claim_kernel=claim_kernel,
        )
        span.annotate(edges_expanded=edges)
        self.edges += edges
        self.wire_bytes += stats.wire_bytes
        self.exchange_seconds += stats.seconds
        self.overlapped_seconds += overlapped
        self.messages += stats.messages
        return results

    def _finish_level(
        self,
        span: Span,
        expand_seconds: float,
        stats: ExchangeStats,
        claim_seconds: float,
        *,
        sync_seconds: float,
        sync_record: dict | None,
        expand_kernel: str,
        claim_kernel: str,
    ) -> float:
        """Price one level, advance the clock, record and annotate it;
        returns the overlapped seconds.

        Serial cost model (default): the three phases queue one after
        another.  With :attr:`overlap` the exchange streams buckets
        while expansion is still producing them (double-buffered
        pipeline), so the level pays ``max(expand, exchange)`` plus the
        claim that needs the full incoming set; ``overlapped`` is the
        time hidden under the longer phase.
        """
        # Function-level import: report imports this module at top level.
        from repro.dist.report import level_annotations

        if self.overlap:
            overlapped = min(expand_seconds, stats.seconds)
            total = max(expand_seconds, stats.seconds) + claim_seconds
            self.metrics.inc("dist.overlapped_seconds", overlapped)
        else:
            overlapped = 0.0
            total = expand_seconds + stats.seconds + claim_seconds
        self.clock += total + sync_seconds
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
            )
        )
        return overlapped

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

    def _finish_run(self, algorithm: str) -> None:
        """End-of-run gauges shared by every driver."""
        edges = self.edges
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

    def run_fields(self) -> dict:
        """The :class:`DistRunResult` fields of the run just finished."""
        return {
            "exchanged_bytes": self.wire_bytes,
            "exchange_seconds": self.exchange_seconds,
            "overlapped_seconds": self.overlapped_seconds,
            "sim_seconds": self.clock,
            "num_gpus": self.num_gpus,
            "wire": self.codec.name,
            "schedule": self.schedule,
            "messages": self.messages,
            "cluster": self,
        }


@dataclass(frozen=True)
class DistRunResult:
    """The fields every distributed driver's result shares."""

    #: Bytes that crossed inter-GPU links (encoded ids + headers).
    exchanged_bytes: int
    #: Share of :attr:`sim_seconds` spent in the exchange.
    exchange_seconds: float
    #: Exchange time hidden under the local phase by the overlap pipeline.
    overlapped_seconds: float
    sim_seconds: float
    num_gpus: int
    wire: str
    schedule: str
    messages: int
    cluster: ShardedCluster = field(repr=False)

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime in milliseconds."""
        return self.sim_seconds * 1e3
