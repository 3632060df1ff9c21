"""Sharded cluster: the machinery every distributed driver shares.

A :class:`ShardedCluster` binds one graph to ``num_gpus`` simulated
devices: the 1-D partition, one backend per shard (CSR or EFG — the
head-to-head the paper's introduction sets up), the link topology, the
wire codec and the exchange schedule.

The cluster owns the run and level lifecycle, so a driver (BFS, SSSP,
PageRank) is its state plus two per-GPU phases per level, which run
its single-GPU kernel bodies under ``dist_`` kernel names:

* :meth:`algorithm` starts a fresh run and opens its algorithm span;
  on exit it builds the run's metrics; :meth:`level` opens one level
  span;
* :meth:`superstep` runs one bulk-synchronous level: the driver's
  per-GPU local phase, :meth:`pack` (dedupe/sort the discovered ids,
  optionally folding a value per id, bucket them by owner, charged at
  the device frontier width
  :data:`~repro.dist.wire.FRONTIER_ID_BYTES`, and, for a driver that
  keeps visited views, marking the remote ids it sends in the sending
  GPU's view), :meth:`exchange_buckets`
  (the all-to-all through the codec and topology), and the driver's
  per-GPU owner phase inside the claim kernel, which is charged the
  receive-side decode first.  It then prices the level, advances the
  clock and appends the level's :class:`LevelCharge`.

The charges are the run's one per-level ledger: the run totals a
driver's result reports, the dump's ``levels`` section, the per-level
report, the critical path and the what-if replay all sum or re-price
them in level order.  The cluster also owns the run's telemetry: a
:class:`~repro.obs.spans.Tracer` over the *cluster* clock
(max-over-GPUs per phase, the bulk-synchronous convention) whose level
spans hold the drivers' facts (frontier size, claimed ids), and a
:class:`~repro.obs.metrics.MetricsRegistry` of wire-byte counters.
Nothing writes the registry while the run goes: when the run ends it
is built from the charges (and the frontier histogram from the level
spans), the same obs layer single-GPU runs feed, so ``repro compare``
can gate distributed runs too.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.dist.exchange import SCHEDULES, ExchangeStats, exchange
from repro.dist.partition import VertexPartition
from repro.dist.topology import LinkTopology
from repro.dist.wire import (
    FRONTIER_ID_BYTES,
    VALUE_BYTES,
    WireCodec,
    get_codec,
)
from repro.formats.graph import Graph
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelLaunch
from repro.obs.critpath import level_seconds
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
    ``sync_record`` holds the step record of a serial post-level
    synchronization (PageRank's scalar allreduce), when one was priced
    into the level; ``sync_seconds`` is its price,
    :meth:`~repro.dist.topology.LinkTopology.step_seconds` of it.
    ``edges`` counts the ids the level's local phase expanded,
    ``filtered`` those of them a visited view dropped before the pack
    (``None`` for a driver without views, so ``edges - filtered`` ids
    were handed to the pack) and ``overlapped_seconds`` the exchange
    time hidden under the longer phase (0 without overlap).
    """

    name: str
    level: int
    expand_seconds: float
    claim_seconds: float
    exchange: ExchangeStats
    sync_seconds: float = 0.0
    sync_record: dict | None = None
    #: The level's expand and claim kernel names (critical-path labels).
    expand_kernel: str = ""
    claim_kernel: str = ""
    edges: int = 0
    filtered: int | None = None
    #: Ids handed to the pack, counted at the pack call.
    packed: int = 0
    overlapped_seconds: float = 0.0

    @property
    def bound(self) -> str:
        """The binding term of the level — ``link`` means the exchange
        serialization dominated (the scaling bottleneck the wire codecs
        attack), ``latency`` the per-message cost."""
        terms = {
            "expand": self.expand_seconds,
            "link": self.exchange.transfer_seconds,
            "latency": self.exchange.latency_seconds,
            "claim": self.claim_seconds,
        }
        return max(terms.items(), key=lambda kv: kv[1])[0]

    @property
    def overlap_ratio(self) -> float:
        """Fraction of the exchange hidden under compute.

        Guarded against zero- (and degenerate negative-) duration
        exchanges — the empty frontier on a traversal's last level
        produces a level with no wire traffic, whose ratio is defined
        as 0.0 rather than a division error.
        """
        if self.exchange.seconds <= 0.0:
            return 0.0
        return self.overlapped_seconds / self.exchange.seconds


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
    ) -> None:
        self.graph = graph
        self.partition = partition
        self.backends = backends
        self.topology = topology
        self.codec = codec
        self.schedule = schedule
        self.fmt = fmt
        self.overlap = overlap
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
    ) -> "ShardedCluster":
        """Partition ``graph`` and stand up one backend per shard.

        ``overlap=True`` turns on the async exchange/compute pipeline
        in the cost model: each level's expand phase hides behind the
        exchange (or vice versa), so the level costs
        ``max(expand, exchange)`` plus the unoverlapped claim.
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
        self.charges: list[LevelCharge] = []

    @property
    def edges(self) -> int:
        """Ids the local phases expanded so far, summed over the charges."""
        return sum(charge.edges for charge in self.charges)

    @contextmanager
    def algorithm(self, name: str, **attrs) -> Iterator[Span]:
        """One run: :meth:`reset`, then the run's algorithm span; on a
        normal exit the run's metrics are built (:meth:`_finish_run`)
        and the run is checked: its byte accounting
        (:func:`~repro.dist.report.verify_dist_attribution`) and its
        critical path (:func:`~repro.obs.critpath.verify_critpath`) must
        hold, or this raises ``AssertionError`` (under ``python -O``
        too).  A run that raises is not checked; its exception
        propagates unchanged.

        ``name`` is also the namespace of the ``<name>.gteps`` gauge.
        """
        self.reset()
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
        from repro.dist.report import verify_dist_attribution
        from repro.obs.critpath import (
            extract_cluster_critical_path,
            verify_critpath,
        )

        verify_dist_attribution(self)
        verify_critpath(extract_cluster_critical_path(self))

    @contextmanager
    def level(
        self, name: str, level: int, *, frontier: int | None = None
    ) -> Iterator[Span]:
        """One bulk-synchronous level span over the cluster clock.

        A ``frontier`` size is recorded on the span (the run's
        ``dist.frontier_size`` histogram is read off it at run exit).
        """
        attrs: dict[str, Any] = {"level": level}
        if frontier is not None:
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
        view: np.ndarray | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
        """Dedupe + owner-bucket one GPU's discoveries; charge the kernel.

        Returns one sorted-unique id bucket per owner (and the folded
        values per bucket when ``values`` is given).  The bucket write
        is charged at the device frontier width — the wire encoding is
        charged later, on the link, by :meth:`exchange_buckets`.  With a
        visited ``view`` (``nv`` flags), the ids of the remote buckets
        are set in it: their owners hold them from the next claim on, so
        the sender need never send them again.
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
                k.write("work:frontier", int(uniq.shape[0]), VALUE_BYTES)
            if view is not None:
                sent = np.concatenate(
                    (uniq[: cuts[gpu]], uniq[cuts[gpu + 1] :])
                )
                view[sent] = True
                # One 1-byte flag write per sent id, in sorted order (a
                # write stream, charged like the read stream it mirrors).
                k.read_stream("work:visited", sent, 1)
        return buckets, val_buckets

    def exchange_buckets(
        self,
        outgoing: list[list[np.ndarray]],
        values: list[list[np.ndarray]] | None = None,
        combine: str | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray] | None, ExchangeStats]:
        """All-to-all of the packed buckets through the codec/topology."""
        return exchange(
            outgoing,
            self.partition,
            self.topology,
            self.codec,
            schedule=self.schedule,
            values=values,
            combine=combine,
        )

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
        sync_record: dict | None = None,
        views: list[np.ndarray] | None = None,
    ) -> list:
        """Run one bulk-synchronous level and price it; returns the
        ``owner`` results in GPU order.

        * ``local(g, backend)`` runs GPU ``g``'s ``expand_kernel`` work
          and returns ``(ids, values)`` — the discovered ids, with one
          value per id to fold by ``combine`` (``values`` is ``None``
          without one) — or ``None`` when it has nothing to send.  The
          cluster packs returned ids on the same engine, so the phase
          costs the max over GPUs of local work plus pack.
        * With ``views`` (one visited view of ``nv`` flags per GPU, BFS's
          record of what the owners already hold), ``local`` returns
          ``(ids, values, filtered)``: the ids it kept and the number of
          expanded ids it dropped because ``views[g]`` held them.  The
          pack then marks the remote ids it sends in ``views[g]``.
        * :meth:`exchange_buckets` delivers the buckets to their owners.
        * ``owner(g, kernel, ids, values)`` runs inside GPU ``g``'s
          ``claim_kernel`` launch, after the receive-side decode of the
          wire ids is charged to it; this phase also costs the max over
          GPUs.

        The level's time (overlap-aware, plus any serial post-level
        sync such as PageRank's scalar allreduce, priced from its step
        record ``sync_record``) advances the clock and is appended as a
        :class:`LevelCharge` named after ``span``, with the number of ids
        the local phase expanded (kept plus filtered) as its ``edges``.
        """
        outgoing: list[list[np.ndarray]] = []
        out_values: list[list[np.ndarray] | None] = []
        expand_seconds = 0.0
        edges = packed = 0
        filtered = None if views is None else 0
        for g, backend in enumerate(self.backends):
            before = backend.engine.elapsed_seconds
            found = local(g, backend)
            if found is None:
                buckets = [np.empty(0, dtype=np.int64)] * self.num_gpus
                vals = None
                if combine is not None:
                    vals = [np.empty(0, dtype=np.float64)] * self.num_gpus
            else:
                if views is None:
                    ids, values = found
                    view = None
                else:
                    ids, values, dropped = found
                    filtered += dropped
                    edges += dropped
                    view = views[g]
                edges += int(ids.shape[0])
                packed += int(ids.shape[0])
                buckets, vals = self.pack(g, ids, values, combine, view)
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

        self._finish_level(
            span, expand_seconds, stats, claim_seconds, edges,
            filtered=filtered,
            packed=packed,
            sync_record=sync_record,
            expand_kernel=expand_kernel,
            claim_kernel=claim_kernel,
        )
        return results

    def _finish_level(
        self,
        span: Span,
        expand_seconds: float,
        stats: ExchangeStats,
        claim_seconds: float,
        edges: int,
        *,
        filtered: int | None,
        packed: int,
        sync_record: dict | None,
        expand_kernel: str,
        claim_kernel: str,
    ) -> None:
        """Price one level, advance the clock and record its charge.

        Serial cost model (default): the three phases queue one after
        another.  With :attr:`overlap` the exchange streams buckets
        while expansion is still producing them (double-buffered
        pipeline), so the level pays ``max(expand, exchange)`` plus the
        claim that needs the full incoming set; the overlapped time is
        the time hidden under the longer phase.
        """
        sync_seconds = 0.0
        if sync_record is not None:
            sync_seconds = self.topology.step_seconds(sync_record)
        overlapped = 0.0
        if self.overlap:
            overlapped = min(expand_seconds, stats.seconds)
        self.clock += level_seconds(
            expand_seconds, stats.seconds, claim_seconds, sync_seconds,
            self.overlap,
        )
        self.charges.append(
            LevelCharge(
                name=span.name,
                level=int(span.attrs.get("level", len(self.charges))),
                expand_seconds=expand_seconds,
                claim_seconds=claim_seconds,
                exchange=stats,
                sync_seconds=sync_seconds,
                sync_record=sync_record,
                expand_kernel=expand_kernel,
                claim_kernel=claim_kernel,
                edges=edges,
                filtered=filtered,
                packed=packed,
                overlapped_seconds=overlapped,
            )
        )

    def _finish_run(self, algorithm: str) -> None:
        """Build the run's registry from its level charges and spans.

        Counters add one value per charge, in level order (so every
        float total is the running tally's, bit for bit); every
        exchange sets all tier keys, the overlap counter exists only
        under overlap and the filtered-ids counter only with views.
        """
        m = MetricsRegistry()
        for span in self.tracer.root.find("level"):
            if "frontier_size" in span.attrs:
                m.observe("dist.frontier_size", span.attrs["frontier_size"])
        for charge in self.charges:
            ex = charge.exchange
            m.inc("dist.wire_bytes", ex.wire_bytes)
            m.inc("dist.id_bytes", ex.id_bytes)
            m.inc("dist.value_bytes", ex.value_bytes)
            m.inc("dist.header_bytes", ex.header_bytes)
            m.inc("dist.messages", ex.messages)
            m.inc("dist.sent_ids", ex.sent_ids)
            for name, count in ex.codec_messages.items():
                m.inc(f"dist.codec.{name}", count)
            for name, instr in ex.codec_instructions.items():
                m.inc(f"dist.codec_instr.{name}", instr)
            for tier in ex.tier_bytes:
                t = f"dist.tier.{tier}"
                m.inc(f"{t}.bytes", ex.tier_bytes[tier])
                m.inc(f"{t}.messages", ex.tier_messages[tier])
                m.inc(f"{t}.transfer_seconds", ex.tier_transfer_seconds[tier])
                m.inc(f"{t}.latency_seconds", ex.tier_latency_seconds[tier])
            m.observe("dist.level_wire_bytes", ex.wire_bytes)
            if self.overlap:
                m.inc("dist.overlapped_seconds", charge.overlapped_seconds)
            if charge.filtered is not None:
                m.inc("dist.filtered_ids", charge.filtered)
        edges = self.edges
        m.set_gauge("dist.sim_seconds", self.clock)
        m.set_gauge("dist.num_gpus", float(self.num_gpus))
        m.set_gauge("dist.num_nodes", float(self.topology.num_nodes))
        m.set_gauge("dist.overlap", float(self.overlap))
        if self.clock > 0:
            m.set_gauge(f"{algorithm}.gteps", edges / self.clock / 1e9)
        wire = m.counters.get("dist.wire_bytes", 0.0)
        if edges:
            m.set_gauge("dist.wire_bytes_per_edge", wire / edges)
        self.metrics = m

    def run_fields(self) -> dict:
        """The :class:`DistRunResult` fields of the run just finished.

        The totals are accumulated over the level charges one level at a
        time, in level order (``sum`` may compensate float rounding).
        """
        wire_bytes = messages = 0
        exchange_seconds = overlapped_seconds = 0.0
        for charge in self.charges:
            wire_bytes += charge.exchange.wire_bytes
            messages += charge.exchange.messages
            exchange_seconds += charge.exchange.seconds
            overlapped_seconds += charge.overlapped_seconds
        return {
            "exchanged_bytes": wire_bytes,
            "exchange_seconds": exchange_seconds,
            "overlapped_seconds": overlapped_seconds,
            "sim_seconds": self.clock,
            "num_gpus": self.num_gpus,
            "wire": self.codec.name,
            "schedule": self.schedule,
            "messages": messages,
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
