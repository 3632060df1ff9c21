"""Graph-as-a-service: one resident graph, batched traversal queries.

The paper's motivating deployment (Sec. I, VIII-F) is a query service:
the compressed graph is encoded once, resident in device memory, and
answers a stream of point queries — "BFS levels from vertex s", "is t
reachable from s" — arriving concurrently from many clients.  Running
each query as an independent :func:`~repro.traversal.bfs.bfs` wastes
the defining property of that workload: concurrent frontiers overlap
heavily, so the expensive compressed-list decodes are repeated up to
64×.

:class:`GraphService` is the batching layer that recovers the overlap:

* **One resident graph per epoch.**  The service owns a single
  immutable graph identified by its content-hash *epoch* (see
  :mod:`repro.serve.container`).  Every cached artifact is keyed by it,
  so results can never leak across graph versions.
* **Admission control.**  ``submit`` enforces a bounded pending queue
  (overload sheds load at the door, not after burning decode work) and
  per-query deadlines measured on the simulated clock.
* **Wave batching.**  ``step_wave`` drains the queue in FIFO order into
  one :func:`~repro.traversal.msbfs.msbfs` wave of at most 64 *distinct*
  sources; concurrent queries for the same source coalesce into one
  mask lane and always join the wave.  Expired queries are answered
  ``expired`` without ever occupying a lane.
* **Result LRU.**  Completed level arrays are cached ``(source,
  epoch)``; repeat queries for hot sources are answered without
  touching the device at all.  A level array is the read-only int32
  row view ``msbfs`` hands out, so coalesced queries, the LRU and every
  later hit share one row, and none of them can write through it.

Every result is bit-identical to a stand-alone single-source
:func:`~repro.traversal.bfs.bfs` — batching, caching, and wave
boundaries are invisible to correctness (asserted by the test suite).
All activity flows through the :mod:`repro.obs` stack: waves appear as
tracer spans, admission/cache/wave totals as registry counters, so
``repro compare`` can diff serving behaviour like any other run.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.formats.graph import Graph
from repro.gpusim.device import TITAN_XP
from repro.serve.container import GraphContainer
from repro.serve.telemetry import ServiceTelemetry
from repro.traversal.backends import GraphBackend, build_backend
from repro.traversal.msbfs import MAX_SOURCES, msbfs

__all__ = ["QueryResult", "GraphService"]

#: Default bound on queries waiting for a lane (admission control).
DEFAULT_MAX_PENDING = 1024

#: Default number of ``(source, epoch)`` level arrays kept in the LRU.
DEFAULT_RESULT_CACHE = 256


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one submitted query.

    ``status`` is one of:

    * ``"done"``    — traversed in wave ``wave``; ``levels`` is set.
    * ``"cached"``  — answered from the result LRU at submit time.
    * ``"rejected"``— shed at admission (queue full); never enqueued.
    * ``"expired"`` — deadline passed before a lane was free; dropped
      without occupying one.

    ``levels`` is a read-only int32 view of the serving wave's lane row
    (see :class:`~repro.traversal.msbfs.MSBFSResult`).
    """

    qid: int
    source: int
    status: str
    levels: np.ndarray | None = None
    #: Index of the wave that served it (-1 when no wave ran it).
    wave: int = -1
    submitted_s: float = 0.0
    #: When the serving wave began; ``completed_s`` when no wave ran it.
    started_s: float = 0.0
    completed_s: float = 0.0
    #: Client-provided workload label (telemetry dimension).
    source_class: str = "any"

    @property
    def ok(self) -> bool:
        return self.status in ("done", "cached")


@dataclass
class _Pending:
    qid: int
    source: int
    #: Absolute simulated-clock deadline (None = never expires).
    deadline_s: float | None
    submitted_s: float = 0.0
    source_class: str = "any"


@dataclass
class GraphService:
    """A resident graph plus the request queue multiplexing onto it.

    The service is single-threaded and clocked by the *simulated*
    device time (``engine.elapsed_seconds``): deadlines and throughput
    are properties of the modelled GPU, not of the host Python process,
    which keeps every serve run byte-deterministic.
    """

    backend: GraphBackend
    #: Content identity of the resident graph (see container epochs).
    epoch: str
    max_pending: int = DEFAULT_MAX_PENDING
    result_cache_entries: int = DEFAULT_RESULT_CACHE
    max_wave: int = MAX_SOURCES

    _pending: deque = field(default_factory=deque, repr=False)
    _results: list = field(default_factory=list, repr=False)
    _cache: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _next_qid: int = 0
    _num_waves: int = 0

    def __post_init__(self) -> None:
        if not (1 <= self.max_wave <= MAX_SOURCES):
            raise ValueError(
                f"max_wave must be in [1, {MAX_SOURCES}], got {self.max_wave}"
            )
        # One service lifetime = one timeline: waves stack onto a single
        # cumulative trace so queries/sec is elapsed-clock meaningful.
        self.backend.engine.reset_timeline()
        if self.backend.cache is not None:
            self.backend.cache.reset_stats()

    # -- construction -------------------------------------------------

    @classmethod
    def from_graph(
        cls, graph: Graph, *, fmt: str = "efg",
        device=None, cache_kb: int = 256, **kwargs
    ) -> "GraphService":
        """Stand a service up on an in-memory graph (epoch computed)."""
        epoch = GraphContainer.from_graph(graph).epoch
        backend = build_backend(
            fmt, graph, device or TITAN_XP.scaled(2048), cache_kb=cache_kb
        )
        return cls(backend=backend, epoch=epoch, **kwargs)

    # -- clock & introspection ----------------------------------------

    @property
    def clock(self) -> float:
        """Current simulated time (seconds since service start)."""
        return self.backend.engine.elapsed_seconds

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    @property
    def num_waves(self) -> int:
        return self._num_waves

    @property
    def results(self) -> list:
        """All results recorded so far, in completion order."""
        return list(self._results)

    @property
    def telemetry(self) -> ServiceTelemetry:
        """Serving statistics computed from :attr:`results` as of now."""
        return ServiceTelemetry(self._results, self.clock)

    # -- request path -------------------------------------------------

    def submit(
        self, source: int, deadline_s: float | None = None,
        source_class: str = "any",
    ) -> int:
        """Admit one query; returns its qid.

        ``deadline_s`` is a *relative* budget on the simulated clock; a
        query whose deadline passes before a wave picks it up is
        answered ``expired`` without occupying a lane.  Cache hits and
        admission rejections resolve immediately (their
        :class:`QueryResult` is recorded at submit time).
        ``source_class`` is a free-form workload label ("hot", "batch",
        …) that telemetry counts outcomes by.
        """
        metrics = self.backend.engine.metrics
        metrics.inc("serve.queries.submitted")
        source = int(source)
        if not (0 <= source < self.backend.num_nodes):
            raise ValueError(
                f"source {source} out of range "
                f"[0, {self.backend.num_nodes})"
            )
        qid = self._next_qid
        self._next_qid += 1
        now = self.clock

        key = (source, self.epoch)
        if key in self._cache:
            self._cache.move_to_end(key)
            metrics.inc("serve.cache.hits")
            metrics.inc("serve.queries.served")
            self._results.append(QueryResult(
                qid=qid, source=source, status="cached",
                levels=self._cache[key],
                submitted_s=now, started_s=now, completed_s=now,
                source_class=source_class,
            ))
            return qid

        if len(self._pending) >= self.max_pending:
            metrics.inc("serve.queries.rejected")
            self._results.append(QueryResult(
                qid=qid, source=source, status="rejected",
                submitted_s=now, started_s=now, completed_s=now,
                source_class=source_class,
            ))
            return qid

        metrics.inc("serve.queries.admitted")
        self._pending.append(_Pending(
            qid=qid, source=source,
            deadline_s=None if deadline_s is None else now + deadline_s,
            submitted_s=now, source_class=source_class,
        ))
        return qid

    def _cache_put(self, source: int, levels: np.ndarray) -> None:
        if self.result_cache_entries <= 0:
            return
        key = (source, self.epoch)
        self._cache[key] = levels
        self._cache.move_to_end(key)
        while len(self._cache) > self.result_cache_entries:
            self._cache.popitem(last=False)
            self.backend.engine.metrics.inc("serve.cache.evictions")

    def step_wave(self) -> list:
        """Form and run one msbfs wave; returns its results.

        Scans the pending queue in FIFO order: expired queries are
        answered ``expired`` on the spot (no lane), fresh queries join
        the wave until it holds :attr:`max_wave` *distinct* sources —
        a query duplicating an in-wave source always coalesces in, even
        when the lane budget is exhausted.  Queries left over stay
        pending, in order, for the next wave.
        """
        metrics = self.backend.engine.metrics
        now = self.clock
        taken: list[_Pending] = []
        lanes: set[int] = set()
        leftover: deque = deque()
        batch_results: list[QueryResult] = []

        while self._pending:
            q = self._pending.popleft()
            if q.deadline_s is not None and now > q.deadline_s:
                metrics.inc("serve.queries.expired")
                batch_results.append(QueryResult(
                    qid=q.qid, source=q.source, status="expired",
                    submitted_s=q.submitted_s, started_s=now,
                    completed_s=now,
                    source_class=q.source_class,
                ))
                continue
            if q.source in lanes or len(lanes) < self.max_wave:
                lanes.add(q.source)
                taken.append(q)
            else:
                leftover.append(q)
        self._pending = leftover

        if not taken:
            self._results.extend(batch_results)
            return batch_results

        wave_idx = self._num_waves
        self._num_waves += 1
        metrics.inc("serve.waves")
        metrics.observe("serve.wave_queries", len(taken))
        metrics.observe("serve.wave_lanes", len(lanes))

        sources = np.array([q.source for q in taken], dtype=np.int64)
        engine = self.backend.engine
        with engine.span(
            f"serve:wave:{wave_idx}", "wave",
            queries=len(taken), lanes=len(lanes),
        ):
            result = msbfs(self.backend, sources, reset_timeline=False)
        done = self.clock

        for i, q in enumerate(taken):
            levels = result.levels[i]
            self._cache_put(q.source, levels)
            metrics.inc("serve.queries.served")
            batch_results.append(QueryResult(
                qid=q.qid, source=q.source, status="done",
                levels=levels, wave=wave_idx,
                submitted_s=q.submitted_s, started_s=now,
                completed_s=done,
                source_class=q.source_class,
            ))
        self._results.extend(batch_results)
        return batch_results

    def run(self, max_waves: int | None = None) -> list:
        """Drain the pending queue (optionally capping the wave count)."""
        out: list[QueryResult] = []
        while self._pending:
            if max_waves is not None and self._num_waves >= max_waves:
                break
            out.extend(self.step_wave())
        return out

    # -- reporting ----------------------------------------------------

    def counts(self) -> dict:
        """Per-status result counts (alphabetical keys)."""
        counts: dict[str, int] = {}
        for r in self._results:
            counts[r.status] = counts.get(r.status, 0) + 1
        return dict(sorted(counts.items()))

    def metrics_section(self) -> dict:
        """The ``serve`` section for :func:`repro.obs.metrics.run_metrics`.

        Numeric-only summary of the service lifetime: query dispositions,
        wave count, queue depth, and queries/sec on the simulated clock.
        """
        counts = self.counts()
        served = counts.get("done", 0) + counts.get("cached", 0)
        elapsed = self.clock
        return {
            "queries": {status: float(n) for status, n in counts.items()},
            "served": float(served),
            "waves": float(self._num_waves),
            "pending": float(len(self._pending)),
            "cache_entries": float(len(self._cache)),
            "elapsed_seconds": elapsed,
            "qps": served / elapsed if elapsed > 0 else 0.0,
        }

    def service_section(self) -> dict:
        """The ``service`` section: distributions, outcomes and rates.

        Distinct from :meth:`metrics_section` (the ``serve`` totals,
        which the bench trajectory depends on byte-for-byte): this one
        carries the latency, queue-wait and wave-width distributions.
        """
        return self.telemetry.section()
