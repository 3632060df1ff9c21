"""The benchmark's four workloads.

Every input comes from ``--seed``: the seed picks the R-MAT graph, the
BFS sources and the serve query stream, so one seed always gives one
input and the library only ever receives generated data.  All workloads
run on a Titan Xp scaled by the suite's ``SCALE_FACTOR`` (2048), i.e.
6 MiB of device memory.

``run.py`` drives a workload in these steps:

``setup(seed, smoke)``
    Generate the graph and build every encoding plus the backends,
    service or cluster.  Timed as ``setup_s``; references are not part
    of it.
``run_round(state)``
    One fixed, deterministic unit of work, timed on the host clock.
    Simulated-clock tallies are read from public engine APIs right
    after each operation, because the next one resets the engine.
``summarize(state, raw)``
    Untimed: turn the raw outcome into a :class:`Round`.
``references(state)`` / ``check(state, rnd, refs)``
    Untimed oracle answers and the comparison against them.
``invariants(state)``
    The library's own attribution checks, run after the last round.

Library functions are called through their defining module
(``bfs_mod.bfs``), never through a name bound at import time, so the
wrappers ``--trace 1`` installs are the ones that run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.core.listcache import DecodedListCache
from repro.datasets.suite import SCALE_FACTOR
from repro.dist.cluster import ShardedCluster
from repro.dist.report import verify_dist_attribution
from repro.dist.topology import LinkTopology
from repro.formats.csr import CSRGraph
from repro.gpusim.device import TITAN_XP
from repro.obs.counters import verify_attribution
from repro.serve.container import GraphContainer
from repro.serve.driver import parse_deadline_mix
from repro.traversal.backends import CGRBackend, CSRBackend, EFGBackend

# ``import repro.traversal.bfs as m`` would bind the *function*, because
# ``repro.traversal`` re-exports ``bfs``; import_module returns modules.
rmat_mod = importlib.import_module("repro.datasets.rmat")
efg_mod = importlib.import_module("repro.core.efg")
cgr_mod = importlib.import_module("repro.formats.cgr")
bfs_mod = importlib.import_module("repro.traversal.bfs")
pagerank_mod = importlib.import_module("repro.traversal.pagerank")
dist_bfs_mod = importlib.import_module("repro.dist.bfs")
service_mod = importlib.import_module("repro.serve.service")
driver_mod = importlib.import_module("repro.serve.driver")

__all__ = ["DEVICE", "Op", "Round", "SimTally", "WORKLOADS"]

#: The suite's scaled Titan Xp (6 MiB), shared by every workload.
DEVICE = TITAN_XP.scaled(SCALE_FACTOR)

#: R-MAT edge factor of every benchmark graph.
EDGE_FACTOR = 16

#: Graph scale used by ``--smoke`` (seconds, not minutes, per workload).
SMOKE_SCALE = 10

#: Statuses under which a serve query counts as answered.
ANSWERED = ("done", "cached")


@dataclass
class Op:
    """One operation of a round: a traversal, a PageRank run or a query."""

    kind: str
    fmt: str
    #: Start vertex (-1 for PageRank).
    source: int
    #: Edges the operation traversed: the simulated work it did.
    edges: int
    #: Simulated latency of the operation.
    sim_s: float
    #: Levels or ranks; ``None`` when a query was not answered.
    output: np.ndarray | None
    #: BFS levels or PageRank iterations (the reference needs the latter).
    steps: int = 0
    status: str = "done"


@dataclass
class SimTally:
    """Simulated-clock totals read from ``engine.kernel_summary()``."""

    launches: float = 0.0
    overhead_s: float = 0.0
    engine_s: float = 0.0
    dram_bytes: float = 0.0
    pcie_bytes: float = 0.0

    def add(self, engine) -> None:
        launches = 0.0
        for row in engine.kernel_summary().values():
            launches += row["launches"]
            self.dram_bytes += row["device_bytes"]
            self.pcie_bytes += row["host_bytes"]
        self.launches += launches
        self.overhead_s += launches * engine.device.launch_overhead_s
        self.engine_s += engine.elapsed_seconds


@dataclass
class Round:
    """What one round did, on the simulated clock."""

    ops: list[Op]
    tally: SimTally
    #: Simulated seconds the round took (a service's clock, or the sum
    #: of independent operations).
    sim_seconds: float
    #: Workload-specific simulated metrics (per-layer names).
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def edges(self) -> int:
        return sum(op.edges for op in self.ops if op.status in ANSWERED)

    def signature(self) -> list[tuple]:
        """What a rerun of the same round must reproduce exactly.

        Outputs are left out: the oracle checks them in every round.
        """
        return [
            (op.kind, op.fmt, op.source, op.edges, op.sim_s, op.steps,
             op.status)
            for op in self.ops
        ]


def source_pool(graph, needed: int) -> np.ndarray:
    """The highest-degree vertices: the top decile of those with
    out-edges, and never fewer than ``needed``.

    A BFS from a hub reaches the giant component within a few levels,
    so every source costs about the same and the simulated metrics vary
    little from seed to seed (uniform sources spread them 2-4x wider).
    """
    degrees = graph.degrees
    size = max(needed, np.count_nonzero(degrees) // 10)
    return np.argsort(-degrees, kind="stable")[:size]


def pick_sources(graph, count: int, seed: int) -> np.ndarray:
    """Seeded distinct BFS sources from :func:`source_pool`."""
    rng = np.random.default_rng([seed, 1])
    pool = source_pool(graph, count)
    return np.sort(rng.choice(pool, size=count, replace=False))


def query_stream(graph, count: int, seed: int):
    """Seeded skewed query stream: every other query is hot.

    Hot queries draw on a hot set of ``count // 4`` sources, each asked
    twice in shuffled order; cold queries are distinct.
    Sources come from :func:`source_pool`, so every query is a full
    traversal.  Returns ``(sources, classes)``, labelled hot or cold.
    """
    rng = np.random.default_rng([seed, 3])
    num_hot = count // 2
    num_cold = count - num_hot
    hot_set = -(-num_hot // 2)
    pool = source_pool(graph, hot_set + num_cold)
    picks = rng.choice(pool, size=hot_set + num_cold, replace=False)
    hot, cold = picks[:hot_set], picks[hot_set:]
    hot_stream = rng.permutation(np.repeat(hot, 2))[:num_hot]
    sources = np.empty(count, dtype=np.int64)
    sources[0::2] = cold
    sources[1::2] = hot_stream
    classes = ["cold", "hot"] * num_hot + ["cold"] * (count % 2)
    return sources, classes


def bfs_reference(graph, sources) -> dict[int, np.ndarray]:
    """Exact BFS levels per source (-1 = unreached), computed by scipy."""
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        return {}
    n = graph.num_nodes
    adjacency = csr_matrix(
        (np.ones(graph.num_edges, dtype=np.int8), graph.elist, graph.vlist),
        shape=(n, n),
    )
    dist = shortest_path(
        adjacency, directed=True, unweighted=True, indices=sources
    )
    levels = np.where(np.isinf(dist), -1, dist).astype(np.int64)
    return {int(s): levels[i] for i, s in enumerate(sources)}


def pagerank_reference(
    graph, iterations: int, damping: float = 0.85
) -> np.ndarray:
    """float64 power iteration with the library's update rule."""
    n = graph.num_nodes
    degrees = graph.degrees.astype(np.float64)
    origin = np.repeat(np.arange(n), graph.degrees)
    share = 1.0 / np.maximum(degrees, 1.0)[origin]
    dangling = degrees == 0
    ranks = np.full(n, 1.0 / n)
    for _ in range(iterations):
        pushed = np.bincount(graph.elist, weights=ranks[origin] * share,
                             minlength=n)
        ranks = (1 - damping) / n + damping * (
            pushed + ranks[dangling].sum() / n
        )
    return ranks


def _wrong_answers(ops, refs, graph) -> int:
    """Answered ops whose output disagrees with the oracle.

    Ops without a reference (unsampled cold queries) are not checked.
    """
    wrong = 0
    for op in ops:
        if op.status not in ANSWERED:
            continue
        if op.kind == "pagerank":
            key = ("pagerank", op.steps)
            if key not in refs:
                refs[key] = pagerank_reference(graph, op.steps)
            wrong += not np.allclose(op.output, refs[key], rtol=0.0, atol=1e-9)
        elif op.source in refs:
            wrong += not np.array_equal(op.output, refs[op.source])
    return wrong


class Workload:
    """Base: batch workloads whose rounds need no summarising step."""

    name = ""

    def setup(self, seed: int, smoke: bool):
        raise NotImplementedError

    def run_round(self, state):
        raise NotImplementedError

    def summarize(self, state, raw) -> Round:
        return raw

    def references(self, state) -> dict:
        return bfs_reference(state["graph"], state["sources"])

    def check(self, state, rnd: Round, refs: dict) -> tuple[int, int]:
        """``(attempted, failed)``: every op is attempted; unanswered
        ops and ops disagreeing with the reference fail."""
        wrong = _wrong_answers(rnd.ops, refs, state["graph"])
        unanswered = sum(op.status not in ANSWERED for op in rnd.ops)
        return len(rnd.ops), wrong + unanswered

    def invariants(self, state) -> list:
        """Zero-argument checks that raise on a broken invariant."""
        return [
            (lambda b=b: verify_attribution(b.engine))
            for b in state["backends"].values()
        ]

    @staticmethod
    def _graph(seed: int, scale: int):
        return rmat_mod.rmat_graph(scale, EDGE_FACTOR, seed=seed)


def _bfs_op(backend, source: int, tally: SimTally) -> Op:
    result = bfs_mod.bfs(backend, int(source))
    tally.add(backend.engine)
    return Op("bfs", backend.format_name, int(source),
              result.edges_traversed, result.sim_seconds, result.levels,
              steps=result.num_levels)


def _batch_round(ops: list[Op], tally: SimTally, **extra) -> Round:
    """A round of independent operations; adds per-format GTEPS."""
    for fmt in sorted({op.fmt for op in ops}):
        mine = [op for op in ops if op.fmt == fmt]
        extra[f"sim_gteps.{fmt}"] = (
            sum(op.edges for op in mine) / sum(op.sim_s for op in mine) / 1e9
        )
    return Round(ops, tally, sum(op.sim_s for op in ops), extra)


class BFSFits(Workload):
    """Region 1: every format is device resident."""

    name = "bfs-fits"
    scale = 16
    num_sources = 4

    def setup(self, seed, smoke):
        graph = self._graph(seed, SMOKE_SCALE if smoke else self.scale)
        efg = efg_mod.efg_encode(graph)
        cgr = cgr_mod.cgr_encode(graph)
        backends = {
            "csr": CSRBackend(CSRGraph.from_graph(graph), DEVICE),
            "efg": EFGBackend(efg, DEVICE),
            "cgr": CGRBackend(cgr, DEVICE),
        }
        return {
            "graph": graph, "efg": efg, "backends": backends,
            "sources": pick_sources(
                graph, 2 if smoke else self.num_sources, seed
            ),
        }

    def run_round(self, state):
        tally = SimTally()
        ops = [
            _bfs_op(backend, s, tally)
            for backend in state["backends"].values()
            for s in state["sources"]
        ]
        return _batch_round(ops, tally)


class AnalyticsOversub(Workload):
    """Region 2: CSR's elist is streamed over PCIe, EFG fits."""

    name = "analytics-oversub"
    scale = 17
    num_sources = 2

    def setup(self, seed, smoke):
        graph = self._graph(seed, SMOKE_SCALE if smoke else self.scale)
        efg = efg_mod.efg_encode(graph)
        csr = CSRGraph.from_graph(graph)
        # PageRank registers a second rank buffer, which changes the
        # memory plan (it pushes efg_data to host at s17).  Separate
        # backends keep each operation's plan the same in every round.
        backends = {
            "bfs/csr": CSRBackend(csr, DEVICE),
            "bfs/efg": EFGBackend(efg, DEVICE),
            "pagerank/csr": CSRBackend(csr, DEVICE),
            "pagerank/efg": EFGBackend(efg, DEVICE),
        }
        return {
            "graph": graph, "efg": efg, "backends": backends,
            "sources": pick_sources(
                graph, 1 if smoke else self.num_sources, seed
            ),
        }

    def run_round(self, state):
        tally = SimTally()
        ops = []
        for fmt in ("csr", "efg"):
            backend = state["backends"][f"bfs/{fmt}"]
            ops.extend(_bfs_op(backend, s, tally) for s in state["sources"])
            backend = state["backends"][f"pagerank/{fmt}"]
            result = pagerank_mod.pagerank(backend)
            tally.add(backend.engine)
            ops.append(Op("pagerank", fmt, -1, result.edges_processed,
                          result.sim_seconds, result.ranks,
                          steps=result.iterations))
        return _batch_round(ops, tally)

    def check(self, state, rnd, refs):
        attempted, failed = super().check(state, rnd, refs)
        ranks = [op.output for op in rnd.ops if op.kind == "pagerank"]
        # csr and efg decode the same lists in the same order, so their
        # ranks must agree bit for bit, not just within tolerance.
        attempted += 1
        failed += not all(np.array_equal(ranks[0], r) for r in ranks[1:])
        return attempted, failed


class ServeSkewed(Workload):
    """A cold GraphService answering a skewed, bursty query stream."""

    name = "serve-skewed"
    scale = 16
    num_queries = 256
    smoke_queries = 192
    burst = 96
    cold_sample = 64
    cache_kb = 256
    max_wave = 64
    #: Relative deadlines (ms) cycled over the queries.  They are set
    #: well above the latencies this stream sees, so every query is
    #: answered; an expiry is a failure the benchmark reports.
    deadline_mix = "none,4,none,8"

    def setup(self, seed, smoke):
        graph = self._graph(seed, SMOKE_SCALE if smoke else self.scale)
        efg = efg_mod.efg_encode(graph)
        backend = EFGBackend(efg, DEVICE)
        backend.attach_cache(DecodedListCache(budget_bytes=self.cache_kb * 1024))
        sources, classes = query_stream(
            graph, self.smoke_queries if smoke else self.num_queries, seed
        )
        return {
            "graph": graph, "efg": efg, "backends": {"efg": backend},
            "epoch": GraphContainer.from_graph(graph).epoch,
            "stream": (sources, classes),
            "seed": seed,
        }

    def run_round(self, state):
        backend = state["backends"]["efg"]
        # Every round starts cold: an empty list cache and a new service
        # (whose constructor resets the engine timeline and cache stats).
        backend.cache.clear()
        service = service_mod.GraphService(
            backend=backend, epoch=state["epoch"], max_wave=self.max_wave
        )
        sources, classes = state["stream"]
        driver_mod.drive(
            service, sources,
            deadline_mix=parse_deadline_mix(self.deadline_mix),
            burst=self.burst, classes=classes,
        )
        return service

    def summarize(self, state, service):
        degrees = state["graph"].degrees
        ops = []
        for r in sorted(service.results, key=lambda r: r.qid):
            edges = 0 if r.levels is None else int(degrees[r.levels >= 0].sum())
            ops.append(Op("query", "efg", r.source, edges,
                          r.completed_s - r.submitted_s, r.levels,
                          status=r.status))
        tally = SimTally()
        tally.add(service.backend.engine)
        answered = [op for op in ops if op.status in ANSWERED]
        cached = sum(op.status == "cached" for op in ops)
        telemetry = service.telemetry
        stats = service.backend.cache.stats
        extra = {
            "sim_gteps.efg": sum(op.edges for op in answered)
            / service.clock / 1e9,
            "core.listcache.hit_rate": stats.hit_rate,
            "core.listcache.evictions": float(stats.evictions),
            "serve.result_cache_hit_frac": cached / len(ops),
            "serve.wave_lanes_mean": telemetry.wave_lanes.mean,
            "serve.queue_wait_ms_p99": telemetry.queue_wait.quantile(0.99) * 1e3,
            "serve.sim_qps": len(answered) / service.clock,
            "serve.sim_latency_ms_p99": float(
                np.quantile([op.sim_s for op in answered], 0.99)
            ) * 1e3,
            "serve.miss_frac": 1.0 - len(answered) / len(ops),
        }
        return Round(ops, tally, service.clock, extra)

    def references(self, state):
        """Every hot source plus a seeded sample of cold ones."""
        sources, classes = state["stream"]
        is_hot = np.array([c == "hot" for c in classes])
        hot = np.unique(sources[is_hot])
        cold = np.setdiff1d(np.unique(sources[~is_hot]), hot)
        rng = np.random.default_rng([state["seed"], 2])
        sample = rng.choice(cold, size=min(self.cold_sample, cold.size),
                            replace=False)
        return bfs_reference(state["graph"], np.concatenate([hot, sample]))


class DistBFS(Workload):
    """BFS on a two-node, eight-GPU cluster of csr shards."""

    name = "dist-bfs"
    scale = 16
    num_sources = 8
    nodes = 2
    gpus_per_node = 4
    intra_gbs = 300.0
    inter_gbs = 1.0

    def setup(self, seed, smoke):
        graph = self._graph(seed, SMOKE_SCALE if smoke else self.scale)
        topology = LinkTopology.two_tier(
            num_nodes=self.nodes,
            gpus_per_node=self.gpus_per_node,
            link_bandwidth=self.intra_gbs * 1e9,
            inter_bandwidth=self.inter_gbs * 1e9,
            message_latency_s=DEVICE.launch_overhead_s,
        )
        cluster = ShardedCluster.build(
            graph, self.nodes * self.gpus_per_node, DEVICE,
            fmt="csr", wire="ef", schedule="hierarchical",
            topology=topology, overlap=True,
        )
        return {
            "graph": graph, "efg": None, "cluster": cluster,
            "backends": {},
            "sources": pick_sources(
                graph, 2 if smoke else self.num_sources, seed
            ),
        }

    def run_round(self, state):
        cluster = state["cluster"]
        tally = SimTally()
        ops = []
        inter = intra = exchange_s = overlapped_s = 0.0
        for s in state["sources"]:
            result = dist_bfs_mod.distributed_bfs(cluster, int(s))
            for backend in cluster.backends:
                tally.add(backend.engine)
            counters = cluster.metrics.counters
            inter += counters.get("dist.tier.inter.bytes", 0.0)
            intra += counters.get("dist.tier.intra.bytes", 0.0)
            exchange_s += result.exchange_seconds
            overlapped_s += result.overlapped_seconds
            ops.append(Op("dist_bfs", "csr", int(s), result.edges_traversed,
                          result.sim_seconds, result.levels,
                          steps=result.num_levels))
        edges = sum(op.edges for op in ops)
        sim = sum(op.sim_s for op in ops)
        return _batch_round(
            ops, tally,
            **{
                "dist.inter_bytes_per_edge": inter / edges,
                "dist.intra_bytes_per_edge": intra / edges,
                "dist.exchange_sim_frac": exchange_s / sim,
                "dist.overlapped_sim_frac": overlapped_s / sim,
            },
        )

    def invariants(self, state):
        return [lambda: verify_dist_attribution(state["cluster"])]


#: Workloads by name, in the order ``--workload all`` runs them.
WORKLOADS = {
    w.name: w for w in (BFSFits(), AnalyticsOversub(), ServeSkewed(), DistBFS())
}
