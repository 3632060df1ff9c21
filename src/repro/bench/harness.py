"""Benchmark harness: scaled devices, encoding caches, averaged runs.

Devices are scaled by the suite's :data:`~repro.datasets.suite.SCALE_FACTOR`
so every graph occupies the same memory region it did in the paper.
Encodings (EFG/CGR/Ligra+) are memoised per graph name — compression is
an offline step (Sec. VIII-F) and benchmarks should not re-pay it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.suite import SCALE_FACTOR, build_suite_graph
from repro.formats.graph import Graph
from repro.formats.ligra_plus import ligra_encode
from repro.gpusim.device import CPU_E5_2696V4_X2, DeviceSpec, TITAN_XP, V100
from repro.obs.metrics import run_metrics
from repro.obs.roofline import roofline_report
from repro.traversal.backends import (
    GraphBackend,
    LigraBackend,
    build_backend,
    encode,
)
from repro.traversal.bfs import bfs

__all__ = [
    "SCALED_TITAN_XP",
    "SCALED_V100",
    "SCALED_CPU",
    "EncodedGraph",
    "PROFILE_ALGOS",
    "ProfiledRun",
    "encoded_suite_graph",
    "make_backend",
    "make_weights",
    "pick_sources",
    "run_bfs_average",
    "run_profiled",
]

#: Titan Xp with memory and launch overhead scaled to the suite.
SCALED_TITAN_XP = TITAN_XP.scaled(SCALE_FACTOR)

#: V100, same scaling (Table III experiments).
SCALED_V100 = V100.scaled(SCALE_FACTOR)

#: The CPU host for Ligra+; graphs always fit, only overhead scales.
SCALED_CPU = CPU_E5_2696V4_X2.scaled(SCALE_FACTOR)


@dataclass
class EncodedGraph:
    """Every representation of one graph, each built on first use."""

    graph: Graph
    _built: dict = field(default_factory=dict, repr=False)

    def get(self, fmt: str):
        """The ``fmt`` container: a registered GPU format or ``"ligra"``."""
        if fmt not in self._built:
            self._built[fmt] = (
                ligra_encode(self.graph) if fmt == "ligra"
                else encode(fmt, self.graph)
            )
        return self._built[fmt]


_ENCODED: dict[str, EncodedGraph] = {}


def encoded_suite_graph(name: str) -> EncodedGraph:
    """Memoised encodings of one suite graph."""
    if name not in _ENCODED:
        _ENCODED[name] = EncodedGraph(graph=build_suite_graph(name))
    return _ENCODED[name]


def make_backend(
    fmt: str,
    enc: EncodedGraph,
    device: DeviceSpec = SCALED_TITAN_XP,
    with_weights: bool = False,
) -> GraphBackend:
    """Construct a backend for one format on one device."""
    wb = 4 * enc.graph.num_edges if with_weights else 0
    if fmt == "ligra":
        # The Ligra+ CPU baseline always runs on the host, not ``device``.
        return LigraBackend(enc.get("ligra"), SCALED_CPU, weight_bytes=wb)
    return build_backend(fmt, enc.get(fmt), device, weight_bytes=wb)


def pick_sources(graph: Graph, count: int, seed: int = 42) -> np.ndarray:
    """Random start vertices with non-zero out-degree (paper: 100
    random sources; we default to fewer at miniature scale)."""
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero(graph.degrees > 0)
    if candidates.size == 0:
        raise ValueError("graph has no vertex with out-degree > 0")
    count = min(count, candidates.size)
    return rng.choice(candidates, size=count, replace=False)


def make_weights(graph: Graph, seed: int) -> np.ndarray:
    """Deterministic float32 edge weights in ``[0.1, 1)``, in CSR slot
    order (one ``default_rng(seed)`` draw per edge)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 1.0, graph.num_edges).astype(np.float32)


#: Algorithms :func:`run_profiled` can drive (CLI ``repro profile``).
PROFILE_ALGOS = ("bfs", "dobfs", "msbfs", "sssp", "delta", "pagerank")


@dataclass(frozen=True)
class ProfiledRun:
    """One instrumented run: algorithm result + telemetry artefacts."""

    algo: str
    result: object
    #: Stable-schema metrics dump (:func:`repro.obs.metrics.run_metrics`).
    metrics: dict
    #: Human-readable roofline/utilization report.
    report: str


def run_profiled(
    algo: str,
    backend: GraphBackend,
    source: int = 0,
    sources: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    meta: dict | None = None,
    **kwargs,
) -> ProfiledRun:
    """Run one algorithm under full telemetry and collect the artefacts.

    The single entry point behind ``repro profile`` and the CI perf
    gate: dispatches to the traversal driver, folds the decoded-list
    cache's end-of-run stats into the metrics registry, and serialises
    the run to the stable metrics schema plus a roofline report.
    ``kwargs`` pass through to the driver (e.g. ``partial_sort``,
    ``damping``).
    """
    if algo == "bfs":
        result = bfs(backend, source, **kwargs)
    elif algo == "dobfs":
        from repro.traversal.direction_optimizing import (
            bfs_direction_optimizing,
        )

        result = bfs_direction_optimizing(backend, source=source, **kwargs)
    elif algo == "msbfs":
        from repro.traversal.msbfs import msbfs

        if sources is None:
            raise ValueError("msbfs needs a sources array")
        result = msbfs(backend, sources, **kwargs)
    elif algo == "sssp":
        from repro.traversal.sssp import sssp

        if weights is None:
            raise ValueError("sssp needs edge weights")
        result = sssp(backend, source, weights, **kwargs)
    elif algo == "delta":
        from repro.traversal.delta_stepping import delta_stepping_sssp

        if weights is None:
            raise ValueError("delta-stepping needs edge weights")
        result = delta_stepping_sssp(backend, source, weights, **kwargs)
    elif algo == "pagerank":
        from repro.traversal.pagerank import pagerank

        result = pagerank(backend, **kwargs)
    else:
        raise ValueError(f"unknown algorithm {algo!r}; pick from {PROFILE_ALGOS}")

    engine = backend.engine
    if backend.cache is not None:
        backend.cache.stats.publish(engine.metrics)
    gteps = getattr(result, "gteps", None)
    if gteps is not None:
        engine.metrics.set_gauge("run.gteps", gteps)
    run_meta = {
        "algo": algo,
        "format": backend.format_name,
        "num_nodes": int(backend.num_nodes),
        "num_edges": int(backend.num_edges),
        **(meta or {}),
    }
    return ProfiledRun(
        algo=algo,
        result=result,
        metrics=run_metrics(engine, meta=run_meta),
        report=roofline_report(engine),
    )


def run_bfs_average(
    backend: GraphBackend,
    sources: np.ndarray,
    partial_sort: bool = True,
) -> dict[str, float]:
    """Average BFS runtime/GTEPS over several sources (paper protocol)."""
    times = []
    gteps = []
    edges = []
    for s in sources:
        r = bfs(backend, int(s), partial_sort=partial_sort)
        times.append(r.runtime_ms)
        gteps.append(r.gteps)
        edges.append(r.edges_traversed)
    return {
        "runtime_ms": float(np.mean(times)),
        "gteps": float(np.mean(gteps)),
        "edges_traversed": float(np.mean(edges)),
        "num_sources": float(len(times)),
    }
