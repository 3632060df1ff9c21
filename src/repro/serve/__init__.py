"""Resident graph-as-a-service: containers, batched query serving.

``repro.serve`` is the layer between the offline encoders and online
query traffic: :mod:`~repro.serve.container` persists a graph in an
O(1)-openable, CRC-stamped, mmap-friendly layout;
:mod:`~repro.serve.service` holds one immutable resident graph (keyed
by its content-hash *epoch*) and multiplexes point BFS/reachability
queries into batched :func:`~repro.traversal.msbfs.msbfs` waves; and
:mod:`~repro.serve.driver` is the deterministic closed-loop client
that turns queries/sec into a bench column.

:mod:`~repro.serve.telemetry` computes the latency, queue-wait and
wave-width distributions (exact quantiles) and the outcome counts
behind the ``service`` metrics section from the service's query
results, and :mod:`~repro.serve.report` prints the dist-style text
block.
"""

from repro.serve.container import (
    CONTAINER_MAGIC,
    CONTAINER_VERSION,
    GraphContainer,
    container_paths,
    is_container,
    open_container,
    save_container,
)
from repro.serve.driver import (
    drive,
    make_labeled_stream,
    parse_deadline_mix,
    sequential_seconds,
    with_sequential_baseline,
)
from repro.serve.report import serve_report
from repro.serve.service import GraphService, QueryResult
from repro.serve.telemetry import ServiceTelemetry

__all__ = [
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "GraphContainer",
    "container_paths",
    "is_container",
    "open_container",
    "save_container",
    "GraphService",
    "QueryResult",
    "ServiceTelemetry",
    "drive",
    "make_labeled_stream",
    "parse_deadline_mix",
    "sequential_seconds",
    "with_sequential_baseline",
    "serve_report",
]
