"""Host-clock spans for ``--trace 1``, recorded from outside the program.

:meth:`Recorder.installed` swaps each public layer function named in
:data:`PATCH_POINTS` for a wrapper that records a span (name, start,
end, parent) with ``time.perf_counter``, and restores the originals on
exit.  Untraced runs install nothing.  Spans stay in memory until the
run ends; :func:`chrome_trace` turns them into Chrome trace format.

A span's *self* time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

__all__ = [
    "PATCH_POINTS",
    "Recorder",
    "Span",
    "chrome_trace",
    "layer_stats",
    "median_stat",
    "self_times",
    "shares",
]

#: ``(module, attribute, span name)``.  Each attribute is patched where
#: its consumer looks it up, so the wrapper is what actually runs:
#: backends call ``decode_lists`` through their own module, ``efg``
#: calls ``extract_fields`` through its own, the bfs driver calls
#: ``atomic_or_claim`` through ``repro.traversal.bfs``, the service calls
#: ``msbfs`` through ``repro.serve.service``, and the workloads call the
#: drivers and encoders through their defining modules.
PATCH_POINTS = (
    ("repro.datasets.rmat", "rmat_graph", "datasets.rmat_graph"),
    ("repro.core.efg", "efg_encode", "core.efg_encode"),
    ("repro.formats.cgr", "cgr_encode", "formats.cgr_encode"),
    ("repro.traversal.backends", "decode_lists", "core.decode_lists"),
    ("repro.core.efg", "extract_fields", "ef.extract_fields"),
    ("repro.gpusim.cost", "stream_transfer_bytes",
     "gpusim.stream_transfer_bytes"),
    ("repro.gpusim.cost", "CostModel.charge_stream", "gpusim.charge_stream"),
    ("repro.gpusim.cost", "CostModel.kernel_seconds", "gpusim.kernel_seconds"),
    ("repro.traversal.backends", "GraphBackend.expand", "traversal.expand"),
    ("repro.traversal.backends", "CSRBackend.charge_expand",
     "traversal.charge_expand"),
    ("repro.traversal.backends", "EFGBackend.charge_expand",
     "traversal.charge_expand"),
    ("repro.traversal.backends", "CGRBackend.charge_expand",
     "traversal.charge_expand"),
    ("repro.traversal.bfs", "atomic_or_claim", "primitives.atomic_or_claim"),
    ("repro.traversal.bfs", "bfs", "traversal.bfs"),
    ("repro.traversal.pagerank", "pagerank", "traversal.pagerank"),
    ("repro.dist.bfs", "distributed_bfs", "dist.distributed_bfs"),
    ("repro.dist.cluster", "ShardedCluster.pack", "dist.pack"),
    ("repro.dist.cluster", "ShardedCluster.exchange_buckets",
     "dist.exchange_buckets"),
    ("repro.serve.service", "msbfs", "traversal.msbfs"),
    ("repro.serve.service", "GraphService.submit", "serve.submit"),
    ("repro.serve.service", "GraphService.step_wave", "serve.step_wave"),
)

#: Spans that are one whole operation on one backend; shares per format
#: are taken over their time.
OP_SPANS = ("traversal.bfs", "traversal.pagerank")


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the recorder's list; -1 for a root.
    parent: int
    #: ``format_name`` of the call's first argument, when it has one
    #: (a backend passed to a driver, or ``self`` of a backend method).
    fmt: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one run, in start order (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, fmt: str | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, fmt))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fmt = getattr(args[0], "format_name", None) if args else None
            index = self._open(name, fmt)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        saved = []
        try:
            for module, attr, name in PATCH_POINTS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, name))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - _covered(s.start, s.end, children[i])
        for i, s in enumerate(spans)
    ]


def _roots(spans: list[Span]) -> list[int]:
    """Index of each span's root (parents always precede children)."""
    root: list[int] = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
    return root


def layer_stats(spans: list[Span], root_name: str) -> list[dict]:
    """Per root span called ``root_name``: ``{layer: {calls, self_s, s}}``.

    ``s`` is inclusive time; ``self_s`` excludes child layers.
    """
    selfs = self_times(spans)
    roots = _roots(spans)
    per_root: dict[int, dict] = {
        i: {} for i, s in enumerate(spans)
        if s.parent < 0 and s.name == root_name
    }
    for i, s in enumerate(spans):
        table = per_root.get(roots[i])
        if table is None or i == roots[i]:
            continue
        row = table.setdefault(s.name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["s"] += s.duration
    return list(per_root.values())


def median_stat(tables: list[dict], layer: str, stat: str) -> float:
    """Median over roots of one layer's stat (0 when never called)."""
    if not tables:
        return 0.0
    return float(statistics.median(
        t.get(layer, {}).get(stat, 0.0) for t in tables
    ))


def shares(spans: list[Span], root_name: str = "round") -> dict:
    """Self-time shares: of all ``root_name`` time, and per format of the
    time spent in operations on that format."""
    selfs = self_times(spans)
    roots = _roots(spans)
    fmt: list[str | None] = []
    for s in spans:
        fmt.append(s.fmt or (fmt[s.parent] if s.parent >= 0 else None))
    total = sum(
        s.duration for s in spans if s.parent < 0 and s.name == root_name
    )
    groups: dict[str, dict[str, float]] = {"round": {}}
    op_time: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if i == roots[i] or spans[roots[i]].name != root_name:
            continue
        groups["round"][s.name] = groups["round"].get(s.name, 0.0) + selfs[i]
        if fmt[i]:
            group = groups.setdefault(f"fmt:{fmt[i]}", {})
            group[s.name] = group.get(s.name, 0.0) + selfs[i]
        if s.name in OP_SPANS and s.fmt:
            op_time[f"fmt:{s.fmt}"] += s.duration
    out = {}
    for key, table in groups.items():
        base = total if key == "round" else op_time.get(key, 0.0)
        if base > 0:
            out[key] = {
                name: sec / base
                for name, sec in sorted(table.items(), key=lambda kv: -kv[1])
            }
    return out


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event JSON (load it in Perfetto or chrome://tracing)."""
    t0 = min((s.start for s in spans), default=0.0)
    events = []
    for i, s in enumerate(spans):
        args = {"id": i, "parent": s.parent}
        if s.fmt:
            args["fmt"] = s.fmt
        events.append({
            "name": s.name, "cat": "host", "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
