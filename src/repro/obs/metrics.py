"""Metrics registry and the stable run-metrics JSON schema.

A typed registry of counters (monotonic accumulators), gauges
(last-value) and histograms (power-of-two buckets, the right shape for
frontier sizes); every engine owns one as ``engine.metrics``.

:func:`run_metrics` serialises one finished run into a versioned,
deterministically ordered dict: totals, per-kernel rows, the registry
contents, and the roofline analysis.  Two identical runs produce
byte-identical dumps (no wall-clock anywhere), which is what lets
``repro compare`` gate perf regressions in CI.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.gpusim.engine import SimEngine

__all__ = [
    "METRICS_SCHEMA",
    "SUPPORTED_SCHEMAS",
    "Histogram",
    "MetricsRegistry",
    "bytes_per_edge",
    "git_sha",
    "run_metrics",
    "dump_metrics",
]

#: Version tag of the metrics JSON layout.  Bump on breaking changes;
#: ``repro compare`` refuses to diff dumps with unknown schemas.
#: ``/2`` adds per-array attribution (``arrays``), emulated hardware
#: counters (``hw_counters``), sector totals, ``bound_array`` roofline
#: labels, and self-describing ``meta.git_sha`` / ``meta.schema_versions``
#: stamps.  ``/1`` dumps are no longer read (see :data:`SUPPORTED_SCHEMAS`).
METRICS_SCHEMA = "repro.metrics/2"

#: Schemas the readers (``load_metrics`` / ``repro compare``) accept:
#: the current one only.  No committed baseline predates ``/2``, so a
#: ``/1`` dump is refused like any other unknown schema.
SUPPORTED_SCHEMAS = (METRICS_SCHEMA,)


@functools.lru_cache(maxsize=1)
def git_sha() -> str:
    """Current repository commit (short), or ``"unknown"`` outside git.

    Cached for the process lifetime: the working tree cannot change
    mid-run, and caching keeps repeated :func:`run_metrics` calls in
    one process byte-identical and subprocess-free.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


class Histogram:
    """Power-of-two bucketed histogram (plus count/sum/min/max).

    A value lands in the bucket whose upper bound is the smallest power
    of two >= value (bucket "0" holds exact zeros).  Geometric buckets
    suit the heavy-tailed distributions we record — frontier sizes span
    six orders of magnitude within one BFS.
    """

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._buckets: dict[int, int] = {}  # exponent -> count; -1 = zeros

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        exp = -1 if value == 0 else max(0, math.ceil(math.log2(value)))
        self._buckets[exp] = self._buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        """Mean of the observed samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """Stable JSON form; bucket keys are the upper bounds."""
        buckets = {
            ("0" if exp < 0 else str(2**exp)): n
            for exp, n in sorted(self._buckets.items())
        }
        return {
            "count": self.count,
            "sum": self.sum,
            "min": 0.0 if self.min is None else self.min,
            "max": 0.0 if self.max is None else self.max,
            "mean": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, delta: float = 1.0) -> None:
        """Add ``delta`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + float(delta)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        if name not in self.histograms:
            self.histograms[name] = Histogram()
        self.histograms[name].observe(value)

    def to_dict(self) -> dict:
        """Deterministically ordered JSON form of the registry."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }


def run_metrics(
    engine: "SimEngine",
    meta: dict | None = None,
    sections: dict | None = None,
) -> dict:
    """Serialise one finished run to the stable metrics schema.

    ``meta`` entries (algorithm name, graph, format, ...) land under
    ``"meta"`` and are reported but never diffed by ``repro compare``;
    ``meta.git_sha`` and ``meta.schema_versions`` are stamped
    automatically so every dump is self-describing.  Everything else —
    totals, per-kernel rows, registry contents, per-array attribution,
    emulated hardware counters, roofline — is numeric and comparable.

    ``sections`` merges additional top-level sections into the payload
    (e.g. the serving layer's ``serve`` summary); numeric leaves in
    them are diffed by ``repro compare`` like any other section, so a
    subsystem can extend the schema without forking it.  Reserved keys
    (``schema``, ``meta``, ...) cannot be overridden.

    The run was checked when it ended (:meth:`~repro.gpusim.engine.
    SimEngine.algorithm`), so a dump needs no check of its own.
    """
    from repro.obs.counters import emulated_counters, kernel_array_attribution
    from repro.obs.critpath import critical_path_section, extract_critical_path
    from repro.obs.roofline import kernel_rooflines
    from repro.obs.whatif import rank_engine_whatifs, whatif_section

    critpath = extract_critical_path(engine)
    summary = engine.kernel_summary()
    hw_counters = emulated_counters(engine)
    totals = {
        "elapsed_seconds": engine.elapsed_seconds,
        "launches": float(engine.num_launches),
        "device_bytes": sum(r["device_bytes"] for r in summary.values()),
        "host_bytes": sum(r["host_bytes"] for r in summary.values()),
        "cached_bytes": sum(r["cached_bytes"] for r in summary.values()),
        "instructions": sum(r["instructions"] for r in summary.values()),
        "dram_sectors": sum(r["dram_sectors"] for r in hw_counters.values()),
        "pcie_sectors": sum(r["pcie_sectors"] for r in hw_counters.values()),
    }
    roofline = {
        r.name: {
            "achieved_dram_gbs": r.achieved_dram_bw / 1e9,
            "achieved_link_gbs": r.achieved_link_bw / 1e9,
            "dram_frac_of_peak": r.dram_frac,
            "link_frac_of_peak": r.link_frac,
            "compute_frac_of_peak": r.compute_frac,
            "bound": r.bound,
            "bound_array": r.bound_array,
        }
        for r in kernel_rooflines(engine)
    }
    # Per-kernel x per-array traffic, keyed "kernel/array" so the flat
    # dotted-key diff in repro compare addresses each cell directly.
    arrays = {
        f"{kernel}/{array}": traffic.to_dict()
        for kernel, table in sorted(kernel_array_attribution(engine).items())
        for array, traffic in sorted(table.items())
    }
    full_meta = {"git_sha": git_sha(), **(meta or {})}
    full_meta["schema_versions"] = {"metrics": METRICS_SCHEMA}
    payload = {
        "schema": METRICS_SCHEMA,
        "meta": dict(sorted(full_meta.items())),
        "device": {
            "name": engine.device.name,
            "dram_bandwidth": engine.device.dram_bandwidth,
            "link_bandwidth": engine.device.link_bandwidth,
            "memory_bytes": float(engine.device.memory_bytes),
        },
        "totals": totals,
        "kernels": {name: dict(sorted(row.items()))
                    for name, row in sorted(summary.items())},
        **engine.metrics.to_dict(),
        "arrays": arrays,
        "hw_counters": {
            name: dict(sorted(row.items()))
            for name, row in sorted(hw_counters.items())
        },
        "roofline": roofline,
    }
    payload["critical_path"] = critical_path_section(critpath)
    payload["whatif"] = whatif_section(rank_engine_whatifs(engine))
    if sections:
        clash = sorted(set(sections) & set(payload))
        if clash:
            raise ValueError(
                f"extra sections would shadow reserved keys: {clash}"
            )
        payload.update(sections)
    return payload


def bytes_per_edge(engine: "SimEngine", edges: int) -> float:
    """Off-chip bytes moved per traversed edge — the paper's core ratio.

    EFG's whole bet is lowering this number below CSR's; recording it
    as a gauge per run makes the compression win directly diffable.
    """
    summary = engine.kernel_summary()
    total = sum(r["device_bytes"] + r["host_bytes"] for r in summary.values())
    return total / edges if edges else 0.0


def dump_metrics(payload: dict, path: str) -> None:
    """Write a metrics dict as canonical JSON (sorted keys, 2-space).

    Canonical form is what makes the determinism guarantee testable:
    identical runs yield byte-identical files.
    """
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
