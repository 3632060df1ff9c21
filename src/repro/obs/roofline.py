"""Roofline / utilization analysis of a finished run.

The paper's performance argument is bandwidth arithmetic: each kernel
moved so many bytes over DRAM or PCIe, so its runtime is bounded by the
larger of the two transfer times — unless the decode instruction count
(EFG's ~70 instr/edge) or a serial chain (CGR's varint parsing) binds
first.  The simulator computes exactly those terms; this module turns
them back into the paper's story: per kernel (and per traversal level)
it reports achieved vs. peak DRAM bandwidth, PCIe bandwidth, and
instruction throughput, and labels the binding term —

* ``memory``  — DRAM traffic dominates (the in-memory regime),
* ``pcie``    — host-link traffic dominates (the out-of-core regime),
* ``compute`` — decode instructions dominate (EFG's trade),
* ``cache``   — on-chip cached reads dominate (decoded-list-cache hits),
* ``latency`` — a serial dependent chain is the critical path (CGR hubs),
* ``overhead``— fixed launch cost dominates (tiny frontiers).

The per-kernel ``seconds`` are the timeline's own numbers, so they sum
to ``engine.elapsed_seconds`` exactly (modulo float association).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.gpusim.engine import SimEngine

__all__ = [
    "KernelRoofline",
    "LevelRoofline",
    "kernel_rooflines",
    "level_rooflines",
    "roofline_report",
]


@dataclass(frozen=True)
class KernelRoofline:
    """Utilization summary of one kernel name across its launches."""

    name: str
    seconds: float
    launches: int
    device_bytes: float
    host_bytes: float
    cached_bytes: float
    instructions: float
    dram_time: float
    link_time: float
    cache_time: float
    compute_time: float
    overhead_time: float
    floor_seconds: float
    bound: str

    @property
    def achieved_dram_bw(self) -> float:
        """DRAM bytes per second actually sustained (0 if no time)."""
        return self.device_bytes / self.seconds if self.seconds > 0 else 0.0

    @property
    def achieved_link_bw(self) -> float:
        """PCIe bytes per second actually sustained."""
        return self.host_bytes / self.seconds if self.seconds > 0 else 0.0

    @property
    def achieved_instr_rate(self) -> float:
        """Instructions per second actually sustained."""
        return self.instructions / self.seconds if self.seconds > 0 else 0.0

    # Fractions of peak are filled in by the analysis (they need the
    # device spec); stored flat so dataclass stays frozen and simple.
    dram_frac: float = 0.0
    link_frac: float = 0.0
    compute_frac: float = 0.0

    #: Array that dominated the binding byte term (per-array traffic
    #: attribution): for a ``pcie``-bound kernel, the host-resident
    #: array whose cachelines bind it; for ``memory``/``cache`` bounds
    #: likewise per residency; otherwise the top array overall.  Empty
    #: when the kernel recorded no attributed traffic.
    bound_array: str = ""


@dataclass(frozen=True)
class LevelRoofline:
    """Utilization summary of one level/iteration span."""

    name: str
    algorithm: str
    seconds: float
    launches: int
    device_bytes: float
    host_bytes: float
    cached_bytes: float
    instructions: float
    bound: str
    #: The level span's driver facts (frontier size, edges expanded, ...).
    attrs: dict
    #: Array that moved the most bytes in the level's launches.
    top_array: str = ""


def _analyze(
    engine: "SimEngine",
    launches: float,
    device_bytes: float,
    host_bytes: float,
    cached_bytes: float,
    instructions: float,
    floor_seconds: float,
) -> tuple[str, dict[str, float]]:
    """Bound label + the cost model's named terms for one cost row.

    The label names the binding term of ``overhead + max(...)``; ties
    break in the terms' fixed order (memory, pcie, cache, compute,
    latency).
    """
    terms = engine.model.time_terms(
        launches, device_bytes, host_bytes, cached_bytes, instructions,
        floor_seconds,
    )
    overlapped = [(k, v) for k, v in terms.items() if k != "overhead"]
    bound, peak = max(overlapped, key=lambda kv: kv[1])
    if terms["overhead"] > peak:
        bound = "overhead"
    return bound, terms


#: Which traffic residency a bound label points at, for bound_array.
_BOUND_RESIDENCY = {"memory": "device", "pcie": "host", "cache": "cache"}


def _bound_array(
    attribution: dict[str, dict], name: str, bound: str
) -> str:
    """Array responsible for the binding byte term of kernel ``name``."""
    from repro.obs.counters import top_array

    table = attribution.get(name, {})
    residency = _BOUND_RESIDENCY.get(bound)
    if residency is not None:
        picked = top_array(table, residency)
        if picked:
            return picked
    # compute/latency/overhead bound (or nothing moved in the binding
    # residency): report the heaviest array overall for context.
    return top_array(table)


def kernel_rooflines(engine: "SimEngine") -> list[KernelRoofline]:
    """Per-kernel utilization rows, sorted by descending time."""
    from repro.obs.counters import kernel_array_attribution

    dev = engine.device
    instruction_rate = engine.model.instruction_rate
    attribution = kernel_array_attribution(engine)
    out: list[KernelRoofline] = []
    for name, row in engine.kernel_summary().items():
        bound, terms = _analyze(
            engine,
            row["launches"],
            row["device_bytes"],
            row["host_bytes"],
            row["cached_bytes"],
            row["instructions"],
            row.get("floor_seconds", 0.0),
        )
        seconds = row["seconds"]
        out.append(
            KernelRoofline(
                name=name,
                seconds=seconds,
                launches=int(row["launches"]),
                device_bytes=row["device_bytes"],
                host_bytes=row["host_bytes"],
                cached_bytes=row["cached_bytes"],
                instructions=row["instructions"],
                dram_time=terms["memory"],
                link_time=terms["pcie"],
                cache_time=terms["cache"],
                compute_time=terms["compute"],
                overhead_time=terms["overhead"],
                floor_seconds=row.get("floor_seconds", 0.0),
                bound=bound,
                dram_frac=(
                    row["device_bytes"] / seconds / dev.dram_bandwidth
                    if seconds > 0 else 0.0
                ),
                link_frac=(
                    row["host_bytes"] / seconds / dev.link_bandwidth
                    if seconds > 0 else 0.0
                ),
                compute_frac=(
                    row["instructions"] / seconds / instruction_rate
                    if seconds > 0 else 0.0
                ),
                bound_array=_bound_array(attribution, name, bound),
            )
        )
    out.sort(key=lambda r: (-r.seconds, r.name))
    return out


def level_rooflines(engine: "SimEngine") -> list[LevelRoofline]:
    """Per-level utilization rows in run order, each summed from the
    level's launch records in launch order."""
    from repro.obs.counters import array_traffic, top_array

    root = engine.tracer.root
    if root is None:
        return []
    # Pre-order visits level spans in opening order, so entry i is the
    # level that launch records name by ordinal i.
    levels = [
        (algo.name, level)
        for algo in root.children
        for level in algo.find("level")
    ]
    records: list[list] = [[] for _ in levels]
    for rec in engine.records:
        if rec.level >= 0:
            records[rec.level].append(rec)
    out: list[LevelRoofline] = []
    for (algorithm, level), recs in zip(levels, records):
        seconds = device = host = cached = instructions = 0.0
        for rec in recs:
            seconds += rec.seconds
            device += rec.cost.device_bytes
            host += rec.cost.host_bytes
            cached += rec.cost.cached_bytes
            instructions += rec.cost.instructions
        bound, _ = _analyze(
            engine, float(len(recs)), device, host, cached, instructions, 0.0
        )
        out.append(
            LevelRoofline(
                name=level.name,
                algorithm=algorithm,
                seconds=seconds,
                launches=len(recs),
                device_bytes=device,
                host_bytes=host,
                cached_bytes=cached,
                instructions=instructions,
                bound=bound,
                attrs=dict(level.attrs),
                top_array=top_array(array_traffic(recs)),
            )
        )
    return out


def fit_name(name: str, width: int) -> str:
    """Fixed-width name cell; long names get a trailing ellipsis."""
    if len(name) <= width:
        return f"{name:{width}s}"
    return name[: width - 1] + "…"


def roofline_report(engine: "SimEngine", max_levels: int = 40) -> str:
    """Text report: per-kernel roofline, then per-level breakdown."""
    dev = engine.device
    rows = kernel_rooflines(engine)
    total = engine.elapsed_seconds or 1.0
    lines = [
        f"device: {dev.name}  peak DRAM {dev.dram_bandwidth / 1e9:.1f} GB/s, "
        f"link {dev.link_bandwidth / 1e9:.1f} GB/s, "
        f"issue {dev.instruction_throughput * engine.params.simt_efficiency / 1e9:.1f} Ginstr/s (derated)",
        f"{'kernel':24s} {'time(ms)':>9s} {'%':>5s} {'bound':>8s} "
        f"{'by array':>14s} "
        f"{'DRAM GB/s':>10s} {'%pk':>5s} {'PCIe GB/s':>10s} {'%pk':>5s} "
        f"{'Ginstr/s':>9s} {'%pk':>5s}",
    ]
    for r in rows:
        lines.append(
            f"{fit_name(r.name, 24)} {r.seconds * 1e3:9.3f} "
            f"{100 * r.seconds / total:5.1f} {r.bound:>8s} "
            f"{fit_name(r.bound_array or '-', 14).strip():>14s} "
            f"{r.achieved_dram_bw / 1e9:10.2f} {100 * r.dram_frac:5.1f} "
            f"{r.achieved_link_bw / 1e9:10.2f} {100 * r.link_frac:5.1f} "
            f"{r.achieved_instr_rate / 1e9:9.2f} {100 * r.compute_frac:5.1f}"
        )
    levels = level_rooflines(engine)
    if levels:
        lines.append("")
        lines.append(
            f"{'level':24s} {'time(ms)':>9s} {'bound':>8s} {'launches':>8s} "
            f"{'MB moved':>9s} {'frontier':>9s} {'edges':>10s} "
            f"{'top array':>14s}"
        )
        shown = levels[:max_levels]
        for lv in shown:
            moved = (lv.device_bytes + lv.host_bytes) / 1e6
            frontier = lv.attrs.get("frontier_size", "")
            edges = lv.attrs.get("edges_expanded", "")
            top = lv.top_array or "-"
            lines.append(
                f"{fit_name(f'{lv.algorithm}/{lv.name}', 24)} "
                f"{lv.seconds * 1e3:9.3f} {lv.bound:>8s} {lv.launches:8d} "
                f"{moved:9.3f} {frontier!s:>9s} {edges!s:>10s} "
                f"{fit_name(str(top), 14).strip():>14s}"
            )
        if len(levels) > len(shown):
            lines.append(f"... {len(levels) - len(shown)} more levels")
    return "\n".join(lines)
