"""Emulated hardware counters and per-array traffic attribution.

The cost model tags every byte term with the array that generated it
(:class:`repro.gpusim.cost.ArrayTraffic`); this module is the analysis
layer that turns those tags into the counter surface an ``nvprof`` /
``ncu`` run would show:

* :func:`kernel_array_attribution` — the per-kernel x per-array table
  (the paper's Fig. 1 decomposition: which structure moved how many
  DRAM vs PCIe sectors);
* :func:`emulated_counters` — per-kernel derived counters: sectors,
  transactions, coalescing efficiency (requested vs moved bytes at
  sector granularity), warp execution efficiency, cache-hit bytes;
* :func:`verify_attribution` — the premise of the one byte ledger:
  every per-array moved-bytes entry is an exact integer with a known
  residency, so the derived byte columns sum exactly;
* :func:`array_traffic` / :func:`top_array` — helpers the roofline
  uses to label what bound a kernel or a level.

Everything is derived from the immutable launch records, so two runs
with the same seed produce byte-identical counter tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpusim.cost import ArrayTraffic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.engine import SimEngine

__all__ = [
    "kernel_array_attribution",
    "emulated_counters",
    "verify_attribution",
    "array_traffic",
    "top_array",
    "counters_report",
]

#: Residencies a traffic entry may carry (one per byte column).
_RESIDENCIES = ("device", "host", "cache")

#: Integer-valued floats below this add exactly in any order.
_EXACT_LIMIT = 2.0**53


def array_traffic(records) -> dict[str, ArrayTraffic]:
    """Per-array traffic merged over ``records`` (launch records)."""
    table: dict[str, ArrayTraffic] = {}
    for record in records:
        for array, traffic in record.cost.traffic.items():
            entry = table.get(array)
            if entry is None:
                table[array] = traffic.copy()
            else:
                entry.merge(traffic)
    return table


def kernel_array_attribution(
    engine: "SimEngine",
) -> dict[str, dict[str, ArrayTraffic]]:
    """Per-kernel x per-array traffic table of the whole timeline.

    Returns ``{kernel_name: {array: ArrayTraffic}}``.
    """
    by_name: dict[str, list] = {}
    for record in engine.records:
        by_name.setdefault(record.name, []).append(record)
    return {name: array_traffic(recs) for name, recs in by_name.items()}


def emulated_counters(engine: "SimEngine") -> dict[str, dict[str, float]]:
    """nvprof-style derived counters per kernel name.

    * ``dram_bytes`` / ``pcie_bytes`` / ``cache_hit_bytes`` — moved
      bytes per residency (sum exactly to the launch byte columns);
    * ``dram_sectors`` / ``pcie_sectors`` — transfer units moved (the
      transaction counts, at 32 B sector / 128 B cacheline granularity);
    * ``dram_requested_bytes`` / ``pcie_requested_bytes`` — bytes the
      lanes logically demanded;
    * ``coalescing_efficiency`` — requested / moved over DRAM + PCIe;
      > 1 when broadcasts or the coalescing window merged requests;
    * ``warp_efficiency`` — active-lane fraction recorded via
      :meth:`~repro.gpusim.kernel.KernelLaunch.warp_occupancy` (1.0
      when the kernel recorded no per-lane work distribution).
    """
    out: dict[str, dict[str, float]] = {}
    lanes: dict[str, list[float]] = {}
    for record in engine.records:
        row = out.setdefault(
            record.name,
            {
                "dram_bytes": 0.0,
                "dram_sectors": 0.0,
                "dram_requested_bytes": 0.0,
                "pcie_bytes": 0.0,
                "pcie_sectors": 0.0,
                "pcie_requested_bytes": 0.0,
                "cache_hit_bytes": 0.0,
            },
        )
        active, slots = lanes.setdefault(record.name, [0.0, 0.0])
        lanes[record.name] = [
            active + record.cost.active_lanes,
            slots + record.cost.lane_slots,
        ]
        for traffic in record.cost.traffic.values():
            if traffic.residency == "device":
                row["dram_bytes"] += traffic.moved_bytes
                row["dram_sectors"] += traffic.sectors
                row["dram_requested_bytes"] += traffic.requested_bytes
            elif traffic.residency == "host":
                row["pcie_bytes"] += traffic.moved_bytes
                row["pcie_sectors"] += traffic.sectors
                row["pcie_requested_bytes"] += traffic.requested_bytes
            else:
                row["cache_hit_bytes"] += traffic.moved_bytes
    for name, row in out.items():
        moved = row["dram_bytes"] + row["pcie_bytes"]
        requested = row["dram_requested_bytes"] + row["pcie_requested_bytes"]
        row["coalescing_efficiency"] = requested / moved if moved else 1.0
        active, slots = lanes[name]
        row["warp_efficiency"] = active / slots if slots else 1.0
    return out


def verify_attribution(engine: "SimEngine") -> None:
    """Assert every launch's traffic can back its derived byte columns.

    ``KernelCost`` keeps one ledger: ``device_bytes`` / ``host_bytes``
    / ``cached_bytes`` are summed from ``traffic``, so they cannot
    disagree with it.  They are exact in any summation order only if
    every ``moved_bytes`` is a finite, non-negative integer below
    2**53 with a known residency; this checks that premise and raises
    ``AssertionError`` naming the first launch that breaks it.
    """
    for index, record in enumerate(engine.records):
        for array, traffic in record.cost.traffic.items():
            moved = traffic.moved_bytes
            if traffic.residency not in _RESIDENCIES:
                problem = f"unknown residency {traffic.residency!r}"
            elif not (0 <= moved < _EXACT_LIMIT and moved == int(moved)):
                problem = f"moved_bytes {moved!r} is not an exact integer"
            else:
                continue
            raise AssertionError(
                f"launch {index} ({record.name}): {array}: {problem}"
            )


def top_array(
    table: dict[str, ArrayTraffic], residency: str | None = None
) -> str:
    """Name of the array that moved the most bytes (optionally filtered).

    Ties break alphabetically so the answer is deterministic; returns
    ``""`` when nothing matches.
    """
    best = ""
    best_bytes = -1.0
    for array in sorted(table):
        traffic = table[array]
        if residency is not None and traffic.residency != residency:
            continue
        if traffic.moved_bytes > best_bytes:
            best, best_bytes = array, traffic.moved_bytes
    return best


def counters_report(engine: "SimEngine") -> str:
    """Text table of the emulated counters and the attribution split."""
    counters = emulated_counters(engine)
    attribution = kernel_array_attribution(engine)
    lines = [
        f"{'kernel':24s} {'dram MB':>9s} {'sectors':>10s} {'pcie MB':>9s} "
        f"{'lines':>8s} {'cache MB':>9s} {'coal':>6s} {'warp':>6s}"
    ]
    for name in sorted(counters):
        row = counters[name]
        lines.append(
            f"{name[:24]:24s} {row['dram_bytes'] / 1e6:9.3f} "
            f"{int(row['dram_sectors']):10d} "
            f"{row['pcie_bytes'] / 1e6:9.3f} {int(row['pcie_sectors']):8d} "
            f"{row['cache_hit_bytes'] / 1e6:9.3f} "
            f"{row['coalescing_efficiency']:6.2f} "
            f"{row['warp_efficiency']:6.2f}"
        )
    lines.append(
        f"{'kernel / array':36s} {'res':>6s} {'moved MB':>9s} "
        f"{'req MB':>9s} {'sectors':>10s}"
    )
    for name in sorted(attribution):
        for array in sorted(attribution[name]):
            traffic = attribution[name][array]
            lines.append(
                f"{(name + ' / ' + array)[:36]:36s} "
                f"{traffic.residency:>6s} "
                f"{traffic.moved_bytes / 1e6:9.3f} "
                f"{traffic.requested_bytes / 1e6:9.3f} "
                f"{int(traffic.sectors):10d}"
            )
    return "\n".join(lines)
