"""Residency planning: which arrays live in device memory vs host.

Models the out-of-core strategy of EMOGI (Sec. II): the application
does not page — arrays that do not fit stay in pinned host memory and
are streamed over the interconnect at cacheline granularity
(*zero-copy*).  The planner packs arrays into the device greedily by
caller-assigned priority (hot, small arrays first — the same choice a
practitioner makes by hand).

This is what creates the regions of Fig. 1 / Fig. 10: the same kernel
gets charged DRAM bandwidth for resident arrays and PCIe bandwidth for
host arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Residency", "PlacedArray", "MemoryManager"]


class Residency(enum.Enum):
    """Where an array lives during the kernel."""

    DEVICE = "device"
    HOST = "host"


@dataclass(frozen=True)
class PlacedArray:
    """One registered array and its placement."""

    name: str
    nbytes: int
    priority: int
    residency: Residency


@dataclass
class MemoryManager:
    """Greedy residency planner for one simulated device memory.

    Arrays are registered with a byte size and a priority (lower value =
    placed first).  ``reserve_bytes`` models the working data the
    analytics kernel needs resident (frontiers, visited bitmaps,
    distance arrays) — the paper notes compression matters even for
    in-memory graphs "if additional space is needed for the analytics
    kernel".
    """

    capacity_bytes: int
    reserve_bytes: int = 0
    _arrays: dict[str, tuple[int, int]] = field(default_factory=dict)
    _plan: dict[str, PlacedArray] | None = None

    def register(self, name: str, nbytes: int, priority: int = 0) -> None:
        """Register (or re-register) an array; invalidates the plan."""
        if nbytes < 0:
            raise ValueError(f"negative size for {name}: {nbytes}")
        self._arrays[name] = (int(nbytes), int(priority))
        self._plan = None

    def plan(self) -> dict[str, PlacedArray]:
        """Compute placements greedily by (priority, registration order)."""
        if self._plan is not None:
            return self._plan
        free = self.capacity_bytes - self.reserve_bytes
        placements: dict[str, PlacedArray] = {}
        order = sorted(
            self._arrays.items(), key=lambda kv: (kv[1][1],)
        )  # stable: ties keep registration order
        for name, (nbytes, priority) in order:
            if nbytes <= free:
                residency = Residency.DEVICE
                free -= nbytes
            else:
                residency = Residency.HOST
            placements[name] = PlacedArray(name, nbytes, priority, residency)
        self._plan = placements
        return placements

    def residency(self, name: str) -> Residency:
        """Placement of one array (plans lazily)."""
        plan = self.plan()
        if name not in plan:
            raise KeyError(f"array {name!r} was never registered")
        return plan[name].residency

    def all_resident(self) -> bool:
        """True when every registered array fits on the device."""
        return all(
            p.residency is Residency.DEVICE for p in self.plan().values()
        )

    def summary(self) -> str:
        """Human-readable placement table."""
        lines = [f"capacity {self.capacity_bytes:,} B, reserve {self.reserve_bytes:,} B"]
        for p in self.plan().values():
            lines.append(f"  {p.name:24s} {p.nbytes:14,d} B  {p.residency.value}")
        return "\n".join(lines)
