"""Residency planning: which arrays live in device memory vs host.

Models the out-of-core strategy of EMOGI (Sec. II): the application
does not page — arrays that do not fit stay in pinned host memory and
are streamed over the interconnect at cacheline granularity
(*zero-copy*).  The planner packs arrays into the device greedily by
caller-assigned priority (hot, small arrays first — the same choice a
practitioner makes by hand).

A plan holds two kinds of arrays.  *Persistent* ones (:meth:`
MemoryManager.register`: the format's metadata and payload, edge
weights, a list cache's budget) live as long as the backend.  The
*working set* (:meth:`MemoryManager.working`) is the per-vertex state
of one run's kernels — the space the paper notes "the analytics
kernel" needs on top of the graph — and each run replaces the previous
run's set, so no run is planned with arrays an earlier run left behind.

This is what creates the regions of Fig. 1 / Fig. 10: the same kernel
gets charged DRAM bandwidth for resident arrays and PCIe bandwidth for
host arrays.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field

__all__ = ["WORKING_PRIORITY", "Residency", "PlacedArray", "MemoryManager"]

#: Priority of every working array: placed before the graph, mirroring
#: how one allocates a kernel's outputs before deciding what else fits
#: (Sec. II bullet 1).
WORKING_PRIORITY = -1


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

    Arrays are placed by priority (lower value = placed first).  Ties
    go to the working set first, in the order it was given, then to
    the persistent arrays in registration order.
    """

    capacity_bytes: int
    _arrays: dict[str, tuple[int, int]] = field(default_factory=dict)
    _working: dict[str, tuple[int, int]] = field(default_factory=dict)
    _plan: dict[str, PlacedArray] | None = None

    def register(self, name: str, nbytes: int, priority: int = 0) -> None:
        """Register (or re-register) a persistent array; invalidates
        the plan."""
        self._arrays[name] = (_size(name, nbytes), int(priority))
        self._plan = None

    def working(self, arrays: Mapping[str, int]) -> None:
        """Replace the working set with ``arrays`` (name -> bytes, in
        placement order, all at :data:`WORKING_PRIORITY`); invalidates
        the plan."""
        self._working = {
            name: (_size(name, nbytes), WORKING_PRIORITY)
            for name, nbytes in arrays.items()
        }
        self._plan = None

    def plan(self) -> dict[str, PlacedArray]:
        """Compute placements greedily by (priority, tie order)."""
        if self._plan is not None:
            return self._plan
        free = self.capacity_bytes
        placements: dict[str, PlacedArray] = {}
        order = sorted(
            [*self._working.items(), *self._arrays.items()],
            key=lambda kv: kv[1][1],
        )  # stable: ties keep the working-then-persistent order
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
        """True when every array of the plan fits on the device."""
        return all(
            p.residency is Residency.DEVICE for p in self.plan().values()
        )

    def summary(self) -> str:
        """Human-readable placement table."""
        lines = [f"capacity {self.capacity_bytes:,} B"]
        for p in self.plan().values():
            lines.append(f"  {p.name:24s} {p.nbytes:14,d} B  {p.residency.value}")
        return "\n".join(lines)


def _size(name: str, nbytes: int) -> int:
    """``nbytes`` as an int, rejecting a negative size."""
    if nbytes < 0:
        raise ValueError(f"negative size for {name}: {nbytes}")
    return int(nbytes)
