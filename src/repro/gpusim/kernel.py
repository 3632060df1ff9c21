"""Kernel launch recording interface.

Traversal code wraps each logical GPU kernel in a :class:`KernelLaunch`
(usually via :meth:`repro.gpusim.engine.SimEngine.launch`) and reports
the accesses it performs while the vectorized NumPy does the actual
work.  Keeping the accounting calls adjacent to the computation keeps
traffic honest: the counts come from live array sizes, never constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.cost import AccessPattern, CostModel, KernelCost

__all__ = ["KernelLaunch"]


@dataclass
class KernelLaunch:
    """One simulated kernel launch being recorded."""

    name: str
    model: CostModel
    cost: KernelCost = field(init=False)

    def __post_init__(self) -> None:
        self.cost = KernelCost(name=self.name)

    # -- memory traffic -------------------------------------------------

    def read(self, array: str, count: int, elem_bytes: int) -> None:
        """Record ``count`` coalesced reads of ``elem_bytes`` from ``array``."""
        self.model.charge(
            self.cost, array, count, elem_bytes, AccessPattern.COALESCED
        )

    def write(self, array: str, count: int, elem_bytes: int) -> None:
        """Record writes; charged like reads (write-allocate traffic)."""
        self.model.charge(
            self.cost, array, count, elem_bytes, AccessPattern.COALESCED
        )

    def atomic(self, array: str, count: int, elem_bytes: int = 4) -> None:
        """Record atomics: a random read-modify-write per operation."""
        self.model.charge(self.cost, array, count, elem_bytes, AccessPattern.RANDOM)
        self.cost.instructions += 2.0 * count  # RMW issue cost

    def read_stream(self, array: str, ids, elem_bytes: int) -> None:
        """Record an access stream with measured coalescing.

        ``ids`` are the element indices in issue order; consecutive
        accesses falling in the same transfer unit are merged, so the
        charge reflects the stream's real locality.
        """
        self.model.charge_stream(self.cost, array, ids, elem_bytes)

    def read_ranges(self, array: str, starts, lengths, elem_bytes: int) -> None:
        """Record a stream of contiguous id ranges with measured coalescing.

        The same charge as :meth:`read_stream` over ``starts[r] +
        0..lengths[r]-1`` for each range in order (one segment per
        frontier vertex, say), without building those ids.
        """
        self.model.charge_ranges(self.cost, array, starts, lengths, elem_bytes)

    def cached_read(self, tag: str, count: int, elem_bytes: int) -> None:
        """Record reads served from on-chip cache (decoded-list hits).

        No DRAM or PCIe traffic is generated; the bytes stream out of
        L2/shared memory at ``cached_bw_ratio`` x DRAM bandwidth.
        ``tag`` names the logical cached structure (it need not be a
        registered array — cache residency is budgeted separately).
        """
        self.model.charge_cached(self.cost, tag, count, elem_bytes)

    def warp_occupancy(self, list_lengths) -> None:
        """Record warp divergence from the per-lane work distribution.

        ``list_lengths`` is the work each consecutive lane performs —
        for expand kernels, the adjacency-list length of each frontier
        vertex in issue order.  Lanes are grouped into warps of
        ``warp_width``; a warp runs for as many steps as its *longest*
        list while shorter lanes idle, so the launch accumulates
        ``sum(lengths)`` active lanes against
        ``warp_width * sum(per-warp max)`` occupied lane slots.  The
        ratio is the emulated ``warp_execution_efficiency`` counter —
        skewed degree distributions (hub + leaves in one warp) drive it
        down exactly as on hardware.
        """
        lengths = np.asarray(list_lengths, dtype=np.float64).ravel()
        if lengths.size == 0:
            return
        if float(lengths.min()) < 0:
            raise ValueError("negative list length")
        width = self.model.params.warp_width
        pad = (-lengths.size) % width
        if pad:
            lengths = np.concatenate([lengths, np.zeros(pad)])
        per_warp = lengths.reshape(-1, width)
        self.cost.active_lanes += float(per_warp.sum())
        self.cost.lane_slots += float(per_warp.max(axis=1).sum() * width)

    # -- compute ---------------------------------------------------------

    def instructions(self, count: float) -> None:
        """Record ``count`` data-parallel instructions."""
        if count < 0:
            raise ValueError(f"negative instruction count: {count}")
        self.cost.instructions += float(count)

    def bitmask_ops(self, count: float) -> None:
        """Record ``count`` wide bitmask ALU operations.

        One 64-bit OR/AND/shift updates the traversal state of up to 64
        concurrent sources at once — the bit-parallel multi-source BFS
        trick.  Each op costs a single data-parallel instruction no
        matter how many sources it serves.
        """
        if count < 0:
            raise ValueError(f"negative bitmask op count: {count}")
        self.cost.instructions += float(count)

    def serial_work(self, lane_instructions: float) -> None:
        """Record work executed by a single lane while its warp waits.

        Used for dependent decode chains (CGR varint parsing): one lane
        doing N instructions occupies warp_width lane-slots.
        """
        if lane_instructions < 0:
            raise ValueError("negative serial work")
        self.cost.instructions += float(lane_instructions) * self.model.params.warp_width

    def serial_floor(self, lane_cycles: float) -> None:
        """Impose a critical-path floor of ``lane_cycles`` core cycles.

        Models the longest dependent chain in the launch (e.g. one hub
        list parsed by a single lane): the kernel cannot finish sooner
        regardless of bandwidth or free SMs.
        """
        if lane_cycles < 0:
            raise ValueError("negative floor")
        self.cost.floor_seconds = max(
            self.cost.floor_seconds, lane_cycles / self.model.device.clock_hz
        )
