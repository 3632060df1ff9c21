"""Analytic kernel cost model.

Converts the traffic a kernel *actually generated* — measured from the
real data structures, not assumed — into a simulated runtime:

``time = launch_overhead + max(dram_time, link_time, cache_time,
compute_time, floor)`` (:meth:`CostModel.time_terms` names the terms)

* ``dram_time`` — bytes touched in device-resident arrays over the
  device bandwidth, with sector-granularity amplification for
  uncoalesced accesses (an uncoalesced 4 B load still moves a 32 B
  sector).
* ``link_time`` — bytes touched in host-resident arrays over the PCIe
  bandwidth at zero-copy cacheline granularity (the EMOGI model,
  Sec. II).
* ``compute_time`` — instructions over the chip's effective
  instruction throughput.  ``simt_efficiency`` models divergence,
  dependency stalls and occupancy limits of irregular kernels (binary
  searches, LUT probes, shared-memory syncs); graph kernels typically
  sustain 10-20% of peak issue rate.

Serialized work (CGR's dependent varint chains, where one lane of a
warp parses while the rest idle) is charged via
:meth:`KernelLaunch.serial_work`, which multiplies by the warp width —
the SIMT cost of a sequential algorithm.

The overlap assumption (``max`` rather than sum) matches a
memory-bound GPU kernel with enough concurrent warps to hide whichever
component is not the bottleneck.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import MemoryManager, Residency

__all__ = [
    "AccessPattern",
    "ArrayTraffic",
    "CostParams",
    "KernelCost",
    "CostModel",
    "range_transfer_bytes",
    "stream_transfer_bytes",
]


#: Accesses whose transfer unit reappeared within this many prior
#: accesses are merged — models the coalescer plus the L2/MSHR window
#: that combines requests from concurrently-running warps.
COALESCE_WINDOW = 32

#: Accesses :func:`stream_transfer_bytes` prices per block: its scratch
#: is one unit and two bools per access of a block and its look-back,
#: whatever the stream's length.
_STREAM_BLOCK = 1 << 16


def stream_transfer_bytes(
    ids: np.ndarray,
    elem_bytes: int,
    unit_bytes: int,
    window: int = COALESCE_WINDOW,
) -> int:
    """Bytes a coalescing memory system moves for an access stream.

    ``ids`` are element indices in issue order.  An access whose
    ``unit_bytes`` transfer unit (DRAM sector or PCIe cacheline) was
    touched within the previous ``window`` accesses is merged with the
    in-flight request — the hardware coalescer + L2 hit behaviour — so
    a clustered stream costs close to ``len * elem_bytes`` while a
    scattered one costs a full unit per access.  This is what makes the
    model sensitive to frontier ordering (Sec. VI-E) and to graph
    reordering (Sec. VIII-D): locality is *measured* from the ids the
    kernel really touches.

    The stream is walked in blocks of ``_STREAM_BLOCK`` accesses, each
    loaded with the ``window`` accesses before it, so the scratch is
    the same few buffers for any stream length.
    """
    ids = np.asarray(ids).reshape(-1)
    n = ids.shape[0]
    if n == 0:
        return 0
    _check_stream_args(elem_bytes, unit_bytes, window)
    block = min(_STREAM_BLOCK, n)
    # Each block is loaded behind the (up to) ``window`` accesses before
    # it; those are looked back to but not counted again.
    size = block + min(window, n - block)
    # The passes compare faster at int32, which holds every unit (and
    # every product on the way) whenever it holds every
    # ``id * elem_bytes`` and ``unit_bytes``.
    top = max(abs(int(ids.min())), abs(int(ids.max())), 1) * elem_bytes
    narrow = max(top, unit_bytes) < 1 << 31
    units = np.empty(size, dtype=np.int32 if narrow else np.int64)
    merged = np.empty(size, dtype=bool)
    equal = np.empty(size, dtype=bool)
    misses = 0
    for b0 in range(0, n, block):
        back = min(window, b0)
        u = units[: back + min(block, n - b0)]
        u[...] = ids[b0 - back : b0 + block]
        u *= elem_bytes
        u //= unit_bytes
        loaded = u.shape[0]
        hit = merged[:loaded]
        hit[...] = False
        for k in range(1, min(window, loaded - 1) + 1):
            eq = equal[k:loaded]
            np.equal(u[k:], u[:-k], out=eq)
            hit[k:] |= eq
        misses += loaded - back - int(np.count_nonzero(hit[back:]))
    return misses * unit_bytes


def _check_stream_args(elem_bytes: int, unit_bytes: int, window: int) -> None:
    if elem_bytes <= 0 or unit_bytes <= 0:
        raise ValueError("elem_bytes and unit_bytes must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")


def range_transfer_bytes(
    starts: np.ndarray,
    lengths: np.ndarray,
    elem_bytes: int,
    unit_bytes: int,
    window: int = COALESCE_WINDOW,
) -> int:
    """:func:`stream_transfer_bytes` of a stream of contiguous id ranges.

    The stream is ``starts[r], starts[r]+1, ..., starts[r]+lengths[r]-1``
    for each range ``r`` in order (the ids ``csr_gather_indices`` would
    build), and the result equals ``stream_transfer_bytes`` over those
    ids for every input, but is computed from the O(ranges) arrays
    without building the O(total) stream:

    * Units never decrease inside a range, so a position whose unit
      equals its predecessor's merges, and a unit change at in-range
      index ``j >= window`` misses: its whole window lies in the range,
      at lower units.  Those are counted per range in closed form.
    * The remaining candidates (``j = 0`` and the unit changes at
      ``1 <= j < window``) are checked against the last ``window - j``
      accesses of the earlier ranges, walking back one range tail per
      pass.  A tail's ids are contiguous, so its units form the closed
      interval between its first and last unit.  Each pass uses up at
      least one access of every live candidate, so there are at most
      ``window`` passes.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have the same shape")
    if lengths.size and int(lengths.min()) < 0:
        raise ValueError("lengths must be non-negative")
    if not lengths.all():
        keep = lengths > 0
        starts, lengths = starts[keep], lengths[keep]
    if lengths.size == 0:
        return 0
    _check_stream_args(elem_bytes, unit_bytes, window)
    e, u = int(elem_bytes), int(unit_bytes)
    ends = starts + lengths  # one past each range's last id
    last_unit = (ends - 1) * e // u
    head = np.minimum(lengths, window)

    # Unit changes at in-range index j >= window: always misses.  With
    # elem_bytes <= unit_bytes a step moves at most one unit, so the
    # changes are the unit distance; with larger elements every step
    # changes unit.
    deep = lengths > window
    if e > u:
        misses = int(lengths[deep].sum()) - window * int(deep.sum())
    else:
        misses = int(
            (last_unit[deep] - (starts[deep] + window - 1) * e // u).sum()
        )

    # Candidates: range id, unit, and how many earlier accesses are in
    # their window (``window - j``).
    if e > u:
        count = head
    else:
        first_unit = starts * e // u
        count = (starts + head - 1) * e // u - first_unit + 1
    total = int(count.sum())
    rng = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), count)
    offset = np.arange(total, dtype=np.int64)
    offset -= np.repeat(np.cumsum(count) - count, count)
    if e > u:
        # Every head position changes unit: j is the offset itself.
        budget = window - offset
        unit = (starts[rng] + offset) * e // u
    else:
        # The k-th candidate is the first id of unit first_unit + k.
        unit = first_unit[rng] + offset
        j = -((-unit * u) // e) - starts[rng]
        np.maximum(j, 0, out=j)
        budget = window - j

    while rng.size:
        rng -= 1
        # A candidate before the first range has no earlier access left.
        alive = rng >= 0
        misses += rng.size - int(np.count_nonzero(alive))
        rng, unit, budget = rng[alive], unit[alive], budget[alive]
        take = np.minimum(lengths[rng], budget)
        hit = ((ends[rng] - take) * e // u <= unit) & (unit <= last_unit[rng])
        budget -= take
        misses += int(np.count_nonzero(~hit & (budget == 0)))
        pending = ~hit & (budget > 0)
        rng, unit, budget = rng[pending], unit[pending], budget[pending]
    return misses * u


class AccessPattern(enum.Enum):
    """How a kernel touches an array."""

    #: Sequential, full-sector utilisation (e.g. scanning elist ranges).
    COALESCED = "coalesced"
    #: Data-dependent scatter/gather — every element pulls a whole
    #: sector (device) or cacheline (host link).
    RANDOM = "random"


@dataclass(frozen=True)
class CostParams:
    """Calibration constants (documented in DESIGN.md).

    ``simt_efficiency`` — sustained fraction of peak issue rate for
    irregular integer kernels.  ``warp_width`` — lanes that idle while
    serialized code runs on one.  ``cached_bw_ratio`` — bandwidth of
    on-chip cache/shared-memory reads relative to DRAM (L2 on Pascal
    sustains roughly 3-5x DRAM bandwidth); cached reads recorded via
    :meth:`KernelLaunch.cached_read` are charged at this multiple.
    """

    simt_efficiency: float = 0.15
    warp_width: int = 32
    cached_bw_ratio: float = 4.0

    def __post_init__(self) -> None:
        if not 0 < self.simt_efficiency <= 1:
            raise ValueError("simt_efficiency must be in (0, 1]")
        if self.warp_width < 1:
            raise ValueError("warp_width must be >= 1")
        if self.cached_bw_ratio < 1:
            raise ValueError("cached_bw_ratio must be >= 1")


@dataclass
class ArrayTraffic:
    """Traffic one kernel generated against one array (or cache tag).

    The emulated-counter analogue of an nvprof per-data-structure row:

    * ``residency`` — ``"device"``, ``"host"`` or ``"cache"``; decides
      which byte column (and which transfer unit) the traffic landed in.
    * ``moved_bytes`` — bytes the memory system actually transferred,
      at sector/cacheline granularity.  The launch's
      ``device_bytes`` / ``host_bytes`` / ``cached_bytes`` are summed
      from these, so they need integer values to stay order-exact.
    * ``requested_bytes`` — bytes the lanes logically demanded
      (``count * elem_bytes``).  ``requested / moved`` is the coalescing
      efficiency; it exceeds 1 when broadcasts or the coalescing window
      merge many requests into one transfer.
    * ``sectors`` — transfer units moved (DRAM sectors or PCIe
      cachelines); the nvprof transaction count.  Cache hits move no
      sectors.
    * ``accesses`` — element-level requests issued.
    """

    residency: str
    moved_bytes: float = 0.0
    requested_bytes: float = 0.0
    sectors: float = 0.0
    accesses: float = 0.0

    def add(
        self, moved: float, requested: float, sectors: float, accesses: float
    ) -> None:
        self.moved_bytes += moved
        self.requested_bytes += requested
        self.sectors += sectors
        self.accesses += accesses

    def merge(self, other: "ArrayTraffic") -> None:
        self.add(
            other.moved_bytes, other.requested_bytes, other.sectors, other.accesses
        )

    def copy(self) -> "ArrayTraffic":
        return ArrayTraffic(
            residency=self.residency,
            moved_bytes=self.moved_bytes,
            requested_bytes=self.requested_bytes,
            sectors=self.sectors,
            accesses=self.accesses,
        )

    def to_dict(self) -> dict[str, float | str]:
        return {
            "residency": self.residency,
            "moved_bytes": self.moved_bytes,
            "requested_bytes": self.requested_bytes,
            "sectors": self.sectors,
            "accesses": self.accesses,
        }


@dataclass
class KernelCost:
    """Accumulated cost of one kernel launch.

    ``floor_seconds`` is a critical-path lower bound that the ``max``
    in :meth:`CostModel.kernel_seconds` cannot hide behind bandwidth:
    a dependent chain no amount of parallel hardware can shorten
    (e.g. CGR's longest per-list varint chain).

    ``traffic`` is the launch's one record of bytes, keyed by the
    registered array name (or ``cache:<tag>`` for cached reads); the
    ``device_bytes`` / ``host_bytes`` / ``cached_bytes`` columns and
    ``breakdown`` are read-only views summed from it.  Every charge
    records integer-valued bytes, so the sums are exact in any order.
    ``active_lanes`` / ``lane_slots`` accumulate the warp occupancy
    recorded by :meth:`KernelLaunch.warp_occupancy`.
    """

    name: str
    instructions: float = 0.0
    floor_seconds: float = 0.0
    launches: int = 1
    traffic: dict[str, ArrayTraffic] = field(default_factory=dict)
    active_lanes: float = 0.0
    lane_slots: float = 0.0

    def _moved(self, residency: str) -> float:
        total = 0.0
        for entry in self.traffic.values():
            if entry.residency == residency:
                total += entry.moved_bytes
        return total

    @property
    def device_bytes(self) -> float:
        """Bytes moved over DRAM (device-resident arrays)."""
        return self._moved("device")

    @property
    def host_bytes(self) -> float:
        """Bytes moved over the host link (host-resident arrays)."""
        return self._moved("host")

    @property
    def cached_bytes(self) -> float:
        """Bytes served from on-chip cache."""
        return self._moved("cache")

    @property
    def breakdown(self) -> dict[str, float]:
        """Moved bytes per array, in first-charge order."""
        return {key: entry.moved_bytes for key, entry in self.traffic.items()}

    def add_traffic(
        self,
        array: str,
        residency: str,
        moved: float,
        requested: float,
        sectors: float,
        accesses: float,
    ) -> None:
        """Accumulate one charge into the per-array traffic table."""
        entry = self.traffic.get(array)
        if entry is None:
            entry = self.traffic[array] = ArrayTraffic(residency=residency)
        entry.add(moved, requested, sectors, accesses)

    def snapshot(self) -> "KernelCost":
        """Deep-enough copy for an immutable :class:`LaunchRecord`."""
        return KernelCost(
            name=self.name,
            instructions=self.instructions,
            floor_seconds=self.floor_seconds,
            launches=self.launches,
            traffic={key: entry.copy() for key, entry in self.traffic.items()},
            active_lanes=self.active_lanes,
            lane_slots=self.lane_slots,
        )


@dataclass
class CostModel:
    """Charges :class:`KernelCost` records against a :class:`DeviceSpec`."""

    device: DeviceSpec
    memory: MemoryManager
    params: CostParams = field(default_factory=CostParams)

    def effective_bytes(
        self, count: int, elem_bytes: int, pattern: AccessPattern, residency: Residency
    ) -> float:
        """Bytes actually moved for ``count`` accesses of ``elem_bytes``."""
        if count < 0 or elem_bytes < 0:
            raise ValueError("count and elem_bytes must be non-negative")
        if pattern is AccessPattern.COALESCED:
            return float(count * elem_bytes)
        # RANDOM: each access pulls a whole transfer unit.
        if residency is Residency.DEVICE:
            unit = self.device.sector_bytes
        else:
            unit = self.device.link_line_bytes
        return float(count * max(elem_bytes, unit))

    def transfer_unit(self, residency: Residency) -> int:
        """Transfer-unit size for a residency: DRAM sector or PCIe line."""
        if residency is Residency.DEVICE:
            return self.device.sector_bytes
        return self.device.link_line_bytes

    def charge(
        self,
        cost: KernelCost,
        array: str,
        count: int,
        elem_bytes: int,
        pattern: AccessPattern,
    ) -> None:
        """Record an access to a registered array on ``cost``."""
        residency = self.memory.residency(array)
        nbytes = self.effective_bytes(count, elem_bytes, pattern, residency)
        unit = self.transfer_unit(residency)
        cost.add_traffic(
            array,
            residency.value,
            moved=nbytes,
            requested=float(count * elem_bytes),
            sectors=float(math.ceil(nbytes / unit)) if nbytes else 0.0,
            accesses=float(count),
        )

    def charge_stream(
        self, cost: KernelCost, array: str, ids: np.ndarray, elem_bytes: int
    ) -> None:
        """Charge an access stream with measured coalescing."""
        residency = self.memory.residency(array)
        unit = self.transfer_unit(residency)
        nbytes = stream_transfer_bytes(ids, elem_bytes, unit)
        self._add_stream(
            cost, array, residency, nbytes, unit, np.asarray(ids).size, elem_bytes
        )

    def charge_ranges(
        self,
        cost: KernelCost,
        array: str,
        starts: np.ndarray,
        lengths: np.ndarray,
        elem_bytes: int,
    ) -> None:
        """Charge a stream of contiguous id ranges with measured coalescing.

        Records exactly what :meth:`charge_stream` records for the
        concatenated ranges, priced by :func:`range_transfer_bytes` in
        O(ranges) host memory.
        """
        residency = self.memory.residency(array)
        unit = self.transfer_unit(residency)
        nbytes = range_transfer_bytes(starts, lengths, elem_bytes, unit)
        count = int(np.asarray(lengths, dtype=np.int64).sum())
        self._add_stream(cost, array, residency, nbytes, unit, count, elem_bytes)

    @staticmethod
    def _add_stream(
        cost: KernelCost,
        array: str,
        residency: Residency,
        nbytes: int,
        unit: int,
        count: int,
        elem_bytes: int,
    ) -> None:
        cost.add_traffic(
            array,
            residency.value,
            moved=float(nbytes),
            requested=float(count * elem_bytes),
            # The stream pricers return misses * unit, so this is
            # exactly the miss count — the sectors the stream moved.
            sectors=float(nbytes // unit),
            accesses=float(count),
        )

    def charge_cached(
        self, cost: KernelCost, tag: str, count: int, elem_bytes: int
    ) -> None:
        """Charge reads served from on-chip cache (no DRAM traffic).

        Used by the decoded-list cache: a hit streams the already-decoded
        neighbour array out of L2/shared memory instead of re-reading and
        re-decoding the compressed payload.  Charged at
        ``cached_bw_ratio`` times DRAM bandwidth in
        :meth:`kernel_seconds`; the traffic entry is keyed
        ``cache:<tag>`` so reports can separate it from DRAM traffic.
        """
        if count < 0 or elem_bytes < 0:
            raise ValueError("count and elem_bytes must be non-negative")
        nbytes = float(count * elem_bytes)
        cost.add_traffic(
            f"cache:{tag}",
            "cache",
            moved=nbytes,
            requested=nbytes,
            sectors=0.0,
            accesses=float(count),
        )

    @property
    def instruction_rate(self) -> float:
        """Effective (derated) instructions per second."""
        return self.device.instruction_throughput * self.params.simt_efficiency

    def compute_seconds(self, instructions: float) -> float:
        """Instruction time at the effective (derated) issue rate."""
        return instructions / self.instruction_rate

    def time_terms(
        self,
        launches: float,
        device_bytes: float,
        host_bytes: float,
        cached_bytes: float,
        instructions: float,
        floor_seconds: float,
    ) -> dict[str, float]:
        """The named terms of ``overhead + max(...)`` for scalar totals.

        The one pricing formula: ``overhead`` is the fixed launch cost,
        the rest are the overlapped terms the ``max`` picks from, keyed
        by the bound label each one gives a kernel (``memory`` = DRAM,
        ``pcie`` = host link, ``cache`` = on-chip cached reads,
        ``compute`` = derated instructions, ``latency`` = serial chain).
        """
        dev = self.device
        return {
            "overhead": launches * dev.launch_overhead_s,
            "memory": device_bytes / dev.dram_bandwidth,
            "pcie": host_bytes / dev.link_bandwidth,
            "cache": cached_bytes
            / (dev.dram_bandwidth * self.params.cached_bw_ratio),
            "compute": self.compute_seconds(instructions),
            "latency": floor_seconds,
        }

    @staticmethod
    def total_seconds(terms: dict[str, float]) -> float:
        """``overhead + max(the rest)`` of a :meth:`time_terms` dict."""
        return terms["overhead"] + max(
            terms["memory"],
            terms["pcie"],
            terms["cache"],
            terms["compute"],
            terms["latency"],
        )

    def kernel_seconds(self, cost: KernelCost) -> float:
        """Simulated duration of one kernel launch record."""
        return self.total_seconds(
            self.time_terms(
                cost.launches,
                cost.device_bytes,
                cost.host_bytes,
                cost.cached_bytes,
                cost.instructions,
                cost.floor_seconds,
            )
        )
