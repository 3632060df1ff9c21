"""Format backends: functional expansion + honest traffic accounting.

A backend binds one graph representation to a simulated device and
exposes ``expand(frontier, kernel)`` — decode the frontier's neighbour
lists, charging the kernel for the traffic and instructions that
representation really generates:

* **CSR** — constant-time edge gather; traffic is the raw ``elist``
  slices plus per-vertex ``vlist`` lookups.
* **EFG** — runs the real batched decode kernel
  (:func:`repro.core.efg.decode_lists`); traffic is the *compressed*
  payload bytes (forward pointers + lower + upper sections) and the
  decode costs ~70 extra instructions per edge (binary search, LUT
  probe, scan bookkeeping — Sec. VI-B).
* **CGR** — interval/residual varint decode is a per-list dependent
  chain: one lane parses while its warp waits, charged via
  ``serial_work`` at the measured compressed chain length.
* **Ligra+** — same chain model on the CPU device (one list per
  thread, lane width 1), reflecting its shared-memory parallelism.

:class:`GraphBackend` owns the graph shape, the engine and the memory
plan; a format names its container, its metadata and payload arrays and
its charges.  CSR, CGR and Ligra+ share one functional ``_decode``, a
gather from the reference adjacency their containers embed (the CGR and
Ligra+ byte decoders are validated in unit tests); their *cost* paths
use the real compressed sizes.  Every format decodes a frontier one
block of consecutive lists at a time (``_EXPAND_BLOCK`` edges), so only
the outputs grow with the frontier; the charges see the whole frontier.
Every SSSP variant relaxes through
:meth:`GraphBackend.expand_weighted` and :meth:`GraphBackend.check_weights`.

The GPU formats are registered by key in one table: :func:`encode`
builds a format's container and :func:`build_backend` binds it to a
device, so every caller that takes a format name goes through the same
two functions.  Ligra+ is a CPU baseline and stays outside the table.

All per-array traffic measures coalescing from the ids actually
touched — this is what makes reordering (Sec. VIII-D) and partial
frontier sorting (Sec. VI-E) matter in the model.  Per-vertex reads
(``vlist``, metadata) go through :meth:`KernelLaunch.read_stream`; the
payload slices, one contiguous range per frontier vertex, go through
:meth:`KernelLaunch.read_ranges`, which prices the same stream from the
``(start, length)`` pairs without expanding it per byte or per edge.

A :class:`~repro.core.listcache.DecodedListCache` can be attached to
any backend (:meth:`GraphBackend.attach_cache`): frontier lists found
in the cache skip the functional decode *and* its cost — the expansion
is charged as on-chip cached reads of the decoded ids instead of
compressed payload traffic plus decode instructions (EFG) or serial
varint chains (CGR).  Hit/miss/eviction and bytes-saved counters are
pushed to the engine so they appear in profile reports.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.efg import (
    EFGraph,
    check_decode_batch,
    decode_lists,
    efg_encode,
    range_indices,
)
from repro.core.listcache import DECODED_ELEM_BYTES, DecodedListCache
from repro.formats.cgr import CGRGraph, cgr_encode
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph
from repro.formats.ligra_plus import LigraPlusGraph
from repro.gpusim.cost import CostParams
from repro.gpusim.device import CPU_E5_2696V4_X2, DeviceSpec
from repro.gpusim.engine import SimEngine
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import WORKING_PRIORITY
from repro.primitives.scan import exclusive_scan

__all__ = [
    "BFS_WORKING",
    "GPU_FORMATS",
    "GraphBackend",
    "CSRBackend",
    "EFGBackend",
    "CGRBackend",
    "LigraBackend",
    "build_backend",
    "encode",
]

#: Per-edge bookkeeping instructions shared by every format (frontier
#: math, bounds checks, enqueue).
BASE_INSTR_PER_EDGE = 12.0

#: Extra per-edge decode instructions for EFG (Sec. VI-B pipeline:
#: ~8-step binary search, select LUT probe, segmented-scan bookkeeping,
#: shift/or combine).
EFG_DECODE_INSTR_PER_EDGE = 68.0

#: Amortised single-lane cycles per varint in a CGR decode chain
#: (shift/accumulate, continuation branch, running-prefix update).
CGR_CYCLES_PER_STEP = 5.0

#: Issue-to-use latency of one dependent varint parse — the critical
#: path cost per chain element when a single lane walks a hub list.
CGR_DEP_LATENCY_CYCLES = 8.0

#: Ligra+ CPU decode cycles per compressed byte (scalar loop).
LIGRA_CYCLES_PER_BYTE = 6.0

#: Edges one block of an expansion decodes or gathers: a frontier is
#: walked in runs of consecutive vertices whose lists sum to at most
#: this many edges (a longer list is a run of its own), so a round's
#: per-edge host scratch is sized by the block, not by the frontier.
_EXPAND_BLOCK = 1 << 16

#: Working set of the BFS family (``bfs``, direction-optimizing BFS,
#: ``sssp`` and the distributed BFS and SSSP), bytes per vertex: levels
#: or distances, the visited flags and the frontier.
BFS_WORKING = {"work:labels": 4, "work:visited": 1, "work:frontier": 8}


def _edge_blocks(lengths: np.ndarray):
    """Yield ``(lo, hi, e0, e1)`` per run ``lengths[lo:hi]`` of at most
    ``_EXPAND_BLOCK`` edges (or one longer list); ``e0:e1`` are the
    run's positions in the concatenation of the lists."""
    ends = np.cumsum(lengths)
    lo = e0 = 0
    while lo < lengths.shape[0]:
        hi = int(np.searchsorted(ends, e0 + _EXPAND_BLOCK, side="right"))
        hi = max(hi, lo + 1)
        e1 = int(ends[hi - 1])
        yield lo, hi, e0, e1
        lo, e0 = hi, e1


def _gather_ranges(
    array: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``array[starts[r] : starts[r] + lengths[r]]`` for every range,
    concatenated, gathered one block of ranges at a time so the index
    scratch is bounded by ``_EXPAND_BLOCK``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.empty(int(lengths.sum()), dtype=array.dtype)
    for lo, hi, e0, e1 in _edge_blocks(lengths):
        idx = range_indices(starts[lo:hi], lengths[lo:hi])
        np.take(array, idx, out=out[e0:e1])
    return out


def _segments(lengths: np.ndarray) -> np.ndarray:
    """The index of its range for every position of the concatenation."""
    return np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)


class GraphBackend(abc.ABC):
    """One graph representation bound to a simulated device.

    ``shape`` is the CSR shape of the graph (``vlist``, ``degrees``,
    ``num_nodes``, ``num_edges``): the container's embedded
    :class:`~repro.formats.graph.Graph`, or the EFG container itself.
    ``metadata`` and ``payload`` are the ``(name, bytes)`` of the
    format's two device arrays, registered with the ``weight_bytes``
    weight array as persistent arrays; each run's working set is
    installed by its driver (:meth:`place_working`).
    """

    format_name: str

    #: Optional decoded-adjacency cache (see :meth:`attach_cache`).
    cache: DecodedListCache | None = None

    #: Functional list decodes performed so far (a cache hit serves the
    #: list without decoding, so with a cache this counts misses only).
    lists_decoded: int = 0

    def __init__(
        self,
        shape: Graph | EFGraph,
        device: DeviceSpec,
        weight_bytes: int,
        params: CostParams | None,
        *,
        metadata: tuple[str, int],
        payload: tuple[str, int],
    ) -> None:
        self.engine = SimEngine.for_device(device, params=params)
        self._shape = shape
        self.vlist = shape.vlist
        self.num_nodes = shape.num_nodes
        self.num_edges = shape.num_edges
        mem = self.engine.memory
        mem.register(*metadata, priority=0)
        mem.register(*payload, priority=1)
        if weight_bytes:
            mem.register("weights", weight_bytes, priority=2)
        # Until a run installs its own set, plan with BFS's, so residency
        # questions asked before any run get the BFS answer.
        self.place_working(BFS_WORKING)

    def place_working(self, per_vertex: dict[str, int]) -> None:
        """Make ``per_vertex`` (array -> bytes per vertex) the working
        set of the next run, replacing the previous run's.  Every driver
        calls this at run start."""
        self.engine.memory.working(
            {name: b * self.num_nodes for name, b in per_vertex.items()}
        )

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree per vertex.  The shape computes and caches it on
        first use, so a backend that never expands never holds it (a
        dist shard's ``vlist`` spans every vertex)."""
        return self._shape.degrees

    def attach_cache(self, cache: DecodedListCache) -> None:
        """Serve future expansions through a decoded-list cache.

        The cache's byte budget is registered as a persistent array at
        the working arrays' priority: the residency it models is
        on-chip, but budgeting it keeps the planner honest about what
        else still fits.
        """
        self.cache = cache
        self.engine.memory.register(
            "work:listcache", cache.budget_bytes, priority=WORKING_PRIORITY
        )

    def expand(
        self, frontier: np.ndarray, kernel: KernelLaunch
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode the frontier's lists; return (neighbours, frontier_pos).

        ``neighbours`` is the concatenation of the frontier vertices'
        lists in frontier order; ``frontier_pos[i]`` is the index into
        ``frontier`` of the vertex that produced ``neighbours[i]``.
        Charges the traffic/instructions of this representation on
        ``kernel``.  With a cache attached, hit lists are streamed from
        on-chip memory and only the misses pay the real decode.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        if self.cache is None:
            nbrs, seg = self._decode(frontier)
            self.lists_decoded += int(frontier.shape[0])
            self.charge_expand(frontier, nbrs, kernel)
            return nbrs, seg
        return self._expand_with_cache(frontier, kernel)

    def _expand_with_cache(
        self, frontier: np.ndarray, kernel: KernelLaunch
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cache-aware expansion: decode misses, stream hits, merge."""
        cache = self.cache
        evictions_before = cache.stats.evictions
        hit_mask = cache.probe(frontier)
        hit_pos = np.flatnonzero(hit_mask)
        miss_pos = np.flatnonzero(~hit_mask)
        miss_vertices = frontier[miss_pos]

        # Fetch the hit data *before* installing misses: under a tight
        # budget the insertions below may evict the very entries probe()
        # just reported resident (on a GPU the hit reads likewise happen
        # before the replacement writes land).
        hit_vertices = frontier[hit_pos]
        hit_lists = cache.get_many(hit_vertices) if hit_pos.size else []

        if miss_pos.size:
            miss_deg = self.degrees[miss_vertices]
            miss_nbrs = self._decode_lists(miss_vertices, miss_deg)
            self.lists_decoded += int(miss_vertices.shape[0])
            cache.stats.miss_edges += int(miss_nbrs.shape[0])
            # Install the freshly decoded lists (split back per vertex).
            bounds = np.cumsum(miss_deg)[:-1]
            cache.put_many(miss_vertices, np.split(miss_nbrs, bounds))
            self.charge_expand(miss_vertices, miss_nbrs, kernel)

        # Merge hits and misses back into frontier order, one block of
        # lists at a time.
        deg = self.degrees[frontier]
        ex_deg, total = exclusive_scan(deg)
        nbrs = np.empty(int(total), dtype=np.int64)
        if miss_pos.size:
            for lo, hi, e0, e1 in _edge_blocks(miss_deg):
                at = range_indices(ex_deg[miss_pos[lo:hi]], miss_deg[lo:hi])
                nbrs[at] = miss_nbrs[e0:e1]
        if hit_pos.size:
            hit_deg = deg[hit_pos]
            for lo, hi, _, _ in _edge_blocks(hit_deg):
                at = range_indices(ex_deg[hit_pos[lo:hi]], hit_deg[lo:hi])
                nbrs[at] = np.concatenate(hit_lists[lo:hi])
            self.charge_cached_expand(hit_vertices, int(hit_deg.sum()), kernel)
        seg = _segments(deg)

        engine = self.engine
        engine.metrics.inc("listcache:hits", int(hit_pos.size))
        engine.metrics.inc("listcache:misses", int(miss_pos.size))
        engine.metrics.inc(
            "listcache:evictions", cache.stats.evictions - evictions_before
        )
        # Running hit rate as a time series — becomes a Perfetto counter
        # track, showing the cache warming up over the traversal.
        engine.sample("listcache:hit_rate", cache.stats.hit_rate)
        return nbrs, seg

    def charge_cached_expand(
        self, vertices: np.ndarray, num_edges: int, kernel: KernelLaunch
    ) -> None:
        """Charge an expansion served entirely from the decoded cache.

        The decoded ids stream out of on-chip memory (4 B per edge at
        cache bandwidth); the frontier bookkeeping instructions remain,
        but the payload traffic, per-vertex metadata reads and the
        format's decode instructions are all skipped — those savings
        are credited to the cache stats and the engine counters.
        """
        kernel.cached_read(
            f"{self.format_name}_decoded", num_edges, DECODED_ELEM_BYTES
        )
        kernel.instructions(BASE_INSTR_PER_EDGE * num_edges)
        _, payload_bytes, _, meta_elem = self._payload_info(vertices)
        saved_bytes = float(payload_bytes.sum()) + float(
            meta_elem * vertices.shape[0]
        )
        saved_instr = self._decode_instr_per_edge() * num_edges
        stats = self.cache.stats
        stats.hit_edges += num_edges
        stats.bytes_saved += saved_bytes
        stats.instr_saved += saved_instr
        self.engine.metrics.inc("listcache:bytes_saved", saved_bytes)

    def _decode(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Functional neighbour-list decode (no cost accounting):
        ``(nbrs, seg)`` as :meth:`expand` returns them, decoded one
        block of lists at a time (:meth:`_decode_lists`)."""
        frontier = np.asarray(frontier, dtype=np.int64)
        deg = self.degrees[frontier]
        return self._decode_lists(frontier, deg), _segments(deg)

    def _decode_lists(
        self, frontier: np.ndarray, deg: np.ndarray
    ) -> np.ndarray:
        """The neighbour lists of ``frontier`` (degrees ``deg``),
        concatenated: a blocked gather from ``self.elist``, the
        reference adjacency the CSR, CGR and Ligra+ containers embed."""
        return _gather_ranges(self.elist, self.vlist[frontier], deg)

    @abc.abstractmethod
    def charge_expand(
        self, frontier: np.ndarray, nbrs: np.ndarray, kernel: KernelLaunch
    ) -> None:
        """Charge the traffic/instructions this format's expansion of
        ``frontier`` generates.  ``nbrs`` is the decoded neighbour
        stream (used only to measure candidate-stream locality and
        counts, never to shortcut the traffic computation).
        """

    def charge_scan_prefix(
        self, vertices: np.ndarray, scanned: np.ndarray, kernel: KernelLaunch
    ) -> None:
        """Charge an early-exiting prefix scan of each vertex's list.

        Bottom-up BFS (direction optimisation) reads only the leading
        ``scanned[i]`` elements of vertex ``i``'s list before exiting.
        Metadata is still touched per vertex; payload bytes are charged
        pro rata to the scanned fraction (prefix reads are sequential,
        so coalescing is ideal).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        scanned = np.asarray(scanned, dtype=np.int64)
        payload_name, payload_bytes, meta_name, meta_elem = self._payload_info(
            vertices
        )
        kernel.read_stream(meta_name, vertices, meta_elem)
        deg = np.maximum(self.degrees[vertices], 1)
        prefix_bytes = payload_bytes * scanned / deg
        kernel.read(payload_name, int(np.ceil(prefix_bytes.sum())), 1)
        kernel.instructions(
            (BASE_INSTR_PER_EDGE + self._decode_instr_per_edge())
            * float(scanned.sum())
        )
        # Divergence from the *scanned* distribution: a lane that exits
        # after one probe idles while its warp's deepest scan finishes.
        kernel.warp_occupancy(scanned)

    def _decode_instr_per_edge(self) -> float:
        """Extra decode instructions per edge for this format."""
        return 0.0

    @abc.abstractmethod
    def _payload_info(
        self, vertices: np.ndarray
    ) -> tuple[str, np.ndarray, str, int]:
        """(payload array, per-list payload bytes, metadata array,
        metadata bytes per vertex) for ``vertices``."""

    def edge_ranges(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)`` of the frontier's CSR edge-slot ranges
        (``vlist[v] + n``), one per frontier vertex, for
        :meth:`KernelLaunch.read_ranges`."""
        frontier = np.asarray(frontier, dtype=np.int64)
        return self.vlist[frontier], self.degrees[frontier]

    def check_weights(self, weights: np.ndarray) -> np.ndarray:
        """``weights`` as float32 once validated: one non-negative
        weight per stored arc, and a ``weights`` array in the memory
        plan (the backend was built with ``weight_bytes``)."""
        weights = np.asarray(weights, dtype=np.float32)
        if weights.shape[0] != self.num_edges:
            raise ValueError("one weight per stored arc required")
        if weights.size and weights.min() < 0:
            raise ValueError("shortest paths require non-negative weights")
        if "weights" not in self.engine.memory.plan():
            raise RuntimeError(
                "backend built without weight_bytes (a cluster: "
                "build(..., with_weights=True))"
            )
        return weights

    def expand_weighted(
        self, frontier: np.ndarray, kernel: KernelLaunch, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`expand` plus each edge's weight: ``(nbrs, seg, w)``.

        ``weights`` is indexed by CSR edge slot, shared by every backend
        (Sec. VI-F: weights are not compressed).  Charges the weight
        gather along the per-list slot ranges, then the distance probe
        and the relax instructions per candidate.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        nbrs, seg = self.expand(frontier, kernel)
        starts, lengths = self.edge_ranges(frontier)
        kernel.read_ranges("weights", starts, lengths, 4)
        # Distance probe + atomicMin per candidate.
        kernel.read_stream("work:labels", nbrs, 4)
        kernel.instructions(4.0 * nbrs.shape[0])
        return nbrs, seg, _gather_ranges(weights, starts, lengths)

    def graph_fits_in_memory(self) -> bool:
        """True when the format's arrays, the persistent extras and the
        last run's working set (BFS's before any run) are all device
        resident."""
        return self.engine.memory.all_resident()


class CSRBackend(GraphBackend):
    """Uncompressed CSR on the GPU (cugraph-equivalent, Sec. III-D)."""

    format_name = "csr"

    def __init__(
        self,
        csr: CSRGraph,
        device: DeviceSpec,
        weight_bytes: int = 0,
        params: CostParams | None = None,
    ) -> None:
        self.csr = csr
        self.elist = csr.graph.elist
        super().__init__(
            csr.graph, device, weight_bytes, params,
            metadata=("vlist", 4 * (csr.num_nodes + 1)),
            payload=("elist", 4 * csr.num_edges),
        )

    def _payload_info(self, vertices):
        return "elist", 4 * self.degrees[vertices], "vlist", 8

    def charge_expand(
        self, frontier: np.ndarray, nbrs: np.ndarray, kernel: KernelLaunch
    ) -> None:
        # Traffic: vlist pair per frontier vertex + the elist slices.
        kernel.read_stream("vlist", frontier, 8)
        kernel.read_ranges("elist", *self.edge_ranges(frontier), 4)
        kernel.instructions(BASE_INSTR_PER_EDGE * nbrs.shape[0])
        kernel.warp_occupancy(self.degrees[frontier])


class EFGBackend(GraphBackend):
    """The paper's EFG format with run-time decompression (Secs. V-VI)."""

    format_name = "efg"

    def __init__(
        self,
        efg: EFGraph,
        device: DeviceSpec,
        weight_bytes: int = 0,
        params: CostParams | None = None,
    ) -> None:
        self.efg = efg
        super().__init__(
            efg, device, weight_bytes, params,
            # vlist (4B) + num_lower_bits (1B) + offsets (4B) per vertex.
            metadata=("efg_meta", 9 * (efg.num_nodes + 1)),
            payload=("efg_data", int(efg.data.shape[0])),
        )

    def _decode_lists(
        self, frontier: np.ndarray, deg: np.ndarray
    ) -> np.ndarray:
        # The batched multi-list kernel, one block of lists per call.
        total = int(deg.sum())
        if total <= _EXPAND_BLOCK:
            return decode_lists(self.efg, frontier)
        # Reject a corrupt batch as one whole-frontier decode would,
        # before its degrees split it into blocks.
        check_decode_batch(self.efg, frontier)
        nbrs = np.empty(total, dtype=np.int64)
        for lo, hi, e0, e1 in _edge_blocks(deg):
            nbrs[e0:e1] = decode_lists(self.efg, frontier[lo:hi])
        return nbrs

    def _payload_info(self, vertices):
        per_list = self.efg.offsets[vertices + 1] - self.efg.offsets[vertices]
        return "efg_data", per_list, "efg_meta", 9

    def _decode_instr_per_edge(self) -> float:
        return EFG_DECODE_INSTR_PER_EDGE

    def charge_expand(
        self, frontier: np.ndarray, nbrs: np.ndarray, kernel: KernelLaunch
    ) -> None:
        # Traffic: per-vertex metadata + the full compressed payloads
        # (forward pointers, lower and upper sections are all touched).
        kernel.read_stream("efg_meta", frontier, 9)
        starts = self.efg.offsets[frontier]
        kernel.read_ranges(
            "efg_data", starts, self.efg.offsets[frontier + 1] - starts, 1
        )
        kernel.instructions(
            (BASE_INSTR_PER_EDGE + EFG_DECODE_INSTR_PER_EDGE) * nbrs.shape[0]
        )
        # Lane-per-list decode: warp runtime is the longest list in the
        # warp, so skewed degrees in one warp show up as divergence.
        kernel.warp_occupancy(self.degrees[frontier])


class CGRBackend(GraphBackend):
    """CGR comparator: sequential per-list varint chains on the GPU."""

    format_name = "cgr"

    def __init__(
        self,
        cgr: CGRGraph,
        device: DeviceSpec,
        weight_bytes: int = 0,
        params: CostParams | None = None,
    ) -> None:
        self.cgr = cgr
        self.elist = cgr.graph.elist
        super().__init__(
            cgr.graph, device, weight_bytes, params,
            metadata=("cgr_offsets", 4 * (cgr.num_nodes + 1)),
            payload=("cgr_data", int(cgr.data.shape[0])),
        )

    def _payload_info(self, vertices):
        return "cgr_data", self.cgr.list_nbytes(vertices), "cgr_offsets", 8

    def charge_expand(
        self, frontier: np.ndarray, nbrs: np.ndarray, kernel: KernelLaunch
    ) -> None:
        list_bytes = self.cgr.list_nbytes(frontier)
        kernel.read_stream("cgr_offsets", frontier, 8)
        kernel.read_ranges("cgr_data", self.cgr.offsets[frontier], list_bytes, 1)
        # Dependent varint chains: one lane per list parses serially,
        # at the measured chain length (varints per list).
        steps = self.cgr.steps[frontier]
        kernel.serial_work(CGR_CYCLES_PER_STEP * float(steps.sum()))
        # A list cannot be split across blocks in CGR, so the longest
        # chain in the launch is a hard critical path (hub lists!).
        if steps.size:
            kernel.serial_floor(CGR_DEP_LATENCY_CYCLES * float(steps.max()))
        kernel.instructions(BASE_INSTR_PER_EDGE * nbrs.shape[0])
        # One lane walks each chain; divergence follows chain lengths.
        kernel.warp_occupancy(steps)


class LigraBackend(GraphBackend):
    """Ligra+(TD) comparator on the CPU host (Sec. VII)."""

    format_name = "ligra+"

    def __init__(
        self,
        ligra: LigraPlusGraph,
        device: DeviceSpec = CPU_E5_2696V4_X2,
        weight_bytes: int = 0,
        params: CostParams | None = None,
    ) -> None:
        self.ligra = ligra
        self.elist = ligra.graph.elist
        super().__init__(
            ligra.graph, device, weight_bytes,
            # CPU: no SIMT divergence penalty, lane width 1 for serial code.
            params or CostParams(simt_efficiency=0.5, warp_width=1),
            metadata=("lg_vertices", 8 * ligra.num_nodes),
            payload=("lg_data", int(ligra.data.shape[0])),
        )

    def _payload_info(self, vertices):
        return "lg_data", self.ligra.list_nbytes(vertices), "lg_vertices", 8

    def charge_expand(
        self, frontier: np.ndarray, nbrs: np.ndarray, kernel: KernelLaunch
    ) -> None:
        list_bytes = self.ligra.list_nbytes(frontier)
        kernel.read_stream("lg_vertices", frontier, 8)
        kernel.read_ranges("lg_data", self.ligra.offsets[frontier], list_bytes, 1)
        kernel.serial_work(LIGRA_CYCLES_PER_BYTE * float(list_bytes.sum()))
        kernel.instructions(BASE_INSTR_PER_EDGE * nbrs.shape[0])
        # warp_width is 1 on the CPU device, so this records full
        # efficiency — divergence is a SIMT-only effect.
        kernel.warp_occupancy(list_bytes)


#: Format key -> (encoder, backend class) for every GPU format.
_REGISTRY = {
    "csr": (CSRGraph.from_graph, CSRBackend),
    "efg": (efg_encode, EFGBackend),
    "cgr": (cgr_encode, CGRBackend),
}

#: The registered GPU storage formats, in registry order.
GPU_FORMATS = tuple(_REGISTRY)


def _entry(fmt: str):
    try:
        return _REGISTRY[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r}; registered formats: "
            f"{', '.join(GPU_FORMATS)}"
        ) from None


def encode(fmt: str, graph: Graph, **kw):
    """Encode ``graph`` as format ``fmt``; ``kw`` goes to its encoder
    (e.g. EFG's ``quantum``)."""
    return _entry(fmt)[0](graph, **kw)


def build_backend(
    fmt: str,
    graph_or_container,
    device: DeviceSpec,
    *,
    weight_bytes: int = 0,
    cache_kb: int = 0,
) -> GraphBackend:
    """Bind format ``fmt`` to ``device``.

    A :class:`~repro.formats.graph.Graph` is encoded with the format's
    default encoder arguments; anything else is taken as an already
    encoded container.  ``cache_kb > 0`` attaches a decoded-list cache
    of that many KiB.
    """
    encoder, backend_cls = _entry(fmt)
    container = (
        encoder(graph_or_container)
        if isinstance(graph_or_container, Graph)
        else graph_or_container
    )
    backend = backend_cls(container, device, weight_bytes=weight_bytes)
    if cache_kb:
        backend.attach_cache(DecodedListCache(budget_bytes=cache_kb * 1024))
    return backend
