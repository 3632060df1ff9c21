"""Bit-parallel multi-source BFS: one decode serves up to 64 traversals.

Serving heavy query traffic means running *many* BFS instances, and the
expensive part of every level is decoding the frontier's compressed
lists (Sec. VI-B: ~70 instructions per edge for EFG).  When sources are
batched, the per-source frontiers overlap heavily — especially around
hubs — so running them independently re-decodes the same lists over and
over.

This module packs up to 64 concurrent sources into per-vertex ``uint64``
bitmasks (the MS-BFS technique of Then et al., VLDB'14, here fused with
the paper's decode pipeline):

* ``visited[v]`` — bit ``s`` set iff source ``s`` has reached ``v``.
* ``frontier[v]`` — bit ``s`` set iff ``v`` is on source ``s``'s current
  frontier.

Each level expands the *union* frontier (every vertex with any frontier
bit) exactly once: the backend decodes each active list one time — with
a :class:`~repro.core.listcache.DecodedListCache` attached, hot lists
are not even decoded once per level but streamed from on-chip memory —
and a single 64-wide OR per edge propagates all sources' reachability
simultaneously.  Newly set bits become the next frontier, and the level
index is recorded per (lane, vertex) pair in one int32 lane matrix, the
4 B per pair the simulator charges for ``work:mslevels``.

The per-source levels are bit-identical to 64 independent
:func:`repro.traversal.bfs.bfs` runs (asserted by the test suite): BFS
levels are deterministic regardless of traversal interleaving.

A convenient structural bonus: the union frontier is materialised with
``np.flatnonzero`` over the bitmask array, so it is always sorted by
vertex id — the locality the Sec. VI-E partial frontier sort buys for
single-source BFS comes for free here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.listcache import CacheStats
from repro.traversal.backends import GraphBackend

__all__ = ["MSBFSResult", "msbfs", "MAX_SOURCES"]

#: Lane capacity of one bitmask word (uint64).
MAX_SOURCES = 64

#: Per-edge mask-propagation instructions besides the OR itself
#: (candidate-mask load, new-bit test, enqueue arithmetic).
MASK_INSTR_PER_EDGE = 6.0


@dataclass(frozen=True)
class MSBFSResult:
    """Outcome of one bit-parallel multi-source BFS batch.

    ``levels[s][v]`` is the BFS level of vertex ``v`` from
    ``sources[s]`` (-1 when unreached) — row ``s`` equals
    ``bfs(backend, sources[s]).levels``.  Each row is a read-only int32
    view of its lane's row in the wave's lane matrix, so coalesced
    queries for one source share a single row.
    """

    sources: np.ndarray
    levels: tuple[np.ndarray, ...]
    #: Number of BFS levels of the *deepest* source (max level + 1).
    num_levels: int
    #: Distinct mask lanes the batch ran (duplicate sources share one).
    num_lanes: int
    #: Sum over sources of the edges its traversal would have examined
    #: (the work the batch amortizes; GTEPS uses this numerator).
    edges_traversed: int
    #: Lists actually decoded by the batch (union-frontier visits that
    #: missed the cache, or all of them without a cache).
    lists_decoded: int
    sim_seconds: float
    cache_stats: CacheStats | None = None

    @property
    def num_sources(self) -> int:
        """Number of requested sources (queries); duplicates included."""
        return int(self.sources.shape[0])

    @property
    def gteps(self) -> float:
        """Billions of per-source traversed edges per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.edges_traversed / self.sim_seconds / 1e9

    @property
    def seconds_per_source(self) -> float:
        """Amortized simulated time of one traversal in the batch."""
        return self.sim_seconds / max(1, self.num_sources)


def msbfs(
    backend: GraphBackend,
    sources: np.ndarray,
    max_levels: int | None = None,
    reset_timeline: bool = True,
) -> MSBFSResult:
    """Breadth-first search from up to 64 distinct sources in one run.

    Parameters
    ----------
    backend:
        Graph representation bound to a simulated device.  Attach a
        :class:`~repro.core.listcache.DecodedListCache` first to also
        amortize decode work *across* levels and batches.
    sources:
        1-D array of start vertices.  Duplicates are allowed — a serving
        batcher naturally coalesces concurrent queries for the same hot
        source — and share one mask lane and one result row.  At most
        :data:`MAX_SOURCES` *distinct* vertices.
    max_levels:
        Optional safety cap on the number of expansion rounds.
    reset_timeline:
        Reset the engine timeline/metrics and the decoded-list cache
        counters before the run (the stand-alone default).  Pass
        ``False`` when stacking waves onto one cumulative timeline, e.g.
        from :class:`repro.serve.GraphService`, so cross-wave cache
        reuse keeps accumulating; ``sim_seconds`` is always this wave's
        time, not the cumulative clock.
    """
    nv = backend.num_nodes
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1 or sources.shape[0] == 0:
        raise ValueError("sources must be a non-empty 1-D array")
    # Duplicate queries share a lane: `lanes` are the distinct start
    # vertices (sorted by np.unique), `inverse` maps each query to its
    # lane so each query gets a view of its lane's row at the end.
    lanes, inverse = np.unique(sources, return_inverse=True)
    num_lanes = int(lanes.shape[0])
    if num_lanes > MAX_SOURCES:
        raise ValueError(
            f"{num_lanes} distinct sources exceed the {MAX_SOURCES}-bit mask"
        )
    if lanes[0] < 0 or lanes[-1] >= nv:
        raise IndexError("source out of range")
    num_queries = int(sources.shape[0])
    #: queries per lane — the multiplicity each lane's edges count for.
    lane_counts = np.bincount(inverse, minlength=num_lanes)
    dup_lanes = np.flatnonzero(lane_counts > 1)

    engine = backend.engine
    if reset_timeline:
        engine.reset_timeline()
        if backend.cache is not None:
            backend.cache.reset_stats()
    lists_decoded_before = backend.lists_decoded
    t_start = engine.elapsed_seconds

    # Working state the GPU kernels would keep resident: one uint64
    # visited mask, the current/next frontier masks, and the per-lane
    # level output written on first visit.
    backend.place_working({
        "work:visited_mask": 8,
        "work:frontier_mask": 16,
        "work:mslevels": 4 * num_lanes,
    })

    lane_levels = np.full((num_lanes, nv), -1, dtype=np.int32)
    visited = np.zeros(nv, dtype=np.uint64)
    frontier_mask = np.zeros(nv, dtype=np.uint64)
    lane_bits = np.uint64(1) << np.arange(num_lanes, dtype=np.uint64)
    # Seed: lanes are distinct by construction; OR-accumulate would
    # handle shared vertices but cannot occur here.
    np.bitwise_or.at(visited, lanes, lane_bits)
    frontier_mask[lanes] = visited[lanes]
    lane_levels[np.arange(num_lanes), lanes] = 0

    degrees = backend.degrees
    depth = 0
    cap = max_levels if max_levels is not None else nv
    with engine.algorithm(
        "msbfs", gauge="msbfs", num_sources=num_queries, num_lanes=num_lanes
    ) as run:
        while depth < cap:
            active = np.flatnonzero(frontier_mask)
            if active.size == 0:
                break
            with engine.level(
                f"level:{depth}", depth,
                frontier=active.size, histogram="msbfs.union_frontier_size",
            ) as sp:
                with engine.launch("msbfs_expand") as k:
                    nbrs, seg = backend.expand(active, k)
                    # Candidate visited-mask probe: one 8 B word per edge,
                    # the 64-source analogue of BFS's 1 B visited-flag
                    # probe.
                    k.read_stream("work:visited_mask", nbrs, 8)
                # Every decoded edge carries the masks of all lanes whose
                # frontier contains its origin — each (source, edge) pair
                # the sequential runs would traverse separately.  All
                # deg(v) edges of a frontier vertex carry its one mask, so
                # the pairs are counted per vertex, not per edge.  A lane
                # serving m coalesced queries counts its edges m times:
                # that is the work m sequential runs would have done.
                active_masks = frontier_mask[active]
                active_degrees = degrees[active]
                level_edges = int(
                    (np.bitwise_count(active_masks) * active_degrees).sum()
                )
                for s in dup_lanes.tolist():
                    in_lane = (active_masks >> np.uint64(s)) & np.uint64(1)
                    lane_edges = int(active_degrees[in_lane > 0].sum())
                    level_edges += (int(lane_counts[s]) - 1) * lane_edges
                run.edges += level_edges

                with engine.launch("msbfs_update") as k:
                    next_mask = np.zeros(nv, dtype=np.uint64)
                    np.bitwise_or.at(next_mask, nbrs, active_masks[seg])
                    # The per-edge arrays are done; free them before the
                    # next level's expansion builds its own.
                    num_edges = int(nbrs.shape[0])
                    del nbrs, seg
                    new_bits = next_mask & ~visited
                    visited |= new_bits
                    depth += 1
                    changed = np.flatnonzero(new_bits)
                    for s in range(num_lanes):
                        reached = changed[
                            (new_bits[changed] >> np.uint64(s)) & np.uint64(1)
                            > 0
                        ]
                        lane_levels[s, reached] = depth
                    frontier_mask = new_bits
                    # One 64-wide OR propagates all lanes per edge; the
                    # update is an atomic RMW on the candidate's frontier
                    # word.
                    k.bitmask_ops(num_edges)
                    k.instructions(MASK_INSTR_PER_EDGE * num_edges)
                    k.atomic("work:frontier_mask", num_edges, 8)
                    # New frontier + level writes, one word per changed
                    # vertex.
                    k.write("work:frontier_mask", int(changed.shape[0]), 8)
                    k.write("work:mslevels", int(changed.shape[0]), 4)
                sp.annotate(
                    edges_expanded=num_edges,
                    source_edges=level_edges,
                    claimed=int(changed.shape[0]),
                )

    # Hand out read-only views: a served row is shared by its coalesced
    # queries and by the service's result cache, so no caller may write
    # through it.
    lane_levels.setflags(write=False)
    lane_rows = tuple(lane_levels)
    return MSBFSResult(
        sources=sources,
        levels=tuple(lane_rows[lane] for lane in inverse.tolist()),
        num_levels=int(lane_levels.max()) + 1,
        num_lanes=num_lanes,
        edges_traversed=run.edges,
        lists_decoded=backend.lists_decoded - lists_decoded_before,
        sim_seconds=engine.elapsed_seconds - t_start,
        cache_stats=backend.cache.stats if backend.cache is not None else None,
    )
