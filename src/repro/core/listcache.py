"""Decoded-adjacency cache: amortize EFG decode across frontier visits.

The paper's trade (Sec. VI-B) is ~70 extra instructions per edge in
exchange for bandwidth, paid on *every* decode of a list.  But graph
traffic is not uniform: in power-law graphs a small set of hub lists is
visited by almost every traversal level and every concurrent query.
Decoding such a list once and keeping the decoded ids resident on chip
turns every later visit into a plain L2/shared-memory stream — no
payload traffic, no select/binsearch pipeline.

:class:`DecodedListCache` models that residency: a byte-budgeted map
from vertex id to its decoded neighbour array (4 B per edge, the int32
ids a GPU would keep), evicting least-recently-used lists first — the
behaviour of a hardware-managed cache under temporal locality.

The cache is purely functional state plus counters; *cost* accounting
lives in :meth:`repro.traversal.backends.GraphBackend.expand`, which
charges hits via :meth:`repro.gpusim.kernel.KernelLaunch.cached_read`
and credits the compressed bytes + decode instructions a hit avoided.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "DecodedListCache", "DECODED_ELEM_BYTES"]

#: Bytes per decoded neighbour id resident in the cache (GPU int32).
DECODED_ELEM_BYTES = 4


@dataclass
class CacheStats:
    """Counters accumulated by one :class:`DecodedListCache`.

    ``bytes_saved`` is the compressed payload + metadata traffic that
    hits avoided; ``instr_saved`` the decode instructions skipped.  Both
    are credited by the backend, which knows the format's geometry.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0
    hit_edges: int = 0
    miss_edges: int = 0
    bytes_saved: float = 0.0
    instr_saved: float = 0.0

    @property
    def lookups(self) -> int:
        """Total list lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dict form for reports and engine counters."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "rejected": float(self.rejected),
            "hit_edges": float(self.hit_edges),
            "miss_edges": float(self.miss_edges),
            "bytes_saved": self.bytes_saved,
            "instr_saved": self.instr_saved,
            "hit_rate": self.hit_rate,
        }

    def publish(self, metrics, prefix: str = "listcache") -> None:
        """Export the final counters into a metrics registry as gauges.

        Gauges, not counters: these are end-of-run totals, and the
        per-expand increments already flow through the engine's
        ``listcache:*`` counters during the run.  ``metrics`` is a
        :class:`repro.obs.metrics.MetricsRegistry` (duck-typed to keep
        this module dependency-free).
        """
        for key, value in self.as_dict().items():
            metrics.set_gauge(f"{prefix}.{key}", value)


class DecodedListCache:
    """Byte-budgeted cache of decoded neighbour arrays, keyed by vertex.

    Parameters
    ----------
    budget_bytes:
        Capacity modeling the on-chip residency the traversal can spare
        (a slice of L2 / persistent shared memory).  Entries are charged
        ``DECODED_ELEM_BYTES`` per neighbour.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.stats = CacheStats()
        self._entries: OrderedDict[int, np.ndarray] = OrderedDict()
        self._bytes = 0

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vertex: int) -> bool:
        return int(vertex) in self._entries

    # -- lookup -----------------------------------------------------------

    def probe(self, vertices: np.ndarray) -> np.ndarray:
        """Hit mask for a batch of vertex ids (counts stats, touches LRU).

        Returns a boolean array aligned with ``vertices``; hit entries
        are refreshed in the recency order.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        mask = np.empty(vertices.shape[0], dtype=bool)
        entries = self._entries
        for i, v in enumerate(vertices.tolist()):
            hit = v in entries
            mask[i] = hit
            if hit:
                entries.move_to_end(v)
        hits = int(mask.sum())
        self.stats.hits += hits
        self.stats.misses += vertices.shape[0] - hits
        return mask

    def get_many(self, vertices: np.ndarray) -> list[np.ndarray]:
        """Decoded arrays for vertices known to be cached (post-probe)."""
        entries = self._entries
        return [entries[int(v)] for v in np.asarray(vertices, dtype=np.int64)]

    # -- insertion --------------------------------------------------------

    def put(self, vertex: int, neighbours: np.ndarray) -> bool:
        """Insert one decoded list; evicts LRU lists until it fits.

        Lists larger than the whole budget are rejected (caching one
        would flush everything for a single-visit win).  Returns whether
        the list was admitted.
        """
        vertex = int(vertex)
        neighbours = np.asarray(neighbours, dtype=np.int64)
        nbytes = int(neighbours.shape[0]) * DECODED_ELEM_BYTES
        if nbytes > self.budget_bytes:
            self.stats.rejected += 1
            return False
        old = self._entries.pop(vertex, None)
        if old is not None:
            self._bytes -= int(old.shape[0]) * DECODED_ELEM_BYTES
        while self._bytes + nbytes > self.budget_bytes and self._entries:
            _, victim = self._entries.popitem(last=False)
            self._bytes -= int(victim.shape[0]) * DECODED_ELEM_BYTES
            self.stats.evictions += 1
        # Materialise views: a slice of a batch-decode buffer would pin
        # the whole buffer in host memory, breaking the byte budget.
        if neighbours.base is not None:
            neighbours = neighbours.copy()
        self._entries[vertex] = neighbours
        self._bytes += nbytes
        return True

    def put_many(
        self, vertices: np.ndarray, lists: list[np.ndarray]
    ) -> None:
        """Insert a batch of decoded lists (one expand's misses)."""
        for v, nbrs in zip(np.asarray(vertices, dtype=np.int64), lists):
            self.put(int(v), nbrs)

    # -- lifecycle --------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (budget and stats objects survive)."""
        self._entries.clear()
        self._bytes = 0

    def reset_stats(self) -> None:
        """Start a fresh counter epoch (e.g. per benchmark run)."""
        self.stats = CacheStats()
