"""Edge weights for SSSP (Sec. VI-F, Sec. VIII).

The paper initialises edge weights to random floats in [0, 1) and notes
that weights take O(|E|) storage in *both* CSR and EFG — compressing
weights is out of scope — which is why SSSP enters the out-of-core
regime much earlier than BFS (Fig. 10's five regions).

Weights are addressed by *edge slot* (position in the CSR ``elist``
order).  EFG shares the same slot numbering because its load-balanced
partitioning hands each thread a (vertex, n-th-edge) pair, so
``vlist[v] + n`` indexes the weight array identically in both formats.
"""

from __future__ import annotations

import numpy as np

from repro.formats.graph import Graph

__all__ = ["generate_edge_weights"]


def generate_edge_weights(graph: Graph, seed: int = 0) -> np.ndarray:
    """Random float32 weights in [0, 1), one per stored arc.

    For undirected graphs the two arcs of one edge get *matching*
    weights (the weight is a function of the unordered pair), keeping
    SSSP distances symmetric as on a real weighted undirected graph.
    """
    rng = np.random.default_rng(seed)
    if graph.directed:
        return rng.random(graph.num_edges, dtype=np.float32)
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    dst = graph.elist
    lo = np.minimum(src, dst).astype(np.uint64)
    hi = np.maximum(src, dst).astype(np.uint64)
    # Deterministic hash of the unordered pair -> uniform [0, 1).
    mixed = lo * np.uint64(0x9E3779B97F4A7C15) + hi
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xFF51AFD7ED558CCD)
    mixed ^= mixed >> np.uint64(33)
    base = (mixed >> np.uint64(40)).astype(np.float32) / np.float32(2**24)
    # Perturb deterministically by seed so different seeds differ.
    rot = np.uint64(seed % 63 + 1)
    mixed2 = (mixed >> rot) | (mixed << (np.uint64(64) - rot))
    jitter = (mixed2 >> np.uint64(40)).astype(np.float32) / np.float32(2**24)
    return ((base + jitter * np.float32(seed % 7 + 1)) % np.float32(1.0)).astype(
        np.float32
    )
