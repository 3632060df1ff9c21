"""R-MAT / Kronecker graph generator (Graph500-style).

Recursive-matrix sampling: each edge picks one quadrant per scale level
with probabilities (a, b, c, d).  The Graph500 parameters
(0.57, 0.19, 0.19, 0.05) produce the heavy power-law degree skew of the
paper's ``kron_2x`` graphs; milder parameters approximate social
networks.  Fully vectorized, one level at a time: each level draws its
two uniforms per edge into one reused float64 buffer and compares them
into reused bool buffers, and the int32 endpoints accumulate the level
bits in place, so the generator holds a few arrays per edge.
"""

from __future__ import annotations

import numpy as np

from repro.formats.graph import Graph

__all__ = ["rmat_graph", "GRAPH500_PARAMS", "SOCIAL_PARAMS"]

#: Graph500 reference parameters (kron_* graphs).
GRAPH500_PARAMS = (0.57, 0.19, 0.19, 0.05)

#: Milder skew approximating social networks (LiveJournal/orkut-like).
SOCIAL_PARAMS = (0.45, 0.22, 0.22, 0.11)


def rmat_graph(
    scale: int,
    edge_factor: float,
    params: tuple[float, float, float, float] = GRAPH500_PARAMS,
    seed: int = 0,
    directed: bool = True,
    name: str = "",
    permute_ids: bool = True,
) -> Graph:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        log2 of the vertex count.
    edge_factor:
        Average edges per vertex (before dedup).
    params:
        Quadrant probabilities (a, b, c, d); must sum to 1.
    permute_ids:
        Randomly relabel vertices (the Graph500 convention) so that id
        order carries no structure; the reordering study then shows how
        much a good ordering recovers.
    """
    if scale <= 0 or scale > 30:
        raise ValueError(f"scale must be in [1, 30], got {scale}")
    if edge_factor < 0:
        raise ValueError(f"edge_factor must be >= 0, got {edge_factor}")
    a, b, c, d = params
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError(f"R-MAT params must sum to 1, got {params}")
    rng = np.random.default_rng(seed)
    nv = 1 << scale
    ne = int(round(edge_factor * nv))

    # Each level draws r1 (row) then r2 (column) for every edge, in the
    # stream order of two rng.random(ne) calls, into one buffer.  The row
    # bit is set with probability (c + d); the column bit's probability
    # is conditional on the chosen row half.  The ids accumulate MSB
    # first (Horner form), which equals summing bit * row_one per level.
    src = np.zeros(ne, dtype=np.int32)
    dst = np.zeros(ne, dtype=np.int32)
    draw = np.empty(ne, dtype=np.float64)
    row_one = np.empty(ne, dtype=bool)
    col_one = np.empty(ne, dtype=bool)
    col_if_row = np.empty(ne, dtype=bool)
    for _ in range(scale):
        rng.random(out=draw)
        np.less(draw, c + d, out=row_one)
        rng.random(out=draw)
        np.less(draw, b / (a + b), out=col_one)
        np.less(draw, d / (c + d), out=col_if_row)
        np.copyto(col_one, col_if_row, where=row_one)
        src <<= 1
        src += row_one
        dst <<= 1
        dst += col_one
    del draw, row_one, col_one, col_if_row
    # Drop self loops; dedup happens in Graph.from_edges.
    keep = src != dst
    src = src[keep]
    dst = dst[keep]
    del keep
    if permute_ids:
        perm = rng.permutation(nv).astype(np.int32)
        src = perm[src]
        dst = perm[dst]
        del perm
    return Graph.from_edges(src, dst, num_nodes=nv, directed=directed, name=name)
