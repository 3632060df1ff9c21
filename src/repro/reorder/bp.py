"""BP-style recursive graph bisection (gap-minimising reorder).

Simplified reimplementation of *Compressing Graphs and Indexes with
Recursive Graph Bisection* (Dhulipala et al., KDD'16): recursively
split the current vertex range in two and locally improve the split by
swapping the vertices whose neighbourhoods point mostly into the other
half.  Vertices that end up next to their neighbours produce small
neighbour-id gaps, which is exactly what gap-based codes (CGR, Ligra+)
reward — and what Elias-Fano is indifferent to (Fig. 12a).

The move-gain model is the standard degree-balance heuristic: a vertex
wants to sit in the half holding more of its neighbours.  Processing is
level-synchronous — all bisection ranges of one depth are improved in
the same vectorized pass, so the whole algorithm is
O(passes · depth · |E|) with no per-vertex Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.formats.graph import Graph
from repro.primitives.unique import sorted_unique

__all__ = ["bp_order"]


def bp_order(
    graph: Graph,
    min_block: int = 32,
    passes: int = 4,
    max_depth: int | None = None,
) -> np.ndarray:
    """Compute a BP-style gap-minimising permutation.

    Parameters
    ----------
    graph:
        Input graph (its current order seeds the bisection).
    min_block:
        Stop recursing below this range size.
    passes:
        Swap-improvement passes per bisection level.
    max_depth:
        Optional recursion cap (default: until ranges shrink below
        ``min_block``).

    Returns
    -------
    ``perm`` with ``perm[v]`` = new id of vertex ``v``.
    """
    if min_block < 2:
        raise ValueError(f"min_block must be >= 2, got {min_block}")
    nv = graph.num_nodes
    order = np.arange(nv, dtype=np.int64)
    pos = np.arange(nv, dtype=np.int64)
    src = np.repeat(np.arange(nv, dtype=np.int64), graph.degrees)
    dst = graph.elist
    depth_cap = max_depth if max_depth is not None else 64

    for depth in range(depth_cap):
        # Split boundaries for every active range at this depth.
        bounds = np.array([0, nv], dtype=np.int64)
        for _ in range(depth):
            mids = (bounds[:-1] + bounds[1:]) // 2
            bounds = sorted_unique(np.concatenate([bounds, mids]))
        sizes = np.diff(bounds)
        if (sizes <= min_block).all():
            break
        mids = (bounds[:-1] + bounds[1:]) // 2

        for _ in range(passes):
            pos[order] = np.arange(nv, dtype=np.int64)
            # Which range each vertex sits in, and that range's midpoint.
            rng_of_pos = np.searchsorted(bounds, pos, side="right") - 1
            my_mid = mids[rng_of_pos]
            # Neighbour placement relative to *the source's* range.
            nbr_pos = pos[dst]
            same_range = rng_of_pos[src] == rng_of_pos[dst]
            in_right = same_range & (nbr_pos >= my_mid[src])
            in_left = same_range & (nbr_pos < my_mid[src])
            right_cnt = np.bincount(src, weights=in_right, minlength=nv)
            left_cnt = np.bincount(src, weights=in_left, minlength=nv)
            gain = right_cnt - left_cnt  # positive: wants the right half

            swapped_any = False
            for r in range(bounds.shape[0] - 1):
                lo, mid, hi = int(bounds[r]), int(mids[r]), int(bounds[r + 1])
                if hi - lo <= min_block:
                    continue
                left_v = order[lo:mid]
                right_v = order[mid:hi]
                lg = gain[left_v]
                rg = gain[right_v]
                lrank = np.argsort(-lg, kind="stable")
                rrank = np.argsort(rg, kind="stable")
                k = min(left_v.shape[0], right_v.shape[0])
                useful = (lg[lrank[:k]] - rg[rrank[:k]]) > 0
                n = int(useful.sum())
                if n == 0:
                    continue
                li = lo + lrank[:k][useful]
                ri = mid + rrank[:k][useful]
                tmp = order[li].copy()
                order[li] = order[ri]
                order[ri] = tmp
                swapped_any = True
            if not swapped_any:
                break

    perm = np.empty(nv, dtype=np.int64)
    perm[order] = np.arange(nv, dtype=np.int64)
    return perm
