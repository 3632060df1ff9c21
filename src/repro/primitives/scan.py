"""Parallel scan primitives (Sec. III-C).

``exclusive_scan`` is the workhorse of the load-balanced partitioning: the
exclusive prefix sum of per-vertex degrees (or per-byte popcounts) tells
every thread where its work item starts.  ``segmented_exclusive_scan``
restarts the sum at list boundaries, which the multi-list kernel
(Sec. VI-D) uses to recover each value's index *within its own list*.

On a GPU these run in O(n) work / O(log n) depth; here they are single
vectorized NumPy expressions, which is the moral equivalent for a
simulator — no Python-level loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "exclusive_scan",
    "segmented_exclusive_scan",
    "segment_ids_from_flags",
]


def exclusive_scan(values: np.ndarray, dtype=np.int64) -> tuple[np.ndarray, int]:
    """Exclusive prefix sum plus the total (the GPU idiom returns both).

    Returns
    -------
    (scan, total):
        ``scan[i] = sum(values[:i])`` with ``scan[0] = 0``; ``total`` is
        the sum of all elements (what ``do_ex_sum`` returns in Alg. 2).
    """
    values = np.asarray(values)
    out = np.empty(values.shape[0], dtype=dtype)
    if values.shape[0] == 0:
        return out, 0
    np.cumsum(values[:-1], dtype=dtype, out=out[1:])
    out[0] = 0
    total = int(out[-1]) + int(values[-1])
    return out, total


def segment_ids_from_flags(is_segment_start: np.ndarray) -> np.ndarray:
    """Map a boolean segment-start flag array to 0-based segment ids.

    ``is_segment_start[0]`` is treated as a start regardless of its value
    (a scan always begins a segment), matching the ``is_list_start``
    convention of Fig. 7.
    """
    flags = np.asarray(is_segment_start, dtype=bool).copy()
    if flags.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    flags[0] = True
    return np.cumsum(flags, dtype=np.int64) - 1


def segmented_exclusive_scan(
    values: np.ndarray, is_segment_start: np.ndarray, dtype=np.int64
) -> np.ndarray:
    """Exclusive prefix sum restarted at each flagged segment boundary.

    This is the ``seg_exsum`` array of Fig. 7: thread t4's block-wide
    exclusive sum may be 8 while its within-list exclusive sum is 3.

    Implemented with the standard trick: take the plain exclusive scan and
    subtract, per element, the scan value at its segment's start.
    """
    values = np.asarray(values)
    if values.shape[0] == 0:
        return np.empty(0, dtype=dtype)
    seg_ids = segment_ids_from_flags(is_segment_start)
    ex, _total = exclusive_scan(values, dtype=dtype)
    # Value of the plain exclusive scan at the first element of each segment.
    starts = np.flatnonzero(np.diff(seg_ids, prepend=-1))
    return ex - ex[starts][seg_ids]

