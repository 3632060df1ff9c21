"""Bitmap-to-frontier conversion and the atomic claim.

The SSSP implementation (Sec. VI-F) marks relaxed nodes atomically in an
O(|V|) bitmap and then uses a parallel scatter to build the next frontier;
``scatter_bitmap_to_indices`` is that step.  ``atomic_or_claim`` is the
BFS visited-flag claim.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scatter_bitmap_to_indices", "atomic_or_claim"]


def scatter_bitmap_to_indices(bitmap: np.ndarray) -> np.ndarray:
    """Convert a boolean membership bitmap to a sorted index frontier.

    On the GPU: exclusive scan of the bitmap followed by a scatter of
    flagged positions.  ``np.flatnonzero`` performs the identical
    computation here.
    """
    bitmap = np.asarray(bitmap, dtype=bool)
    return np.flatnonzero(bitmap).astype(np.int64)


def atomic_or_claim(flags: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Model ``atomic_or(&flags[v], true)`` over a batch of indices.

    Many GPU threads may race to claim the same vertex; exactly one wins.
    Returns a boolean array aligned with ``indices``: True where this
    thread's atomic observed ``old == false`` (i.e. it is the unique
    winner for a previously-unset flag).  ``flags`` is updated in place.

    The winner among duplicates is the first occurrence in ``indices``,
    which is one valid serialization of the atomics.
    """
    flags = np.asarray(flags)
    if flags.dtype != bool:
        raise TypeError(f"flags must be a bool array, got {flags.dtype}")
    indices = np.asarray(indices)
    won = np.zeros(indices.shape[0], dtype=bool)
    if indices.size == 0:
        return won
    # First occurrence of each distinct index wins the atomic.
    unique_vals, first_pos = np.unique(indices, return_index=True)
    fresh = ~flags[unique_vals]
    winners = first_pos[fresh]
    won[winners] = True
    flags[unique_vals[fresh]] = True
    return won
