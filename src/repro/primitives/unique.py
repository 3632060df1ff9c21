"""Sort-based dedup: the sorted-unique id set and the duplicate-value fold.

Every adjacency list, frontier merge and exchange bucket in the system is
a sorted, deduplicated id set (EFG's only precondition, Sec. V).  On
numpy 2.x a plain ``np.unique(x)`` builds that set through a hash table,
which is tens of times slower than a sort plus an adjacent-difference mask
on many-distinct int64 arrays.  ``sorted_unique`` is that sort and mask;
``fold_duplicates`` is the min/sum fold of the values that ride along
with duplicate frontier ids (SSSP distances, PageRank contributions).
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique", "fold_duplicates"]


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array; equals ``np.unique(x)``.

    The input is flattened, as ``np.unique`` does, and the dtype is kept.
    A sorted integer array has exactly one order, so the sort kind cannot
    change the result; the default (SIMD) sort is used because it is the
    fastest.  Non-integer input raises ``TypeError``: float dedup has NaN
    and signed-zero rules that this mask does not reproduce.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        raise TypeError(f"sorted_unique takes integer arrays, got {x.dtype}")
    s = np.sort(x, axis=None)
    if s.shape[0] < 2:
        return s
    keep = np.empty(s.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def fold_duplicates(
    ids: np.ndarray, values: np.ndarray, combine: str
) -> tuple[np.ndarray, np.ndarray]:
    """Dedupe ``ids`` and fold the values of equal ids with ``combine``.

    Returns ``(sorted_unique(ids), folded)``.  ``"min"`` folds from
    ``+inf`` with ``np.minimum.at``; ``"sum"`` folds from ``0.0`` with
    ``np.add.at``, so an id whose values are all ``-0.0`` folds to
    ``+0.0``.  Both apply the values in input order, one at a time (no
    pairwise summation), so every result is reproducible bit for bit.
    """
    values = np.asarray(values)
    uniq, inverse = np.unique(ids, return_inverse=True)
    if combine == "min":
        folded = np.full(uniq.shape[0], np.inf, dtype=values.dtype)
        np.minimum.at(folded, inverse, values)
    elif combine == "sum":
        folded = np.zeros(uniq.shape[0], dtype=values.dtype)
        np.add.at(folded, inverse, values)
    else:
        raise ValueError(f"unknown combiner {combine!r}")
    return uniq, folded
