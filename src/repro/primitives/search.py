"""Bounded parallel binary searches (Sec. III-C, Fig. 4).

``binsearch_maxle(sorted, queries)`` returns, per query, the index of the
largest element less than or equal to the query value.  Combined with an
exclusive scan it maps flat work ids (thread ids) back to the uneven work
items (vertices / bytes / lists) that produced them — the core
load-balancing idiom of the paper.  Our implementation vectorizes all
queries with ``np.searchsorted``, mirroring thrust's vectorised searches
used by the authors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["binsearch_maxle"]


def binsearch_maxle(sorted_values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the largest value <= query, per query.

    Parameters
    ----------
    sorted_values:
        Non-decreasing array.  With an exclusive scan as input, entry 0 is
        0, so any non-negative query has a well-defined answer.
    queries:
        Array (or scalar) of search keys.

    Returns
    -------
    int64 indices into ``sorted_values``.

    Raises
    ------
    ValueError
        If any query is smaller than ``sorted_values[0]`` (no valid index
        exists) or the haystack is empty.
    """
    sorted_values = np.asarray(sorted_values)
    if sorted_values.shape[0] == 0:
        raise ValueError("binsearch_maxle on an empty array")
    queries = np.asarray(queries)
    idx = np.searchsorted(sorted_values, queries, side="right") - 1
    if np.any(idx < 0):
        raise ValueError("query below the smallest element has no maxle index")
    return idx.astype(np.int64)

