"""Graph properties the tests check against, computed directly from the
CSR arrays rather than through the package."""

from __future__ import annotations

import numpy as np


def has_sorted_rows(graph) -> bool:
    """The EFG precondition: every row strictly increasing."""
    if graph.num_edges == 0:
        return True
    ok = np.diff(graph.elist) > 0
    row_starts = graph.vlist[1:-1]  # positions where a new row begins
    row_starts = row_starts[(row_starts > 0) & (row_starts < graph.num_edges)]
    ok[row_starts - 1] = True  # diffs straddling a row boundary don't matter
    return bool(ok.all())


def locality_statistics(graph) -> dict[str, float]:
    """Edge-span statistics: how far neighbours sit from their source.

    ``mean_edge_span`` is the average ``|dst - src|``; smaller spans
    mean a traversal's scattered reads cluster into fewer memory sectors.
    """
    if graph.num_edges == 0:
        return {"mean_edge_span": 0.0, "median_edge_span": 0.0}
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    span = np.abs(graph.elist - src).astype(np.float64)
    return {
        "mean_edge_span": float(span.mean()),
        "median_edge_span": float(np.median(span)),
    }
