"""Ordering quality metrics: gap structure.

Used by the reordering study (Fig. 12) to explain *why* an ordering
helps which format: gap codes react to ``mean_log2_gap`` (smaller gaps
→ fewer code bits), and EF does not.
"""

from __future__ import annotations

import numpy as np

from repro.formats.graph import Graph

__all__ = ["gap_statistics"]


def gap_statistics(graph: Graph) -> dict[str, float]:
    """Per-list neighbour-gap statistics.

    Returns the mean/median of ``log2(gap)`` over all within-list
    neighbour gaps (first gap measured from 0) and the fraction of
    unit gaps (consecutive ids — what interval codes turn into runs).
    """
    if graph.num_edges == 0:
        return {"mean_log2_gap": 0.0, "median_log2_gap": 0.0, "unit_gap_fraction": 0.0}
    diffs = np.diff(graph.elist)
    starts = graph.vlist[1:-1]
    starts = starts[(starts > 0) & (starts < graph.num_edges)]
    within = np.ones(graph.num_edges - 1, dtype=bool) if graph.num_edges > 1 else np.zeros(0, dtype=bool)
    if within.size:
        within[starts - 1] = False
    gaps = diffs[within].astype(np.float64)
    firsts = graph.elist[graph.vlist[:-1][graph.degrees > 0]].astype(np.float64) + 1
    all_gaps = np.concatenate([gaps, firsts])
    logs = np.log2(np.maximum(all_gaps, 1.0))
    return {
        "mean_log2_gap": float(logs.mean()),
        "median_log2_gap": float(np.median(logs)),
        "unit_gap_fraction": float((gaps == 1).mean()) if gaps.size else 0.0,
    }
