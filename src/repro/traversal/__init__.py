"""The paper's traversals over CSR / EFG / CGR / Ligra+ backends.

Level-synchronous BFS (Alg. 1) and its direction-optimizing variant,
frontier-relaxation SSSP and delta-stepping, and push-style PageRank,
each running functionally in vectorized NumPy on a
:class:`~repro.gpusim.SimEngine` that charges the traffic the chosen
graph representation actually generates.  Every driver runs under
``SimEngine.algorithm``/``level``.  Multi-source BFS lives in
:mod:`repro.traversal.msbfs`.
"""

from repro.traversal.backends import (
    CGRBackend,
    CSRBackend,
    EFGBackend,
    GraphBackend,
    LigraBackend,
)
from repro.traversal.bfs import BFSResult, bfs
from repro.traversal.delta_stepping import (
    DeltaSteppingResult,
    delta_stepping_sssp,
)
from repro.traversal.direction_optimizing import (
    DirectionOptimizingResult,
    bfs_direction_optimizing,
)
from repro.traversal.pagerank import PageRankResult, pagerank
from repro.traversal.sssp import SSSPResult, sssp
from repro.traversal.validate_tree import BFSValidationError, validate_bfs_tree
from repro.traversal.validate import (
    reference_bfs_levels,
    reference_pagerank,
    reference_sssp_distances,
)

__all__ = [
    "GraphBackend",
    "CSRBackend",
    "EFGBackend",
    "CGRBackend",
    "LigraBackend",
    "bfs",
    "BFSResult",
    "bfs_direction_optimizing",
    "DirectionOptimizingResult",
    "sssp",
    "SSSPResult",
    "delta_stepping_sssp",
    "DeltaSteppingResult",
    "pagerank",
    "PageRankResult",
    "reference_bfs_levels",
    "reference_sssp_distances",
    "reference_pagerank",
    "validate_bfs_tree",
    "BFSValidationError",
]
