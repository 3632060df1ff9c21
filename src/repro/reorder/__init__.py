"""Graph reordering methods for the Sec. VIII-D study.

* :func:`bp_order` — gap-minimising recursive graph bisection in the
  spirit of BP (Dhulipala et al., KDD'16).
* :func:`halo_order` — locality-optimising ordering in the spirit of
  HALO (Gera et al., VLDB'20).
* :func:`random_order` — the pathological control (destroys all
  locality; CGR/Ligra+ compression collapses, EFG is unaffected).

All functions return a permutation ``perm`` with ``perm[v]`` = new id
of old vertex ``v``, applied via
:meth:`repro.formats.graph.Graph.relabelled`.
"""

from repro.reorder.bp import bp_order
from repro.reorder.halo import halo_order
from repro.reorder.metrics import gap_statistics
from repro.reorder.random_order import random_order

__all__ = [
    "bp_order",
    "halo_order",
    "random_order",
    "gap_statistics",
]
