"""Graph containers and the baseline compressed representations.

* :class:`Graph` / :class:`CSRGraph` — the uncompressed baseline
  (Sec. III-D), with 32-bit CSR accounting to mirror the paper.
* :class:`CGRGraph` — reimplementation of the interval/residual +
  variable-length-gap encoding of Sha et al. (the paper's GPU
  state-of-the-art comparator).
* :class:`LigraPlusGraph` — reimplementation of Ligra+'s byte-RLE gap
  codes (the paper's CPU comparator, top-down mode).
"""

from repro.formats.bv import BVGraph, bv_encode
from repro.formats.cgr import CGRGraph, cgr_decode_list, cgr_encode
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph
from repro.formats.ligra_plus import LigraPlusGraph, ligra_decode_list, ligra_encode
from repro.formats.weights import generate_edge_weights

__all__ = [
    "Graph",
    "BVGraph",
    "bv_encode",
    "CSRGraph",
    "CGRGraph",
    "cgr_encode",
    "cgr_decode_list",
    "LigraPlusGraph",
    "ligra_encode",
    "ligra_decode_list",
    "generate_edge_weights",
]
