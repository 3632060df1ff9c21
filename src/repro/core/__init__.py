"""The paper's primary contribution: the Elias-Fano Graph (EFG) format.

* :class:`EFGraph` — the four-array representation of Sec. V
  (``vlist``, ``num_lower_bits``, ``offsets``, ``data``) with per-list
  byte-aligned sections *(forward pointers | lower bits | upper bits)*.
* :func:`efg_encode` — vectorized whole-graph encoder (compression is
  offline; EF needs only sorted lists and the encode is minutes-fast,
  Sec. VIII-F).
* Decode kernels — the batched scan/search/select decomposition of
  Sec. VI, both as a whole-batch vectorized fast path
  (:func:`repro.core.efg.decode_lists`) and as a literal
  thread-block-structured kernel (:mod:`repro.core.kernels`) proven
  equivalent in tests.
"""

from repro.core.efg import (
    EFGraph,
    check_decode_batch,
    decode_lists,
    efg_encode,
    validate_efg,
)
from repro.core.errors import CorruptMetadataError, CorruptStreamError, DecodeError
from repro.core.listcache import CacheStats, DecodedListCache
from repro.core.partition import BlockAssignment, partition_edges_to_blocks

__all__ = [
    "EFGraph",
    "efg_encode",
    "decode_lists",
    "validate_efg",
    "check_decode_batch",
    "DecodeError",
    "CorruptStreamError",
    "CorruptMetadataError",
    "CacheStats",
    "DecodedListCache",
    "BlockAssignment",
    "partition_edges_to_blocks",
]
