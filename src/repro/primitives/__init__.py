"""Parallel primitives used by the GPU kernels.

These are the building blocks the paper decomposes decompression into
(Sec. III-C, Sec. VI): parallel scans, segmented scans, bounded binary
searches (``binsearch_maxle``), the partial frontier sort, the bitmap
scatter, and the bit-manipulation helpers (``popcount``,
``select1_byte``) that back the Elias-Fano ``select`` operation, plus
the sort-based dedup
(``sorted_unique``, ``dedupe_sorted``, ``fold_duplicates``) behind every
sorted id set.

Everything here is vectorized NumPy: a call operates on a whole "grid" of
threads at once, mirroring what one warp/thread-block instruction does on
real hardware.
"""

from repro.primitives.bitops import (
    POPCOUNT_TABLE,
    POPCOUNT_TABLE_I64,
    SELECT_IN_BYTE_TABLE,
    SELECT_IN_BYTE_TABLE_I64,
)
from repro.primitives.compact import scatter_bitmap_to_indices
from repro.primitives.scan import (
    exclusive_scan,
    segmented_exclusive_scan,
    segment_ids_from_flags,
)
from repro.primitives.search import binsearch_maxle
from repro.primitives.sort import partial_radix_sort_key
from repro.primitives.unique import (
    dedupe_sorted,
    fold_duplicates,
    sorted_unique,
)

__all__ = [
    "POPCOUNT_TABLE",
    "POPCOUNT_TABLE_I64",
    "SELECT_IN_BYTE_TABLE",
    "SELECT_IN_BYTE_TABLE_I64",
    "exclusive_scan",
    "segmented_exclusive_scan",
    "segment_ids_from_flags",
    "binsearch_maxle",
    "partial_radix_sort_key",
    "scatter_bitmap_to_indices",
    "sorted_unique",
    "dedupe_sorted",
    "fold_duplicates",
]
