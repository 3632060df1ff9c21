"""Parallel primitives used by the GPU kernels.

These are the building blocks the paper decomposes decompression into
(Sec. III-C, Sec. VI): parallel scans, segmented scans, bounded binary
searches (``binsearch_maxle``), radix sort, stream compaction, and the
bit-manipulation helpers (``popcount``, ``select1_byte``) that back the
Elias-Fano ``select`` operation, plus the sort-based dedup
(``sorted_unique``, ``fold_duplicates``) behind every sorted id set.

Everything here is vectorized NumPy: a call operates on a whole "grid" of
threads at once, mirroring what one warp/thread-block instruction does on
real hardware.
"""

from repro.primitives.bitops import (
    POPCOUNT_TABLE,
    POPCOUNT_TABLE_I64,
    SELECT_IN_BYTE_TABLE,
    SELECT_IN_BYTE_TABLE_I64,
    popcount_bytes,
    popcount_u64,
    select_in_byte,
    select_in_bytes_vector,
)
from repro.primitives.compact import (
    gather,
    scatter_bitmap_to_indices,
    stream_compact,
)
from repro.primitives.scan import (
    exclusive_scan,
    inclusive_scan,
    segmented_exclusive_scan,
    segment_ids_from_flags,
)
from repro.primitives.search import binsearch_maxle, binsearch_maxlt
from repro.primitives.sort import partial_radix_sort_key, radix_sort
from repro.primitives.unique import fold_duplicates, sorted_unique

__all__ = [
    "POPCOUNT_TABLE",
    "POPCOUNT_TABLE_I64",
    "SELECT_IN_BYTE_TABLE",
    "SELECT_IN_BYTE_TABLE_I64",
    "popcount_bytes",
    "popcount_u64",
    "select_in_byte",
    "select_in_bytes_vector",
    "exclusive_scan",
    "inclusive_scan",
    "segmented_exclusive_scan",
    "segment_ids_from_flags",
    "binsearch_maxle",
    "binsearch_maxlt",
    "radix_sort",
    "partial_radix_sort_key",
    "stream_compact",
    "gather",
    "scatter_bitmap_to_indices",
    "sorted_unique",
    "fold_duplicates",
]
