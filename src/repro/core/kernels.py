"""Thread-block-structured decompression kernels (Alg. 2, Figs. 5-7).

These are the *literal* kernels of the paper, organised exactly as a
CUDA thread block would execute them: a block of ``DIMX`` threads, a
shared-memory bytes tile, popcount, block-wide exclusive scan, binary
search, ``select1_byte`` LUT probe, segmented bookkeeping for multiple
lists.  Each "iteration" processes DIMX elements at once (one vector
op = one lockstep warp instruction).

They decode bit-identical values to the whole-batch fast path
(:func:`repro.core.efg.decode_lists`) — a property the test suite
asserts — but run block-by-block in Python, so the traversal simulator
uses the fast path and these kernels serve correctness validation,
examples, and the fidelity claim.
"""

from __future__ import annotations

import numpy as np

from repro.core.efg import EFGraph, check_decode_batch
from repro.core.errors import CorruptStreamError
from repro.core.partition import BlockAssignment, partition_edges_to_blocks
from repro.ef.bitstream import extract_fields
from repro.primitives.bitops import POPCOUNT_TABLE_I64, SELECT_IN_BYTE_TABLE_I64
from repro.primitives.scan import exclusive_scan, segmented_exclusive_scan
from repro.primitives.search import binsearch_maxle

__all__ = [
    "decompress_single_list",
    "decompress_partial_list",
    "decompress_multiple_lists",
]


def _lower_halves(efg: EFGraph, v: int, local_ids: np.ndarray) -> np.ndarray:
    """Fetch the lower bits of elements ``local_ids`` of list ``v``."""
    l = int(efg.num_lower_bits[v])
    if l == 0:
        return np.zeros(local_ids.shape[0], dtype=np.int64)
    base_bit = int(efg.lower_start_byte(np.array([v]))[0]) * 8
    return extract_fields(efg.data, base_bit + local_ids * l, l).astype(np.int64)


def decompress_single_list(efg: EFGraph, v: int, dimx: int = 32) -> np.ndarray:
    """Alg. 2: a DIMX-thread block decompresses one full list.

    Outer loop over byte tiles; per tile (1) load bytes to shared
    memory, (2) popcount, (3) block-wide exclusive scan, then an inner
    loop where each thread (4) binary-searches the scan for its target
    byte, (5-7) selects within it via the LUT, (8) adds the preceding
    bits and (9) combines upper and lower halves.
    """
    if dimx <= 0:
        raise ValueError(f"dimx must be positive, got {dimx}")
    deg = int(efg.degrees[v])
    if deg == 0:
        return np.empty(0, dtype=np.int64)
    check_decode_batch(efg, np.array([v], dtype=np.int64))
    up_start = int(efg.upper_start_byte(np.array([v]))[0])
    n_bytes = int(efg.upper_nbytes(np.array([v]))[0])
    l = int(efg.num_lower_bits[v])

    out = np.empty(deg, dtype=np.int64)
    prev_vals = 0
    b_iters = -(-n_bytes // dimx)
    for i in range(b_iters):
        # (1) each thread loads one byte (zero beyond the section).
        byte_id = i * dimx + np.arange(dimx, dtype=np.int64)
        in_range = byte_id < n_bytes
        s_bytes = np.where(in_range, efg.data[up_start + byte_id * in_range], 0).astype(
            np.uint8
        )
        # (2) popcount; (3) block-wide exclusive scan in shared memory.
        popc = POPCOUNT_TABLE_I64[s_bytes]
        s_exsum, total_vals = exclusive_scan(popc)
        if prev_vals + total_vals > deg:
            raise CorruptStreamError(
                f"more than {deg} stop bits in the upper section",
                fmt="efg",
                vertex=v,
            )
        # inner loop: DIMX values per iteration.
        val_iters = -(-total_vals // dimx)
        for j in range(val_iters):
            val_id = j * dimx + np.arange(dimx, dtype=np.int64)
            active = val_id < total_vals
            vid = val_id[active]
            # (4) binary search for the target byte; (5) fetch it.
            tb_id = binsearch_maxle(s_exsum, vid)
            target = s_bytes[tb_id]
            # (6) rank within the byte; (7) LUT select.
            s_id = vid - s_exsum[tb_id]
            select_result = SELECT_IN_BYTE_TABLE_I64[target, s_id]
            # (8) add bits preceding this tile's bytes.
            select_result += (i * dimx + tb_id) * 8
            global_val_id = prev_vals + vid
            # (9) upper half = select - i; combine with lower half.
            upper_half = select_result - global_val_id
            lower_half = _lower_halves(efg, v, global_val_id)
            out[global_val_id] = (upper_half << l) | lower_half
        prev_vals += total_vals
    if prev_vals != deg:
        raise CorruptStreamError(
            f"{prev_vals} stop bits for degree {deg}", fmt="efg", vertex=v
        )
    return out


def decompress_partial_list(
    efg: EFGraph, v: int, a: int, b: int, dimx: int = 32
) -> np.ndarray:
    """Sec. VI-C / Fig. 6: decode local elements ``[a, b)`` of list v.

    Forward pointers bound the upper-bits scan: the closest preceding
    pointer for ``a`` and the closest covering pointer for ``b - 1``
    give the byte window a block actually loads.
    """
    deg = int(efg.degrees[v])
    if not 0 <= a <= b <= deg:
        raise IndexError(f"range [{a}, {b}) invalid for degree {deg}")
    if a == b:
        return np.empty(0, dtype=np.int64)
    check_decode_batch(efg, np.array([v], dtype=np.int64))
    k = efg.quantum
    fwd = efg.forward_values(v)
    up_start = int(efg.upper_start_byte(np.array([v]))[0])
    n_bytes = int(efg.upper_nbytes(np.array([v]))[0])
    l = int(efg.num_lower_bits[v])

    # Closest preceding pointer: forward[floor((a+1)/k) - 1] (Fig. 6).
    j_lo = (a + 1) // k
    if j_lo > 0:
        anchor_elem = j_lo * k - 1
        anchor_bit = int(fwd[j_lo - 1]) + anchor_elem  # select1(anchor)
        if anchor_elem == a:
            start_bit, base_rank = anchor_bit, anchor_elem
        else:
            start_bit, base_rank = anchor_bit + 1, anchor_elem + 1
    else:
        start_bit, base_rank = 0, 0
    # Closest covering pointer for b - 1.
    j_hi = -(-b // k)
    if j_hi <= fwd.shape[0]:
        stop_bit = int(fwd[j_hi - 1]) + (j_hi * k - 1) + 1
    else:
        stop_bit = n_bytes * 8

    if start_bit > n_bytes * 8:
        # A corrupt forward pointer steered the scan past the section.
        raise CorruptStreamError(
            f"forward pointer places bit {start_bit} beyond the "
            f"{n_bytes}-byte upper section",
            fmt="efg",
            vertex=v,
        )
    first_byte = start_bit >> 3
    last_byte = min((stop_bit + 7) >> 3, n_bytes)
    window = efg.data[up_start + first_byte : up_start + last_byte].copy()
    if window.shape[0] and (start_bit & 7):
        lead = start_bit & 7
        window[0] &= np.uint8((0xFF << lead) & 0xFF)

    popc = POPCOUNT_TABLE_I64[window]
    exsum, _total = exclusive_scan(popc)
    if (b - 1) - base_rank >= _total:
        raise CorruptStreamError(
            f"{_total} stop bits in the bounded window for elements "
            f"[{a}, {b}) (rank base {base_rank})",
            fmt="efg",
            vertex=v,
        )
    out = np.empty(b - a, dtype=np.int64)
    count = b - a
    for j in range(-(-count // dimx)):
        ids = j * dimx + np.arange(dimx, dtype=np.int64)
        ids = ids[ids < count]
        want = a + ids
        rel = want - base_rank
        tb = binsearch_maxle(exsum, rel)
        s_id = rel - exsum[tb]
        pos = SELECT_IN_BYTE_TABLE_I64[window[tb], s_id]
        select_result = (first_byte + tb) * 8 + pos
        upper_half = select_result - want
        out[ids] = (upper_half << l) | _lower_halves(efg, v, want)
    return out


def decompress_multiple_lists(
    efg: EFGraph,
    vertices: np.ndarray,
    edges_per_block: int = 1024,
) -> tuple[np.ndarray, np.ndarray, BlockAssignment]:
    """Sec. VI-D / Fig. 7: blocks decode equal edge shares of many lists.

    The frontier's edges are partitioned with
    :func:`~repro.core.partition.partition_edges_to_blocks`; each block
    then decodes its slice — a possibly-partial first list, whole
    middle lists, and a possibly-partial last list — using the
    byte->thread mapping, ``is_list_start`` flags and segmented scans of
    Fig. 7.

    Returns ``(values, segment_ids, assignment)`` where ``values`` is in
    flat frontier-edge order and ``segment_ids`` indexes ``vertices``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    degrees = efg.degrees[vertices]
    assignment = partition_edges_to_blocks(degrees, edges_per_block)
    total = assignment.total_edges
    values = np.empty(total, dtype=np.int64)
    seg_out = np.empty(total, dtype=np.int64)

    for blk in range(assignment.num_blocks):
        first, first_off, last, end_off = assignment.block_slices(blk)
        e0 = int(assignment.edge_start[blk])
        e1 = int(assignment.edge_start[blk + 1])
        if e1 <= e0:
            continue
        pos = e0
        for li in range(first, last + 1):
            v = int(vertices[li])
            lo = first_off if li == first else 0
            hi = end_off if li == last else int(degrees[li])
            if hi <= lo:
                continue
            vals = _decode_block_lists_step(efg, v, lo, hi)
            values[pos : pos + hi - lo] = vals
            seg_out[pos : pos + hi - lo] = li
            pos += hi - lo
        if pos != e1:
            raise CorruptStreamError(
                f"block {blk} decoded {pos - e0} edges, expected {e1 - e0}",
                fmt="efg",
            )
    return values, seg_out, assignment


def _decode_block_lists_step(efg: EFGraph, v: int, lo: int, hi: int) -> np.ndarray:
    """One list slice within a block (partial or full)."""
    deg = int(efg.degrees[v])
    if lo == 0 and hi == deg:
        return decompress_single_list(efg, v, dimx=max(32, min(1024, deg)))
    return decompress_partial_list(efg, v, lo, hi)


def multi_list_block_table(
    efg: EFGraph, vertices: np.ndarray, block_lists: np.ndarray
) -> dict[str, np.ndarray]:
    """Build the Fig. 7 shared-memory tables for one block (didactic).

    Given the frontier positions ``block_lists`` a block owns, returns
    the per-thread arrays of the figure: the loaded bytes, popcounts,
    ``is_list_start`` flags, block-wide and segmented exclusive sums,
    and ``seg_bytes_before_me``.  Used by tests and the walkthrough
    example to show the exact intermediate state of the kernel.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    vs = vertices[np.asarray(block_lists, dtype=np.int64)]
    up_start = efg.upper_start_byte(vs)
    up_len = efg.upper_nbytes(vs)
    from repro.core.efg import csr_gather_indices

    byte_idx, byte_seg = csr_gather_indices(up_start, up_len)
    s_bytes = efg.data[byte_idx]
    popc = POPCOUNT_TABLE_I64[s_bytes]
    is_start = np.zeros(byte_seg.shape[0], dtype=bool)
    if byte_seg.shape[0]:
        is_start[0] = True
        is_start[1:] = byte_seg[1:] != byte_seg[:-1]
    exsum, _ = exclusive_scan(popc)
    seg_exsum = segmented_exclusive_scan(popc, is_start)
    ones = np.ones(byte_seg.shape[0], dtype=np.int64)
    seg_bytes_before = segmented_exclusive_scan(ones, is_start)
    return {
        "bytes": s_bytes,
        "popcounts": popc,
        "is_list_start": is_start,
        "exsum": exsum,
        "seg_exsum": seg_exsum,
        "seg_bytes_before_me": seg_bytes_before,
    }
