"""The partial-bit sort used for frontier ordering.

Sec. VI-E: exact frontier sorting at every BFS level is too expensive, so
the paper radix-sorts only the top 65% of the key bits with CUB — an
approximate sort that restores most locality at a fraction of the cost.
``partial_radix_sort_key`` reproduces that by masking off the low bits
before sorting (a stable sort on the masked key leaves ties in arrival
order, exactly like an LSD radix sort that skips the low digits).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SORT_FRACTION", "partial_radix_sort_key", "partial_sort_frontier"]

#: Share of the high vertex-id bits the frontier sort keys on (Sec. VI-E).
SORT_FRACTION = 0.65


def kept_bits(num_nodes: int, fraction: float = SORT_FRACTION) -> int:
    """High vertex-id bits the frontier sort keys on.

    The ids of ``num_nodes`` vertices span ``bit_length(num_nodes - 1)``
    bits (at least one); the sort keeps the top ``fraction`` of them,
    at least one.  The sort and its priced radix passes both read this.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    total_bits = max(1, int(num_nodes - 1).bit_length())
    return max(1, int(round(total_bits * fraction)))


def partial_radix_sort_key(
    keys: np.ndarray, total_bits: int, fraction: float = SORT_FRACTION
) -> np.ndarray:
    """Masked sort key keeping only the top ``fraction`` of ``total_bits``.

    "We sort 65% of the bits (i.e., we pretend as though the lower 35%
    bits do not exist)" — Sec. VI-E.

    Returns the masked keys; sorting on them (stably) gives the partial
    order the paper uses.
    """
    if total_bits <= 0:
        raise ValueError(f"total_bits must be positive, got {total_bits}")
    keys = np.asarray(keys).astype(np.uint64)
    # ``2**total_bits`` vertices span exactly ``total_bits`` id bits.
    drop = total_bits - kept_bits(1 << total_bits, fraction)
    mask = np.uint64(((1 << total_bits) - 1) ^ ((1 << drop) - 1))
    return keys & mask


def partial_sort_frontier(
    frontier: np.ndarray, num_nodes: int, fraction: float = SORT_FRACTION
) -> np.ndarray:
    """Approximately sort a BFS frontier on the top :func:`kept_bits`
    bits of the vertex id.

    Correctness of the traversal does not depend on the order; this is
    purely the locality optimisation of Sec. VI-E.
    """
    frontier = np.asarray(frontier)
    if frontier.size == 0:
        return frontier.copy()
    total_bits = max(1, int(num_nodes - 1).bit_length())
    masked = partial_radix_sort_key(frontier, total_bits, fraction)
    order = np.argsort(masked, kind="stable")
    return frontier[order]


def launch_partial_sort(
    engine: "SimEngine",
    kernel: str,
    frontier: np.ndarray,
    num_nodes: int,
    id_bytes: int,
) -> np.ndarray:
    """Partially sort ``frontier`` in one ``kernel`` launch on ``engine``.

    The sort keys on the top :func:`kept_bits` of the id bits.  The
    charge is CUB's radix sort: one pass per 8-bit digit of those kept
    bits, each pass reading and scattering the ``id_bytes``-wide keys.
    """
    with engine.launch(kernel) as k:
        ordered = partial_sort_frontier(frontier, num_nodes, SORT_FRACTION)
        passes = -(-kept_bits(num_nodes) // 8)
        k.read("work:frontier", 2 * passes * frontier.shape[0], id_bytes)
        k.instructions(8.0 * passes * frontier.shape[0])
    return ordered
