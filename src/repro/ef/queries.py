"""Successor and intersection queries on EF sequences.

Vigna's quasi-succinct indices exist to answer exactly these queries:
``next_geq`` (the smallest element >= x, the inverted-index *skip*
operation) and list intersection via galloping.  The paper only needs
full-list decode for traversal, but adjacency membership and
intersections fall out of the representation for free.

``ef_next_geq`` gallops in O(log n) random accesses, each bounded by a
forward-pointer quantum; ``ef_intersect`` gallops the smaller list
through the larger one, which beats linear merge whenever the sizes
are skewed (the common case for adjacency lists).
"""

from __future__ import annotations

import numpy as np

from repro.ef.encoding import EFSequence, ef_decode_at

__all__ = ["ef_next_geq", "ef_intersect"]


def ef_intersect(a: EFSequence, b: EFSequence) -> np.ndarray:
    """Sorted intersection of two EF sequences by galloping.

    The smaller sequence drives: for each of its elements, skip the
    larger sequence forward with ``next_geq``.  Duplicate elements
    (legal in EF, absent in adjacency lists) contribute once.
    """
    small, big = (a, b) if a.n <= b.n else (b, a)
    out: list[int] = []
    big_idx = 0
    prev = -1
    for i in range(small.n):
        value = ef_decode_at(small, i)
        if value == prev:
            continue
        prev = value
        hit, idx = ef_next_geq(big, value, big_idx)
        if hit == -1:
            break
        big_idx = idx
        if hit == value:
            out.append(value)
    return np.array(out, dtype=np.int64)


def ef_next_geq(seq: EFSequence, x: int, start: int = 0) -> tuple[int, int]:
    """Smallest element >= x at index >= ``start`` and its index, or
    ``(-1, n)`` when none exists.

    Gallops outward from ``start`` to bracket ``x``, then binary-searches
    the bracket; each probe is O(1) average via the sequence's forward
    pointers.
    """
    n = seq.n
    if start >= n:
        return -1, n
    if ef_decode_at(seq, start) >= x:
        return ef_decode_at(seq, start), start
    # Gallop to bracket x.
    step = 1
    lo = start
    while True:
        hi = lo + step
        if hi >= n - 1:
            hi = n - 1
            break
        if ef_decode_at(seq, hi) >= x:
            break
        lo = hi
        step *= 2
    if ef_decode_at(seq, hi) < x:
        return -1, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ef_decode_at(seq, mid) >= x:
            hi = mid
        else:
            lo = mid
    return ef_decode_at(seq, hi), hi
