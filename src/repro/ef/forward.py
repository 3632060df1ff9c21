"""Forward pointers for average-O(1) select (Sec. IV-A, Sec. VI-C).

Following the folly convention: for a list of size ``n`` and quantum
``k > 0`` we store ``floor(n / k)`` pointers, where pointer ``j``
(1-indexed) holds ``select1(j*k - 1) - (j*k - 1)`` — the *upper value*
``x_{jk-1} >> l`` rather than the raw select position, because it takes
fewer bits and the index can be re-added when needed.  The encoder
computes them from that arithmetic; nothing scans the upper bits to
rebuild them.

To decode values ``[a, b]`` of a list, a thread block locates the
closest preceding pointer for ``a`` and the closest covering pointer
after ``b``, and only scans the upper-bits bytes in between (Fig. 6).
"""

from __future__ import annotations

__all__ = ["DEFAULT_QUANTUM"]

#: The paper's evaluation fixes k = 512 (Sec. VIII).
DEFAULT_QUANTUM = 512
