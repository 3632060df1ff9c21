"""Host working-set measurement shared by the tracemalloc guards."""

from __future__ import annotations

import tracemalloc


def peak_bytes(fn, *args, **kwargs) -> int:
    """tracemalloc peak of ``fn(*args, **kwargs)`` above the memory live
    before it, with its outputs still held (they count against the
    working set)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak - before
