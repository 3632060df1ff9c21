"""Edge-list text IO.

Compression is an offline step (Sec. VIII-F): datasets are generated or
converted once and reloaded by the benchmark harness.  The one binary
on-disk CSR form is the mmap container of :mod:`repro.serve.container`
(raw, CRC-stamped, O(1) to open); this module reads the plain
``src dst`` text edge lists graphs arrive in.
"""

from __future__ import annotations

import os

import numpy as np

from repro.formats.graph import Graph

__all__ = ["read_edge_list"]


def read_edge_list(
    path: str | os.PathLike, directed: bool = True, name: str = ""
) -> Graph:
    """Read a ``src dst`` text edge list (comments with ``#`` allowed)."""
    # Reject empty input before touching np.loadtxt: it emits a
    # UserWarning on empty files, so the check must come first for the
    # rejection to be a clean ValueError with no warning noise.
    with open(path) as fh:
        has_data = any(
            line.strip() and not line.lstrip().startswith("#") for line in fh
        )
    if not has_data:
        raise ValueError(f"empty edge list: {path}")
    pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    if pairs.size == 0:
        raise ValueError(f"empty edge list: {path}")
    if pairs.shape[1] < 2:
        raise ValueError("edge list rows need at least src and dst columns")
    return Graph.from_edges(pairs[:, 0], pairs[:, 1], directed=directed, name=name)
