#!/usr/bin/env python
"""Tour of the extensions beyond the paper's headline experiments.

* direction-optimizing BFS — the Sec. VII trade-off, measured;
* the PEF-coded graph format — the Sec. IX extension, realised;
* BV / WebGraph — the famous CPU format EFG is positioned against;
* UVM vs zero-copy — the two out-of-core mechanisms of Sec. II.

Run:  python examples/extensions_tour.py
"""

import numpy as np

from repro.core import efg_encode
from repro.core.pefgraph import pefg_encode
from repro.datasets import web_graph
from repro.formats import CSRGraph, bv_encode
from repro.gpusim import TITAN_XP
from repro.gpusim.uvm import UVMSimulator
from repro.traversal import EFGBackend, bfs_direction_optimizing

graph = web_graph(20000, 25, mean_run_length=24, seed=21, name="tour").symmetrized()
device = TITAN_XP.scaled(2048)
backend = EFGBackend(efg_encode(graph), device)
print(f"graph: {graph}\n")

print("=== direction-optimizing BFS (Sec. VII) ===")
src = int(np.argmax(graph.degrees))
top_down = bfs_direction_optimizing(backend, source=src, alpha=1e-12, beta=1e12)
hybrid = bfs_direction_optimizing(backend, source=src)
print(f"top-down: {top_down.edges_examined:,} edges examined")
print(f"hybrid  : {hybrid.edges_examined:,} edges examined "
      f"({hybrid.bottom_up_levels} bottom-up levels, "
      f"{top_down.edges_examined / hybrid.edges_examined:.1f}x fewer)\n")

print("=== storage: CSR vs EFG vs PEF-EFG vs BV (Sec. IX / VII) ===")
csr = CSRGraph.from_graph(graph).nbytes
efg = efg_encode(graph).nbytes
pefg = pefg_encode(graph).nbytes
bv = bv_encode(graph).nbytes
for label, nbytes in (("CSR", csr), ("EFG", efg), ("PEF-EFG", pefg), ("BV", bv)):
    gpu = "GPU-decodable" if label in ("CSR", "EFG", "PEF-EFG") else "CPU only"
    print(f"{label:8s} {nbytes / 1e6:7.2f} MB  ({csr / nbytes:4.2f}x)  [{gpu}]")

print("\n=== out-of-core: zero-copy vs UVM paging (Sec. II) ===")
from repro.core.efg import csr_gather_indices
from repro.gpusim.cost import stream_transfer_bytes
from repro.traversal import bfs

levels = bfs(backend, src).levels
zero_copy = 0
uvm = UVMSimulator(cache_bytes=device.memory_bytes // 2)
for depth in range(int(levels.max()) + 1):
    frontier = np.flatnonzero(levels == depth)
    idx, _ = csr_gather_indices(graph.vlist[frontier], graph.degrees[frontier])
    zero_copy += stream_transfer_bytes(idx, 4, device.link_line_bytes)
    uvm.access(idx, 4)
print(f"zero-copy streams {zero_copy / 1e6:.2f} MB; "
      f"UVM migrates {uvm.migrated_bytes / 1e6:.2f} MB "
      f"({uvm.migrated_bytes / zero_copy:.1f}x more) — why EMOGI-style "
      "streaming wins for traversal")
