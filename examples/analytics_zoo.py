#!/usr/bin/env python
"""Every traversal in the library on one graph.

Runs BFS, direction-optimizing BFS, SSSP (frontier relaxation and
delta-stepping), PageRank, and 2-GPU BFS on a single compressed social
graph — with simulated runtimes, so the cost of each algorithm on the
same EFG backend is directly comparable.

Run:  python examples/analytics_zoo.py
"""

import numpy as np

from repro.core import efg_encode
from repro.datasets import rmat_graph
from repro.datasets.rmat import SOCIAL_PARAMS
from repro.dist import LinkTopology, ShardedCluster, distributed_bfs
from repro.formats import generate_edge_weights
from repro.gpusim import TITAN_XP
from repro.traversal import (
    EFGBackend,
    bfs,
    bfs_direction_optimizing,
    delta_stepping_sssp,
    pagerank,
    sssp,
    validate_bfs_tree,
)

graph = rmat_graph(15, 24, SOCIAL_PARAMS, seed=99, name="zoo").symmetrized()
device = TITAN_XP.scaled(2048)
weights = generate_edge_weights(graph, seed=1)
backend = EFGBackend(
    efg_encode(graph), device, weight_bytes=4 * graph.num_edges
)
src = int(np.argmax(graph.degrees))
print(f"graph: {graph}, source {src}\n")
print(f"{'algorithm':34s} {'sim ms':>9s}  notes")
print("-" * 78)

r = bfs(backend, src)
validate_bfs_tree(graph, src, r.levels, r.parents)
print(f"{'BFS (top-down, Alg. 1)':34s} {r.runtime_ms:9.3f}  "
      f"{r.num_levels} levels, tree validated (Graph500 rules)")

d = bfs_direction_optimizing(backend, source=src)
print(f"{'BFS (direction-optimizing)':34s} {d.runtime_ms:9.3f}  "
      f"{d.bottom_up_levels} bottom-up levels, "
      f"{r.edges_traversed / max(d.edges_examined, 1):.1f}x fewer edges")

s = sssp(backend, src, weights)
print(f"{'SSSP (frontier relaxation)':34s} {s.runtime_ms:9.3f}  "
      f"{s.edges_relaxed:,} relaxations")

ds = delta_stepping_sssp(backend, src, weights)
agree = np.allclose(
    ds.distances[np.isfinite(s.distances)],
    s.distances[np.isfinite(s.distances)], atol=1e-5,
)
print(f"{'SSSP (delta-stepping)':34s} {ds.runtime_ms:9.3f}  "
      f"{ds.edges_relaxed:,} relaxations, distances agree: {agree}")

p = pagerank(backend, max_iterations=50)
print(f"{'PageRank (50-iter cap)':34s} {p.runtime_ms:9.3f}  "
      f"converged={p.converged} after {p.iterations} iters")

cluster = ShardedCluster.build(
    graph, 2, device, fmt="efg", wire="raw64", schedule="flat",
    topology=LinkTopology.for_device(device, 2, contention=1.0),
)
mg = distributed_bfs(cluster, src)
print(f"{'BFS (2 simulated GPUs, EFG)':34s} {mg.runtime_ms:9.3f}  "
      f"exchanged {mg.exchanged_bytes / 1e3:.0f} KB")
