"""Tests for multi-GPU partitioned BFS (:mod:`repro.dist`).

The BFS cases run one shared-pipe topology (``contention=1.0``) with
device-width ``raw64`` ids on the wire and the flat schedule.
"""

import numpy as np
import pytest

from repro.dist import LinkTopology, ShardedCluster, distributed_bfs
from repro.dist.partition import VertexPartition
from repro.formats.graph import Graph
from repro.traversal.validate import reference_bfs_levels


def _shared_pipe_bfs(graph, source, num_gpus, device, fmt="csr", wire="raw64"):
    cluster = ShardedCluster.build(
        graph, num_gpus, device, fmt=fmt, wire=wire, schedule="flat",
        topology=LinkTopology.for_device(device, num_gpus, contention=1.0),
    )
    return distributed_bfs(cluster, source)


class TestVertexPartition:
    def test_even_split(self):
        p = VertexPartition.even(10, 3)
        assert p.num_gpus == 3
        assert p.boundaries[0] == 0 and p.boundaries[-1] == 10

    def test_owner(self):
        p = VertexPartition.even(100, 4)
        owners = p.owner(np.array([0, 24, 25, 99]))
        assert owners[0] == 0
        assert owners[-1] == 3
        assert np.all(np.diff(owners) >= 0)

    def test_subgraph_covers_all_edges(self, small_graph):
        p = VertexPartition.even(small_graph.num_nodes, 3)
        total = sum(
            p.subgraph(small_graph, g).num_edges for g in range(3)
        )
        assert total == small_graph.num_edges

    def test_subgraph_rows_match(self, small_graph):
        p = VertexPartition.even(small_graph.num_nodes, 2)
        shard = p.subgraph(small_graph, 1)
        lo = int(p.boundaries[1])
        assert shard.neighbours(0).shape == (0,)  # not owned
        for v in range(lo, min(lo + 10, small_graph.num_nodes)):
            assert np.array_equal(
                shard.neighbours(v), small_graph.neighbours(v)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            VertexPartition.even(10, 0)


class TestMultiGPUBFS:
    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    @pytest.mark.parametrize("fmt", ["csr", "efg"])
    def test_levels_match_reference(
        self, small_graph, scaled_device, num_gpus, fmt
    ):
        ref = reference_bfs_levels(small_graph, 3)
        r = _shared_pipe_bfs(small_graph, 3, num_gpus, scaled_device, fmt=fmt)
        assert np.array_equal(r.levels, ref)
        assert r.num_gpus == num_gpus

    def test_single_gpu_no_exchange(self, small_graph, scaled_device):
        r = _shared_pipe_bfs(small_graph, 0, 1, scaled_device)
        assert r.exchanged_bytes == 0

    def test_exchange_happens_with_two(self, small_graph, scaled_device):
        r = _shared_pipe_bfs(small_graph, 0, 2, scaled_device)
        assert r.exchanged_bytes > 0

    def test_frontier_bytes_use_device_width(self, small_graph, scaled_device):
        # Regression: int64 frontiers were charged at 4 B/id on the wire.
        from repro.dist.wire import FRONTIER_ID_BYTES

        assert FRONTIER_ID_BYTES == 8
        # The default raw64 wire ships device-width ids, so it must cost
        # more on the wire than explicitly narrowing to int32.
        wide = _shared_pipe_bfs(small_graph, 0, 2, scaled_device, wire="raw64")
        narrow = _shared_pipe_bfs(small_graph, 0, 2, scaled_device, wire="raw")
        assert wide.exchanged_bytes > narrow.exchanged_bytes
        assert np.array_equal(wide.levels, narrow.levels)

    def test_bad_source(self, small_graph, scaled_device):
        with pytest.raises(IndexError):
            _shared_pipe_bfs(small_graph, 10**7, 2, scaled_device)

    def test_bad_format(self, small_graph, scaled_device):
        with pytest.raises(ValueError):
            _shared_pipe_bfs(small_graph, 0, 2, scaled_device, fmt="zip")

    def test_partitioning_brings_csr_in_memory(self, rng):
        # The Intro trade-off: a graph too big for one device fits when
        # split across two.
        from repro.formats.csr import CSRGraph
        from repro.gpusim.device import TITAN_XP
        from repro.traversal.backends import CSRBackend
        from repro.traversal.bfs import bfs

        n, m = 15000, 500000
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )
        csr = CSRGraph.from_graph(g)
        device = TITAN_XP.scaled(2048).scaled_capacity(
            int(csr.nbytes * 0.7) + 40 * n
        )
        single = CSRBackend(csr, device)
        assert not single.graph_fits_in_memory()
        t_one = bfs(single, 0).sim_seconds
        t_two = _shared_pipe_bfs(g, 0, 2, device).sim_seconds
        assert t_two < t_one
