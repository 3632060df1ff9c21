"""Acceptance tests for the distributed drivers.

The ISSUE's bar: on a fixed RMAT graph with >= 4 simulated GPUs, the
compressed wire codecs must reduce exchanged bytes versus raw ids while
producing levels bit-identical to single-GPU BFS across every codec and
schedule, and exchange time must strictly increase when the per-link
bandwidth is halved.
"""

import numpy as np
import pytest

from repro.datasets.rmat import rmat_graph
from repro.dist import (
    ShardedCluster,
    distributed_bfs,
    distributed_pagerank,
    distributed_sssp,
)
from repro.dist.exchange import SCHEDULES
from repro.dist.report import dist_report, dist_run_metrics
from repro.dist.topology import LinkTopology
from repro.formats.csr import CSRGraph
from repro.gpusim.device import TITAN_XP
from repro.obs.metrics import METRICS_SCHEMA
from repro.traversal.backends import CSRBackend
from repro.traversal.bfs import bfs
from repro.traversal.pagerank import pagerank
from repro.traversal.sssp import sssp

SOURCE = 0
NUM_GPUS = 4


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=9, edge_factor=8, seed=7)


@pytest.fixture(scope="module")
def device():
    return TITAN_XP.scaled(2048)


@pytest.fixture(scope="module")
def single_gpu_levels(graph, device):
    return bfs(CSRBackend(CSRGraph.from_graph(graph), device), SOURCE).levels


@pytest.fixture(scope="module")
def weights(graph):
    rng = np.random.default_rng(3)
    return rng.uniform(0.1, 1.0, size=graph.num_edges).astype(np.float32)


class TestBFSEquivalence:
    @pytest.mark.parametrize("schedule", ["flat", "butterfly"])
    @pytest.mark.parametrize(
        "wire", ["raw", "raw64", "bitmap", "varint", "auto"]
    )
    def test_levels_bit_identical_to_single_gpu(
        self, graph, device, single_gpu_levels, wire, schedule
    ):
        cluster = ShardedCluster.build(
            graph, NUM_GPUS, device, wire=wire, schedule=schedule
        )
        r = distributed_bfs(cluster, SOURCE)
        assert np.array_equal(r.levels, single_gpu_levels)

    def test_efg_shards_match_too(self, graph, device, single_gpu_levels):
        cluster = ShardedCluster.build(
            graph, NUM_GPUS, device, fmt="efg", wire="auto"
        )
        r = distributed_bfs(cluster, SOURCE)
        assert np.array_equal(r.levels, single_gpu_levels)


class TestWireReduction:
    def _bytes(self, graph, device, wire):
        cluster = ShardedCluster.build(graph, NUM_GPUS, device, wire=wire)
        return distributed_bfs(cluster, SOURCE).exchanged_bytes

    def test_compressed_codec_beats_raw(self, graph, device):
        raw = self._bytes(graph, device, "raw")
        bitmap = self._bytes(graph, device, "bitmap")
        varint = self._bytes(graph, device, "varint")
        assert min(bitmap, varint) < raw

    def test_auto_no_worse_than_any_fixed_codec(self, graph, device):
        auto = self._bytes(graph, device, "auto")
        for wire in ("raw", "bitmap", "varint"):
            assert auto <= self._bytes(graph, device, wire)

    def test_codec_tallies_recorded(self, graph, device):
        cluster = ShardedCluster.build(graph, NUM_GPUS, device, wire="auto")
        r = distributed_bfs(cluster, SOURCE)
        tallies = {
            k: v for k, v in cluster.metrics.counters.items()
            if k.startswith("dist.codec.")
        }
        assert sum(tallies.values()) == r.messages


class TestLinkSensitivity:
    def test_halved_bandwidth_strictly_slower_exchange(self, graph, device):
        base = ShardedCluster.build(graph, NUM_GPUS, device, wire="raw")
        fast = distributed_bfs(base, SOURCE)
        slow_cluster = ShardedCluster.build(
            graph, NUM_GPUS, device, wire="raw",
            topology=base.topology.scaled_bandwidth(0.5),
        )
        slow = distributed_bfs(slow_cluster, SOURCE)
        assert slow.exchange_seconds > fast.exchange_seconds
        assert slow.sim_seconds > fast.sim_seconds
        # Functional outcome untouched by the cost model.
        assert np.array_equal(slow.levels, fast.levels)

    def test_single_gpu_exchanges_nothing(self, graph, device):
        cluster = ShardedCluster.build(graph, 1, device)
        r = distributed_bfs(cluster, SOURCE)
        assert r.exchanged_bytes == 0
        assert r.exchange_seconds == 0.0


class TestSSSP:
    @pytest.mark.parametrize("wire", ["raw", "bitmap", "varint", "auto"])
    def test_distances_bit_identical(self, graph, device, weights, wire):
        ref = sssp(
            CSRBackend(
                CSRGraph.from_graph(graph), device,
                weight_bytes=4 * graph.num_edges,
            ),
            SOURCE, weights,
        ).distances
        cluster = ShardedCluster.build(
            graph, NUM_GPUS, device, wire=wire, with_weights=True
        )
        r = distributed_sssp(cluster, SOURCE, weights)
        assert np.array_equal(r.distances, ref)

    def test_butterfly_matches_flat(self, graph, device, weights):
        flat = distributed_sssp(
            ShardedCluster.build(
                graph, NUM_GPUS, device, wire="auto", with_weights=True
            ),
            SOURCE, weights,
        )
        bfly = distributed_sssp(
            ShardedCluster.build(
                graph, NUM_GPUS, device, wire="auto", schedule="butterfly",
                with_weights=True,
            ),
            SOURCE, weights,
        )
        assert np.array_equal(flat.distances, bfly.distances)
        assert flat.iterations == bfly.iterations

    @pytest.mark.parametrize("wire", ["raw", "auto", "ef", "bitmap"])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_next_frontiers_strictly_ascending(
        self, graph, device, weights, schedule, wire, monkeypatch
    ):
        # The driver relaxes each frontier as it arrives, unsorted: the
        # min-folded exchange hands every owner sorted unique ids.
        topology = LinkTopology.two_tier(
            num_nodes=2, gpus_per_node=3,
            message_latency_s=device.launch_overhead_s,
        )
        cluster = ShardedCluster.build(
            graph, 6, device, wire=wire, schedule=schedule,
            topology=topology, with_weights=True,
        )
        frontiers = []
        superstep = cluster.superstep

        def recording(*args, **kwargs):
            results = superstep(*args, **kwargs)
            frontiers.extend(results)
            return results

        monkeypatch.setattr(cluster, "superstep", recording)
        r = distributed_sssp(cluster, SOURCE, weights)
        assert len(frontiers) == 6 * r.iterations
        assert max(f.size for f in frontiers) > 1
        for frontier in frontiers:
            assert np.all(np.diff(frontier) > 0)

    def test_requires_weighted_cluster(self, graph, device, weights):
        cluster = ShardedCluster.build(graph, NUM_GPUS, device)
        with pytest.raises(RuntimeError):
            distributed_sssp(cluster, SOURCE, weights)

    def test_value_bytes_charged(self, graph, device, weights):
        cluster = ShardedCluster.build(
            graph, NUM_GPUS, device, wire="bitmap", with_weights=True
        )
        distributed_sssp(cluster, SOURCE, weights)
        assert cluster.metrics.counters["dist.value_bytes"] > 0


class TestPageRank:
    def test_matches_single_gpu_to_tolerance(self, graph, device):
        ref = pagerank(
            CSRBackend(CSRGraph.from_graph(graph), device), max_iterations=15
        )
        cluster = ShardedCluster.build(graph, NUM_GPUS, device, wire="auto")
        r = distributed_pagerank(cluster, max_iterations=15)
        assert r.iterations == ref.iterations
        assert np.allclose(r.ranks, ref.ranks, rtol=1e-9, atol=1e-12)
        assert np.isclose(r.ranks.sum(), 1.0, atol=1e-9)

    def test_butterfly_matches_flat_exactly(self, graph, device):
        flat = distributed_pagerank(
            ShardedCluster.build(graph, NUM_GPUS, device, wire="auto"),
            max_iterations=8,
        )
        bfly = distributed_pagerank(
            ShardedCluster.build(
                graph, NUM_GPUS, device, wire="auto", schedule="butterfly"
            ),
            max_iterations=8,
        )
        # Same folding tree per destination -> identical float results.
        assert np.allclose(flat.ranks, bfly.ranks, rtol=0, atol=1e-15)


class TestReporting:
    def test_metrics_dump_is_schema_stable_and_deterministic(
        self, graph, device
    ):
        import json

        def run():
            cluster = ShardedCluster.build(graph, NUM_GPUS, device)
            distributed_bfs(cluster, SOURCE)
            return dist_run_metrics(cluster, meta={"algo": "bfs"})

        a, b = run(), run()
        assert a["schema"] == METRICS_SCHEMA
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["counters"]["dist.wire_bytes"] > 0
        assert "dist_expand" in a["kernels"]
        assert a["meta"]["num_gpus"] == NUM_GPUS

    def test_level_charges_carry_exchange_breakdown(self, graph, device):
        cluster = ShardedCluster.build(graph, NUM_GPUS, device)
        distributed_bfs(cluster, SOURCE)
        spans = cluster.tracer.root.find("level")
        assert [c.name for c in cluster.charges] == [s.name for s in spans]
        for charge, span in zip(cluster.charges, spans):
            assert charge.bound in ("expand", "link", "latency", "claim")
            assert charge.exchange.wire_bytes >= 0
            # Spans keep the driver's facts only; costs live on charges.
            assert "wire_bytes" not in span.attrs

    def test_report_renders(self, graph, device):
        cluster = ShardedCluster.build(graph, NUM_GPUS, device)
        distributed_bfs(cluster, SOURCE)
        text = dist_report(cluster)
        assert "level:0" in text
        assert "wire" in text
