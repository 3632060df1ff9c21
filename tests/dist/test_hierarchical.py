"""Acceptance tests for the two-tier exchange, EF wire, and overlap.

The ISSUE's bar: distributed results stay bit-identical to single-GPU
across codecs x schedules x topologies (including non-power-of-two GPU
counts and degenerate one-GPU-per-node layouts), per-tier exchanged
bytes satisfy the exact attribution invariant, the auto codec never
transmits more than the best fixed codec, and the overlap cost model
prices each level at ``max(expand, exchange) + claim``.
"""

import numpy as np
import pytest

from repro.datasets.rmat import rmat_graph
from repro.dist import (
    ShardedCluster,
    distributed_bfs,
    distributed_pagerank,
    distributed_sssp,
    verify_dist_attribution,
)
from repro.dist.report import dist_report, dist_run_metrics
from repro.dist.topology import TIERS, LinkTopology
from repro.formats.csr import CSRGraph
from repro.gpusim.device import TITAN_XP
from repro.obs.critpath import extract_cluster_critical_path
from repro.traversal.backends import CSRBackend
from repro.traversal.bfs import bfs
from repro.traversal.sssp import sssp

SOURCE = 0


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


def _two_tier(device, num_nodes, gpus_per_node):
    return LinkTopology.two_tier(
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        link_bandwidth=10e9,
        inter_bandwidth=1e9,
        message_latency_s=device.launch_overhead_s,
    )


def _cluster(graph, device, nodes, per_node, wire="auto",
             schedule="hierarchical", overlap=False, with_weights=False):
    return ShardedCluster.build(
        graph, nodes * per_node, device,
        wire=wire, schedule=schedule,
        topology=_two_tier(device, nodes, per_node),
        overlap=overlap, with_weights=with_weights,
    )


class TestBitIdentical:
    @pytest.mark.parametrize(
        "nodes,per_node", [(2, 4), (3, 2), (2, 3), (3, 1), (1, 4)]
    )
    @pytest.mark.parametrize("wire", ["raw", "ef", "auto"])
    def test_hierarchical_bfs_levels(
        self, graph, device, single_gpu_levels, nodes, per_node, wire
    ):
        cluster = _cluster(graph, device, nodes, per_node, wire=wire)
        result = distributed_bfs(cluster, SOURCE)
        assert np.array_equal(result.levels, single_gpu_levels)

    @pytest.mark.parametrize("num_gpus", [3, 6])
    def test_butterfly_non_power_of_two_bfs_levels(
        self, graph, device, single_gpu_levels, num_gpus
    ):
        cluster = ShardedCluster.build(
            graph, num_gpus, device, wire="auto", schedule="butterfly"
        )
        result = distributed_bfs(cluster, SOURCE)
        assert np.array_equal(result.levels, single_gpu_levels)

    @pytest.mark.parametrize("num_gpus", [3, 6])
    def test_hierarchical_degenerate_one_gpu_per_node(
        self, graph, device, single_gpu_levels, num_gpus
    ):
        # Every GPU its own node: the hierarchy collapses to a flat
        # exchange over the slow tier only.
        cluster = _cluster(graph, device, num_gpus, 1)
        result = distributed_bfs(cluster, SOURCE)
        assert np.array_equal(result.levels, single_gpu_levels)
        assert cluster.metrics.counters.get("dist.tier.intra.bytes", 0) == 0

    def test_sssp_distances_bit_identical(self, graph, device, weights):
        ref = sssp(
            CSRBackend(
                CSRGraph.from_graph(graph), device,
                weight_bytes=4 * graph.num_edges,
            ),
            SOURCE, weights,
        ).distances
        cluster = _cluster(
            graph, device, 2, 3, wire="ef", with_weights=True, overlap=True
        )
        result = distributed_sssp(cluster, SOURCE, weights)
        assert np.array_equal(result.distances, ref)

    def test_overlap_changes_cost_not_results(
        self, graph, device, single_gpu_levels
    ):
        serial = _cluster(graph, device, 2, 4, wire="ef")
        piped = _cluster(graph, device, 2, 4, wire="ef", overlap=True)
        a = distributed_bfs(serial, SOURCE)
        b = distributed_bfs(piped, SOURCE)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.levels, single_gpu_levels)
        assert a.exchanged_bytes == b.exchanged_bytes


class TestAttribution:
    @pytest.mark.parametrize("schedule", ["flat", "butterfly", "hierarchical"])
    @pytest.mark.parametrize("wire", ["raw", "ef", "auto"])
    def test_bfs_attribution_exact(self, graph, device, wire, schedule):
        cluster = _cluster(
            graph, device, 2, 4, wire=wire, schedule=schedule, overlap=True
        )
        distributed_bfs(cluster, SOURCE)
        verify_dist_attribution(cluster)

    def test_sssp_and_pagerank_attribution_exact(
        self, graph, device, weights
    ):
        cluster = _cluster(graph, device, 2, 2, with_weights=True)
        distributed_sssp(cluster, SOURCE, weights)
        verify_dist_attribution(cluster)
        cluster = _cluster(graph, device, 2, 2)
        distributed_pagerank(cluster, max_iterations=5)
        verify_dist_attribution(cluster)

    def test_tier_counters_sum_to_wire_counter(self, graph, device):
        cluster = _cluster(graph, device, 2, 4, wire="varint")
        distributed_bfs(cluster, SOURCE)
        c = cluster.metrics.counters
        assert (
            sum(c[f"dist.tier.{t}.bytes"] for t in TIERS)
            == c["dist.wire_bytes"]
        )
        assert c["dist.tier.inter.bytes"] > 0

    def test_detects_tampered_charge(self, graph, device):
        cluster = _cluster(graph, device, 2, 2)
        distributed_bfs(cluster, SOURCE)
        ex = cluster.charges[1].exchange
        ex.tier_bytes["intra"] += 1
        with pytest.raises(AssertionError, match="level:1: per-tier bytes"):
            verify_dist_attribution(cluster)
        ex.tier_bytes["intra"] -= 1
        ex.wire_bytes += 1
        with pytest.raises(
            AssertionError, match=r"level:1: id\+value\+header bytes"
        ):
            verify_dist_attribution(cluster)

    def test_errors_cannot_cancel_across_levels(self, graph, device):
        # Two levels wrong by opposite amounts still sum to the right
        # run total; the per-level check names the first of them.
        cluster = _cluster(graph, device, 2, 2)
        distributed_bfs(cluster, SOURCE)
        cluster.charges[1].exchange.tier_bytes["inter"] += 1
        cluster.charges[2].exchange.tier_bytes["inter"] -= 1
        with pytest.raises(AssertionError, match="level:1: per-tier bytes"):
            verify_dist_attribution(cluster)


class TestOverlapCostModel:
    def test_level_time_is_max_plus_claim(self, graph, device):
        serial = _cluster(graph, device, 2, 4, wire="raw")
        piped = _cluster(graph, device, 2, 4, wire="raw", overlap=True)
        a = distributed_bfs(serial, SOURCE)
        b = distributed_bfs(piped, SOURCE)
        # The pipeline hides min(expand, exchange) per level — exactly
        # the serial total minus the overlapped total.
        assert b.overlapped_seconds > 0
        assert a.overlapped_seconds == 0
        assert b.sim_seconds == pytest.approx(
            a.sim_seconds - b.overlapped_seconds
        )

    def test_overlap_never_slower(self, graph, device, weights):
        for build in (
            lambda ov: distributed_bfs(
                _cluster(graph, device, 2, 4, overlap=ov), SOURCE
            ),
            lambda ov: distributed_sssp(
                _cluster(graph, device, 2, 2, overlap=ov, with_weights=True),
                SOURCE, weights,
            ),
            lambda ov: distributed_pagerank(
                _cluster(graph, device, 2, 2, overlap=ov), max_iterations=5
            ),
        ):
            assert build(True).sim_seconds <= build(False).sim_seconds

    def test_span_overlap_ratio(self, graph, device):
        # Each level span's overlap ratio is read off its charge.
        cluster = _cluster(graph, device, 2, 4, overlap=True)
        distributed_bfs(cluster, SOURCE)
        charges = cluster.charges
        assert len(charges) == len(cluster.tracer.root.find("level"))
        assert any(c.overlap_ratio > 0 for c in charges)
        for c in charges:
            assert 0.0 <= c.overlap_ratio <= 1.0

    def test_overlap_gauge_and_counter(self, graph, device):
        cluster = _cluster(graph, device, 2, 4, overlap=True)
        result = distributed_bfs(cluster, SOURCE)
        m = cluster.metrics
        assert m.gauges["dist.overlap"] == 1.0
        assert m.counters["dist.overlapped_seconds"] == pytest.approx(
            result.overlapped_seconds
        )


class TestWireEconomics:
    def test_ef_beats_raw_on_inter_tier_time(self, graph, device):
        def inter_seconds(wire):
            cluster = _cluster(graph, device, 2, 4, wire=wire)
            distributed_bfs(cluster, SOURCE)
            c = cluster.metrics.counters
            return (
                c["dist.tier.inter.transfer_seconds"]
                + c["dist.tier.inter.latency_seconds"]
            )

        assert inter_seconds("raw") / inter_seconds("ef") >= 1.3

    def test_auto_never_exchanges_more_than_any_fixed(self, graph, device):
        def total_bytes(wire):
            cluster = _cluster(graph, device, 2, 4, wire=wire)
            return distributed_bfs(cluster, SOURCE).exchanged_bytes

        auto = total_bytes("auto")
        for wire in ("raw", "raw64", "bitmap", "varint", "ef"):
            assert auto <= total_bytes(wire)

    def test_codec_instruction_tallies(self, graph, device):
        cluster = _cluster(graph, device, 2, 4, wire="ef")
        distributed_bfs(cluster, SOURCE)
        c = cluster.metrics.counters
        assert c["dist.codec_instr.ef"] > 0

    def test_hierarchical_cheaper_than_flat_inter(self, graph, device):
        # Combining each node's frontier before the slow tier must not
        # put more bytes on the inter fabric than the direct all-to-all.
        def inter_bytes(schedule):
            cluster = _cluster(graph, device, 2, 4, wire="raw",
                               schedule=schedule)
            distributed_bfs(cluster, SOURCE)
            return cluster.metrics.counters["dist.tier.inter.bytes"]

        assert inter_bytes("hierarchical") <= inter_bytes("flat")


class TestReporting:
    def test_metrics_dump_carries_tiers_and_meta(self, graph, device):
        cluster = _cluster(graph, device, 2, 4, wire="ef", overlap=True)
        distributed_bfs(cluster, SOURCE)
        payload = dist_run_metrics(cluster)
        assert payload["meta"]["num_nodes"] == 2
        assert payload["meta"]["gpus_per_node"] == 4
        assert payload["meta"]["overlap"] is True
        assert payload["meta"]["inter_bandwidth"] == 1e9
        assert payload["tiers"]["inter"]["bytes"] > 0
        level = next(iter(payload["levels"].values()))
        assert set(level) >= {"intra_bytes", "inter_bytes", "overlap_ratio"}

    def test_report_renders_tier_lines(self, graph, device):
        cluster = _cluster(graph, device, 2, 4, wire="ef", overlap=True)
        distributed_bfs(cluster, SOURCE)
        text = dist_report(cluster)
        assert "2 nodes x 4 GPUs" in text
        assert "tier intra:" in text and "tier inter:" in text
        assert "overlap:" in text


class TestAllreduceTiers:
    """PageRank's scalar allreduce prices each peer message on the tier
    it crosses."""

    @staticmethod
    def _sync(graph, device, nodes, per_node, inter_bandwidth=1e9):
        topology = LinkTopology.two_tier(
            num_nodes=nodes,
            gpus_per_node=per_node,
            link_bandwidth=10e9,
            inter_bandwidth=inter_bandwidth,
            message_latency_s=device.launch_overhead_s,
        )
        cluster = ShardedCluster.build(
            graph, nodes * per_node, device, schedule="hierarchical",
            topology=topology,
        )
        distributed_pagerank(cluster, max_iterations=2)
        return cluster, cluster.charges[0]

    def test_two_nodes_book_inter_peers(self, graph, device):
        _, fast = self._sync(graph, device, 2, 4)
        assert fast.sync_record["intra"]["messages"] == 3
        assert fast.sync_record["inter"]["messages"] == 4
        cluster, slow = self._sync(graph, device, 2, 4, inter_bandwidth=1e6)
        assert slow.sync_seconds > fast.sync_seconds
        sync_tiers = {
            s.tier for s in extract_cluster_critical_path(cluster).segments
            if s.phase == "sync"
        }
        assert sync_tiers == {"inter"}

    def test_one_node_books_intra_only(self, graph, device):
        _, charge = self._sync(graph, device, 1, 4)
        assert set(charge.sync_record) == {"intra"}
        assert charge.sync_record["intra"]["messages"] == 3
