"""What-if replay tests.

The headline acceptance criterion: every prediction equals an
**actual re-run** under the changed parameters bit-for-bit.  The
bandwidth / latency / contention / overlap knobs re-price the recorded
run; a wire-codec swap re-runs the workload with that codec.
"""

import dataclasses

import pytest

from repro.bench.harness import pick_sources
from repro.datasets.rmat import rmat_graph
from repro.dist.bfs import distributed_bfs
from repro.dist.cluster import ShardedCluster
from repro.dist.pagerank import distributed_pagerank
from repro.dist.topology import LinkTopology, build_topology
from repro.formats.csr import CSRGraph
from repro.gpusim.device import TITAN_XP
from repro.obs.whatif import (
    CLUSTER_KNOBS,
    PANEL_CODECS,
    WhatIfResult,
    parse_sets,
    rank_cluster_whatifs,
    rank_engine_whatifs,
    replay_cluster_seconds,
    replay_engine_seconds,
    whatif_cluster,
    whatif_section,
)
from repro.traversal.backends import CSRBackend
from repro.traversal.bfs import bfs


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def device():
    return TITAN_XP.scaled(2048)


def _topology(inter_bw=1e9, **kw):
    return LinkTopology.two_tier(
        num_nodes=2, gpus_per_node=4, inter_bandwidth=inter_bw, **kw
    )


def _bfs_cluster(graph, device, *, overlap=True, topology=None, wire="ef"):
    cluster = ShardedCluster.build(
        graph, 8, device,
        topology=_topology() if topology is None else topology,
        wire=wire, schedule="hierarchical", overlap=overlap,
    )
    distributed_bfs(cluster, 0)
    return cluster


class TestClusterExactness:
    """Predicted == actual re-run, bit-for-bit, for the exact knobs."""

    def test_replay_reproduces_own_clock(self, graph, device):
        cluster = _bfs_cluster(graph, device)
        assert replay_cluster_seconds(cluster) == cluster.clock

    def test_replay_reproduces_own_clock_serial(self, graph, device):
        cluster = _bfs_cluster(graph, device, overlap=False)
        assert replay_cluster_seconds(cluster) == cluster.clock

    def test_inter_bandwidth_prediction_matches_rerun(self, graph, device):
        cluster = _bfs_cluster(graph, device)
        result = whatif_cluster(cluster, {"inter_gbs": "2"})
        actual = _bfs_cluster(graph, device, topology=_topology(2e9))
        assert result.predicted_seconds == actual.clock
        assert result.baseline_seconds == cluster.clock

    def test_overlap_toggle_prediction_matches_rerun(self, graph, device):
        cluster = _bfs_cluster(graph, device, overlap=True)
        result = whatif_cluster(cluster, {"overlap": "off"})
        actual = _bfs_cluster(graph, device, overlap=False)
        assert result.predicted_seconds == actual.clock

    def test_overlap_on_prediction_matches_rerun(self, graph, device):
        cluster = _bfs_cluster(graph, device, overlap=False)
        result = whatif_cluster(cluster, {"overlap": "on"})
        actual = _bfs_cluster(graph, device, overlap=True)
        assert result.predicted_seconds == actual.clock

    def test_intra_bandwidth_exact_on_pagerank_syncs(self, graph, device):
        """Pagerank levels carry sync records; intra re-pricing must
        cover them too."""
        def run(topology):
            cluster = ShardedCluster.build(
                graph, 8, device, topology=topology, wire="ef",
                schedule="hierarchical", overlap=True,
            )
            distributed_pagerank(cluster, max_iterations=4)
            return cluster

        base_topo = _topology()
        cluster = run(base_topo)
        result = whatif_cluster(cluster, {"intra_gbs": "20"})
        actual = run(
            dataclasses.replace(base_topo, link_bandwidth=20e9)
        )
        assert result.predicted_seconds == actual.clock

    def test_combined_knobs_exact(self, graph, device):
        cluster = _bfs_cluster(graph, device, overlap=True)
        result = whatif_cluster(
            cluster, {"inter_gbs": "4", "overlap": "off"}
        )
        actual = ShardedCluster.build(
            graph, 8, device, topology=_topology(4e9), wire="ef",
            schedule="hierarchical", overlap=False,
        )
        distributed_bfs(actual, 0)
        assert result.predicted_seconds == actual.clock

    def test_unknown_knob_rejected(self, graph, device):
        cluster = _bfs_cluster(graph, device)
        with pytest.raises(ValueError, match="unknown knob"):
            whatif_cluster(cluster, {"warp_size": "64"})


class TestCodecSwap:
    """A ``wire X`` what-if is the clock of a real run with codec X:
    equal (``==``) to a freshly built cluster running the same algorithm.
    The clusters sit at the CLI's default links with overlap off, so
    the exchange is on the clock."""

    @staticmethod
    def _build(graph, device, wire, topology=None):
        return ShardedCluster.build(
            graph, 8, device, fmt="efg", wire=wire,
            schedule="hierarchical",
            topology=(
                build_topology(2, 8, device, 10.0, 1.0, 0.5)
                if topology is None else topology
            ),
        )

    @classmethod
    def _bfs(cls, graph, device, wire, topology=None):
        cluster = cls._build(graph, device, wire, topology)
        distributed_bfs(cluster, int(pick_sources(graph, 1, seed=42)[0]))
        return cluster

    @classmethod
    def _pagerank(cls, graph, device, wire, topology=None):
        # PageRank levels carry the allreduce sync record.
        cluster = cls._build(graph, device, wire, topology)
        distributed_pagerank(cluster, max_iterations=4)
        return cluster

    @pytest.fixture(scope="class")
    def panels(self, graph, device):
        """Per algorithm: a raw-wire run and its panel, re-run per codec."""
        out = {}
        for algo in ("bfs", "pagerank"):
            run = getattr(self, f"_{algo}")
            cluster = run(graph, device, "raw")
            panel = rank_cluster_whatifs(
                cluster, lambda wire, run=run: run(graph, device, wire)
            )
            out[algo] = cluster, {r.name: r for r in panel}
        return out

    @pytest.mark.parametrize("algo", ["bfs", "pagerank"])
    @pytest.mark.parametrize("codec", PANEL_CODECS)
    def test_wire_row_equals_rerun(
        self, graph, device, panels, algo, codec
    ):
        cluster, panel = panels[algo]
        assert {n for n in panel if n.startswith("wire ")} == {
            f"wire {c}" for c in PANEL_CODECS
        }
        row = panel[f"wire {codec}"]
        actual = getattr(self, f"_{algo}")(graph, device, codec)
        assert row.predicted_seconds == actual.clock
        assert row.baseline_seconds == cluster.clock

    @pytest.mark.parametrize("algo", ["bfs", "pagerank"])
    @pytest.mark.parametrize("codec", PANEL_CODECS)
    def test_wire_scenario_equals_rerun(self, graph, device, algo, codec):
        run = getattr(self, f"_{algo}")
        cluster = run(graph, device, "ef")
        result = whatif_cluster(
            cluster, {"wire": codec}, lambda wire: run(graph, device, wire)
        )
        assert result.name == f"wire={codec}"
        assert result.predicted_seconds == run(graph, device, codec).clock
        assert result.baseline_seconds == cluster.clock

    @pytest.mark.parametrize("algo", ["bfs", "pagerank"])
    @pytest.mark.parametrize("codec", PANEL_CODECS)
    def test_wire_with_inter_bandwidth_equals_rerun(
        self, graph, device, algo, codec
    ):
        run = getattr(self, f"_{algo}")
        cluster = run(graph, device, "ef")
        result = whatif_cluster(
            cluster, {"wire": codec, "inter_gbs": "2"},
            lambda wire: run(graph, device, wire),
        )
        actual = run(
            graph, device, codec,
            topology=build_topology(2, 8, device, 10.0, 2.0, 0.5),
        )
        assert result.predicted_seconds == actual.clock

    def test_swap_to_own_codec_equals_baseline(self, graph, device):
        cluster = self._bfs(graph, device, "ef")
        result = whatif_cluster(
            cluster, {"wire": "ef"},
            lambda wire: self._bfs(graph, device, wire),
        )
        assert result.predicted_seconds == cluster.clock
        assert result.speedup == 1.0

    def test_auto_is_a_swap_target(self, graph, device):
        cluster = self._bfs(graph, device, "ef")
        result = whatif_cluster(
            cluster, {"wire": "auto"},
            lambda wire: self._bfs(graph, device, wire),
        )
        assert result.predicted_seconds == self._bfs(
            graph, device, "auto"
        ).clock

    def test_wire_swap_needs_rerun(self, graph, device):
        cluster = _bfs_cluster(graph, device)
        with pytest.raises(ValueError, match="needs a re-run"):
            whatif_cluster(cluster, {"wire": "varint"})

    def test_panel_without_rerun_has_no_wire_rows(self, graph, device):
        cluster = _bfs_cluster(graph, device)
        names = {r.name for r in rank_cluster_whatifs(cluster)}
        assert not any(n.startswith("wire ") for n in names)


class TestEngineExactness:
    def _run(self, graph, device):
        backend = CSRBackend(CSRGraph.from_graph(graph), device)
        bfs(backend, 0)
        return backend.engine

    def test_replay_reproduces_own_elapsed(self, graph, device):
        engine = self._run(graph, device)
        assert replay_engine_seconds(engine) == engine.elapsed_seconds

    def _panel(self, engine) -> dict[str, WhatIfResult]:
        return {r.name: r for r in rank_engine_whatifs(engine)}

    def test_dram_prediction_matches_rerun(self, graph, device):
        engine = self._run(graph, device)
        result = self._panel(engine)["dram_bandwidth x2"]
        fast = dataclasses.replace(
            device, dram_bandwidth=device.dram_bandwidth * 2.0
        )
        actual = self._run(graph, fast)
        assert result.predicted_seconds == actual.elapsed_seconds

    def test_launch_overhead_prediction_matches_rerun(self, graph, device):
        engine = self._run(graph, device)
        result = self._panel(engine)["zero launch overhead"]
        actual = self._run(
            graph, dataclasses.replace(device, launch_overhead_s=0.0)
        )
        assert result.predicted_seconds == actual.elapsed_seconds

    def test_unknown_knob_rejected(self):
        # ``--set`` re-prices a cluster run only: single-GPU device knobs
        # are refused before any run.
        with pytest.raises(ValueError, match="unknown knob 'dram_gbs'"):
            parse_sets(["dram_gbs=2"], known=CLUSTER_KNOBS)


class TestRanking:
    def test_cluster_panel_ranked_and_deterministic(self, graph, device):
        cluster = _bfs_cluster(graph, device)

        def rerun(wire):
            return _bfs_cluster(graph, device, wire=wire)

        first = rank_cluster_whatifs(cluster, rerun)
        second = rank_cluster_whatifs(cluster, rerun)
        assert first == second
        speedups = [r.speedup for r in first]
        assert speedups == sorted(speedups, reverse=True)
        names = {r.name for r in first}
        assert "intra_bandwidth x2" in names
        assert "inter_bandwidth x2" in names  # two nodes -> inter tier
        assert "overlap off" in names
        assert {n for n in names if n.startswith("wire ")} == {
            f"wire {c}" for c in PANEL_CODECS
        }

    def test_flat_cluster_skips_inter_scenario(self, graph, device):
        cluster = ShardedCluster.build(graph, 4, device, overlap=True)
        distributed_bfs(cluster, 0)
        names = {r.name for r in rank_cluster_whatifs(cluster)}
        assert "inter_bandwidth x2" not in names
        assert "overlap off" in names

    def test_engine_panel(self, graph, device):
        backend = CSRBackend(CSRGraph.from_graph(graph), device)
        bfs(backend, 0)
        results = rank_engine_whatifs(backend.engine)
        assert {r.name for r in results} == {
            "dram_bandwidth x2",
            "pcie_bandwidth x2",
            "cached_bw_ratio x2",
            "zero launch overhead",
        }

    def test_top_target(self, graph, device):
        # The panel's head is the top target; equal speedups fall back to
        # name order (nothing streams over PCIe and no cache is attached,
        # so two scenarios tie at 1x).
        backend = CSRBackend(CSRGraph.from_graph(graph), device)
        bfs(backend, 0)
        ranked = rank_engine_whatifs(backend.engine)
        keys = [(-r.speedup, r.name) for r in ranked]
        assert keys == sorted(keys)
        ties = [r.name for r in ranked if r.speedup == 1.0]
        assert ties == ["cached_bw_ratio x2", "pcie_bandwidth x2"]


class TestSurfaces:
    def test_parse_sets(self):
        assert parse_sets(["inter_gbs=2", "overlap=off"]) == {
            "inter_gbs": "2",
            "overlap": "off",
        }

    @pytest.mark.parametrize("bad", ["inter_gbs", "=2", "inter_gbs=", ""])
    def test_parse_sets_malformed(self, bad):
        with pytest.raises(ValueError, match="malformed"):
            parse_sets([bad])

    def test_parse_sets_duplicate_key_names_the_key(self):
        # Last-wins would silently drop the first setting; the tuner
        # trusts this surface, so duplicates are a hard error.
        with pytest.raises(ValueError, match="duplicate --set key 'overlap'"):
            parse_sets(["overlap=on", "inter_gbs=2", "overlap=off"])

    def test_parse_sets_unknown_key_names_the_key(self):
        with pytest.raises(ValueError, match="unknown knob 'oberlap'"):
            parse_sets(["oberlap=on"], known=("overlap", "inter_gbs"))

    def test_parse_sets_known_accepts_valid_keys(self):
        assert parse_sets(
            ["overlap=on"], known=("overlap", "inter_gbs")
        ) == {"overlap": "on"}

    def test_whatif_section_numeric(self):
        results = [WhatIfResult("x", 2.0, 1.0)]
        section = whatif_section(results)
        assert section == {
            "x": {
                "predicted_seconds": 1.0,
                "speedup": 2.0,
            }
        }

    def test_zero_prediction_speedup_is_zero(self):
        assert WhatIfResult("x", 2.0, 0.0).speedup == 0.0
