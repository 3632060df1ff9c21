"""Tests for SSSP."""

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph
from repro.formats.weights import generate_edge_weights
from repro.traversal.backends import CSRBackend, EFGBackend
from repro.traversal.sssp import sssp
from repro.traversal.validate import reference_sssp_distances


class TestCorrectness:
    @pytest.mark.parametrize("fmt", ["csr", "efg"])
    def test_distances_match_dijkstra(self, small_graph, scaled_device, fmt):
        w = generate_edge_weights(small_graph, seed=2)
        wb = 4 * small_graph.num_edges
        backend = (
            CSRBackend(CSRGraph.from_graph(small_graph), scaled_device, weight_bytes=wb)
            if fmt == "csr"
            else EFGBackend(efg_encode(small_graph), scaled_device, weight_bytes=wb)
        )
        ref = reference_sssp_distances(small_graph, 0, w)
        got = sssp(backend, 0, w).distances
        finite = np.isfinite(ref)
        assert np.allclose(got[finite], ref[finite], atol=1e-5)
        assert np.all(np.isinf(got[~finite]))

    def test_weighted_chain(self, scaled_device):
        g = Graph.from_edges(np.arange(4), np.arange(1, 5), num_nodes=5)
        w = np.array([0.5, 0.25, 0.125, 0.0625], dtype=np.float32)
        backend = CSRBackend(
            CSRGraph.from_graph(g), scaled_device, weight_bytes=4 * 4
        )
        got = sssp(backend, 0, w).distances
        assert got[4] == pytest.approx(0.9375)

    def test_requires_weight_registration(self, small_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        w = generate_edge_weights(small_graph)
        with pytest.raises(RuntimeError):
            sssp(backend, 0, w)

    def test_rejects_negative_weights(self, small_graph, scaled_device):
        backend = CSRBackend(
            CSRGraph.from_graph(small_graph), scaled_device,
            weight_bytes=4 * small_graph.num_edges,
        )
        w = generate_edge_weights(small_graph)
        w[0] = -1.0
        with pytest.raises(ValueError):
            sssp(backend, 0, w)

    def test_rejects_wrong_length(self, small_graph, scaled_device):
        backend = CSRBackend(
            CSRGraph.from_graph(small_graph), scaled_device,
            weight_bytes=4 * small_graph.num_edges,
        )
        with pytest.raises(ValueError):
            sssp(backend, 0, np.ones(3, dtype=np.float32))

    def test_source_distance_zero(self, small_graph, scaled_device):
        backend = EFGBackend(
            efg_encode(small_graph), scaled_device,
            weight_bytes=4 * small_graph.num_edges,
        )
        w = generate_edge_weights(small_graph)
        r = sssp(backend, 9, w)
        assert r.distances[9] == 0.0
        assert r.iterations > 0


class TestRegions:
    def test_weights_stream_when_too_big(self, rng):
        # Region 3 of Fig. 10: structure fits, weights do not.
        from repro.gpusim.device import TITAN_XP

        n, m = 5000, 200000
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )
        efg = efg_encode(g)
        cap = efg.nbytes + 40 * n  # room for structure + working, not weights
        backend = EFGBackend(
            efg, TITAN_XP.scaled_capacity(cap), weight_bytes=4 * g.num_edges
        )
        plan = backend.engine.memory.plan()
        assert plan["efg_data"].residency.value == "device"
        assert plan["weights"].residency.value == "host"
        # SSSP still works; it just streams the weights.
        w = generate_edge_weights(g)
        r = sssp(backend, 0, w)
        ref = reference_sssp_distances(g, 0, w)
        finite = np.isfinite(ref)
        assert np.allclose(r.distances[finite], ref[finite], atol=1e-5)

    def test_streaming_weights_slower(self, rng):
        from repro.gpusim.device import TITAN_XP

        n, m = 5000, 200000
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )
        efg = efg_encode(g)
        w = generate_edge_weights(g)
        wb = 4 * g.num_edges
        fits = EFGBackend(
            efg, TITAN_XP.scaled_capacity(efg.nbytes + wb + 40 * n),
            weight_bytes=wb,
        )
        streams = EFGBackend(
            efg, TITAN_XP.scaled_capacity(efg.nbytes + 40 * n),
            weight_bytes=wb,
        )
        t_fit = sssp(fits, 0, w).sim_seconds
        t_stream = sssp(streams, 0, w).sim_seconds
        assert t_stream > t_fit


def _dump_digest(payload: dict) -> str:
    """sha256 of a metrics dump without ``meta`` (it stamps the git sha)."""
    import hashlib
    import json

    payload = {k: v for k, v in payload.items() if k != "meta"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class TestPinnedWeightedDumps:
    """Whole metrics dumps of weighted runs the bench suite does not
    cover: delta-stepping on every GPU format, frontier relaxation
    through the decoded-list cache, distributed SSSP on two nodes and
    Ligra+ SSSP on the CPU.  Where the weighted expansion is written
    must not move any byte, second or counter."""

    @staticmethod
    def _cli_digest(argv, tmp_path, capsys):
        import json

        from repro.cli import main

        path = str(tmp_path / "m.json")
        assert main([*argv, "--metrics", path]) == 0
        capsys.readouterr()
        with open(path) as fh:
            return _dump_digest(json.load(fh))

    DELTA_DIGESTS = {
        "csr":
        "188ce0aeb8048624a90a5c5128c3f47952a96cf5112e9d17322197eda9591fb5",
        "efg":
        "1f62eede794e99daea9979cafe77852b698d57e51165f64b0d8d581f2806b648",
        "cgr":
        "0f89b7c1cb6f986932b3bece3e6eebd82012bdd222fe94262454569d800cd102",
    }

    @pytest.mark.parametrize("fmt", sorted(DELTA_DIGESTS))
    def test_delta_stepping(self, fmt, tmp_path, capsys):
        argv = ["profile", "delta", "--format", fmt]
        digest = self._cli_digest(argv, tmp_path, capsys)
        assert digest == self.DELTA_DIGESTS[fmt]

    def test_sssp_through_list_cache(self, tmp_path, capsys):
        argv = ["profile", "sssp", "--format", "efg", "--cache-kb", "64"]
        assert self._cli_digest(argv, tmp_path, capsys) == (
            "5f073c8faac35e7b29b040185d1db38ebe52ff92a1dae9dcd7ffc5eb860bbcf9"
        )

    def test_distributed_sssp_two_nodes(self, tmp_path, capsys):
        argv = ["dist", "sssp", "--gpus", "4", "--nodes", "2"]
        assert self._cli_digest(argv, tmp_path, capsys) == (
            "a157a8322495fe939bd4fc0dae3e676c1a6dea31f405a12f76130b6cedc3cbd1"
        )

    def test_ligra_sssp(self):
        from repro.bench.harness import (
            EncodedGraph,
            make_backend,
            make_weights,
            run_profiled,
        )
        from repro.datasets import rmat_graph

        graph = rmat_graph(9, 8, seed=1)
        backend = make_backend("ligra", EncodedGraph(graph), with_weights=True)
        run = run_profiled(
            "sssp", backend, source=0, weights=make_weights(graph, 1)
        )
        assert _dump_digest(run.metrics) == (
            "6e1576b6231453b1e9aa3b8f0277bbc370987251641b7c62b6018a1b3810c418"
        )
