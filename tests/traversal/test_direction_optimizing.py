"""Tests for direction-optimizing (hybrid) BFS."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph
from repro.traversal.backends import CSRBackend, EFGBackend
from repro.traversal.bfs import bfs
from repro.traversal.direction_optimizing import bfs_direction_optimizing


@pytest.fixture
def sym_graph(rng):
    n, m = 400, 6000
    g = Graph.from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
    )
    return g.symmetrized()


class TestCorrectness:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.5), (15.0, 18.0), (1e-9, 1e9)])
    def test_levels_match_top_down(self, sym_graph, scaled_device, alpha, beta):
        backend = EFGBackend(efg_encode(sym_graph), scaled_device)
        ref = bfs(backend, 0).levels
        got = bfs_direction_optimizing(backend, source=0, alpha=alpha, beta=beta)
        assert np.array_equal(got.levels, ref)

    def test_directed_with_in_backend(self, scaled_device, rng):
        n, m = 200, 2500
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )
        out_b = CSRBackend(CSRGraph.from_graph(g), scaled_device)
        in_b = CSRBackend(CSRGraph.from_graph(g.transposed()), scaled_device)
        ref = bfs(out_b, 0).levels
        got = bfs_direction_optimizing(
            out_b, in_b, source=0, alpha=2.0, beta=2.0
        )
        assert np.array_equal(got.levels, ref)

    def test_bottom_up_actually_engaged(self, sym_graph, scaled_device):
        backend = EFGBackend(efg_encode(sym_graph), scaled_device)
        result = bfs_direction_optimizing(
            backend, source=0, alpha=1.0, beta=4.0
        )
        assert result.bottom_up_levels > 0

    def test_pure_top_down_with_tiny_alpha(self, sym_graph, scaled_device):
        # Small alpha makes the bottom-up switch condition unreachable
        # (Beamer: switch when frontier edges > unexplored / alpha).
        backend = EFGBackend(efg_encode(sym_graph), scaled_device)
        result = bfs_direction_optimizing(
            backend, source=0, alpha=1e-12, beta=1e12
        )
        assert result.bottom_up_levels == 0

    def test_bad_source(self, sym_graph, scaled_device):
        backend = EFGBackend(efg_encode(sym_graph), scaled_device)
        with pytest.raises(IndexError):
            bfs_direction_optimizing(backend, source=10**7)


class TestEdgeSavings:
    def test_bottom_up_examines_fewer_edges(self, sym_graph, scaled_device):
        # On a dense-frontier graph, hybrid BFS must examine fewer
        # edges than pure top-down (the whole point of bottom-up).
        backend = EFGBackend(efg_encode(sym_graph), scaled_device)
        top_down = bfs_direction_optimizing(
            backend, source=0, alpha=1e-12, beta=1e12
        )
        hybrid = bfs_direction_optimizing(
            backend, source=0, alpha=10.0, beta=24.0
        )
        assert hybrid.bottom_up_levels > 0
        assert hybrid.edges_examined < top_down.edges_examined


class TestPinnedDumps:
    """Whole metrics dumps of ``repro profile dobfs``.  Its top-down
    steps run BFS's shared expand and claim bodies, so a charge that
    drifts from the single-GPU level moves these digests."""

    DIGESTS = {
        "csr":
        "3540ba61e2eeb491ea16a2f4814f9da554bf99f3526573fbb0ca7cd6adfe9090",
        "efg":
        "dea0fee2bfca18749bb2a0f2f9d3dceaa57bd6539cc42ac22ae0fd1fa6455087",
    }

    @pytest.mark.parametrize("fmt", sorted(DIGESTS))
    def test_profile_dobfs(self, fmt, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.json"
        argv = ["profile", "dobfs", "--format", fmt, "--metrics", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        # ``meta`` stamps the git sha, so it stays out of the digest.
        payload = {
            k: v for k, v in json.loads(path.read_text()).items()
            if k != "meta"
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.DIGESTS[fmt]
