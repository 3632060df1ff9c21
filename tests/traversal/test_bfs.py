"""Tests for BFS across all backends."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.efg import efg_encode
from repro.formats.cgr import cgr_encode
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph
from repro.formats.ligra_plus import ligra_encode
from repro.gpusim.device import TITAN_XP
from repro.primitives.compact import atomic_or_claim
from repro.traversal.backends import (
    CGRBackend,
    CSRBackend,
    EFGBackend,
    LigraBackend,
)
from repro.traversal.bfs import bfs, claim
from repro.traversal.validate import reference_bfs_levels


def _all_backends(graph, device):
    return {
        "csr": CSRBackend(CSRGraph.from_graph(graph), device),
        "efg": EFGBackend(efg_encode(graph), device),
        "cgr": CGRBackend(cgr_encode(graph), device),
        "ligra": LigraBackend(ligra_encode(graph)),
    }


class TestCorrectness:
    @pytest.mark.parametrize("fmt", ["csr", "efg", "cgr", "ligra"])
    def test_levels_match_reference(self, small_graph, scaled_device, fmt):
        backend = _all_backends(small_graph, scaled_device)[fmt]
        expect = reference_bfs_levels(small_graph, 0)
        got = bfs(backend, 0).levels
        assert np.array_equal(got, expect)

    def test_chain_levels(self, chain_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(chain_graph), scaled_device)
        r = bfs(backend, 0)
        assert r.levels.tolist() == list(range(10))
        # Ten levels (0..9): num_levels counts levels, not the deepest index.
        assert r.num_levels == 10
        assert r.edges_traversed == 9

    def test_unreachable_marked(self, scaled_device):
        from repro.formats.graph import Graph

        g = Graph.from_adjacency([[1], [], [3], []])
        backend = EFGBackend(efg_encode(g), scaled_device)
        r = bfs(backend, 0)
        assert r.levels.tolist() == [0, 1, -1, -1]

    def test_multiple_sources_agree_across_backends(
        self, small_graph, scaled_device, rng
    ):
        backends = _all_backends(small_graph, scaled_device)
        for src in rng.integers(0, small_graph.num_nodes, size=5):
            results = {
                name: bfs(b, int(src)).levels for name, b in backends.items()
            }
            base = results["csr"]
            for name, levels in results.items():
                assert np.array_equal(levels, base), name

    def test_partial_sort_does_not_change_result(self, small_graph, scaled_device):
        backend = EFGBackend(efg_encode(small_graph), scaled_device)
        a = bfs(backend, 3, partial_sort=True).levels
        b = bfs(backend, 3, partial_sort=False).levels
        assert np.array_equal(a, b)

    def test_bad_source(self, small_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        with pytest.raises(IndexError):
            bfs(backend, small_graph.num_nodes)

    def test_max_levels_cap(self, chain_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(chain_graph), scaled_device)
        r = bfs(backend, 0, max_levels=3)
        assert r.num_levels == 4  # levels 0, 1, 2, 3 were assigned
        assert r.levels[9] == -1

    def test_num_levels_counts_distinct_levels(self, small_graph, scaled_device):
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        r = bfs(backend, 0)
        reached = r.levels[r.levels >= 0]
        assert r.num_levels == len(np.unique(reached))
        assert r.num_levels == int(r.levels.max()) + 1
        # Single-vertex traversal: the source alone is one level.
        from repro.formats.graph import Graph

        lone = Graph.from_adjacency([[], []])
        lone_backend = CSRBackend(CSRGraph.from_graph(lone), scaled_device)
        assert bfs(lone_backend, 0).num_levels == 1


class TestMetrics:
    def test_gteps_positive(self, small_graph, scaled_device):
        backend = EFGBackend(efg_encode(small_graph), scaled_device)
        r = bfs(backend, 0)
        assert r.gteps > 0
        assert r.runtime_ms == pytest.approx(r.sim_seconds * 1e3)

    def test_edges_traversed_counts_frontier_degrees(
        self, small_graph, scaled_device
    ):
        backend = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        r = bfs(backend, 0)
        # Every reached vertex's out-edges are traversed exactly once.
        reached = np.flatnonzero(r.levels >= 0)
        # Last-level vertices are also expanded (their edges find no
        # new vertices but are still visited) unless the frontier died.
        expect = small_graph.degrees[reached].sum()
        assert r.edges_traversed == expect

    def test_deterministic(self, small_graph, scaled_device):
        backend = EFGBackend(efg_encode(small_graph), scaled_device)
        r1 = bfs(backend, 7)
        r2 = bfs(backend, 7)
        assert r1.sim_seconds == r2.sim_seconds
        assert np.array_equal(r1.levels, r2.levels)


class TestRelativePerformance:
    """Shape assertions against the paper's headline results."""

    @pytest.fixture(scope="class")
    def medium_graph(self):
        rng = np.random.default_rng(77)
        n, m = 20000, 600000
        from repro.formats.graph import Graph

        return Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )

    def test_efg_near_csr_in_memory(self, medium_graph, scaled_device):
        csr_b = CSRBackend(CSRGraph.from_graph(medium_graph), scaled_device)
        efg_b = EFGBackend(efg_encode(medium_graph), scaled_device)
        assert csr_b.graph_fits_in_memory()
        t_csr = bfs(csr_b, 0).sim_seconds
        t_efg = bfs(efg_b, 0).sim_seconds
        # Paper: EFG ~0.82x of CSR when everything fits.
        assert 0.4 < t_csr / t_efg < 1.3

    def test_efg_beats_out_of_core_csr(self, medium_graph):
        from repro.gpusim.device import TITAN_XP

        # Capacity chosen so CSR spills but EFG fits.
        efg = efg_encode(medium_graph)
        cap = int(efg.nbytes * 1.5) + 40 * medium_graph.num_nodes
        device = TITAN_XP.scaled_capacity(cap)
        device = device.scaled(1)  # no-op, keeps type
        csr_b = CSRBackend(CSRGraph.from_graph(medium_graph), device)
        efg_b = EFGBackend(efg, device)
        assert not csr_b.graph_fits_in_memory()
        assert efg_b.graph_fits_in_memory()
        t_csr = bfs(csr_b, 0).sim_seconds
        t_efg = bfs(efg_b, 0).sim_seconds
        # Paper: 3.8x-6.5x speedup; allow a generous band.
        assert t_csr / t_efg > 2.5

    def test_efg_faster_than_cgr(self, medium_graph, scaled_device):
        efg_b = EFGBackend(efg_encode(medium_graph), scaled_device)
        cgr_b = CGRBackend(cgr_encode(medium_graph), scaled_device)
        t_efg = bfs(efg_b, 0).sim_seconds
        t_cgr = bfs(cgr_b, 0).sim_seconds
        # Paper: EFG 1.45x-2x faster than CGR.
        assert t_cgr / t_efg > 1.2


#: Vertex count of the shared-claim test graph.
CLAIM_NV = 64


def _prefilter_then_claim(visited, candidates, kernel, id_bytes):
    """The claim as the distributed driver wrote it before it called
    :func:`claim`: drop set flags first, claim the rest, charge over
    every candidate."""
    fresh = candidates[~visited[candidates]]
    mine = fresh[atomic_or_claim(visited, fresh)]
    kernel.read_stream("work:visited", candidates, 1)
    kernel.instructions(2.0 * candidates.shape[0])
    kernel.write("work:frontier", int(mine.shape[0]), id_bytes)
    return mine


class TestSharedClaim:
    """:func:`claim` is the body every BFS driver's claim runs; its
    winners, flags and charges equal the prefilter-then-claim
    sequence, because the atomic already skips set flags."""

    @pytest.fixture(scope="class")
    def engine(self):
        ring = np.arange(CLAIM_NV, dtype=np.int64)
        graph = Graph.from_edges(
            ring, (ring + 1) % CLAIM_NV, num_nodes=CLAIM_NV
        )
        return CSRBackend(
            CSRGraph.from_graph(graph), TITAN_XP.scaled(2048)
        ).engine

    @settings(max_examples=200, deadline=None)
    @given(
        candidates=st.lists(st.integers(0, CLAIM_NV - 1), max_size=300),
        preset=st.sets(st.integers(0, CLAIM_NV - 1)),
        id_bytes=st.sampled_from([4, 8]),
    )
    @example(candidates=[], preset=set(), id_bytes=4)
    @example(candidates=[], preset={0, 5}, id_bytes=8)
    @example(candidates=[7] * 50, preset=set(), id_bytes=8)
    @example(candidates=[7] * 50, preset={7}, id_bytes=4)
    @example(candidates=[3, 1, 3, 2, 1, 3], preset={2}, id_bytes=8)
    def test_matches_prefilter_then_claim(
        self, engine, candidates, preset, id_bytes
    ):
        ids = np.array(candidates, dtype=np.int64)
        flags_old = np.zeros(CLAIM_NV, dtype=bool)
        flags_old[list(preset)] = True
        flags_new = flags_old.copy()

        with engine.launch("claim") as k:
            expected = _prefilter_then_claim(flags_old, ids, k, id_bytes)
        with engine.launch("claim") as k:
            got = ids[claim(flags_new, ids, k, id_bytes)]
        old, new = engine.records[-2:]

        assert np.array_equal(got, expected)
        assert np.array_equal(flags_new, flags_old)
        assert new.cost == old.cost
        assert new.seconds == old.seconds
