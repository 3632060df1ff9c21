"""End-to-end integration: suite graph -> encodings -> analytics.

These tests run the real pipeline on the smallest suite graphs and
assert both functional correctness (against golden references) and the
qualitative performance shapes the paper reports.
"""

import numpy as np
import pytest

from repro.bench.harness import (
    SCALED_TITAN_XP,
    encoded_suite_graph,
    make_backend,
    pick_sources,
)
from repro.formats.weights import generate_edge_weights
from repro.traversal.bfs import bfs
from repro.traversal.pagerank import pagerank
from repro.traversal.sssp import sssp
from repro.traversal.validate import (
    reference_bfs_levels,
    reference_pagerank,
    reference_sssp_distances,
)


@pytest.fixture(scope="module")
def scc_lj():
    return encoded_suite_graph("scc-lj")


class TestFullPipeline:
    @pytest.mark.parametrize("fmt", ["csr", "efg", "cgr", "ligra"])
    def test_bfs_on_suite_graph(self, scc_lj, fmt):
        backend = make_backend(fmt, scc_lj)
        src = int(pick_sources(scc_lj.graph, 1)[0])
        result = bfs(backend, src)
        assert np.array_equal(
            result.levels, reference_bfs_levels(scc_lj.graph, src)
        )
        assert result.sim_seconds > 0

    @pytest.mark.parametrize("fmt", ["csr", "efg"])
    def test_sssp_on_suite_graph(self, scc_lj, fmt):
        backend = make_backend(fmt, scc_lj, with_weights=True)
        w = generate_edge_weights(scc_lj.graph, seed=11)
        src = int(pick_sources(scc_lj.graph, 1)[0])
        result = sssp(backend, src, w)
        ref = reference_sssp_distances(scc_lj.graph, src, w)
        finite = np.isfinite(ref)
        assert np.allclose(result.distances[finite], ref[finite], atol=1e-4)

    @pytest.mark.parametrize("fmt", ["csr", "efg"])
    def test_pagerank_on_suite_graph(self, scc_lj, fmt):
        backend = make_backend(fmt, scc_lj)
        result = pagerank(backend, max_iterations=100, tolerance=1e-10)
        ref = reference_pagerank(scc_lj.graph)
        assert np.allclose(result.ranks, ref, atol=1e-6)


class TestCompressionShapes:
    def test_efg_compresses_suite_graph(self, scc_lj):
        assert scc_lj.get("csr").nbytes > scc_lj.get("efg").nbytes

    def test_web_graph_favours_cgr(self):
        web = encoded_suite_graph("sk-05")
        social = encoded_suite_graph("scc-lj")
        web_cgr = web.get("csr").nbytes / web.get("cgr").nbytes
        web_efg = web.get("csr").nbytes / web.get("efg").nbytes
        social_cgr = social.get("csr").nbytes / social.get("cgr").nbytes
        social_efg = social.get("csr").nbytes / social.get("efg").nbytes
        # Fig. 8: CGR wins on web graphs, EFG wins elsewhere.
        assert web_cgr > web_efg
        assert social_efg >= social_cgr * 0.95


class TestPerformanceShapes:
    def test_in_memory_ordering(self, scc_lj):
        # Paper small-graph ordering: CSR fastest, then EFG, then CGR,
        # with CPU Ligra+ far behind the in-memory GPU formats.
        src = int(pick_sources(scc_lj.graph, 1)[0])
        times = {
            fmt: bfs(make_backend(fmt, scc_lj), src).sim_seconds
            for fmt in ("csr", "efg", "cgr", "ligra")
        }
        assert times["csr"] <= times["efg"]
        assert times["efg"] < times["cgr"]
        assert times["ligra"] > times["csr"] * 3

    def test_out_of_core_crossover(self):
        # A graph whose CSR exceeds capacity but EFG fits: EFG must win
        # by a large factor (Fig. 9 region 2).
        enc = encoded_suite_graph("gsh-15-h_sym")
        csr_b = make_backend("csr", enc, SCALED_TITAN_XP)
        efg_b = make_backend("efg", enc, SCALED_TITAN_XP)
        assert not csr_b.graph_fits_in_memory()
        assert efg_b.graph_fits_in_memory()
        src = int(pick_sources(enc.graph, 1)[0])
        speedup = bfs(csr_b, src).sim_seconds / bfs(efg_b, src).sim_seconds
        assert speedup > 2.5
