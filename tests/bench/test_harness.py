"""Tests for the benchmark harness plumbing."""

import numpy as np
import pytest

from repro.bench.harness import (
    SCALED_CPU,
    SCALED_TITAN_XP,
    SCALED_V100,
    encoded_suite_graph,
    make_backend,
    pick_sources,
    run_bfs_average,
)
from repro.bench.paper_data import CLAIMS, TABLE2, TABLE3
from repro.datasets.suite import SCALE_FACTOR


class TestScaledDevices:
    def test_capacity_scaled(self):
        assert SCALED_TITAN_XP.memory_bytes == 12 * 1024**3 // SCALE_FACTOR
        assert SCALED_V100.memory_bytes == 32 * 1024**3 // SCALE_FACTOR

    def test_bandwidths_unscaled(self):
        assert SCALED_TITAN_XP.dram_bandwidth == 417.4e9
        assert SCALED_CPU.dram_bandwidth == 77e9


class TestEncodedGraph:
    def test_lazy_and_memoised(self):
        enc = encoded_suite_graph("scc-lj")
        assert enc is encoded_suite_graph("scc-lj")
        csr = enc.get("csr")
        assert csr is enc.get("csr")  # built once

    def test_all_formats_consistent(self):
        enc = encoded_suite_graph("scc-lj")
        g = enc.graph
        for v in range(0, g.num_nodes, max(1, g.num_nodes // 17)):
            nbrs = g.neighbours(v)
            assert np.array_equal(enc.get("efg").neighbours(v), nbrs)
            assert np.array_equal(enc.get("cgr").neighbours(v), nbrs)
            assert np.array_equal(enc.get("ligra").neighbours(v), nbrs)


class TestBackendsFactory:
    # The GPU formats go through the format registry, tested in
    # tests/traversal/test_backends.py; Ligra+ is the harness's own
    # CPU branch.
    @pytest.mark.parametrize("fmt", ["ligra"])
    def test_make_backend(self, fmt):
        enc = encoded_suite_graph("scc-lj")
        backend = make_backend(fmt, enc)
        assert backend.num_edges == enc.graph.num_edges
        assert backend.engine.device is SCALED_CPU

    def test_weights_flag(self):
        enc = encoded_suite_graph("scc-lj")
        backend = make_backend("efg", enc, with_weights=True)
        assert "weights" in backend.engine.memory.plan()


class TestSources:
    def test_pick_sources_nonzero_degree(self):
        enc = encoded_suite_graph("scc-lj")
        srcs = pick_sources(enc.graph, 10)
        assert np.all(enc.graph.degrees[srcs] > 0)
        assert len(np.unique(srcs)) == len(srcs)

    def test_deterministic(self):
        enc = encoded_suite_graph("scc-lj")
        assert np.array_equal(
            pick_sources(enc.graph, 5, seed=1), pick_sources(enc.graph, 5, seed=1)
        )

    def test_run_average(self):
        enc = encoded_suite_graph("scc-lj")
        backend = make_backend("csr", enc)
        stats = run_bfs_average(backend, pick_sources(enc.graph, 3))
        assert stats["runtime_ms"] > 0
        assert stats["num_sources"] == 3


class TestPaperData:
    def test_table2_complete(self):
        assert len(TABLE2) == 20
        # Sizes must be ascending like the paper's ordering.
        sizes = [r.csr_gib for r in TABLE2]
        assert sizes == sorted(sizes)

    def test_table3_v100_rows(self):
        names = [r.name for r in TABLE3]
        assert "kron_29" in names
        # kron_29 on CGR was DNR.
        assert TABLE3[-1].cgr_ms is None

    def test_claims_present(self):
        assert CLAIMS["efg_compression_ratio_avg"] == 1.55
        low, high = CLAIMS["efg_vs_cgr_speedup"]
        assert low == 1.45 and high == 2.0
