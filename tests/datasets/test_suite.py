"""Tests for the scaled Table II suite."""

import numpy as np
import pytest

from repro.datasets.suite import (
    SCALE_FACTOR,
    build_suite_graph,
    suite_entries,
)
from tests.graph_oracles import has_sorted_rows


class TestEntries:
    def test_table2_has_20_graphs(self):
        assert len(suite_entries()) == 20

    def test_v100_additions(self):
        names = {e.name for e in suite_entries(include_v100=True)}
        assert "kron_28_sym" in names
        assert "kron_29" in names
        assert len(names) == 22

    def test_categories_cover_fig8_groups(self):
        cats = {e.category for e in suite_entries()}
        assert cats == {"social", "web", "other"}

    def test_scaling_arithmetic(self):
        entry = next(e for e in suite_entries() if e.name == "twitter")
        assert entry.scaled_nodes == int(41.6e6 / SCALE_FACTOR)
        assert entry.scaled_edges == int(1.47e9 / SCALE_FACTOR)

    def test_sym_entries_reference_bases(self):
        for e in suite_entries():
            if e.sym_of is not None:
                assert any(b.name == e.sym_of for b in suite_entries())


class TestBuild:
    def test_small_graph_builds(self):
        g = build_suite_graph("scc-lj")
        entry = next(e for e in suite_entries() if e.name == "scc-lj")
        assert g.num_nodes == pytest.approx(entry.scaled_nodes, rel=0.3)
        # Dedup trims; stay within a reasonable band of the target.
        assert g.num_edges == pytest.approx(entry.scaled_edges, rel=0.35)
        assert has_sorted_rows(g)

    def test_sym_variant_is_symmetric(self):
        base = build_suite_graph("scc-lj")
        sym = build_suite_graph("scc-lj_sym")
        assert not sym.directed
        assert sym.num_edges > base.num_edges

    def test_memoised(self):
        assert build_suite_graph("scc-lj") is build_suite_graph("scc-lj")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_suite_graph("no-such-graph")

    def test_sizes_monotone_like_table2(self):
        # Table II orders graphs by CSR size; our scaled suite should
        # roughly preserve that ordering for a spot-checked pair.
        small = build_suite_graph("scc-lj")
        large = build_suite_graph("orkut")
        assert large.num_edges > small.num_edges


class TestTrimInvariants:
    def test_edge_counts_on_target(self):
        # The oversample+trim pipeline must land within 1% of the
        # scaled Table II edge count (except sym variants whose base
        # cannot supply enough arcs).
        for name in ("scc-lj", "urnd_26", "twitter", "sk-05", "kron_27"):
            entry = next(e for e in suite_entries() if e.name == name)
            g = build_suite_graph(name)
            assert abs(g.num_edges - entry.scaled_edges) <= 0.01 * entry.scaled_edges, name

    def test_sym_trim_preserves_symmetry(self):
        import numpy as np

        g = build_suite_graph("scc-lj_sym")
        src = np.repeat(np.arange(g.num_nodes), g.degrees)
        pairs = set(zip(src.tolist(), g.elist.tolist()))
        sample = list(pairs)[:3000]
        assert all((d, s) in pairs for s, d in sample)

    def test_trim_keeps_sorted_rows(self):
        for name in ("sk-05", "twitter_sym"):
            assert has_sorted_rows(build_suite_graph(name))

    def test_web_trim_preserves_runs(self):
        # The calibrated web trim must keep a healthy unit-gap fraction
        # (random arc deletion would destroy it).
        from repro.reorder.metrics import gap_statistics

        g = build_suite_graph("sk-05")
        assert gap_statistics(g)["unit_gap_fraction"] > 0.25
