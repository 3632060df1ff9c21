"""Differential oracle: cross-format and cross-driver agreement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.differential import (
    algorithm_differential,
    decode_differential,
    run_differential,
)
from repro.datasets.web import web_graph
from repro.formats.ligra_plus import LigraPlusGraph


@pytest.fixture(scope="module")
def diff_graph():
    # Web-like so CGR intervals / BV references are exercised; big
    # enough for multi-level BFS, small enough for per-test speed.
    return web_graph(384, 7.0, seed=5, name="diff-web")


class TestDecodeDifferential:
    def test_all_formats_agree(self, diff_graph):
        rows = decode_differential(diff_graph)
        assert len(rows) == 6
        for row in rows:
            assert row["agree"], row
            assert row["integrity_ok"], row

    def test_detects_a_planted_decode_bug(self, diff_graph, monkeypatch):
        # The oracle must actually fail when a decoder lies.
        real = LigraPlusGraph.decode_all

        def lying_decode(container):
            out = real(container).copy()
            out[7] += 1
            return out

        monkeypatch.setattr(LigraPlusGraph, "decode_all", lying_decode)
        rows = decode_differential(diff_graph, fmts=("ligra",))
        assert not rows[0]["agree"]

    def test_unknown_format_is_a_value_error(self, diff_graph):
        with pytest.raises(ValueError, match="'nope'.*efg, pef, cgr"):
            decode_differential(diff_graph, fmts=("efg", "nope"))


class TestAlgorithmDifferential:
    def test_all_algorithms_agree(self, diff_graph):
        rows = algorithm_differential(diff_graph, seed=0)
        # 2 single-GPU comparator formats + 2 shard counts, 3 algorithms.
        assert len(rows) == 12
        for row in rows:
            assert row["agree"], row

    def test_covers_dist_drivers(self, diff_graph):
        rows = algorithm_differential(diff_graph, seed=0)
        variants = {row["fmt"] for row in rows}
        assert {"efg", "cgr", "dist-2gpu", "dist-4gpu"} <= variants


class TestRunDifferential:
    def test_explicit_graph_sweep(self, diff_graph):
        out = run_differential(graphs=[diff_graph], algorithms=False)
        assert out["disagreements"] == 0
        assert all(r["check"] == "decode" for r in out["rows"])

    def test_suite_decode_sweep(self):
        # Decode-level only on the smallest suite entry keeps this fast
        # while proving the dataset-suite path works end to end.
        out = run_differential(datasets=("scc-lj",), algorithms=False)
        assert out["disagreements"] == 0
        assert {r["fmt"] for r in out["rows"]} == {
            "efg", "pef", "cgr", "ligra", "bv", "container"
        }
