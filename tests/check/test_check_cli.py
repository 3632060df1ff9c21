"""The ``repro check`` subcommand."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.web import web_graph
from repro.serve.container import save_container


@pytest.fixture
def graph_file(tmp_path):
    base = str(tmp_path / "g")
    save_container(web_graph(256, 6.0, seed=9, name="cli-web"), base)
    return base


class TestCheckCommand:
    def test_default_run_passes(self, capsys):
        assert main(["check", "--fuzz", "8", "--decode-only"]) == 0
        out = capsys.readouterr().out
        assert "OK: no silent corruption" in out
        assert "differential:" in out

    def test_explicit_graph(self, graph_file, capsys):
        assert main(["check", graph_file, "--fuzz", "8", "--decode-only"]) == 0
        out = capsys.readouterr().out
        for fmt in ("efg", "pef", "cgr", "ligra", "bv"):
            assert fmt in out

    def test_metrics_dump(self, graph_file, tmp_path, capsys):
        metrics = tmp_path / "check.json"
        assert main(
            ["check", graph_file, "--fuzz", "4", "--decode-only",
             "--metrics", str(metrics)]
        ) == 0
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro.metrics/2"
        assert payload["failures"]["silent_corruption"] == 0
        assert payload["failures"]["foreign_exceptions"] == 0
        assert payload["gauges"]["check.differential.disagreements"] == 0.0

    def test_negative_fuzz_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--fuzz", "-1"])

    def test_fuzz_zero_runs_differential_only(self, graph_file, capsys):
        assert main(["check", graph_file, "--fuzz", "0", "--decode-only"]) == 0
        out = capsys.readouterr().out
        assert "differential:" in out
