"""Tests for the EXPERIMENTS.md generator."""

import json
import os

import pytest

from repro.bench.experiments_md import write_experiments_md


@pytest.fixture
def results_dir(tmp_path):
    """A minimal results directory with two artifacts."""
    d = tmp_path / "results"
    d.mkdir()
    (d / "tab1.json").write_text(json.dumps([
        {"gpu": "Titan Xp", "memory_bytes": 123, "dtod_bw_gbs": 417.4,
         "htod_bw_gbs": 12.1, "bandwidth_ratio": 34.5,
         "pcie_peak_gteps_32bit": 3.02},
    ]))
    (d / "fig1.json").write_text(json.dumps([
        {"name": "a", "csr_bytes": 1000, "region": 1, "gteps": 10.0,
         "runtime_ms": 1.0},
        {"name": "b", "csr_bytes": 9000, "region": 2, "gteps": 1.0,
         "runtime_ms": 9.0},
    ]))
    return str(d)


class TestGenerator:
    def test_writes_markdown(self, results_dir, tmp_path):
        out = str(tmp_path / "EXP.md")
        write_experiments_md(results_dir, out)
        text = open(out).read()
        assert text.startswith("# EXPERIMENTS")
        assert "Table I" in text
        assert "34.5x" in text
        assert "| a | 0.00 | 1 | 10.00 |" in text

    def test_missing_sections_skipped(self, results_dir, tmp_path):
        # Only tab1 + fig1 exist; the others must not crash the writer.
        out = str(tmp_path / "EXP.md")
        write_experiments_md(results_dir, out)
        text = open(out).read()
        assert "Fig. 8" in text  # heading present even without data

    def test_empty_results_dir(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        out = str(tmp_path / "EXP.md")
        write_experiments_md(str(d), out)
        assert os.path.exists(out)

    def test_full_repo_results_if_present(self, tmp_path):
        # When the real benchmarks have run, the generator must handle
        # the full record set.
        real = os.path.join("benchmarks", "results")
        if not os.path.isdir(real) or not os.listdir(real):
            pytest.skip("no benchmark results in this checkout")
        out = str(tmp_path / "EXP.md")
        write_experiments_md(real, out)
        assert "paper" in open(out).read()


def _multigpu(name, csr_1, efg_1, csr_2):
    return {
        "name": name, "csr_1gpu_ms": csr_1, "efg_1gpu_ms": efg_1,
        "csr_2gpu_ms": csr_2, "csr_4gpu_ms": csr_2,
        "exchanged_mb_2gpu": 0.5, "efg_speedup": csr_1 / efg_1,
        "gpu2_speedup": csr_1 / csr_2,
    }


class TestMultiGPUClaim:
    def _line(self, tmp_path, records):
        d = tmp_path / "results"
        d.mkdir()
        (d / "multigpu.json").write_text(json.dumps(records))
        out = str(tmp_path / "EXP.md")
        write_experiments_md(str(d), out)
        return next(
            line for line in open(out).read().splitlines()
            if line.startswith("**Intro: compression vs multi-GPU.**")
        )

    def test_names_graphs_where_efg_wins(self, tmp_path):
        line = self._line(tmp_path, [
            _multigpu("social", 1.0, 0.1, 0.3),
            _multigpu("web", 1.0, 0.2, 0.1),
        ])
        assert "1-GPU EFG beats 2-GPU CSR outright on social (3.0x)" in line
        assert "web (" not in line

    def test_states_the_loss_when_efg_never_wins(self, tmp_path):
        line = self._line(tmp_path, [
            _multigpu("social", 1.0, 0.2, 0.1),
            _multigpu("web", 1.0, 0.3, 0.2),
        ])
        assert "outright" not in line
        assert "2-GPU CSR beats 1-GPU EFG on every graph, by 1.5-2.0x" in line
