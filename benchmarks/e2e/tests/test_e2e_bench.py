"""Tests of the end-to-end benchmark (``python -m pytest benchmarks/e2e/tests``).

They drive ``run.py --smoke`` (s10 graphs, one set-up, one timed round)
and the pure helpers of ``tracing.py`` and ``compare.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path[:0] = [str(E2E), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Metrics read off the host clock (or the host's memory); every other
#: metric is a simulated quantity or a call count and repeats exactly.
HOST_METRICS = {"setup_s", "peak_rss_mb", "host.medges_per_s",
                "serve.wave_host_ms_p50", "trace.overhead_frac"}

#: Per-layer metrics that are 0 on every workload at smoke scale: s10
#: graphs fit the device and the list cache, and no query expires.
ZERO_AT_SMOKE_SCALE = {"gpusim.pcie_bytes_per_edge",
                       "core.listcache.evictions", "serve.miss_frac"}


def _host_clock(metric: str) -> bool:
    return (metric in HOST_METRICS or metric.endswith(".s")
            or metric.endswith(".self_s"))


def _smoke(tmp_path: Path, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "all",
         "--smoke", "--seed", "3", "--trace", str(trace),
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["workloads"], elapsed


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two untraced and two traced smoke passes over all workloads."""
    out = {}
    for trace in (0, 1):
        for attempt in range(2):
            out[trace, attempt] = _smoke(
                tmp_path_factory.mktemp(f"t{trace}-{attempt}"), trace
            )
    return out


def test_smoke_runs_every_workload_correctly_in_time(smoke_runs):
    results, elapsed = smoke_runs[0, 0]
    assert elapsed < 60
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    for name, result in results.items():
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(smoke_runs, trace, key):
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    for name, result in smoke_runs[trace, 0][0].items():
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, name


def test_every_metric_is_measured_somewhere(smoke_runs):
    # A per-layer metric reading 0 on every workload is a misspelt name.
    for metric in SPEC["per_layer"]:
        values = [r["metrics"][metric["name"]]["value"]
                  for r in smoke_runs[1, 0][0].values()]
        assert any(values) != (metric["name"] in ZERO_AT_SMOKE_SCALE), (
            metric["name"])
    for result in smoke_runs[0, 0][0].values():
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_simulated_metrics_repeat_bit_for_bit(smoke_runs):
    for trace in (0, 1):
        first, second = smoke_runs[trace, 0][0], smoke_runs[trace, 1][0]
        for name, result in first.items():
            for metric, value in result["metrics"].items():
                if not _host_clock(metric):
                    assert value == second[name]["metrics"][metric], (
                        name, metric)


def test_corrupted_levels_make_failures(monkeypatch):
    import workloads

    real_bfs = workloads.bfs_mod.bfs

    def corrupt(backend, source, **kwargs):
        result = real_bfs(backend, source, **kwargs)
        levels = result.levels.copy()
        levels[np.flatnonzero(levels > 0)[0]] += 1
        return dataclasses.replace(result, levels=levels)

    monkeypatch.setattr(workloads.bfs_mod, "bfs", corrupt)
    record = run.measure("bfs-fits", 3, 0.0, False, smoke=True)
    assert record["failed"] > 0
    assert run.result_line(record, SPEC)["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bfs-fits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _spans() -> list[Span]:
    # round [0, 10] > bfs [1, 9] > decode [2, 4], decode [5, 6]
    #                            > extract [3, 3.5] inside the first decode
    return [
        Span("round", 0.0, 10.0, -1),
        Span("traversal.bfs", 1.0, 9.0, 0, "efg"),
        Span("core.decode_lists", 2.0, 4.0, 1),
        Span("ef.extract_fields", 3.0, 3.5, 2),
        Span("core.decode_lists", 5.0, 6.0, 1),
        Span("round", 10.0, 12.0, -1),
    ]


def test_self_time_subtracts_child_coverage():
    assert tracing.self_times(_spans()) == [2.0, 5.0, 1.5, 0.5, 1.0, 2.0]
    # Overlapping children are covered once, and clipped to the parent.
    spans = [Span("p", 0.0, 10.0, -1), Span("a", 1.0, 5.0, 0),
             Span("b", 3.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_stats_and_shares():
    first, second = tracing.layer_stats(_spans(), "round")
    assert first["core.decode_lists"] == {"calls": 2, "self_s": 2.5, "s": 3.0}
    assert first["ef.extract_fields"]["self_s"] == 0.5
    assert second == {}
    assert tracing.median_stat([first, second], "core.decode_lists",
                               "calls") == 1.0
    shares = tracing.shares(_spans())
    assert shares["round"]["core.decode_lists"] == pytest.approx(2.5 / 12)
    assert shares["fmt:efg"]["core.decode_lists"] == pytest.approx(2.5 / 8)


def test_recorder_restores_every_patch_point():
    import importlib

    def current():
        out = []
        for module, attr, _ in tracing.PATCH_POINTS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            out.append(vars(owner)[leaf])
        return out

    before = current()
    recorder = tracing.Recorder()
    with recorder.installed():
        assert all(a is not b for a, b in zip(before, current()))
    assert all(a is b for a, b in zip(before, current()))


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 10, [8.0] * 10, "regression"),
    ([10.0, 10.1] * 5, [10.05] * 10, "same"),
    ([8.0, 12.0] * 5, [9.0, 13.0] * 5, "unresolved"),
    ([10.0, 10.1] * 5, [11.0, 11.1] * 5, "gain"),
    ([10.0, 10.1] * 2, [11.0, 11.1] * 2, "same"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "higher", 0.1)["verdict"] == expected


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 10, [8.0] * 10, "loss"),
    ([8.0, 12.0] * 5, [9.0, 13.0] * 5, "same"),
    ([10.0, 10.1] * 5, [11.0, 11.1] * 5, "gain"),
])
def test_compare_verdicts_without_a_bound(parent, change, expected):
    assert compare.verdict(parent, change, "higher", None)["verdict"] == expected
