"""Tests for the command-line interface."""

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.formats.graph import Graph
from repro.serve.container import save_container


@pytest.fixture
def graph_file(tmp_path, rng):
    n, m = 300, 3000
    g = Graph.from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n, name="cli"
    )
    base = str(tmp_path / "g")
    save_container(g, base)
    return base


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


class TestInfo:
    def test_container(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "num_edges" in out
        assert "efg_bytes" in out

    def test_edge_list(self, edge_file, capsys):
        assert main(["info", edge_file]) == 0
        assert "num_nodes" in capsys.readouterr().out

    def test_all_formats(self, edge_file, capsys):
        assert main(["info", edge_file, "--all-formats"]) == 0
        out = capsys.readouterr().out
        assert "cgr_bytes" in out
        assert "ligra_bytes" in out


class TestEncode:
    def test_encode_reports_ratio(self, graph_file, capsys):
        assert main(["encode", graph_file]) == 0
        assert "x)" in capsys.readouterr().out

    def test_encode_writes_output(self, graph_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.npz")
        assert main(["encode", graph_file, "-o", out_path]) == 0
        data = np.load(out_path)
        assert "vlist" in data and "data" in data
        assert int(data["quantum"]) == 512

    def test_custom_quantum(self, graph_file, tmp_path):
        out_path = str(tmp_path / "out.npz")
        assert main(["encode", graph_file, "-o", out_path, "--quantum", "64"]) == 0
        assert int(np.load(out_path)["quantum"]) == 64


class TestBFS:
    @pytest.mark.parametrize("fmt", ["efg", "csr", "cgr"])
    def test_formats(self, graph_file, capsys, fmt):
        assert main([
            "profile", "bfs", graph_file, "--format", fmt, "--cache-kb", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "GTEPS (resident)" in out
        assert "list cache: " in out
        assert "bfs_expand" in out

    def test_msbfs_reports_cache_hits(self, graph_file, capsys):
        assert main([
            "profile", "msbfs", graph_file, "--num-sources", "32",
            "--cache-kb", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert "(resident)" in out
        hits = out.split("list cache: ", 1)[1].split("/", 1)[0]
        assert int(hits) > 0

    def test_dead_source_redirects(self, tmp_path, capsys):
        g = Graph.from_adjacency([[], [2], [1]])
        base = str(tmp_path / "g")
        save_container(g, base)
        assert main(["profile", "bfs", base, "--source", "0"]) == 0
        assert "has no out-edges" in capsys.readouterr().out


class TestServe:
    def test_build_and_serve_container(self, graph_file, tmp_path, capsys):
        base = str(tmp_path / "cont")
        assert main([
            "serve", base, "--build-from", graph_file, "--build-only",
        ]) == 0
        out = capsys.readouterr().out
        assert "built container" in out
        assert "epoch" in out
        assert main(["serve", base, "--queries", "40"]) == 0
        out = capsys.readouterr().out
        assert "queries/sec" in out

    def test_serve_graph_file_directly(self, graph_file, capsys):
        assert main([
            "serve", graph_file, "--queries", "30", "--baseline",
        ]) == 0
        out = capsys.readouterr().out
        assert "batching speedup" in out

    def test_serve_writes_metrics(self, graph_file, tmp_path, capsys):
        import json

        metrics = str(tmp_path / "m.json")
        assert main([
            "serve", graph_file, "--queries", "30", "--metrics", metrics,
        ]) == 0
        payload = json.loads(open(metrics).read())
        assert payload["serve"]["served"] > 0
        assert payload["meta"]["command"] == "serve"

    def test_corrupt_container_exits_cleanly(self, graph_file, tmp_path):
        base = str(tmp_path / "cont")
        assert main([
            "serve", base, "--build-from", graph_file, "--build-only",
        ]) == 0
        blob = bytearray(open(base + ".graph", "rb").read())
        blob[0] ^= 1
        open(base + ".graph", "wb").write(bytes(blob))
        with pytest.raises(SystemExit, match="payload CRC"):
            main(["serve", base, "--queries", "1"])

    def test_bad_deadline_mix_rejected(self, graph_file):
        with pytest.raises(SystemExit, match="deadline-ms"):
            main([
                "serve", graph_file, "--deadline-ms", "soon",
            ])


class TestProfile:
    def test_bfs_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "out.json"
        metrics = tmp_path / "m.json"
        assert main([
            "profile", "bfs", "--rmat-scale", "7",
            "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "GTEPS" in out
        assert "bound" in out  # roofline report printed
        assert trace.exists() and metrics.exists()
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["ph"] == "C" for e in events)
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro.metrics/2"
        assert payload["meta"]["algo"] == "bfs"
        assert any(e["name"].startswith("bytes:") for e in events)

    def test_counters_flag_prints_tables(self, capsys):
        assert main([
            "profile", "bfs", "--rmat-scale", "6", "--counters",
        ]) == 0
        out = capsys.readouterr().out
        assert "coal" in out and "warp" in out
        assert "kernel / array" in out

    def test_profile_graph_file(self, graph_file, capsys):
        assert main(["profile", "bfs", graph_file, "--format", "efg"]) == 0
        assert "GTEPS" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["dobfs", "msbfs", "sssp", "delta",
                                      "pagerank"])
    def test_other_algorithms(self, algo, capsys):
        assert main(["profile", algo, "--rmat-scale", "6"]) == 0
        assert "bound" in capsys.readouterr().out


class TestCompare:
    def _dump(self, tmp_path, name, scale="7"):
        path = tmp_path / name
        assert main([
            "profile", "bfs", "--rmat-scale", scale, "--metrics", str(path),
        ]) == 0
        return str(path)

    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.json")
        b = self._dump(tmp_path, "b.json")
        assert main(["compare", a, b]) == 0
        assert "metrically identical" in capsys.readouterr().out

    def test_different_runs_exit_nonzero(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.json", scale="6")
        b = self._dump(tmp_path, "b.json", scale="7")
        assert main(["compare", a, b, "--threshold", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_loose_threshold_tolerates_noise(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.json")
        path = tmp_path / "b.json"
        import json

        payload = json.loads((tmp_path / "a.json").read_text())
        payload["totals"]["elapsed_seconds"] *= 1.001
        path.write_text(json.dumps(payload))
        assert main(["compare", a, str(path), "--threshold", "5"]) == 0


class TestBench:
    # Shrunk suite flags so each invocation stays fast.
    SMALL = ["--rmat-scale", "6", "--edge-factor", "4"]

    def test_writes_bench_file(self, tmp_path, capsys):
        assert main([
            "bench", "--out-dir", str(tmp_path), "--seq", "1", *self.SMALL,
        ]) == 0
        out = capsys.readouterr().out
        assert "13 workloads" in out
        assert "raw/ef exchange time" in out
        assert (tmp_path / "BENCH_1.json").exists()

    def test_against_self_exits_zero(self, tmp_path, capsys):
        assert main([
            "bench", "--out-dir", str(tmp_path), "--seq", "1", *self.SMALL,
        ]) == 0
        assert main([
            "bench", "--no-write", "--against", str(tmp_path), *self.SMALL,
        ]) == 0
        out = capsys.readouterr().out
        assert "metrically identical" in out

    def test_perturbed_baseline_exits_nonzero(self, tmp_path, capsys):
        import json

        assert main([
            "bench", "--out-dir", str(tmp_path), "--seq", "1", *self.SMALL,
        ]) == 0
        path = tmp_path / "BENCH_1.json"
        payload = json.loads(path.read_text())
        payload["workloads"]["bfs/efg"]["totals"]["device_bytes"] += 64.0
        path.write_text(json.dumps(payload))
        assert main([
            "bench", "--no-write", "--against", str(path), *self.SMALL,
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "bfs/efg" in out

    def test_no_write_leaves_dir_untouched(self, tmp_path, capsys):
        assert main([
            "bench", "--out-dir", str(tmp_path), "--no-write", *self.SMALL,
        ]) == 0
        assert list(tmp_path.iterdir()) == []


class TestSuite:
    def test_lists_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "scc-lj" in out
        assert "moliere-16" in out
        assert "out-of-core" in out


class TestDist:
    def test_bfs_on_rmat(self, capsys):
        assert main([
            "dist", "bfs", "--rmat-scale", "7", "--gpus", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "dist-bfs on 4 GPUs" in out
        assert "wire" in out

    def test_graph_file_input(self, graph_file, capsys):
        assert main(["dist", "bfs", graph_file, "--gpus", "2"]) == 0
        assert "on 2 GPUs" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["sssp", "pagerank"])
    def test_other_algorithms(self, algo, capsys):
        assert main([
            "dist", algo, "--rmat-scale", "6", "--gpus", "2",
        ]) == 0
        assert f"dist-{algo}" in capsys.readouterr().out

    def test_butterfly_schedule(self, capsys):
        assert main([
            "dist", "bfs", "--rmat-scale", "6", "--gpus", "4",
            "--schedule", "butterfly", "--wire", "bitmap",
        ]) == 0

    def test_metrics_dump_is_deterministic(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main([
                "dist", "bfs", "--rmat-scale", "7", "--gpus", "4",
                "--metrics", str(path),
            ]) == 0
            paths.append(str(path))
        assert main(["compare", *paths]) == 0
        assert "metrically identical" in capsys.readouterr().out

    def test_rejects_zero_gpus(self):
        with pytest.raises(SystemExit):
            main(["dist", "bfs", "--rmat-scale", "6", "--gpus", "0"])

    def test_two_tier_hierarchical_ef_overlap(self, capsys):
        assert main([
            "dist", "bfs", "--rmat-scale", "7", "--gpus", "8",
            "--nodes", "2", "--wire", "ef", "--schedule", "hierarchical",
            "--overlap",
        ]) == 0
        out = capsys.readouterr().out
        assert "dist-bfs on 2 nodes x 4 GPUs" in out
        assert "tier split: intra" in out
        assert "overlapped:" in out
        assert "tier inter:" in out

    def test_two_tier_metrics_deterministic(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main([
                "dist", "bfs", "--rmat-scale", "7", "--gpus", "8",
                "--nodes", "2", "--wire", "ef",
                "--schedule", "hierarchical", "--overlap",
                "--metrics", str(path),
            ]) == 0
            paths.append(str(path))
        assert main(["compare", *paths]) == 0
        assert "metrically identical" in capsys.readouterr().out

    def test_rejects_indivisible_nodes(self):
        with pytest.raises(SystemExit):
            main([
                "dist", "bfs", "--rmat-scale", "6",
                "--gpus", "6", "--nodes", "4",
            ])


class TestCompareErrors:
    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["compare", missing, missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["compare", str(path), str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_section_mismatch_exits_two_naming_section(
        self, graph_file, tmp_path, capsys
    ):
        # A serve dump (carries the "service" section) against a
        # profile dump is a different workload: exit 2 with the
        # offending section named, not a wall of inf regressions.
        serve_dump = str(tmp_path / "serve.json")
        profile_dump = str(tmp_path / "profile.json")
        assert main([
            "serve", graph_file, "--queries", "20",
            "--metrics", serve_dump,
        ]) == 0
        assert main([
            "profile", "bfs", "--rmat-scale", "6",
            "--metrics", profile_dump,
        ]) == 0
        capsys.readouterr()
        assert main(["compare", serve_dump, profile_dump]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "service" in err
        assert "section mismatch" in err


class TestWhatIf:
    SMALL = ["--rmat-scale", "7"]

    def test_rank_table_and_verified_path(self, capsys):
        assert main([
            "whatif", "bfs", *self.SMALL, "--set", "inter_gbs=2", "--rank",
        ]) == 0
        out = capsys.readouterr().out
        assert "verify_critpath: ok" in out
        assert "critical path: " in out
        assert "what-if inter_gbs=2:" in out
        assert "scenario" in out  # rank table header
        assert "inter_bandwidth x2" in out

    def test_deterministic_output(self, capsys):
        outs = []
        for _ in range(2):
            assert main([
                "whatif", "bfs", *self.SMALL, "--set", "overlap=off",
            ]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_unknown_knob_exits_two(self, capsys):
        assert main([
            "whatif", "bfs", *self.SMALL, "--set", "warp_size=64",
        ]) == 2
        assert "unknown knob" in capsys.readouterr().err

    def test_inter_knob_on_one_node_exits_two(self, capsys):
        assert main([
            "whatif", "bfs", *self.SMALL, "--nodes", "1",
            "--set", "inter_gbs=5", "--set", "inter_latency_us=100",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before the baseline run
        (line,) = captured.err.splitlines()
        assert line.startswith("error: bad --set inter_gbs=5: ")
        assert "no inter tier" in line
        for knob in ("inter_contention=0.5", "inter_latency_us=100"):
            assert main([
                "whatif", "bfs", *self.SMALL, "--nodes", "1", "--set", knob,
            ]) == 2
            assert "no inter tier" in capsys.readouterr().err

    def test_malformed_set_exits_two(self, capsys):
        assert main([
            "whatif", "bfs", *self.SMALL, "--set", "inter_gbs",
        ]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_wire_swap_is_a_rerun(self, capsys, tmp_path):
        import json

        # The predicted clock is that of `repro dist` with the codec.
        assert main([
            "whatif", "bfs", *self.SMALL, "--set", "wire=varint",
        ]) == 0
        out = capsys.readouterr().out
        path = str(tmp_path / "m.json")
        assert main([
            "dist", "bfs", *self.SMALL, "--gpus", "8", "--nodes", "2",
            "--schedule", "hierarchical", "--overlap", "--wire", "varint",
            "--metrics", path,
        ]) == 0
        capsys.readouterr()
        with open(path) as fh:
            elapsed = json.load(fh)["totals"]["elapsed_seconds"]
        assert f"what-if wire=varint: {elapsed * 1e3:.6f} ms predicted" in out
        assert "estimate" not in out and "exact" not in out

    def test_wire_auto_swap(self, capsys):
        assert main([
            "whatif", "bfs", *self.SMALL, "--set", "wire=auto",
        ]) == 0
        assert "what-if wire=auto: " in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [
        "wire=foo", "inter_gbs=abc", "contention=5", "overlap=maybe",
    ])
    def test_bad_value_exits_two_before_running(self, capsys, bad):
        assert main(["whatif", "bfs", *self.SMALL, "--set", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no baseline line
        assert captured.err.startswith(f"error: bad --set {bad}: ")
        assert captured.err.count("\n") == 1

    def test_duplicate_set_exits_two_before_running(self, capsys):
        # Caught at parse time: exit 2 naming the key, no cluster built.
        assert main([
            "whatif", "bfs", *self.SMALL,
            "--set", "overlap=on", "--set", "overlap=off",
        ]) == 2
        err = capsys.readouterr().err
        assert "duplicate --set key 'overlap'" in err


class TestBenchAgainstErrors:
    SMALL = ["--rmat-scale", "6", "--edge-factor", "4"]

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        # Only unreadable entries in the dir: clear message, never a
        # raw traceback.
        (tmp_path / "BENCH_1.json").write_text("{half-written")
        assert main([
            "bench", "--no-write", "--against", str(tmp_path), *self.SMALL,
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "no readable BENCH" in err

    def test_empty_baseline_dir_exits_two(self, tmp_path, capsys):
        assert main([
            "bench", "--no-write", "--against", str(tmp_path), *self.SMALL,
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stale_index_falls_back_and_gates(self, tmp_path, capsys):
        import json

        assert main([
            "bench", "--out-dir", str(tmp_path), "--seq", "1", *self.SMALL,
        ]) == 0
        # A leftover TRAJECTORY.json naming an absent entry is ignored.
        (tmp_path / "TRAJECTORY.json").write_text(
            json.dumps({"entries": [{"seq": 9, "file": "BENCH_9.json"}]})
        )
        assert main([
            "bench", "--no-write", "--against", str(tmp_path), *self.SMALL,
        ]) == 0
        assert "metrically identical" in capsys.readouterr().out

    def test_source_seed_threaded_and_stamped(self, tmp_path, capsys):
        import json

        assert main([
            "bench", "--out-dir", str(tmp_path), "--seq", "1",
            "--source-seed", "7", *self.SMALL,
        ]) == 0
        payload = json.loads((tmp_path / "BENCH_1.json").read_text())
        assert payload["meta"]["suite"]["source_seed"] == 7
        # A differently-seeded run refuses to gate against it.
        assert main([
            "bench", "--no-write", "--against", str(tmp_path), *self.SMALL,
        ]) == 2
        assert "different suites" in capsys.readouterr().err


# -- parser surface ---------------------------------------------------------

#: Positional arguments each verb needs to parse.
REQUIRED = {
    "info": ["g"], "encode": ["g"], "serve": ["base"],
    "profile": ["bfs"], "dist": ["bfs"], "whatif": ["bfs"],
    "compare": ["a.json", "b.json"],
    "bench": [], "check": [], "suite": [],
}

#: Every verb's parsed namespace with only the required arguments given.
DEFAULTS = {
    "bench": {
        "against": None, "command": "bench", "device_scale": 2048,
        "edge_factor": 8, "no_write": False, "out_dir": ".", "rmat_scale": 9,
        "seed": 3, "seq": None, "source_seed": 42, "threshold": 0.0,
    },
    "check": {
        "command": "check", "decode_only": False, "fuzz": 200, "graph": None,
        "metrics": None, "seed": 7,
    },
    "compare": {
        "command": "compare", "metrics_a": "a.json", "metrics_b": "b.json",
        "threshold": 2.0,
    },
    "dist": {
        "algo": "bfs", "command": "dist", "contention": 0.5,
        "device_scale": 2048, "edge_factor": 8, "fmt": "csr", "gpus": 4,
        "graph": None, "inter_gbs": 1.0, "link_gbs": 10.0, "metrics": None,
        "nodes": 1, "overlap": False, "rmat_scale": 10, "schedule": "flat",
        "seed": 1, "source": 0, "wire": "auto",
    },
    "encode": {
        "command": "encode", "graph": "g", "output": None, "quantum": 512,
    },
    "info": {"all_formats": False, "command": "info", "graph": "g"},
    "profile": {
        "algo": "bfs", "cache_kb": 0, "command": "profile", "counters": False,
        "device_scale": 2048, "edge_factor": 8, "format": "efg", "graph": None,
        "metrics": None, "num_sources": 64, "rmat_scale": 10, "seed": 1,
        "source": 0, "trace": None,
    },
    "serve": {
        "baseline": False, "build_from": None, "build_only": False,
        "burst": 16, "cache_kb": 256, "command": "serve",
        "deadline_ms": "none", "device_scale": 2048, "format": "efg",
        "hot_fraction": 0.5, "max_pending": 1024, "metrics": None,
        "queries": 200, "seed": 7, "target": "base",
    },
    "suite": {"command": "suite", "v100": False},
    "whatif": {
        "algo": "bfs", "command": "whatif", "contention": 0.5,
        "device_scale": 2048, "edge_factor": 8, "fmt": "csr", "gpus": 8,
        "graph": None, "inter_gbs": 1.0, "link_gbs": 10.0, "no_overlap": False,
        "nodes": 2, "rank": False, "rmat_scale": 10,
        "schedule": "hierarchical", "seed": 1, "set": [], "source": 0,
        "wire": "ef",
    },
}

#: Every flag or positional that restricts its values.
CHOICES = {
    "bench": {},
    "check": {},
    "compare": {},
    "dist": {
        "algo": ("bfs", "sssp", "pagerank"), "fmt": ("csr", "efg"),
        "schedule": ("flat", "butterfly", "hierarchical"),
        "wire": ("raw", "raw64", "bitmap", "varint", "ef", "auto"),
    },
    "encode": {},
    "info": {},
    "profile": {
        "algo": ("bfs", "dobfs", "msbfs", "sssp", "delta", "pagerank"),
        "format": ("csr", "efg", "cgr"),
    },
    "serve": {"format": ("csr", "efg", "cgr")},
    "suite": {},
    "whatif": {
        "algo": ("bfs", "sssp", "pagerank"), "fmt": ("csr", "efg"),
        "schedule": ("flat", "butterfly", "hierarchical"),
        "wire": ("raw", "raw64", "bitmap", "varint", "ef", "auto"),
    },
}


def _verbs() -> dict:
    """The ``repro`` subcommand parsers, by verb."""
    (subparsers,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices


def _help_paths() -> list[tuple[str, ...]]:
    """Every verb, and every verb followed by each choice of its first
    positional: the sub-verbs (``dist bfs``, ``profile sssp``)."""
    out = []
    for verb, parser in _verbs().items():
        out.append((verb,))
        positionals = [a for a in parser._actions if not a.option_strings]
        if positionals and positionals[0].choices:
            out += [(verb, choice) for choice in positionals[0].choices]
    return out


class TestParserSurface:
    """Pins every verb's defaults and choices, so a change to a shared
    flag group cannot move one unnoticed."""

    @pytest.mark.parametrize("path", _help_paths(), ids=" ".join)
    def test_help_renders(self, path, capsys):
        # ``repro <path> --help`` builds and formats that parser.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([*path, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {path[0]} ")

    def test_every_verb_pinned(self):
        assert set(_verbs()) == set(REQUIRED) == set(DEFAULTS) == set(CHOICES)

    @pytest.mark.parametrize("verb", sorted(REQUIRED))
    def test_defaults(self, verb):
        args = vars(build_parser().parse_args([verb, *REQUIRED[verb]]))
        assert args.pop("func").__name__ == f"_cmd_{verb}"
        assert args == DEFAULTS[verb]

    @pytest.mark.parametrize("verb", sorted(REQUIRED))
    def test_choices(self, verb):
        choices = {
            a.dest: tuple(a.choices)
            for a in _verbs()[verb]._actions if a.choices is not None
        }
        assert choices == CHOICES[verb]


def _clean_exit(argv, capsys) -> str:
    """Run ``argv``; it must exit non-zero through ``SystemExit`` (no
    traceback) with a one-line message, which is returned."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    code = info.value.code
    if isinstance(code, str):  # SystemExit(message): printed, exit 1
        message = code
    else:  # an argparse usage error
        assert code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
    assert "\n" not in message
    return message


class TestSourceRange:
    @pytest.mark.parametrize("source", ["999999", "-1"])
    def test_bfs(self, graph_file, capsys, source):
        message = _clean_exit(
            ["profile", "bfs", graph_file, "--source", source], capsys
        )
        assert message == f"--source must be in [0, 300), got {source}"

    def test_profile(self, graph_file, capsys):
        message = _clean_exit(
            ["profile", "bfs", graph_file, "--source", "100000"], capsys
        )
        assert message == "--source must be in [0, 300), got 100000"

    def test_dist(self, graph_file, capsys):
        message = _clean_exit(
            ["dist", "bfs", graph_file, "--gpus", "2", "--source", "99999"],
            capsys,
        )
        assert message == "--source must be in [0, 300), got 99999"

    def test_whatif(self, graph_file, capsys):
        message = _clean_exit(
            ["whatif", "sssp", graph_file, "--source", "-1"], capsys
        )
        assert message == "--source must be in [0, 300), got -1"


#: Out-of-range flags a library would reject with a traceback: argv
#: (``GRAPH`` stands for the graph file) -> the one-line usage error.
_OUT_OF_RANGE = [
    ("dist bfs --link-gbs 0", "argument --link-gbs: must be > 0, got 0"),
    ("whatif bfs --link-gbs 0", "argument --link-gbs: must be > 0, got 0"),
    ("dist bfs --inter-gbs -1 --nodes 2",
     "argument --inter-gbs: must be > 0, got -1"),
    ("whatif bfs --inter-gbs -1 --nodes 2",
     "argument --inter-gbs: must be > 0, got -1"),
    ("encode GRAPH --quantum 0", "argument --quantum: must be > 0, got 0"),
    ("profile bfs --rmat-scale 0",
     "argument --rmat-scale: must be in [1, 30], got 0"),
    ("dist bfs --rmat-scale 0",
     "argument --rmat-scale: must be in [1, 30], got 0"),
    ("bench --no-write --rmat-scale 0",
     "argument --rmat-scale: must be in [1, 30], got 0"),
    ("profile bfs --edge-factor -1",
     "argument --edge-factor: must be >= 0, got -1"),
]


class TestLibraryErrorsExitCleanly:
    def test_zero_device_scale(self, graph_file, capsys):
        message = _clean_exit(
            ["profile", "bfs", graph_file, "--device-scale", "0"], capsys
        )
        assert "argument --device-scale: must be > 0, got 0" in message

    def test_contention_out_of_range(self, capsys):
        message = _clean_exit(["dist", "bfs", "--contention", "2"], capsys)
        assert "argument --contention: must be in [0, 1], got 2" in message

    def test_zero_burst(self, graph_file, capsys):
        message = _clean_exit(
            ["serve", graph_file, "--burst", "0"], capsys
        )
        assert message == "burst must be >= 1, got 0"

    def test_negative_queries(self, graph_file, capsys):
        message = _clean_exit(
            ["serve", graph_file, "--queries", "-1"], capsys
        )
        assert message == "num_queries must be > 0, got -1"

    @pytest.mark.parametrize("argv, expected", _OUT_OF_RANGE,
                             ids=[argv for argv, _ in _OUT_OF_RANGE])
    def test_flag_out_of_range(self, graph_file, capsys, argv, expected):
        argv = [graph_file if a == "GRAPH" else a for a in argv.split()]
        assert expected in _clean_exit(argv, capsys)


def _run_cli(*argv) -> subprocess.CompletedProcess:
    """``python -m repro argv`` in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestClosedStdout:
    """A reader that closed stdout ends the command without a traceback,
    whether the failing write is a mid-run ``print`` (unbuffered) or the
    final flush (buffered)."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_no_traceback(self, unbuffered):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "profile", "bfs",
                 "--rmat-scale", "6"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert proc.returncode == 1


class TestBadGraphPath:
    """A graph path that cannot be opened exits with one stderr line."""

    @staticmethod
    def _corrupt_container(tmp_path) -> str:
        base = str(tmp_path / "bad")
        save_container(Graph.from_adjacency([[1], [0]]), base)
        blob = bytearray(open(base + ".graph", "rb").read())
        blob[0] ^= 1
        open(base + ".graph", "wb").write(bytes(blob))
        return base

    @pytest.mark.parametrize(
        "case", ["missing", "garbage", "corrupt", "huge-id", "out-of-memory"]
    )
    def test_one_line_no_traceback(self, tmp_path, monkeypatch, case):
        if case == "out-of-memory":
            # Vertex 3,037,000,498 passes the overflow bound but its row
            # bounds need 22.6 GiB.  The MemoryError is injected, never
            # tried, and the CLI runs in-process to see the injection.
            def out_of_memory(*args, **kwargs):
                raise MemoryError("Unable to allocate 22.6 GiB for an array")

            monkeypatch.setattr(Graph, "from_edges", out_of_memory)
            path = tmp_path / "huge.txt"
            path.write_text("3037000498 0\n")
            argv = ["info", str(path)]
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert isinstance(info.value.code, str)
            lines = info.value.code.splitlines()
            assert len(lines) == 1
            assert lines[0] == (
                f"cannot open {path}: Unable to allocate 22.6 GiB for an array"
            )
            return
        if case == "missing":
            argv, expect = ["info", str(tmp_path / "missing.txt")], "No such file"
        elif case == "garbage":
            path = tmp_path / "garbage.txt"
            path.write_text("hello world\n")
            argv, expect = ["info", str(path)], "hello"
        elif case == "huge-id":
            path = tmp_path / "huge.txt"
            path.write_text("99999999999 0\n")
            argv, expect = ["info", str(path)], "overflow"
        else:
            argv = ["profile", "bfs", self._corrupt_container(tmp_path)]
            expect = "payload CRC"
        proc = _run_cli(*argv)
        assert proc.returncode != 0
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"cannot open {argv[-1]}: ")
        assert expect in lines[0]
        assert "Traceback" not in proc.stderr
