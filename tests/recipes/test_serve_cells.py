"""Serve cells in recipes: axis, knobs, normalization, runner rows."""

import pytest

from repro.recipes import parse_recipe, run_recipe
from repro.recipes.spec import RecipeError

RMAT7 = {"kind": "rmat", "scale": 7, "edge_factor": 4, "seed": 3}


class TestSpec:
    def test_serve_axis_expands(self):
        spec = parse_recipe({
            "name": "s",
            "axes": {"algo": ["serve"], "format": ["efg"]},
            "dataset": RMAT7,
            "knobs": {"deadline_ms": ["none", "none,0.001"],
                      "hot_fraction": [0.5]},
        })
        cells = spec.expand()
        assert len(cells) == 2
        assert all(c.algo == "serve" for c in cells)
        assert {dict(c.knobs)["deadline_ms"] for c in cells} == {
            "none", "none,0.001"
        }

    def test_bad_deadline_mix_rejected_at_parse(self):
        with pytest.raises(RecipeError, match="deadline_ms"):
            parse_recipe({
                "name": "s",
                "axes": {"algo": ["serve"]},
                "knobs": {"deadline_ms": ["fast,please"]},
            })

    def test_bad_hot_fraction_rejected(self):
        with pytest.raises(RecipeError, match="hot_fraction"):
            parse_recipe({
                "name": "s",
                "axes": {"algo": ["serve"]},
                "knobs": {"hot_fraction": [1.5]},
            })

    def test_serve_knobs_dropped_on_other_algos(self):
        # deadline_ms is meaningless for bfs: the knob is normalized
        # away so the grid doesn't multiply into duplicate cells.
        spec = parse_recipe({
            "name": "s",
            "axes": {"algo": ["bfs"]},
            "dataset": RMAT7,
            "knobs": {"deadline_ms": ["none", "none,0.5"]},
        })
        cells = spec.expand()
        assert len(cells) == 1
        assert "deadline_ms" not in dict(cells[0].knobs)

    def test_serve_is_single_gpu_only(self):
        with pytest.raises(RecipeError, match="serve"):
            parse_recipe({
                "name": "s",
                "axes": {"algo": ["serve"], "gpus": [4]},
            }).expand()


class TestRunner:
    @pytest.fixture(scope="class")
    def report(self):
        return run_recipe(parse_recipe({
            "name": "serve-unit",
            "axes": {"algo": ["serve"], "format": ["efg"]},
            "dataset": RMAT7,
            "knobs": {"deadline_ms": ["none,0.001"],
                      "hot_fraction": [0.5]},
            "defaults": {"serve_queries": 64, "serve_burst": 16},
        }))

    def test_row_carries_serving_columns(self, report):
        (row,) = report["recipe"].values()
        assert row["qps"] > 0
        assert row["p99_latency_s"] > 0
        assert 0.0 <= row["miss_rate"] <= 1.0

    def test_run_payload_has_both_sections(self, report):
        (payload,) = report["runs"].values()
        assert payload["serve"]["qps"] > 0
        assert payload["service"]["latency"]["count"] > 0
        assert payload["service"]["rates"]["window_s"] > 0

    def test_deterministic(self, report):
        import json

        again = run_recipe(parse_recipe({
            "name": "serve-unit",
            "axes": {"algo": ["serve"], "format": ["efg"]},
            "dataset": RMAT7,
            "knobs": {"deadline_ms": ["none,0.001"],
                      "hot_fraction": [0.5]},
            "defaults": {"serve_queries": 64, "serve_burst": 16},
        }))
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
