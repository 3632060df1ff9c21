"""Corruption-matrix coverage (ISSUE satellite d).

Every (format, injector) cell must classify as ``ok`` or ``detected``
in the primary pass — never ``silent-corruption``, never
``foreign-exception`` — and the structural (no-CRC) pass must never
produce a foreign exception either.  Clean streams decode
bit-identically across repeated calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.adapters import FORMAT_ADAPTERS
from repro.check.faults import (
    FAULT_INJECTORS,
    default_fuzz_graph,
    run_fault_campaign,
)
from repro.check.report import check_report, summarize_faults

TRIALS = 24  # 6 per injector per format; CI's deep run uses --fuzz 200


@pytest.fixture(scope="module")
def fuzz_graph():
    return default_fuzz_graph()


@pytest.fixture(scope="module")
def campaign(fuzz_graph):
    return run_fault_campaign(fuzz_graph, trials=TRIALS, seed=7)


class TestCorruptionMatrix:
    def test_every_cell_covered(self, campaign):
        cells = {(r.fmt, r.injector) for r in campaign}
        for fmt in FORMAT_ADAPTERS:
            for injector in FAULT_INJECTORS:
                assert (fmt, injector) in cells

    def test_no_silent_corruption_primary(self, campaign):
        silent = [r for r in campaign if r.outcome == "silent-corruption"]
        assert silent == []

    def test_no_foreign_exceptions_either_pass(self, campaign):
        foreign = [
            r
            for r in campaign
            if r.outcome == "foreign-exception"
            or r.structural_outcome == "foreign-exception"
        ]
        assert foreign == [], [
            (r.fmt, r.detail, r.error or r.structural_error) for r in foreign
        ]

    def test_detections_name_a_stage(self, campaign):
        for r in campaign:
            if r.outcome == "detected":
                assert r.detected_by in ("integrity", "decode")
            if r.structural_outcome == "detected":
                assert r.structural_detected_by == "decode"

    def test_structural_pass_catches_most_structure_faults(self, campaign):
        # The decoders' own guards (no CRC help) must catch a solid
        # majority — truncations and geometry violations at minimum.
        detected = sum(1 for r in campaign if r.structural_outcome == "detected")
        assert detected >= len(campaign) // 2

    def test_format_faults_independent_of_other_formats(
        self, fuzz_graph, campaign
    ):
        # Each format draws from its own fixed RNG stream, so running it
        # alone reproduces its rows of the full campaign.
        alone = run_fault_campaign(
            fuzz_graph, fmts=("container",), trials=TRIALS, seed=7
        )
        assert [(r.injector, r.detail, r.outcome) for r in alone] == [
            (r.injector, r.detail, r.outcome)
            for r in campaign if r.fmt == "container"
        ]

    def test_deterministic_in_seed(self, fuzz_graph, campaign):
        rerun = run_fault_campaign(fuzz_graph, trials=TRIALS, seed=7)
        assert [(r.fmt, r.injector, r.detail, r.outcome) for r in rerun] == [
            (r.fmt, r.injector, r.detail, r.outcome) for r in campaign
        ]


class TestCleanStreams:
    @pytest.mark.parametrize("fmt", sorted(FORMAT_ADAPTERS))
    def test_clean_decode_bit_identical(self, fuzz_graph, fmt):
        adapter = FORMAT_ADAPTERS[fmt]
        container = adapter.encode(fuzz_graph)
        first = adapter.decode_all(container)
        second = adapter.decode_all(container)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, fuzz_graph.elist)


class TestReport:
    def test_summary_counts_match(self, campaign):
        summary = summarize_faults(campaign)
        assert sum(
            v
            for k, v in summary["counters"].items()
            if not k.startswith("check.faults.structural.")
        ) == len(campaign)
        assert summary["silent"] == 0
        assert summary["foreign"] == 0
        for fmt in FORMAT_ADAPTERS:
            assert summary["gauges"][f"check.faults.{fmt}.silent_rate"] == 0.0
            assert summary["gauges"][f"check.faults.{fmt}.foreign_rate"] == 0.0

    def test_report_schema_and_failures(self, campaign):
        report = check_report(campaign, meta={"suite": "unit"})
        assert report["schema"] == "repro.metrics/2"
        assert report["failures"] == {
            "silent_corruption": 0,
            "foreign_exceptions": 0,
            "differential_disagreements": 0,
        }
