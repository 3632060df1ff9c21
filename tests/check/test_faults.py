"""Corruption-matrix coverage (ISSUE satellite d).

Every (format, injector) cell must classify as ``ok`` or ``detected``
in the primary pass — never ``silent-corruption``, never
``foreign-exception`` — and the structural (no-CRC) pass must never
produce a foreign exception either.  Clean streams decode
bit-identically across repeated calls.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.check.faults import (
    FAULT_INJECTORS,
    FORMAT_ENCODERS,
    default_fuzz_graph,
    run_fault_campaign,
)
from repro.check.report import check_report, summarize_faults

TRIALS = 24  # 6 per injector per format; CI's deep run uses --fuzz 200

#: sha256 over every campaign row at ``TRIALS`` trials, seed 7.  Any
#: change to an injector's RNG draws, a format's fault surface or a
#: decoder's error type moves it.
CAMPAIGN_SHA256 = (
    "d457891a4e218923f6e42f70bcbc7c20335558ded6bf58075b14dfff2defde02"
)


def _error_class(outcome: str, error: str) -> str:
    """The exception class name of a detected or foreign outcome."""
    if outcome in ("detected", "foreign-exception"):
        return error.partition(":")[0]
    return ""


def campaign_digest(rows) -> str:
    """sha256 over each row's identity, outcomes and error classes."""
    h = hashlib.sha256()
    for r in rows:
        row = (
            r.fmt, r.injector, r.trial, r.detail,
            r.outcome, r.structural_outcome,
            r.detected_by, r.structural_detected_by,
            _error_class(r.outcome, r.error),
            _error_class(r.structural_outcome, r.structural_error),
        )
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def fuzz_graph():
    return default_fuzz_graph()


@pytest.fixture(scope="module")
def campaign(fuzz_graph):
    return run_fault_campaign(fuzz_graph, trials=TRIALS, seed=7)


class TestCorruptionMatrix:
    def test_every_cell_covered(self, campaign):
        cells = {(r.fmt, r.injector) for r in campaign}
        for fmt in FORMAT_ENCODERS:
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

    def test_campaign_digest_pinned(self, campaign):
        assert len(campaign) == 6 * TRIALS
        assert campaign_digest(campaign) == CAMPAIGN_SHA256

    def test_unknown_format_is_a_value_error(self, fuzz_graph):
        with pytest.raises(ValueError, match="'nope'.*efg, pef, cgr"):
            run_fault_campaign(fuzz_graph, fmts=("nope",), trials=1)

    def test_deterministic_in_seed(self, fuzz_graph, campaign):
        rerun = run_fault_campaign(fuzz_graph, trials=TRIALS, seed=7)
        assert [(r.fmt, r.injector, r.detail, r.outcome) for r in rerun] == [
            (r.fmt, r.injector, r.detail, r.outcome) for r in campaign
        ]


class TestCleanStreams:
    @pytest.mark.parametrize("fmt", sorted(FORMAT_ENCODERS))
    def test_clean_decode_bit_identical(self, fuzz_graph, fmt):
        container = FORMAT_ENCODERS[fmt](fuzz_graph)
        first = container.decode_all()
        second = container.decode_all()
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
        for fmt in FORMAT_ENCODERS:
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
