"""Shared benchmark plumbing.

Each benchmark file reproduces one table or figure: it runs the
corresponding ``repro.bench.experiments`` function once (timed through
pytest-benchmark's ``pedantic`` mode), prints the paper-style rows, and
saves the structured records to ``benchmarks/results/*.json`` so
EXPERIMENTS.md can be regenerated from the exact numbers.

``REPRO_BENCH_QUICK=1`` marks a smoke run (CI's bench-smoke job): the
benchmarks that can shrink their inputs do, and every record goes under
pytest's temporary directory instead, so only a full run refreshes the
tracked results.
"""

from __future__ import annotations

import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: A smoke run: smaller inputs where a benchmark supports them, and
#: records kept out of ``RESULTS_DIR``.
QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> str:
    """Directory where experiment records are stored: ``RESULTS_DIR``,
    or a temporary one on a quick run."""
    if QUICK:
        return str(tmp_path_factory.mktemp("results"))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def save_records(results_dir: str, name: str, records) -> None:
    """Persist one experiment's structured records as JSON."""
    path = os.path.join(results_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2, default=float)


def run_once(benchmark, fn, *args, **kwargs):
    """Time a heavyweight experiment exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
