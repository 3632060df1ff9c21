"""Benchmark harness: experiment registry, runners, and reports.

One module per concern:

* :mod:`repro.bench.paper_data` — the paper's published numbers
  (Tables I-III, headline claims) for paper-vs-measured comparison.
* :mod:`repro.bench.harness` — backend construction on scaled devices,
  encoding caches, averaged traversal runs.
* :mod:`repro.bench.experiments` — one function per table/figure,
  returning structured records.
* :mod:`repro.bench.report` — plain-text tables and ASCII series that
  mirror the paper's figures.
* :mod:`repro.bench.trajectory` — the pinned ``repro bench`` workload
  suite and the ``BENCH_<n>.json`` trajectory it appends to.
"""

from repro.bench.harness import (
    SCALED_CPU,
    SCALED_TITAN_XP,
    SCALED_V100,
    encoded_suite_graph,
    make_backend,
    make_weights,
    pick_sources,
    run_bfs_average,
)
from repro.bench.report import ascii_series, format_table
from repro.bench.trajectory import (
    BENCH_SCHEMA,
    BenchConfig,
    bench_payload,
    compare_bench,
    load_bench,
    next_seq,
    run_bench_suite,
    write_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchConfig",
    "run_bench_suite",
    "bench_payload",
    "next_seq",
    "write_bench",
    "load_bench",
    "compare_bench",
    "SCALED_TITAN_XP",
    "SCALED_V100",
    "SCALED_CPU",
    "encoded_suite_graph",
    "make_backend",
    "make_weights",
    "pick_sources",
    "run_bfs_average",
    "format_table",
    "ascii_series",
]
