"""Sec. VIII-F — offline compression (encode) wall time.

Paper: EFG and Ligra+ compress the whole suite in minutes while CGR
takes 30-45 minutes on several graphs.  We measure our encoders' real
wall time: the batched whole-graph EFG and CGR encodes vs the per-list
sequential Ligra+ encoder.  Batched CGR runs at EFG speed, so the
paper's CGR gap is a property of its reference encoder, not of the
format; the table is reported, not ranked.
"""

from conftest import run_once, save_records

from repro.bench.experiments import exp_compression_time
from repro.bench.report import format_table

GRAPHS = ("scc-lj", "orkut", "twitter")


def test_compression_time(benchmark, results_dir):
    records = run_once(benchmark, exp_compression_time, GRAPHS)
    print()
    print(
        format_table(
            ["graph", "EFG s", "CGR s", "Ligra+ s", "CGR/EFG", "Lg+/EFG"],
            [
                [r["name"], r["efg_s"], r["cgr_s"], r["ligra_s"],
                 r["cgr_vs_efg"], r["ligra_vs_efg"]]
                for r in records
            ],
            title="Sec. VIII-F: encode wall time (real, not simulated)",
        )
    )
    save_records(results_dir, "compression_time", records)

    assert [r["name"] for r in records] == list(GRAPHS)
    for r in records:
        assert min(r["efg_s"], r["cgr_s"], r["ligra_s"]) > 0
