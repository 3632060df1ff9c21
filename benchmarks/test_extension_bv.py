"""BV / WebGraph extension — completing the Sec. VII comparison.

BV is "perhaps the most widely-used method for compressing large
web-graphs" but was never ported to GPUs because its reference chains
serialize decoding across *lists*.  This bench places our BV-style
encoder next to EFG/CGR/Ligra+ on one graph per category, showing what
EFG trades for GPU decodability — and that BV's edge only exists where
consecutive lists are similar (web), not on social/random graphs.
"""

import numpy as np
from conftest import run_once, save_records

from repro.bench.harness import encoded_suite_graph
from repro.bench.report import format_table
from repro.formats.bv import bv_encode

GRAPHS = ("sk-05", "twitter", "urnd_26")


def _run():
    records = []
    for name in GRAPHS:
        enc = encoded_suite_graph(name)
        csr = enc.get("csr").nbytes
        bv = bv_encode(enc.graph)
        # Spot-check correctness on a few lists.
        for v in range(0, enc.graph.num_nodes, enc.graph.num_nodes // 7):
            assert np.array_equal(bv.neighbours(v), enc.graph.neighbours(v))
        records.append(
            {
                "name": name,
                "bv_ratio": csr / bv.nbytes,
                "efg_ratio": csr / enc.get("efg").nbytes,
                "cgr_ratio": csr / enc.get("cgr").nbytes,
                "ligra_ratio": csr / enc.get("ligra").nbytes,
            }
        )
    return records


def test_bv_comparison(benchmark, results_dir):
    records = run_once(benchmark, _run)
    print()
    print(
        format_table(
            ["graph", "BV", "EFG", "CGR", "Ligra+"],
            [
                [r["name"], r["bv_ratio"], r["efg_ratio"], r["cgr_ratio"],
                 r["ligra_ratio"]]
                for r in records
            ],
            title="Compression ratio incl. BV (no GPU decode path exists "
                  "for BV)",
        )
    )
    save_records(results_dir, "bv", records)

    by = {r["name"]: r for r in records}
    # BV competitive on the web graph...
    assert by["sk-05"]["bv_ratio"] > by["sk-05"]["efg_ratio"] * 0.85
    # ...but loses its reference advantage off web structure.
    assert by["urnd_26"]["bv_ratio"] < by["urnd_26"]["efg_ratio"] * 1.1
