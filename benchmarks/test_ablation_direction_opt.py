"""Direction-optimizing BFS ablation (the Sec. VII trade-off).

The paper runs Ligra+ top-down for parity because direction
optimisation "requires storing in-edges in addition to out-edges,
which doubles the storage requirements for directed graphs".  This
bench measures both sides of that trade-off on EFG:

* hybrid BFS examines far fewer edges on dense-frontier (symmetrised)
  graphs, and
* for a *directed* graph the in-edge structure really does roughly
  double the compressed storage.
"""

import numpy as np
from conftest import run_once, save_records

from repro.bench.harness import SCALED_TITAN_XP, encoded_suite_graph
from repro.bench.report import format_table
from repro.core.efg import efg_encode
from repro.traversal.backends import EFGBackend
from repro.traversal.direction_optimizing import bfs_direction_optimizing

GRAPHS = ("scc-lj_sym", "urnd_26_sym", "sk-05_sym")


def _run():
    records = []
    for name in GRAPHS:
        enc = encoded_suite_graph(name)
        backend = EFGBackend(enc.get("efg"), SCALED_TITAN_XP)
        src = int(np.argmax(enc.graph.degrees))
        top_down = bfs_direction_optimizing(
            backend, source=src, alpha=1e-12, beta=1e12
        )
        hybrid = bfs_direction_optimizing(backend, source=src)
        records.append(
            {
                "name": name,
                "td_edges": top_down.edges_examined,
                "hy_edges": hybrid.edges_examined,
                "edge_saving": top_down.edges_examined
                / max(hybrid.edges_examined, 1),
                "td_ms": top_down.runtime_ms,
                "hy_ms": hybrid.runtime_ms,
                "bottom_up_levels": hybrid.bottom_up_levels,
            }
        )
    # Storage side: in-edges for a *directed* graph double the footprint.
    directed = encoded_suite_graph("twitter")
    out_bytes = directed.get("efg").nbytes
    in_bytes = efg_encode(directed.graph.transposed()).nbytes
    storage = {
        "name": "twitter (directed)",
        "out_bytes": out_bytes,
        "in_bytes": in_bytes,
        "overhead": (out_bytes + in_bytes) / out_bytes,
    }
    return records, storage


def test_direction_optimizing(benchmark, results_dir):
    records, storage = run_once(benchmark, _run)
    print()
    print(
        format_table(
            ["graph", "TD edges", "hybrid edges", "saving", "TD ms",
             "hybrid ms", "BU levels"],
            [
                [r["name"], r["td_edges"], r["hy_edges"], r["edge_saving"],
                 r["td_ms"], r["hy_ms"], r["bottom_up_levels"]]
                for r in records
            ],
            title="Direction-optimizing BFS on EFG (Sec. VII extension)",
        )
    )
    print(
        f"\ndirected-graph storage for bottom-up: out {storage['out_bytes']:,} B"
        f" + in {storage['in_bytes']:,} B = {storage['overhead']:.2f}x"
        " (the paper's reason to run Ligra+ top-down)"
    )
    save_records(results_dir, "direction_opt", {"runs": records, "storage": storage})

    # Hybrid must engage bottom-up and cut examined edges on the
    # dense symmetrised graphs.
    for r in records:
        assert r["bottom_up_levels"] > 0, r["name"]
        assert r["edge_saving"] > 1.5, r["name"]
    # In-edge storage roughly doubles the directed footprint.
    assert 1.7 < storage["overhead"] < 2.3
