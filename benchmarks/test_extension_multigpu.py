"""Multi-GPU extension — compression vs buying more GPUs (Intro).

The paper's introduction positions graph compression as complementary
to distributing the graph over multiple GPUs.  This bench quantifies
the trade on an out-of-core graph:

* 1x Titan Xp, CSR — spills, PCIe-bound (the problem);
* 2x/4x Titan Xp, CSR partitioned — in-memory again, plus an
  all-to-all frontier exchange per level (the hardware answer);
* 1x Titan Xp, EFG — in-memory after compression (the paper's answer).

Expected shape: EFG on one GPU recovers part of the multi-GPU speedup
with zero extra hardware; adding GPUs still wins at the cost of 2-4x
the silicon plus exchange traffic.
"""

import numpy as np
from conftest import run_once, save_records

from repro.bench.harness import SCALED_TITAN_XP, encoded_suite_graph, make_backend
from repro.bench.report import format_table
from repro.dist import LinkTopology, ShardedCluster, distributed_bfs
from repro.traversal.bfs import bfs

GRAPHS = ("gsh-15-h_sym", "sk-05_sym", "com-frndster")


def _csr_cluster_bfs(graph, source, num_gpus, wire="raw64", contention=1.0):
    """Partitioned CSR BFS over ``num_gpus`` Titan Xps, flat exchange."""
    cluster = ShardedCluster.build(
        graph, num_gpus, SCALED_TITAN_XP, fmt="csr", wire=wire,
        schedule="flat",
        topology=LinkTopology.for_device(
            SCALED_TITAN_XP, num_gpus, contention=contention
        ),
    )
    return distributed_bfs(cluster, source)


def _run():
    records = []
    for name in GRAPHS:
        enc = encoded_suite_graph(name)
        src = int(np.argmax(enc.graph.degrees))
        one_csr = bfs(make_backend("csr", enc), src)
        one_efg = bfs(make_backend("efg", enc), src)
        two = _csr_cluster_bfs(enc.graph, src, 2)
        four = _csr_cluster_bfs(enc.graph, src, 4)
        assert np.array_equal(two.levels, one_csr.levels)
        records.append(
            {
                "name": name,
                "csr_1gpu_ms": one_csr.runtime_ms,
                "efg_1gpu_ms": one_efg.runtime_ms,
                "csr_2gpu_ms": two.runtime_ms,
                "csr_4gpu_ms": four.runtime_ms,
                "exchanged_mb_2gpu": two.exchanged_bytes / 1e6,
                "efg_speedup": one_csr.runtime_ms / one_efg.runtime_ms,
                "gpu2_speedup": one_csr.runtime_ms / two.runtime_ms,
            }
        )
    return records


def test_multigpu_vs_compression(benchmark, results_dir):
    records = run_once(benchmark, _run)
    print()
    print(
        format_table(
            ["graph", "1xCSR ms", "1xEFG ms", "2xCSR ms", "4xCSR ms",
             "2x exch MB"],
            [
                [r["name"], r["csr_1gpu_ms"], r["efg_1gpu_ms"],
                 r["csr_2gpu_ms"], r["csr_4gpu_ms"],
                 r["exchanged_mb_2gpu"]]
                for r in records
            ],
            title="Out-of-core: compress (EFG) vs partition (multi-GPU)",
        )
    )
    save_records(results_dir, "multigpu", records)

    for r in records:
        # Both answers beat the PCIe-bound single-GPU CSR run...
        assert r["efg_speedup"] > 2.0, r["name"]
        assert r["gpu2_speedup"] > 1.4, r["name"]
        # ...and single-GPU EFG recovers a large share of the 2-GPU win
        # without the second device.
        assert r["efg_1gpu_ms"] < 4.0 * r["csr_2gpu_ms"], r["name"]
    # The social graph's scattered neighbours generate the heaviest
    # all-to-all exchange of the suite (even after each sender dedupes
    # repeat discoveries within a level and its visited view drops the
    # ids it sent in earlier levels, which is what keeps 2-GPU
    # competitive with 1-GPU EFG here — compression still needs no
    # interconnect at all).  It measures 0.250 MB; 0.501 MB before the
    # views.
    frnd = next(r for r in records if r["name"] == "com-frndster")
    assert frnd["exchanged_mb_2gpu"] == max(
        r["exchanged_mb_2gpu"] for r in records
    )
    assert frnd["exchanged_mb_2gpu"] > 0.2
    assert frnd["efg_1gpu_ms"] < 2.0 * frnd["csr_2gpu_ms"]


WIRES = ("raw64", "raw", "bitmap", "varint", "auto")


def _run_codecs():
    records = []
    for name in GRAPHS:
        enc = encoded_suite_graph(name)
        src = int(np.argmax(enc.graph.degrees))
        row = {"name": name}
        baseline = None
        for wire in WIRES:
            r = _csr_cluster_bfs(enc.graph, src, 4, wire=wire, contention=0.5)
            if baseline is None:
                baseline = r
            else:
                assert np.array_equal(r.levels, baseline.levels)
            row[f"{wire}_mb"] = r.exchanged_bytes / 1e6
            row[f"{wire}_ms"] = r.runtime_ms
        records.append(row)
    return records


def test_wire_codec_traffic(benchmark, results_dir):
    """Compressing the exchanged frontier, not just the stored graph.

    The same density argument the paper makes for adjacency compression
    applies to the frontier on the wire: dense levels pack into bitmaps,
    sparse ones into delta-varints, and auto picks per message.
    """
    records = run_once(benchmark, _run_codecs)
    print()
    print(
        format_table(
            ["graph"] + [f"{w} MB" for w in WIRES],
            [[r["name"]] + [r[f"{w}_mb"] for w in WIRES] for r in records],
            title="4-GPU BFS exchange traffic by wire codec",
        )
    )
    save_records(results_dir, "multigpu_wire", records)

    for r in records:
        # Narrowing to int32 halves the historical raw64 traffic; the
        # compressed codecs must then beat even that, and auto must be
        # the best of the fixed choices (headers make exact min unequal
        # only when codec picks differ per message).
        assert r["raw_mb"] < r["raw64_mb"], r["name"]
        assert min(r["bitmap_mb"], r["varint_mb"]) < r["raw_mb"], r["name"]
        assert r["auto_mb"] <= min(
            r["raw_mb"], r["bitmap_mb"], r["varint_mb"]
        ), r["name"]
