"""Decode amortization extension: hot-list cache + bit-parallel MSBFS.

The paper pays ~70 instructions per edge to decode EFG lists at
traversal time (Sec. VI-B) — and the baseline traversals re-pay that
price on every frontier visit of every query.  This benchmark measures
the two amortization layers added on top:

* a byte-budgeted :class:`~repro.core.listcache.DecodedListCache` that
  keeps hot decoded lists resident on chip, and
* :func:`~repro.traversal.msbfs.msbfs`, which packs 64 sources into
  per-vertex uint64 masks so one decode of each frontier list serves
  every active source.

Reported per graph: total list decodes, amortized per-source simulated
time and GTEPS for sequential single-source BFS vs. the 64-source
bit-parallel batch, plus the cache hit rate.  Set ``REPRO_BENCH_QUICK=1``
to shrink the graphs for CI smoke runs (the records then stay out of
``benchmarks/results``).
"""

import numpy as np
from conftest import QUICK, run_once, save_records

from repro.core.efg import efg_encode
from repro.core.listcache import DecodedListCache
from repro.datasets.random_graph import uniform_random_graph
from repro.datasets.rmat import rmat_graph
from repro.bench.report import format_table
from repro.gpusim.device import TITAN_XP
from repro.traversal.backends import EFGBackend
from repro.traversal.bfs import bfs
from repro.traversal.msbfs import msbfs

SCALE = 11 if QUICK else 13
NUM_SOURCES = 64
CACHE_BYTES = 1 << 21  # 2 MiB of modeled on-chip residency
DEVICE = TITAN_XP.scaled(2048)


def _graphs():
    yield rmat_graph(scale=SCALE, edge_factor=16, seed=42, name=f"rmat_{SCALE}")
    yield uniform_random_graph(
        num_nodes=1 << SCALE, num_edges=16 << SCALE, seed=42,
        name=f"urnd_{SCALE}",
    )


def _pick_sources(graph):
    rng = np.random.default_rng(7)
    candidates = np.flatnonzero(graph.degrees > 0)
    return rng.choice(candidates, size=NUM_SOURCES, replace=False)


def _run():
    records = []
    for graph in _graphs():
        efg = efg_encode(graph)
        sources = _pick_sources(graph)

        seq_backend = EFGBackend(efg, DEVICE)
        seq_seconds = 0.0
        seq_edges = 0
        for s in sources:
            r = bfs(seq_backend, int(s))
            seq_seconds += r.sim_seconds
            seq_edges += r.edges_traversed
        seq_decodes = seq_backend.lists_decoded

        ms_backend = EFGBackend(efg, DEVICE)
        ms_backend.attach_cache(DecodedListCache(budget_bytes=CACHE_BYTES))
        ms = msbfs(ms_backend, sources)
        assert ms.edges_traversed == seq_edges

        records.append(
            {
                "name": graph.name,
                "seq_decodes": seq_decodes,
                "ms_decodes": ms.lists_decoded,
                "decode_ratio": seq_decodes / max(1, ms.lists_decoded),
                "seq_us_per_source": seq_seconds / NUM_SOURCES * 1e6,
                "ms_us_per_source": ms.seconds_per_source * 1e6,
                "speedup": (seq_seconds / NUM_SOURCES) / ms.seconds_per_source,
                "seq_gteps": seq_edges / seq_seconds / 1e9,
                "ms_gteps": ms.gteps,
                "cache_hits": ms.cache_stats.hits,
                "cache_misses": ms.cache_stats.misses,
                "cache_hit_rate": ms.cache_stats.hit_rate,
                "cache_bytes_saved": ms.cache_stats.bytes_saved,
            }
        )
    return records


def test_msbfs_amortization(benchmark, results_dir):
    records = run_once(benchmark, _run)
    print()
    print(
        format_table(
            ["graph", "seq dec", "ms dec", "dec x", "seq us/src",
             "ms us/src", "speedup", "GTEPS", "hit%"],
            [
                [r["name"], r["seq_decodes"], r["ms_decodes"],
                 r["decode_ratio"], r["seq_us_per_source"],
                 r["ms_us_per_source"], r["speedup"], r["ms_gteps"],
                 100 * r["cache_hit_rate"]]
                for r in records
            ],
            title=f"{NUM_SOURCES}-source bit-parallel BFS + decoded-list "
                  f"cache vs sequential BFS (EFG)",
        )
    )
    for r in records:
        print(
            f"{r['name']}: cache {r['cache_hits']}/{r['cache_hits'] + r['cache_misses']}"
            f" hits, {r['cache_bytes_saved']:,.0f} compressed bytes saved"
        )
    save_records(results_dir, "msbfs", records)

    for r in records:
        # Acceptance: one decode serves many sources (>= 5x fewer) and
        # the amortized per-source simulated time strictly improves.
        assert r["decode_ratio"] >= 5.0, r
        assert r["ms_us_per_source"] < r["seq_us_per_source"], r
        assert r["cache_hits"] > 0, r
