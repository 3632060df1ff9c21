"""Microbenchmarks — real wall-clock throughput of the hot primitives.

Unlike the table/figure benches (which report *simulated* device time),
these measure our actual Python implementation: EFG whole-frontier
decode, EF range decode, cost-model stream pricing, and the encode
pipelines.  Useful for tracking
regressions in the vectorized kernels themselves.  The whole-graph
decode and encode cases (EFG and CGR) also record the codec's host
working set (the tracemalloc peak of one call, outputs included) in
B/edge and hold it to the bound the tier-1 guards in
``tests/core/test_efg.py`` and ``tests/formats/test_cgr.py`` set.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bench.harness import encoded_suite_graph
from repro.core.efg import decode_lists
from repro.ef.encoding import ef_decode_range, ef_encode
from repro.gpusim.cost import stream_transfer_bytes


#: Bound on the whole-graph codec's working set, B/edge.
PEAK_BYTES_PER_EDGE = 64


@pytest.fixture(scope="module")
def twitter():
    enc = encoded_suite_graph("twitter")
    return enc.graph, enc.get("efg")


def peak_bytes_per_edge(benchmark, edges, fn, *args):
    """Record one traced call's peak in ``extra_info`` and check it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    per_edge = (peak - before) / edges
    benchmark.extra_info["peak_bytes_per_edge"] = per_edge
    assert per_edge <= PEAK_BYTES_PER_EDGE, per_edge


def test_decode_whole_graph_throughput(benchmark, twitter):
    graph, efg = twitter
    verts = np.arange(graph.num_nodes, dtype=np.int64)

    def run():
        vals, _ = decode_lists(efg, verts)
        return vals

    vals = benchmark(run)
    assert vals.shape[0] == graph.num_edges
    benchmark.extra_info["edges"] = graph.num_edges
    efg.degrees  # the cached degree array is not decode scratch
    peak_bytes_per_edge(benchmark, graph.num_edges, decode_lists, efg, verts)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["edges_per_sec"] = graph.num_edges / benchmark.stats["mean"]


def test_decode_frontier_throughput(benchmark, twitter, rng=np.random.default_rng(3)):
    graph, efg = twitter
    frontier = rng.choice(graph.num_nodes, size=4096, replace=False)

    def run():
        return decode_lists(efg, frontier)[0]

    vals = benchmark(run)
    assert vals.shape[0] == graph.degrees[frontier].sum()


def test_stream_pricing_throughput(benchmark, twitter):
    """Cost-model pricing of the whole-graph neighbour stream (the
    ``work:visited`` probe of a whole-graph expansion).  Records
    accesses/s and the call's tracemalloc peak, which the blocked walk
    keeps under 1 MiB whatever the stream's length."""
    graph, _ = twitter
    ids = graph.elist

    moved = benchmark(stream_transfer_bytes, ids, 4, 32)
    assert moved > 0
    benchmark.extra_info["accesses"] = ids.shape[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream_transfer_bytes(ids, 4, 32)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_bytes"] = peak
    assert peak < 1 << 20, peak
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["accesses_per_sec"] = ids.shape[0] / benchmark.stats["mean"]


def test_ef_range_decode(benchmark):
    rng = np.random.default_rng(9)
    values = np.sort(rng.integers(0, 10**8, size=100_000))
    seq = ef_encode(values, quantum=512)

    def run():
        return ef_decode_range(seq, 40_000, 60_000)

    out = benchmark(run)
    assert np.array_equal(out, values[40_000:60_000])


def test_efg_encode_throughput(benchmark, twitter):
    graph, _ = twitter
    from repro.core.efg import efg_encode

    efg = benchmark(efg_encode, graph)
    assert efg.num_edges == graph.num_edges
    peak_bytes_per_edge(benchmark, graph.num_edges, efg_encode, graph)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["edges_per_sec"] = graph.num_edges / benchmark.stats["mean"]


def test_cgr_encode_throughput(benchmark, twitter):
    graph, _ = twitter
    from repro.formats.cgr import cgr_encode

    cgr = benchmark(cgr_encode, graph)
    assert cgr.offsets.shape[0] == graph.num_nodes + 1
    peak_bytes_per_edge(benchmark, graph.num_edges, cgr_encode, graph)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["edges_per_sec"] = graph.num_edges / benchmark.stats["mean"]


def test_efg_has_edge_throughput(benchmark, twitter):
    """O(log deg) adjacency queries on the compressed graph."""
    graph, efg = twitter
    rng = np.random.default_rng(5)
    us = rng.integers(0, graph.num_nodes, size=512)
    vs = rng.integers(0, graph.num_nodes, size=512)

    def run():
        return sum(efg.has_edge(int(u), int(v)) for u, v in zip(us, vs))

    hits = benchmark(run)
    # Sanity: results agree with the uncompressed adjacency.
    expect = sum(
        int(v) in set(graph.neighbours(int(u)).tolist())
        for u, v in zip(us, vs)
    )
    assert hits == expect


def test_ef_intersection_throughput(benchmark):
    """Galloping intersection of two compressed lists."""
    from repro.ef.encoding import ef_encode
    from repro.ef.queries import ef_intersect

    rng = np.random.default_rng(6)
    a = np.unique(rng.integers(0, 10**6, size=500))
    b = np.unique(rng.integers(0, 10**6, size=50_000))
    shared = np.unique(rng.integers(0, 10**6, size=200))
    va = np.unique(np.concatenate([a, shared]))
    vb = np.unique(np.concatenate([b, shared]))
    sa, sb = ef_encode(va, quantum=64), ef_encode(vb, quantum=64)

    out = benchmark(ef_intersect, sa, sb)
    assert np.array_equal(out, np.intersect1d(va, vb))
