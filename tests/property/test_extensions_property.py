"""Property-based tests for the extension modules (PEF blobs, BV,
delta-stepping, distributed BFS)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ef.partitioned import pef_encode, pef_from_blob, pef_to_blob
from repro.formats.bv import bv_encode
from repro.formats.graph import Graph
from repro.formats.weights import generate_edge_weights
from repro.gpusim.device import TITAN_XP
from repro.gpusim.uvm import UVM_PAGE_BYTES, UVMSimulator

DEVICE = TITAN_XP.scaled(2048)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    return Graph.from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
    )


class TestPEFBlob:
    @given(
        values=st.sets(st.integers(0, 2**31 - 1), min_size=1, max_size=400).map(sorted),
        size=st.sampled_from([4, 32, 128]),
        strategy=st.sampled_from(["runs", "fixed"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_blob_roundtrip(self, values, size, strategy):
        vals = np.array(values, dtype=np.int64)
        seq = pef_encode(vals, partition_size=size, strategy=strategy)
        assert np.array_equal(pef_from_blob(pef_to_blob(seq)), vals)

    @given(run_start=st.integers(0, 10**6), run_len=st.integers(2, 2000),
           tail=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_run_plus_outlier(self, run_start, run_len, tail):
        vals = np.arange(run_start, run_start + run_len, dtype=np.int64)
        if tail > vals[-1]:
            vals = np.append(vals, tail)
        seq = pef_encode(vals)
        assert np.array_equal(pef_from_blob(pef_to_blob(seq)), vals)


class TestBVProperty:
    @given(graph=graphs(), window=st.sampled_from([0, 2, 7]),
           chain=st.sampled_from([1, 3]))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, graph, window, chain):
        bv = bv_encode(graph, window=window, max_ref_chain=chain)
        for v in range(graph.num_nodes):
            assert np.array_equal(bv.neighbours(v), graph.neighbours(v))


class TestDeltaSteppingProperty:
    @given(graph=graphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_distances_match_reference(self, graph, data):
        from repro.core.efg import efg_encode
        from repro.traversal.backends import EFGBackend
        from repro.traversal.delta_stepping import delta_stepping_sssp
        from repro.traversal.validate import reference_sssp_distances

        w = generate_edge_weights(graph, seed=1)
        src = data.draw(st.integers(0, graph.num_nodes - 1))
        delta = data.draw(st.sampled_from([0.05, 0.2, 1.0]))
        backend = EFGBackend(
            efg_encode(graph), DEVICE, weight_bytes=4 * graph.num_edges
        )
        got = delta_stepping_sssp(backend, src, w, delta=delta).distances
        ref = reference_sssp_distances(graph, src, w)
        finite = np.isfinite(ref)
        assert np.allclose(got[finite], ref[finite], atol=1e-5)
        assert np.all(np.isinf(got[~finite]))


class TestDistributedProperty:
    @given(graph=graphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_levels_invariant_to_gpu_count(self, graph, data):
        from repro.dist import LinkTopology, ShardedCluster, distributed_bfs

        def levels(gpus):
            cluster = ShardedCluster.build(
                graph, gpus, DEVICE, wire="raw64", schedule="flat",
                topology=LinkTopology.for_device(DEVICE, gpus, contention=1.0),
            )
            return distributed_bfs(cluster, src).levels

        src = data.draw(st.integers(0, graph.num_nodes - 1))
        base = levels(1)
        for gpus in (2, 3):
            assert np.array_equal(levels(gpus), base)


class TestUVMProperty:
    @given(
        ids=st.lists(st.integers(0, 10**6), min_size=1, max_size=300),
        cache_pages=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, ids, cache_pages):
        uvm = UVMSimulator(cache_bytes=cache_pages * UVM_PAGE_BYTES)
        arr = np.array(ids, dtype=np.int64)
        uvm.access(arr, 4)
        distinct_pages = len(set((i * 4) // UVM_PAGE_BYTES for i in ids))
        # Migrations at least cover the distinct pages, at most one per
        # (coalesced) access.
        assert uvm.migrated_pages >= min(distinct_pages, 1)
        assert uvm.migrated_pages >= distinct_pages - 0  # cold cache
        assert uvm.evicted_pages == max(0, uvm.migrated_pages - cache_pages)


class TestMSBFSProperty:
    @given(graph=graphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_levels_match_independent_bfs(self, graph, data):
        from repro.core.efg import efg_encode
        from repro.core.listcache import DecodedListCache
        from repro.traversal.backends import EFGBackend
        from repro.traversal.bfs import bfs
        from repro.traversal.msbfs import msbfs

        num_sources = data.draw(st.integers(1, min(64, graph.num_nodes)))
        seed = data.draw(st.integers(0, 2**31))
        cache_bytes = data.draw(st.sampled_from([0, 256, 1 << 16]))
        rng = np.random.default_rng(seed)
        sources = rng.choice(graph.num_nodes, size=num_sources, replace=False)

        backend = EFGBackend(efg_encode(graph), DEVICE)
        if cache_bytes:
            backend.attach_cache(DecodedListCache(budget_bytes=cache_bytes))
        ms = msbfs(backend, sources)

        ref_backend = EFGBackend(efg_encode(graph), DEVICE)
        for row, s in enumerate(sources):
            ref = bfs(ref_backend, int(s))
            assert np.array_equal(ms.levels[row], ref.levels), (s, cache_bytes)

    @given(graph=graphs(), budget=st.sampled_from([64, 1024, 1 << 15]))
    @settings(max_examples=25, deadline=None)
    def test_cache_never_changes_bfs_result(self, graph, budget):
        from repro.core.efg import efg_encode
        from repro.core.listcache import DECODED_ELEM_BYTES, DecodedListCache
        from repro.traversal.backends import EFGBackend
        from repro.traversal.bfs import bfs

        plain = EFGBackend(efg_encode(graph), DEVICE)
        cached = EFGBackend(efg_encode(graph), DEVICE)
        cached.attach_cache(DecodedListCache(budget_bytes=budget))
        for source in range(0, graph.num_nodes, max(1, graph.num_nodes // 5)):
            ref = bfs(plain, source)
            got = bfs(cached, source)
            assert np.array_equal(got.levels, ref.levels)
            assert got.edges_traversed == ref.edges_traversed
        resident = sum(e.shape[0] for e in cached.cache._entries.values())
        assert resident * DECODED_ELEM_BYTES <= budget
