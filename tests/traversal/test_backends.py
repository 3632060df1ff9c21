"""Tests for the format backends' expansion and accounting."""

import tracemalloc

import numpy as np
import pytest

from repro.core.efg import csr_gather_indices, efg_encode
from repro.core.listcache import DecodedListCache
from repro.datasets import rmat_graph
from repro.formats.cgr import cgr_encode
from repro.formats.csr import CSRGraph
from repro.formats.ligra_plus import ligra_encode
from repro.gpusim.device import TITAN_XP
from repro.gpusim.kernel import KernelLaunch
from repro.traversal.backends import (
    GPU_FORMATS,
    CGRBackend,
    CSRBackend,
    EFGBackend,
    LigraBackend,
    build_backend,
    encode,
)
from repro.traversal.bfs import bfs


def _backends(graph, device, weight_bytes=0):
    return [
        CSRBackend(CSRGraph.from_graph(graph), device, weight_bytes),
        EFGBackend(efg_encode(graph), device, weight_bytes),
        CGRBackend(cgr_encode(graph), device, weight_bytes),
        LigraBackend(ligra_encode(graph), weight_bytes=weight_bytes),
    ]


class TestExpansion:
    def test_all_backends_agree(self, small_graph, scaled_device, rng):
        frontier = rng.integers(0, small_graph.num_nodes, size=30)
        results = []
        for backend in _backends(small_graph, scaled_device):
            with backend.engine.launch("t") as k:
                nbrs, seg = backend.expand(frontier, k)
            results.append((nbrs, seg))
        base_n, base_s = results[0]
        for nbrs, seg in results[1:]:
            assert np.array_equal(nbrs, base_n)
            assert np.array_equal(seg, base_s)

    def test_expansion_is_frontier_ordered(self, small_graph, scaled_device):
        backend = EFGBackend(efg_encode(small_graph), scaled_device)
        frontier = np.array([9, 3, 9])
        with backend.engine.launch("t") as k:
            nbrs, seg = backend.expand(frontier, k)
        expect = np.concatenate(
            [small_graph.neighbours(9), small_graph.neighbours(3),
             small_graph.neighbours(9)]
        )
        assert np.array_equal(nbrs, expect)
        assert seg.max() == 2 if seg.size else True

    def test_expand_charges_traffic(self, small_graph, scaled_device):
        for backend in _backends(small_graph, scaled_device):
            with backend.engine.launch("t") as k:
                backend.expand(np.arange(small_graph.num_nodes), k)
            total = k.cost.device_bytes + k.cost.host_bytes
            assert total > 0, backend.format_name
            assert k.cost.instructions > 0


class TestTrafficScalesWithCompression:
    def test_efg_moves_fewer_bytes_than_csr(self, small_graph, scaled_device):
        frontier = np.arange(small_graph.num_nodes)
        csr_b = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        efg_b = EFGBackend(efg_encode(small_graph), scaled_device)
        with csr_b.engine.launch("t") as k_csr:
            csr_b.expand(frontier, k_csr)
        with efg_b.engine.launch("t") as k_efg:
            efg_b.expand(frontier, k_efg)
        csr_edges = k_csr.cost.breakdown["elist"]
        efg_data = k_efg.cost.breakdown["efg_data"]
        assert efg_data < csr_edges

    def test_cgr_floor_reflects_hub_lists(self, scaled_device, rng):
        # A frontier containing a huge list must trigger the critical
        # path floor.
        from repro.formats.graph import Graph

        hub = np.unique(rng.integers(0, 10**6, size=5000))
        g = Graph.from_adjacency([hub, [3], [4]] + [[] for _ in range(10**6 - 3)])
        backend = CGRBackend(cgr_encode(g), scaled_device)
        with backend.engine.launch("t") as k_small:
            backend.expand(np.array([1, 2]), k_small)
        with backend.engine.launch("t") as k_hub:
            backend.expand(np.array([0, 1]), k_hub)
        assert k_hub.cost.floor_seconds > k_small.cost.floor_seconds


def _slot_weights(graph, device, frontier):
    """``expand_weighted`` results on all four backends, without and
    with a decoded-list cache, under ``weights = arange(|E|)``: each
    edge's weight is its CSR slot.  Cached backends expand twice, so the
    second expansion is served from cache hits."""
    weights = np.arange(graph.num_edges)
    runs = []
    for cache_kb in (0, 64):
        for backend in _backends(graph, device, 4 * graph.num_edges):
            if cache_kb:
                backend.attach_cache(DecodedListCache(cache_kb * 1024))
            for _ in range(2 if cache_kb else 1):
                with backend.engine.launch("t") as k:
                    out = backend.expand_weighted(frontier, k, weights)
            if cache_kb:
                assert backend.cache.stats.hit_edges > 0
            runs.append((backend, out))
    return runs


class TestEdgeSlots:
    def test_slots_are_csr_positions(self, small_graph, scaled_device):
        frontier = np.array([2, 5])
        expect = np.concatenate(
            [
                np.arange(small_graph.vlist[2], small_graph.vlist[3]),
                np.arange(small_graph.vlist[5], small_graph.vlist[6]),
            ]
        )
        for backend, (_, _, w) in _slot_weights(
            small_graph, scaled_device, frontier
        ):
            assert np.array_equal(w, expect), backend.format_name

    def test_slots_identical_across_formats(self, small_graph, scaled_device):
        frontier = np.array([0, 7, 3])
        runs = _slot_weights(small_graph, scaled_device, frontier)
        _, (base_n, base_s, base_w) = runs[0]
        for backend, (nbrs, seg, w) in runs[1:]:
            assert np.array_equal(nbrs, base_n), backend.format_name
            assert np.array_equal(seg, base_s), backend.format_name
            assert np.array_equal(w, base_w), backend.format_name

    def test_ranges_expand_to_slots(self, small_graph, scaled_device):
        frontier = np.array([4, 0, 4, 9])
        for backend, (_, _, w) in _slot_weights(
            small_graph, scaled_device, frontier
        ):
            slots, _ = csr_gather_indices(*backend.edge_ranges(frontier))
            assert np.array_equal(slots, w), backend.format_name


class TestShape:
    def test_shape_is_the_containers(self, small_graph, scaled_device):
        containers = {
            "csr": lambda b: b.csr.graph,
            "efg": lambda b: b.efg,
            "cgr": lambda b: b.cgr.graph,
            "ligra+": lambda b: b.ligra.graph,
        }
        for backend in _backends(small_graph, scaled_device):
            shape = containers[backend.format_name](backend)
            assert backend.num_nodes == shape.num_nodes == small_graph.num_nodes
            assert backend.num_edges == shape.num_edges == small_graph.num_edges
            assert np.array_equal(backend.degrees, shape.degrees)
            assert np.array_equal(backend.vlist, shape.vlist)
            assert np.array_equal(backend.vlist, small_graph.vlist)


#: Payload array and per-list (starts, bytes) of each backend's slices.
_PAYLOADS = {
    "csr": lambda b, f: ("elist", b.csr.graph.vlist[f], b.degrees[f], 4),
    "efg": lambda b, f: (
        "efg_data", b.efg.offsets[f], b.efg.offsets[f + 1] - b.efg.offsets[f], 1
    ),
    "cgr": lambda b, f: ("cgr_data", b.cgr.offsets[f], b.cgr.list_nbytes(f), 1),
    "ligra+": lambda b, f: (
        "lg_data", b.ligra.offsets[f], b.ligra.list_nbytes(f), 1
    ),
}


class TestPayloadCharge:
    """The payload slices are priced exactly as the per-byte (per-edge)
    stream they stand for."""

    def test_matches_expanded_stream(self, small_graph, scaled_device, rng):
        frontier = rng.permutation(small_graph.num_nodes)[:300]
        for backend in _backends(small_graph, scaled_device):
            nbrs, _ = backend._decode(frontier)
            with backend.engine.launch("t") as k:
                backend.charge_expand(frontier, nbrs, k)
            array, starts, lengths, elem = _PAYLOADS[backend.format_name](
                backend, frontier
            )
            with backend.engine.launch("oracle") as want:
                want.read_stream(
                    array, csr_gather_indices(starts, lengths)[0], elem
                )
            assert (
                k.cost.traffic[array].to_dict()
                == want.cost.traffic[array].to_dict()
            ), backend.format_name


class TestChargeWorkingSet:
    """Pricing an expansion needs host memory in proportion to the
    frontier, not to its payload: on a pinned RMAT graph with every
    vertex in the frontier, ``charge_expand`` peaks at no more than
    256 B per frontier vertex."""

    BOUND_BYTES_PER_VERTEX = 256

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(14, 16, seed=1)

    @pytest.mark.parametrize("fmt", GPU_FORMATS)
    def test_peak_per_frontier_vertex(self, graph, fmt):
        backend = build_backend(fmt, graph, TITAN_XP)
        frontier = np.arange(graph.num_nodes, dtype=np.int64)
        nbrs, _ = backend._decode(frontier)
        backend.degrees  # a cached per-vertex array is not pricing scratch
        with backend.engine.launch("t") as k:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                backend.charge_expand(frontier, nbrs, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_vertex = (peak - before) / graph.num_nodes
        assert per_vertex <= self.BOUND_BYTES_PER_VERTEX, per_vertex


class TestMemoryRegistration:
    def test_weight_bytes_registered(self, small_graph, scaled_device):
        backend = CSRBackend(
            CSRGraph.from_graph(small_graph), scaled_device, weight_bytes=1234
        )
        plan = backend.engine.memory.plan()
        assert plan["weights"].nbytes == 1234

    def test_format_names(self, small_graph, scaled_device):
        names = [b.format_name for b in _backends(small_graph, scaled_device)]
        assert names == ["csr", "efg", "cgr", "ligra+"]

    def test_fits_in_memory_flag(self, small_graph):
        from repro.gpusim.device import TITAN_XP

        big = CSRBackend(CSRGraph.from_graph(small_graph), TITAN_XP)
        assert big.graph_fits_in_memory()
        tiny_dev = TITAN_XP.scaled_capacity(16)
        spilled = CSRBackend(CSRGraph.from_graph(small_graph), tiny_dev)
        assert not spilled.graph_fits_in_memory()


#: What the registry must reproduce: each format's encoder and class,
#: constructed by hand.
_DIRECT = {
    "csr": (CSRGraph.from_graph, CSRBackend),
    "efg": (efg_encode, EFGBackend),
    "cgr": (cgr_encode, CGRBackend),
}


class TestRegistry:
    def test_registers_every_gpu_format(self):
        assert GPU_FORMATS == tuple(_DIRECT)

    @pytest.mark.parametrize(
        "weight_bytes,cache_kb", [(0, 0), (4096, 8)], ids=["plain", "extras"]
    )
    @pytest.mark.parametrize("fmt", GPU_FORMATS)
    def test_build_matches_direct(
        self, small_graph, scaled_device, fmt, weight_bytes, cache_kb
    ):
        from repro.core.listcache import DecodedListCache

        encoder, cls = _DIRECT[fmt]
        direct = cls(encoder(small_graph), scaled_device,
                     weight_bytes=weight_bytes)
        if cache_kb:
            direct.attach_cache(DecodedListCache(budget_bytes=cache_kb * 1024))
        built = build_backend(
            fmt, small_graph, scaled_device,
            weight_bytes=weight_bytes, cache_kb=cache_kb,
        )
        assert type(built) is cls
        assert (built.cache is None) == (cache_kb == 0)
        assert built.engine.memory.plan() == direct.engine.memory.plan()
        got, want = bfs(built, 3), bfs(direct, 3)
        assert np.array_equal(got.levels, want.levels)
        assert built.engine.elapsed_seconds == direct.engine.elapsed_seconds

    @pytest.mark.parametrize("fmt", GPU_FORMATS)
    def test_container_is_used_as_is(self, small_graph, scaled_device, fmt):
        container = encode(fmt, small_graph)
        backend = build_backend(fmt, container, scaled_device)
        assert getattr(backend, fmt) is container

    def test_unknown_key_names_every_format(self, small_graph, scaled_device):
        for call in (
            lambda: encode("zip", small_graph),
            lambda: build_backend("zip", small_graph, scaled_device),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert "'zip'" in str(exc.value)
            for fmt in GPU_FORMATS:
                assert fmt in str(exc.value)

    def test_encode_forwards_quantum(self, small_graph):
        got = encode("efg", small_graph, quantum=8)
        want = efg_encode(small_graph, quantum=8)
        assert got.quantum == want.quantum == 8
        for field in ("vlist", "num_lower_bits", "offsets", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
