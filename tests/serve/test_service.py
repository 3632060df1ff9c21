"""GraphService: bit-identity, admission, deadlines, waves, caching."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.core.listcache import DecodedListCache
from repro.datasets.rmat import rmat_graph
from repro.gpusim.device import TITAN_XP
from repro.serve import GraphService, drive, make_labeled_stream
from repro.serve.driver import sequential_seconds, with_sequential_baseline
from repro.traversal.backends import EFGBackend
from repro.traversal.bfs import bfs
from repro.traversal.msbfs import MAX_SOURCES


@pytest.fixture
def service(small_graph):
    return GraphService.from_graph(small_graph, fmt="efg", cache_kb=256)


def _reference_levels(graph, source):
    backend = EFGBackend(efg_encode(graph), TITAN_XP.scaled(2048))
    return bfs(backend, int(source)).levels


class TestBitIdentity:
    def test_single_query(self, small_graph, service):
        service.submit(5)
        (result,) = service.step_wave()
        assert result.status == "done"
        assert np.array_equal(
            result.levels, _reference_levels(small_graph, 5)
        )

    @pytest.mark.parametrize("count", [1, 63, 65])
    def test_queued_batches_split_into_waves(
        self, small_graph, service, count
    ):
        # 65 distinct queued queries must split across two waves (the
        # 64-lane cap), and every result must still match sequential
        # bfs bit for bit across the wave boundary.
        for source in range(count):
            service.submit(source)
        results = service.run()
        assert len(results) == count
        expected_waves = (count + MAX_SOURCES - 1) // MAX_SOURCES
        assert service.num_waves == expected_waves
        assert {r.wave for r in results} == set(range(expected_waves))
        for r in results:
            assert r.status == "done"
            assert np.array_equal(
                r.levels, _reference_levels(small_graph, r.source)
            ), r.source

    def test_cache_hits_are_bit_identical(self, small_graph, service):
        service.submit(9)
        service.step_wave()
        service.submit(9)
        cached = service.results[-1]
        assert cached.status == "cached"
        assert np.array_equal(
            cached.levels, _reference_levels(small_graph, 9)
        )

    def test_empty_batch_runs_no_wave(self, service):
        assert service.step_wave() == []
        assert service.num_waves == 0
        assert service.backend.engine.num_launches == 0


class TestAdmission:
    def test_queue_bound_rejects(self, small_graph):
        service = GraphService.from_graph(
            small_graph, fmt="efg", cache_kb=0, max_pending=4
        )
        for source in range(6):
            service.submit(source)
        counts = service.counts()
        assert counts["rejected"] == 2
        assert service.num_pending == 4

    def test_rejected_queries_never_served(self, small_graph):
        service = GraphService.from_graph(
            small_graph, fmt="efg", cache_kb=0, max_pending=2
        )
        for source in range(5):
            service.submit(source)
        service.run()
        by_status = {r.status for r in service.results}
        assert by_status == {"rejected", "done"}
        done = [r for r in service.results if r.status == "done"]
        assert len(done) == 2

    def test_out_of_range_source_raises(self, service):
        with pytest.raises(ValueError, match="out of range"):
            service.submit(10_000)
        with pytest.raises(ValueError, match="out of range"):
            service.submit(-1)


class TestDeadlines:
    def test_expired_query_never_occupies_a_lane(self, small_graph, service):
        # Fill the first wave with 64 distinct sources, then queue one
        # more with a deadline tighter than any wave. Wave 1 leaves it
        # pending; by wave 2 the clock has passed its deadline, so it
        # must expire without a lane (launch count stays at wave 1's).
        for source in range(MAX_SOURCES):
            service.submit(source)
        service.submit(99, deadline_s=1e-12)
        first = service.step_wave()
        assert len(first) == MAX_SOURCES
        launches_after_wave1 = service.backend.engine.num_launches
        second = service.step_wave()
        assert [r.status for r in second] == ["expired"]
        assert service.backend.engine.num_launches == launches_after_wave1
        assert service.num_waves == 1

    def test_fresh_deadline_is_served(self, small_graph, service):
        service.submit(3, deadline_s=10.0)
        (result,) = service.step_wave()
        assert result.status == "done"

    def test_expired_counted_in_metrics(self, small_graph, service):
        for source in range(MAX_SOURCES):
            service.submit(source)
        service.submit(99, deadline_s=1e-12)
        service.run()
        counters = service.backend.engine.metrics.counters
        assert counters["serve.queries.expired"] == 1.0
        assert counters["serve.queries.served"] == MAX_SOURCES


class TestCoalescingAndCache:
    def test_duplicate_sources_share_one_lane(self, small_graph, service):
        for _ in range(5):
            service.submit(7)
        results = service.step_wave()
        assert len(results) == 5
        assert service.num_waves == 1
        ref = _reference_levels(small_graph, 7)
        for r in results:
            assert np.array_equal(r.levels, ref)

    def test_duplicates_join_a_full_wave(self, small_graph, service):
        # 64 distinct sources fill the lanes; a 65th query duplicating
        # an in-wave source must coalesce in rather than wait.
        for source in range(MAX_SOURCES):
            service.submit(source)
        service.submit(0)
        results = service.step_wave()
        assert len(results) == MAX_SOURCES + 1
        assert service.num_pending == 0

    def test_result_cache_lru_evicts(self, small_graph):
        service = GraphService.from_graph(
            small_graph, fmt="efg", cache_kb=0, result_cache_entries=2
        )
        for source in (1, 2, 3):
            service.submit(source)
            service.step_wave()
        service.submit(1)  # evicted: must traverse again
        (result,) = service.step_wave()
        assert result.status == "done"
        counters = service.backend.engine.metrics.counters
        assert counters["serve.cache.evictions"] >= 1.0

    def test_epoch_keys_the_cache(self, small_graph, service):
        service.submit(4)
        service.step_wave()
        key = (4, service.epoch)
        assert key in service._cache


class TestDriver:
    def test_drive_is_deterministic(self, small_graph):
        def run_once():
            service = GraphService.from_graph(
                small_graph, fmt="efg", cache_kb=256
            )
            stream, _ = make_labeled_stream(small_graph.num_nodes, 120, seed=7)
            drive(
                service, stream,
                deadline_mix=(None, 0.5, None, 1e-9), burst=96,
            )
            return service

        s1 = run_once()
        s2 = run_once()
        assert s1.metrics_section() == s2.metrics_section()
        assert (s1.backend.engine.metrics.gauges
                == s2.backend.engine.metrics.gauges)
        for a, b in zip(s1.results, s2.results):
            assert a.status == b.status and a.source == b.source
            if a.levels is not None:
                assert np.array_equal(a.levels, b.levels)

    def test_driven_results_match_sequential(self, small_graph):
        service = GraphService.from_graph(small_graph, fmt="efg", cache_kb=256)
        stream, _ = make_labeled_stream(small_graph.num_nodes, 80, seed=11)
        drive(service, stream, burst=32)
        for r in service.results:
            assert r.ok
            assert np.array_equal(
                r.levels, _reference_levels(small_graph, r.source)
            ), r.source

    def test_batched_beats_sequential_at_64_sources(self, small_graph):
        # The acceptance shape: 64 distinct concurrent sources must be
        # served at >= 3x the sequential-replay throughput.
        rng = np.random.default_rng(5)
        sources = rng.choice(
            small_graph.num_nodes, size=MAX_SOURCES, replace=False
        ).astype(np.int64)
        service = GraphService.from_graph(small_graph, fmt="efg", cache_kb=256)
        drive(service, sources, burst=64)

        def mk():
            backend = EFGBackend(
                efg_encode(small_graph), TITAN_XP.scaled(2048)
            )
            backend.attach_cache(DecodedListCache(budget_bytes=256 * 1024))
            return backend

        seq = with_sequential_baseline(service, mk, sources)
        gauges = service.backend.engine.metrics.gauges
        assert service.num_waves == 1
        assert gauges["serve.speedup_vs_sequential"] == seq / service.clock
        assert gauges["serve.speedup_vs_sequential"] >= 3.0

    def test_sequential_seconds_positive(self, small_graph):
        def mk():
            return EFGBackend(efg_encode(small_graph), TITAN_XP.scaled(2048))

        assert sequential_seconds(mk, np.array([0, 1, 2])) > 0

    def test_metrics_section_shape(self, small_graph, service):
        service.submit(1)
        service.run()
        section = service.metrics_section()
        assert section["served"] == 1.0
        assert section["waves"] == 1.0
        assert section["qps"] > 0
        # Numeric-only leaves: the section must be diffable.
        def leaves(node):
            if isinstance(node, dict):
                for v in node.values():
                    yield from leaves(v)
            else:
                yield node
        assert all(isinstance(v, float) for v in leaves(section))

    def test_serve_section_in_run_metrics(self, small_graph, service):
        from repro.obs.metrics import run_metrics

        service.submit(1)
        service.run()
        payload = run_metrics(
            service.backend.engine,
            meta={"command": "serve"},
            sections={"serve": service.metrics_section()},
        )
        assert payload["serve"]["served"] == 1.0
        assert payload["counters"]["serve.queries.served"] == 1.0
        with pytest.raises(ValueError, match="reserved"):
            run_metrics(
                service.backend.engine, sections={"totals": {}}
            )


class TestServedRows:
    """Served level arrays: shared, read-only, 4 B per vertex per lane."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(scale=10, edge_factor=8, seed=1)

    @pytest.fixture(scope="class")
    def driven(self, graph):
        service = GraphService.from_graph(graph, fmt="efg", cache_kb=256)
        stream, classes = make_labeled_stream(graph.num_nodes, 200, seed=0)
        drive(service, stream, burst=96, classes=classes)
        return service

    def test_write_raises_and_cached_hit_is_intact(self, graph):
        service = GraphService.from_graph(graph, fmt="efg", cache_kb=256)
        service.submit(5)
        (done,) = service.step_wave()
        with pytest.raises(ValueError):
            done.levels[:] = 7
        service.submit(5)
        cached = service.results[-1]
        assert cached.status == "cached"
        assert np.array_equal(cached.levels, _reference_levels(graph, 5))

    def test_result_bytes_within_one_int32_row_per_lane(self, driven):
        # Count every buffer behind the served arrays once: a row view's
        # base is its wave's lane matrix, one int32 row per lane.
        buffers = {}
        for r in driven.results:
            if r.levels is not None:
                owner = r.levels if r.levels.base is None else r.levels.base
                buffers[id(owner)] = owner
        lanes_served = sum(
            len({r.source for r in driven.results if r.wave == wave})
            for wave in range(driven.num_waves)
        )
        held = sum(b.nbytes for b in buffers.values())
        assert held <= 4 * driven.backend.num_nodes * lanes_served, held

    @staticmethod
    def _digest(driven, with_service):
        # sha256 of the run's canonical metrics payload minus ``meta``
        # (which stamps the git sha).
        from repro.obs.metrics import run_metrics

        sections = {"serve": driven.metrics_section()}
        if with_service:
            sections["service"] = driven.service_section()
        payload = run_metrics(driven.backend.engine, meta={}, sections=sections)
        del payload["meta"]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def test_metrics_dump_pinned_without_service(self, driven):
        # How the served rows are stored and how telemetry is computed
        # must not move any simulated count, byte or second.
        assert self._digest(driven, with_service=False) == (
            "2d73152394218adf832accbe8f71d252b1f0bcced8220d8c76820c337f9fb112"
        )

    def test_metrics_dump_pinned(self, driven):
        # The full dump, ``service`` distributions (exact quantiles)
        # included.
        assert self._digest(driven, with_service=True) == (
            "eaa8e89656ea19966f5cf0f335da023c296a698cd452c05f9b7a9fb456369045"
        )
