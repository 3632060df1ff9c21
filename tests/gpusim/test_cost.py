"""Tests for the analytic cost model."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.cost import (
    AccessPattern,
    CostModel,
    CostParams,
    KernelCost,
    stream_transfer_bytes,
)
from repro.gpusim.device import TITAN_XP
from repro.gpusim.memory import MemoryManager, Residency
from repro.obs.roofline import _analyze


@pytest.fixture
def model():
    mm = MemoryManager(capacity_bytes=1000)
    mm.register("dev_array", 100)
    mm.register("host_array", 5000)
    return CostModel(device=TITAN_XP, memory=mm)


class TestStreamTransferBytes:
    def test_sequential_is_compact(self):
        ids = np.arange(1000)
        # 4 B elements sequential: 4000 bytes -> 125 sectors of 32 B.
        assert stream_transfer_bytes(ids, 4, 32) == 125 * 32

    def test_scattered_pays_full_sectors(self):
        ids = np.arange(1000) * 1000
        assert stream_transfer_bytes(ids, 4, 32) == 1000 * 32

    def test_repeats_merge(self):
        ids = np.zeros(100, dtype=np.int64)
        assert stream_transfer_bytes(ids, 4, 32) == 32

    def test_empty(self):
        assert stream_transfer_bytes(np.array([], dtype=np.int64), 4, 32) == 0

    def test_sorted_beats_shuffled(self, rng):
        ids = rng.integers(0, 4000, size=3000)
        shuffled = stream_transfer_bytes(ids, 4, 32)
        ordered = stream_transfer_bytes(np.sort(ids), 4, 32)
        assert ordered < shuffled

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            stream_transfer_bytes(np.array([1]), 0, 32)


class TestEffectiveBytes:
    def test_coalesced(self, model):
        assert model.effective_bytes(100, 4, AccessPattern.COALESCED,
                                     Residency.DEVICE) == 400

    def test_random_device_sector(self, model):
        assert model.effective_bytes(100, 4, AccessPattern.RANDOM,
                                     Residency.DEVICE) == 100 * 32

    def test_random_host_cacheline(self, model):
        assert model.effective_bytes(100, 4, AccessPattern.RANDOM,
                                     Residency.HOST) == 100 * 128

    def test_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.effective_bytes(-1, 4, AccessPattern.COALESCED,
                                  Residency.DEVICE)


class TestCharging:
    def test_charge_routes_by_residency(self, model):
        cost = KernelCost(name="k")
        model.charge(cost, "dev_array", 10, 4, AccessPattern.COALESCED)
        model.charge(cost, "host_array", 10, 4, AccessPattern.COALESCED)
        assert cost.device_bytes == 40
        assert cost.host_bytes == 40
        assert cost.breakdown["dev_array"] == 40

    def test_kernel_seconds_max_rule(self, model):
        # Exactly 1 second of DRAM, nothing else.
        terms = model.time_terms(1, 417.4e9, 0.0, 0.0, 0.0, 0.0)
        assert terms["memory"] == pytest.approx(1.0)
        assert model.total_seconds(terms) == pytest.approx(
            1.0 + TITAN_XP.launch_overhead_s
        )

    def test_link_time_dominates_when_host(self, model):
        # 1 second of PCIe against 1/100 s of DRAM.
        terms = model.time_terms(1, 417.4e9 / 100, 12.1e9, 0.0, 0.0, 0.0)
        assert model.total_seconds(terms) == pytest.approx(
            1.0 + TITAN_XP.launch_overhead_s
        )

    def test_floor_seconds_enforced(self, model):
        cost = KernelCost(name="k")
        cost.floor_seconds = 2.0
        assert model.kernel_seconds(cost) >= 2.0

    def test_compute_derating(self, model):
        # 1 instruction at peak would be ~1/6e12 s; with 15% efficiency
        # it is ~6.7x slower.
        peak = TITAN_XP.instruction_throughput
        t = model.compute_seconds(peak)
        assert t == pytest.approx(1 / 0.15)


class TestCostParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostParams(simt_efficiency=0.0)
        with pytest.raises(ValueError):
            CostParams(simt_efficiency=1.5)
        with pytest.raises(ValueError):
            CostParams(warp_width=0)


class TestCachedReads:
    def test_charge_cached_accumulates(self, model):
        cost = KernelCost("hit")
        model.charge_cached(cost, "efg_decoded", 100, 4)
        assert cost.cached_bytes == 400
        assert cost.breakdown["cache:efg_decoded"] == 400
        assert cost.device_bytes == 0
        assert cost.host_bytes == 0

    def test_cache_time_scales_by_ratio(self):
        mm = MemoryManager(capacity_bytes=10**9)
        model = CostModel(device=TITAN_XP, memory=mm)
        big = 10**12  # large enough to dominate every floor
        dram = model.time_terms(1, big, 0.0, 0.0, 0.0, 0.0)
        cached = model.time_terms(1, 0.0, 0.0, big, 0.0, 0.0)
        ratio = model.params.cached_bw_ratio
        overhead = TITAN_XP.launch_overhead_s
        assert model.total_seconds(dram) - overhead == pytest.approx(
            ratio * (model.total_seconds(cached) - overhead), rel=1e-6
        )

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            CostParams(cached_bw_ratio=0.5)


# -- the one byte ledger ----------------------------------------------------

_ARRAYS = ("dev_array", "host_array")

_charge = st.tuples(
    st.just("charge"),
    st.sampled_from(_ARRAYS),
    st.integers(0, 10_000),
    st.sampled_from((1, 4, 8, 64, 200)),
    st.sampled_from(list(AccessPattern)),
)
_stream = st.tuples(
    st.just("stream"),
    st.sampled_from(_ARRAYS),
    st.lists(st.integers(0, 1 << 20), max_size=80),
    st.sampled_from((1, 4, 8)),
)
_cached = st.tuples(
    st.just("cached"),
    st.sampled_from(("efg_decoded", "lists")),
    st.integers(0, 10_000),
    st.sampled_from((4, 8)),
)


def _old_terms(model, launches, device, host, cached, instructions, floor):
    """The pricing arithmetic as it stood inline before it was shared."""
    dev, params = model.device, model.params
    return {
        "overhead": launches * dev.launch_overhead_s,
        "memory": device / dev.dram_bandwidth,
        "pcie": host / dev.link_bandwidth,
        "cache": cached / (dev.dram_bandwidth * params.cached_bw_ratio),
        "compute": instructions
        / (dev.instruction_throughput * params.simt_efficiency),
        "latency": floor,
    }


def _old_bound(terms):
    overlapped = {k: v for k, v in terms.items() if k != "overhead"}
    bound, peak = max(overlapped.items(), key=lambda kv: kv[1])
    return "overhead" if terms["overhead"] > peak else bound


class TestLedger:
    @given(
        ops=st.lists(st.one_of(_charge, _stream, _cached), max_size=40),
        instructions=st.floats(0, 1e12),
        floor=st.floats(0, 1e-3),
        launches=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_derived_columns_match_running_sums(
        self, ops, instructions, floor, launches
    ):
        mm = MemoryManager(capacity_bytes=1000)
        mm.register("dev_array", 100)
        mm.register("host_array", 5000)
        model = CostModel(device=TITAN_XP, memory=mm)
        unit = {"dev_array": TITAN_XP.sector_bytes,
                "host_array": TITAN_XP.link_line_bytes}
        column = {"dev_array": "device", "host_array": "host"}
        cost = KernelCost("k", instructions=instructions,
                          floor_seconds=floor, launches=launches)
        sums = {"device": 0.0, "host": 0.0, "cache": 0.0}
        per_array: dict[str, float] = {}
        for op in ops:
            if op[0] == "charge":
                _, array, count, elem, pattern = op
                model.charge(cost, array, count, elem, pattern)
                if pattern is AccessPattern.COALESCED:
                    moved = count * elem
                else:
                    moved = count * max(elem, unit[array])
                key, residency = array, column[array]
            elif op[0] == "stream":
                _, array, ids, elem = op
                ids = np.asarray(ids, dtype=np.int64)
                model.charge_stream(cost, array, ids, elem)
                moved = stream_transfer_bytes(ids, elem, unit[array])
                key, residency = array, column[array]
            else:
                _, tag, count, elem = op
                model.charge_cached(cost, tag, count, elem)
                moved = count * elem
                key, residency = f"cache:{tag}", "cache"
            sums[residency] += moved
            per_array[key] = per_array.get(key, 0.0) + moved

        assert cost.device_bytes == sums["device"]
        assert cost.host_bytes == sums["host"]
        assert cost.cached_bytes == sums["cache"]
        assert list(cost.breakdown.items()) == list(per_array.items())
        snap = cost.snapshot()
        assert snap.breakdown == cost.breakdown
        assert snap.traffic is not cost.traffic

        old = _old_terms(model, launches, sums["device"], sums["host"],
                         sums["cache"], instructions, floor)
        terms = model.time_terms(launches, cost.device_bytes,
                                 cost.host_bytes, cost.cached_bytes,
                                 instructions, floor)
        assert terms == old
        assert model.kernel_seconds(cost) == old["overhead"] + max(
            old["memory"], old["pcie"], old["cache"], old["compute"],
            old["latency"],
        )
        bound, roofline_terms = _analyze(
            SimpleNamespace(model=model), launches, cost.device_bytes,
            cost.host_bytes, cost.cached_bytes, instructions, floor,
        )
        assert roofline_terms == old
        assert bound == _old_bound(old)
