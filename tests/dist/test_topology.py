"""Tests for the per-link exchange cost model."""

import numpy as np
import pytest

from repro.dist.topology import TIERS, LinkTopology, tier_record


def _even(n, val):
    return np.full(n, float(val))


def _record(egress, ingress, messages, tier="intra"):
    """A one-tier step record; every GPU posts ``messages``."""
    egress = np.asarray(egress, dtype=np.float64)
    posted = np.full(egress.shape[0], messages)
    return {tier: tier_record(egress, np.asarray(ingress, float), posted)}

class TestValidation:
    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=2, link_bandwidth=0)

    def test_rejects_bad_contention(self):
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=2, contention=1.5)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=2, message_latency_s=-1e-6)


class TestStepModel:
    def test_single_gpu_is_free(self):
        topo = LinkTopology(num_gpus=1)
        assert topo.step_seconds(_record([1e9], [1e9], 4)) == 0.0

    def test_no_bytes_no_latency(self):
        # An exchange step with nothing to send costs nothing, even if
        # the caller reports posted messages.
        topo = LinkTopology(num_gpus=4)
        row = _record(_even(4, 0), _even(4, 0), 3)["intra"]
        assert topo.tier_seconds("intra", row) == (0.0, 0.0)

    def test_zero_contention_is_busiest_link(self):
        topo = LinkTopology(
            num_gpus=4, link_bandwidth=1e9, contention=0.0,
            message_latency_s=0.0,
        )
        egress = np.array([4e6, 1e6, 1e6, 1e6])
        ingress = np.array([1e6, 1e6, 1e6, 4e6])
        # Busiest direction of the busiest link serializes; the rest
        # overlaps completely.
        assert topo.step_seconds(_record(egress, ingress, 3)) == (
            pytest.approx(4e6 / 1e9)
        )

    def test_full_contention_is_single_pipe(self):
        topo = LinkTopology(
            num_gpus=4, link_bandwidth=1e9, contention=1.0,
            message_latency_s=0.0,
        )
        egress = _even(4, 1e6)
        assert topo.step_seconds(_record(egress, egress, 3)) == (
            pytest.approx(egress.sum() / 1e9)
        )

    def test_latency_scales_with_messages(self):
        topo = LinkTopology(
            num_gpus=2, link_bandwidth=1e9, message_latency_s=1e-6
        )
        one = topo.tier_seconds(
            "intra", _record(_even(2, 8), _even(2, 8), 1)["intra"]
        )
        three = topo.tier_seconds(
            "intra", _record(_even(2, 8), _even(2, 8), 3)["intra"]
        )
        assert one[0] == three[0]
        assert three[1] - one[1] == pytest.approx(2e-6)

    def test_halved_bandwidth_doubles_transfer(self):
        topo = LinkTopology(
            num_gpus=4, link_bandwidth=2e9, message_latency_s=0.0
        )
        egress = _even(4, 1e6)
        slow = topo.scaled_bandwidth(0.5)
        record = _record(egress, egress, 3)
        assert slow.step_seconds(record) == pytest.approx(
            2 * topo.step_seconds(record)
        )

    def test_slowest_tier_binds(self):
        topo = LinkTopology.two_tier(
            num_nodes=2, gpus_per_node=2,
            link_bandwidth=10e9, inter_bandwidth=1e9,
            message_latency_s=0.0,
        )
        egress = _even(4, 1e6)
        record = {**_record(egress, egress, 1),
                  **_record(egress / 2, egress / 2, 1, tier="inter")}
        assert topo.step_seconds(record) == sum(
            topo.tier_seconds("inter", record["inter"])
        )

    def test_scaled_bandwidth_validation(self):
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=2).scaled_bandwidth(0)


class TestForDevice:
    def test_latency_follows_launch_overhead(self):
        from repro.gpusim.device import TITAN_XP

        device = TITAN_XP.scaled(2048)
        topo = LinkTopology.for_device(device, 4)
        assert topo.message_latency_s == device.launch_overhead_s
        assert topo.num_gpus == 4


class TestTwoTier:
    def test_node_layout(self):
        topo = LinkTopology.two_tier(num_nodes=2, gpus_per_node=4)
        assert topo.num_gpus == 8
        assert topo.num_nodes == 2
        assert topo.node_size == 4
        assert [topo.node_of(g) for g in range(8)] == [0] * 4 + [1] * 4
        assert topo.tier(0, 3) == "intra"
        assert topo.tier(3, 4) == "inter"
        assert topo.tier(7, 0) == "inter"
        assert TIERS == ("intra", "inter")

    def test_single_tier_is_one_node(self):
        topo = LinkTopology(num_gpus=4)
        assert topo.num_nodes == 1
        assert topo.node_size == 4
        assert topo.tier(0, 3) == "intra"

    def test_inter_params_fall_back_to_intra(self):
        topo = LinkTopology.two_tier(
            num_nodes=2, gpus_per_node=2,
            link_bandwidth=5e9, inter_bandwidth=1e9,
            contention=0.25, message_latency_s=2e-6,
        )
        assert topo.tier_params("intra") == (5e9, 0.25, 2e-6)
        # Unset inter contention/latency inherit the intra values.
        assert topo.tier_params("inter") == (1e9, 0.25, 2e-6)

    def test_inter_overrides(self):
        topo = LinkTopology.two_tier(
            num_nodes=2, gpus_per_node=2,
            inter_bandwidth=1e9, inter_contention=1.0, inter_latency_s=1e-3,
        )
        bw, cont, lat = topo.tier_params("inter")
        assert (bw, cont, lat) == (1e9, 1.0, 1e-3)

    def test_slow_tier_costs_more(self):
        topo = LinkTopology.two_tier(
            num_nodes=2, gpus_per_node=2,
            link_bandwidth=10e9, inter_bandwidth=1e9,
            message_latency_s=0.0,
        )
        egress = _even(4, 1e6)
        fast = topo.step_seconds(_record(egress, egress, 1, tier="intra"))
        slow = topo.step_seconds(_record(egress, egress, 1, tier="inter"))
        assert slow == pytest.approx(10 * fast)

    def test_scaled_bandwidth_scales_both_tiers(self):
        topo = LinkTopology.two_tier(
            num_nodes=2, gpus_per_node=2,
            link_bandwidth=4e9, inter_bandwidth=2e9,
        )
        slow = topo.scaled_bandwidth(0.5)
        assert slow.link_bandwidth == 2e9
        assert slow.tier_params("inter")[0] == 1e9

    def test_rejects_bad_gpus_per_node(self):
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=6, gpus_per_node=4)
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=4, gpus_per_node=0)

    def test_rejects_bad_inter_params(self):
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=4, gpus_per_node=2, inter_bandwidth=0.0)
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=4, gpus_per_node=2, inter_contention=2.0)
        with pytest.raises(ValueError):
            LinkTopology(num_gpus=4, gpus_per_node=2, inter_latency_s=-1.0)

    def test_degenerate_one_gpu_per_node(self):
        # Every link crosses nodes: the intra tier is never exercised.
        topo = LinkTopology.two_tier(num_nodes=4, gpus_per_node=1)
        assert topo.num_gpus == 4
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert topo.tier(a, b) == "inter"
