"""Tests for the bucketed frontier exchange (flat/butterfly/hierarchical)."""

import numpy as np
import pytest

from repro.dist.exchange import exchange
from repro.dist.partition import VertexPartition
from repro.dist.topology import TIERS, LinkTopology
from repro.dist.wire import MESSAGE_HEADER_BYTES, get_codec

NV = 64


def _setup(num_gpus):
    return (
        VertexPartition.even(NV, num_gpus),
        LinkTopology(num_gpus=num_gpus, link_bandwidth=1e9),
    )


def _setup_two_tier(num_nodes, gpus_per_node):
    return (
        VertexPartition.even(NV, num_nodes * gpus_per_node),
        LinkTopology.two_tier(
            num_nodes=num_nodes,
            gpus_per_node=gpus_per_node,
            link_bandwidth=10e9,
            inter_bandwidth=1e9,
        ),
    )


def _bucketize(partition, per_gpu_ids):
    """Build outgoing[g][h] rows from each GPU's discovered id set."""
    num_gpus = partition.num_gpus
    outgoing = []
    for ids in per_gpu_ids:
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        cuts = np.searchsorted(ids, partition.boundaries)
        outgoing.append(
            [ids[cuts[h] : cuts[h + 1]] for h in range(num_gpus)]
        )
    return outgoing


class TestFlat:
    @pytest.mark.parametrize("wire", ["raw", "raw64", "bitmap", "varint", "auto"])
    def test_delivers_union_to_owner(self, rng, wire):
        partition, topology = _setup(4)
        discovered = [rng.integers(0, NV, size=20) for _ in range(4)]
        outgoing = _bucketize(partition, discovered)
        incoming, in_vals, stats = exchange(
            outgoing, partition, topology, get_codec(wire)
        )
        assert in_vals is None
        for h in range(4):
            lo, hi = partition.bounds(h)
            want = np.unique(
                np.concatenate(discovered)[
                    (np.concatenate(discovered) >= lo)
                    & (np.concatenate(discovered) < hi)
                ]
            )
            assert np.array_equal(incoming[h], want)

    def test_own_bucket_is_free(self):
        partition, topology = _setup(2)
        outgoing = _bucketize(partition, [[1, 2, 3], []])
        incoming, _, stats = exchange(
            outgoing, partition, topology, get_codec("raw")
        )
        assert stats.wire_bytes == 0
        assert stats.messages == 0
        assert stats.seconds == 0.0
        assert np.array_equal(incoming[0], [1, 2, 3])

    def test_byte_accounting_adds_up(self):
        partition, topology = _setup(2)
        ids = np.arange(NV // 2, NV // 2 + 10, dtype=np.int64)
        outgoing = _bucketize(partition, [ids, []])
        _, _, stats = exchange(outgoing, partition, topology, get_codec("raw"))
        assert stats.messages == 1
        assert stats.id_bytes == 4 * 10
        assert stats.header_bytes == MESSAGE_HEADER_BYTES
        assert stats.wire_bytes == (
            stats.id_bytes + stats.value_bytes + stats.header_bytes
        )
        assert stats.sent_ids == 10
        assert stats.received_ids_per_gpu.sum() == 10
        assert stats.rounds == 1

    def test_value_exchange_min_combines(self):
        partition, topology = _setup(2)
        v = NV - 1  # owned by GPU 1
        outgoing = [
            [np.empty(0, dtype=np.int64), np.array([v])],
            [np.empty(0, dtype=np.int64), np.array([v])],
        ]
        values = [
            [np.empty(0), np.array([7.0])],
            [np.empty(0), np.array([3.0])],
        ]
        incoming, in_vals, stats = exchange(
            outgoing, partition, topology, get_codec("raw"),
            values=values, combine="min",
        )
        assert np.array_equal(incoming[1], [v])
        assert in_vals[1].tolist() == [3.0]
        # Only GPU 0's copy crossed a link; GPU 1's stayed local.
        assert stats.value_bytes == 4

    def test_value_exchange_sum_combines(self):
        partition, topology = _setup(2)
        v = 0  # owned by GPU 0; one copy is local, one crosses the link
        outgoing = [
            [np.array([v]), np.empty(0, dtype=np.int64)],
            [np.array([v]), np.empty(0, dtype=np.int64)],
        ]
        values = [[np.array([1.5]), np.empty(0)],
                  [np.array([2.5]), np.empty(0)]]
        incoming, in_vals, _ = exchange(
            outgoing, partition, topology, get_codec("raw"),
            values=values, combine="sum",
        )
        assert in_vals[0].tolist() == [4.0]

    def test_values_need_combiner(self):
        partition, topology = _setup(2)
        outgoing = _bucketize(partition, [[1], []])
        values = [[np.array([1.0]), np.empty(0)], [np.empty(0), np.empty(0)]]
        with pytest.raises(ValueError):
            exchange(outgoing, partition, topology, get_codec("raw"),
                     values=values)

    def test_wrong_row_count(self):
        partition, topology = _setup(2)
        with pytest.raises(ValueError):
            exchange([[np.empty(0, dtype=np.int64)] * 2], partition,
                     topology, get_codec("raw"))

    def test_unknown_schedule(self):
        partition, topology = _setup(2)
        outgoing = _bucketize(partition, [[], []])
        with pytest.raises(ValueError):
            exchange(outgoing, partition, topology, get_codec("raw"),
                     schedule="ring")


class TestButterfly:
    @pytest.mark.parametrize("num_gpus", [2, 4, 8])
    @pytest.mark.parametrize("wire", ["raw", "bitmap", "varint", "auto"])
    def test_matches_flat_delivery(self, rng, num_gpus, wire):
        partition, topology = _setup(num_gpus)
        discovered = [rng.integers(0, NV, size=25) for _ in range(num_gpus)]
        outgoing = _bucketize(partition, discovered)
        flat, _, _ = exchange(
            outgoing, partition, topology, get_codec(wire), schedule="flat"
        )
        bfly, _, stats = exchange(
            outgoing, partition, topology, get_codec(wire),
            schedule="butterfly",
        )
        for h in range(num_gpus):
            assert np.array_equal(flat[h], bfly[h])
        assert stats.rounds == num_gpus.bit_length() - 1

    def test_value_min_matches_flat(self, rng):
        partition, topology = _setup(4)
        ids = [np.sort(rng.choice(NV, size=12, replace=False))
               for _ in range(4)]
        outgoing, values = [], []
        for g in range(4):
            cuts = np.searchsorted(ids[g], partition.boundaries)
            vals = rng.uniform(0, 10, size=ids[g].shape[0])
            outgoing.append([ids[g][cuts[h]:cuts[h + 1]] for h in range(4)])
            values.append([vals[cuts[h]:cuts[h + 1]] for h in range(4)])
        flat_ids, flat_vals, _ = exchange(
            outgoing, partition, topology, get_codec("auto"),
            values=values, combine="min", schedule="flat",
        )
        b_ids, b_vals, _ = exchange(
            outgoing, partition, topology, get_codec("auto"),
            values=values, combine="min", schedule="butterfly",
        )
        for h in range(4):
            assert np.array_equal(flat_ids[h], b_ids[h])
            assert np.array_equal(flat_vals[h], b_vals[h])

    def test_fewer_messages_than_flat(self, rng):
        # log-step schedule: at most log2(P) messages per GPU per level
        # versus P-1 for the flat all-to-all.
        partition, topology = _setup(8)
        discovered = [np.arange(NV) for _ in range(8)]  # worst case: dense
        outgoing = _bucketize(partition, discovered)
        _, _, flat = exchange(
            outgoing, partition, topology, get_codec("bitmap"),
            schedule="flat",
        )
        _, _, bfly = exchange(
            outgoing, partition, topology, get_codec("bitmap"),
            schedule="butterfly",
        )
        assert bfly.messages < flat.messages

    @pytest.mark.parametrize("num_gpus", [3, 5, 6, 7])
    @pytest.mark.parametrize("wire", ["raw", "varint", "auto"])
    def test_non_power_of_two_matches_flat(self, rng, num_gpus, wire):
        # GPUs beyond the largest power of two fold onto proxies for one
        # pre/post round each; delivery must still equal the flat union.
        partition, topology = _setup(num_gpus)
        discovered = [rng.integers(0, NV, size=25) for _ in range(num_gpus)]
        outgoing = _bucketize(partition, discovered)
        flat, _, _ = exchange(
            outgoing, partition, topology, get_codec(wire), schedule="flat"
        )
        bfly, _, stats = exchange(
            outgoing, partition, topology, get_codec(wire),
            schedule="butterfly",
        )
        for h in range(num_gpus):
            assert np.array_equal(flat[h], bfly[h])
        hypercube_rounds = (1 << (num_gpus.bit_length() - 1)).bit_length() - 1
        assert stats.rounds == hypercube_rounds + 2

    def test_non_power_of_two_value_min_matches_flat(self, rng):
        partition, topology = _setup(6)
        ids = [np.sort(rng.choice(NV, size=12, replace=False))
               for _ in range(6)]
        outgoing, values = [], []
        for g in range(6):
            cuts = np.searchsorted(ids[g], partition.boundaries)
            vals = rng.uniform(0, 10, size=ids[g].shape[0])
            outgoing.append([ids[g][cuts[h]:cuts[h + 1]] for h in range(6)])
            values.append([vals[cuts[h]:cuts[h + 1]] for h in range(6)])
        flat_ids, flat_vals, _ = exchange(
            outgoing, partition, topology, get_codec("auto"),
            values=values, combine="min", schedule="flat",
        )
        b_ids, b_vals, _ = exchange(
            outgoing, partition, topology, get_codec("auto"),
            values=values, combine="min", schedule="butterfly",
        )
        for h in range(6):
            assert np.array_equal(flat_ids[h], b_ids[h])
            assert np.array_equal(flat_vals[h], b_vals[h])


class TestHierarchical:
    @pytest.mark.parametrize(
        "num_nodes,gpus_per_node", [(2, 2), (2, 4), (3, 2), (2, 3), (4, 1)]
    )
    @pytest.mark.parametrize("wire", ["raw", "ef", "auto"])
    def test_matches_flat_delivery(self, rng, num_nodes, gpus_per_node, wire):
        partition, topology = _setup_two_tier(num_nodes, gpus_per_node)
        num_gpus = num_nodes * gpus_per_node
        discovered = [rng.integers(0, NV, size=25) for _ in range(num_gpus)]
        outgoing = _bucketize(partition, discovered)
        flat, _, _ = exchange(
            outgoing, partition, topology, get_codec(wire), schedule="flat"
        )
        hier, _, stats = exchange(
            outgoing, partition, topology, get_codec(wire),
            schedule="hierarchical",
        )
        for h in range(num_gpus):
            assert np.array_equal(flat[h], hier[h])
        assert stats.rounds == 3

    def test_single_node_is_one_intra_round(self, rng):
        partition, topology = _setup_two_tier(1, 4)
        discovered = [rng.integers(0, NV, size=20) for _ in range(4)]
        outgoing = _bucketize(partition, discovered)
        flat, _, _ = exchange(
            outgoing, partition, topology, get_codec("raw"), schedule="flat"
        )
        hier, _, stats = exchange(
            outgoing, partition, topology, get_codec("raw"),
            schedule="hierarchical",
        )
        for h in range(4):
            assert np.array_equal(flat[h], hier[h])
        assert stats.rounds == 1
        assert stats.tier_bytes["inter"] == 0

    def test_value_min_matches_flat(self, rng):
        partition, topology = _setup_two_tier(2, 3)
        num_gpus = 6
        ids = [np.sort(rng.choice(NV, size=12, replace=False))
               for _ in range(num_gpus)]
        outgoing, values = [], []
        for g in range(num_gpus):
            cuts = np.searchsorted(ids[g], partition.boundaries)
            vals = rng.uniform(0, 10, size=ids[g].shape[0])
            outgoing.append(
                [ids[g][cuts[h]:cuts[h + 1]] for h in range(num_gpus)]
            )
            values.append(
                [vals[cuts[h]:cuts[h + 1]] for h in range(num_gpus)]
            )
        for combine in ("min", "sum"):
            flat_ids, flat_vals, _ = exchange(
                outgoing, partition, topology, get_codec("auto"),
                values=values, combine=combine, schedule="flat",
            )
            h_ids, h_vals, _ = exchange(
                outgoing, partition, topology, get_codec("auto"),
                values=values, combine=combine, schedule="hierarchical",
            )
            for h in range(num_gpus):
                assert np.array_equal(flat_ids[h], h_ids[h])
                assert np.allclose(flat_vals[h], h_vals[h])

    def test_tier_bytes_sum_to_wire_bytes(self, rng):
        partition, topology = _setup_two_tier(2, 4)
        discovered = [rng.integers(0, NV, size=30) for _ in range(8)]
        outgoing = _bucketize(partition, discovered)
        _, _, stats = exchange(
            outgoing, partition, topology, get_codec("varint"),
            schedule="hierarchical",
        )
        assert sum(stats.tier_bytes[t] for t in TIERS) == stats.wire_bytes
        assert sum(stats.tier_messages[t] for t in TIERS) == stats.messages
        assert stats.tier_bytes["inter"] > 0

    def test_crosses_slow_tier_once_per_node_pair(self):
        # Dense frontier on every GPU: the flat all-to-all sends one
        # message per cross-node GPU pair, hierarchical exactly one per
        # ordered node pair.
        partition, topology = _setup_two_tier(2, 4)
        discovered = [np.arange(NV) for _ in range(8)]
        outgoing = _bucketize(partition, discovered)
        _, _, flat = exchange(
            outgoing, partition, topology, get_codec("raw"), schedule="flat"
        )
        _, _, hier = exchange(
            outgoing, partition, topology, get_codec("raw"),
            schedule="hierarchical",
        )
        assert flat.tier_messages["inter"] == 2 * 4 * 4
        assert hier.tier_messages["inter"] == 2
        assert hier.tier_bytes["inter"] < flat.tier_bytes["inter"]

    def test_flat_butterfly_tiers_also_sum(self, rng):
        # The per-tier invariant holds for every schedule, not just the
        # hierarchical one that motivated it.
        partition, topology = _setup_two_tier(2, 2)
        discovered = [rng.integers(0, NV, size=20) for _ in range(4)]
        outgoing = _bucketize(partition, discovered)
        for schedule in ("flat", "butterfly"):
            _, _, stats = exchange(
                outgoing, partition, topology, get_codec("raw"),
                schedule=schedule,
            )
            assert (
                sum(stats.tier_bytes[t] for t in TIERS) == stats.wire_bytes
            )


class TestPinnedDumps:
    """sha256 of whole metrics dumps (minus ``meta``, which stamps the
    git sha) for runs whose steps the bench suite does not cover: the
    butterfly fold and unfold steps of a non-power-of-two count, and
    PageRank's allreduce sync record.  How a step is sent, recorded and
    priced must not move any byte, second or what-if prediction.  The
    PageRank pin prices each allreduce message on the tier it crosses
    (three intra-node and four inter-node peers per GPU on 2 x 4)."""

    @staticmethod
    def _digest(argv, tmp_path, capsys):
        import hashlib
        import json

        from repro.cli import main

        path = str(tmp_path / "m.json")
        assert main([*argv, "--metrics", path]) == 0
        capsys.readouterr()
        with open(path) as fh:
            payload = json.load(fh)
        del payload["meta"]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def test_butterfly_fold_and_unfold(self, tmp_path, capsys):
        argv = ["dist", "bfs", "--gpus", "6", "--schedule", "butterfly"]
        assert self._digest(argv, tmp_path, capsys) == (
            "5f9364ae192c28e60206c010c29d059eda52309a03c00116496c2d779558bb4d"
        )

    def test_hierarchical_pagerank_sync(self, tmp_path, capsys):
        argv = [
            "dist", "pagerank", "--gpus", "8", "--nodes", "2",
            "--schedule", "hierarchical",
        ]
        assert self._digest(argv, tmp_path, capsys) == (
            "a358a7ede26fa9b832dcef959444bb9ce78ef535849e39da023753bdd4a892ed"
        )

    def test_hierarchical_pagerank_overlap_auto(self, tmp_path, capsys):
        # Valued exchanges, per-codec tallies under auto, the overlap
        # counter and the allreduce sync, all rebuilt from the charges.
        argv = [
            "dist", "pagerank", "--gpus", "8", "--nodes", "2",
            "--schedule", "hierarchical", "--overlap", "--wire", "auto",
        ]
        assert self._digest(argv, tmp_path, capsys) == (
            "975ce1130857eab601635b82c10d1f5c1465d547cba049def47506f70a56e09d"
        )

    def test_butterfly_sssp_overlap_bitmap(self, tmp_path, capsys):
        argv = [
            "dist", "sssp", "--gpus", "6", "--schedule", "butterfly",
            "--overlap", "--wire", "bitmap",
        ]
        assert self._digest(argv, tmp_path, capsys) == (
            "881b5cf270c57605acc3cbfd155508442abe913734765c493c08a2305c9be447"
        )
