"""Distributed BFS's visited views: each id is sent at most once.

Every GPU drops the neighbours its view already holds (its own claimed
slice plus the remote ids it has sent) before the pack.  The drops must
never change a level, and every count that reports traversal work
(``edges_traversed``, each level's ``edges``, the ``dist_bfs.gteps``
gauge) must keep counting the *expanded* neighbours.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.rmat import rmat_graph
from repro.dist import LinkTopology, ShardedCluster, distributed_bfs
from repro.dist.report import (
    dist_report,
    dist_run_metrics,
    verify_dist_attribution,
)
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph
from repro.gpusim.device import TITAN_XP
from repro.traversal.backends import CSRBackend
from repro.traversal.bfs import bfs

DEVICE = TITAN_XP.scaled(2048)


def _topology(schedule, num_gpus, two_nodes):
    """Two nodes for a hierarchical run that can split evenly; else the
    device's one-node fabric."""
    if schedule == "hierarchical" and two_nodes and num_gpus % 2 == 0:
        return LinkTopology.two_tier(2, num_gpus // 2)
    return LinkTopology.for_device(DEVICE, num_gpus)


def _recording_pack(cluster):
    """Wrap ``cluster.pack`` to record ``(level, gpu, buckets)`` per call."""
    sent = []
    pack = cluster.pack

    def recording(gpu, ids, values=None, combine=None, view=None):
        buckets, vals = pack(gpu, ids, values, combine, view)
        sent.append((len(cluster.charges), gpu, buckets))
        return buckets, vals

    cluster.pack = recording
    return sent


@st.composite
def bfs_case(draw):
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    graph = Graph.from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
    )
    return (
        graph,
        draw(st.integers(0, n - 1)),
        draw(st.sampled_from(["flat", "butterfly", "hierarchical"])),
        draw(st.sampled_from(["raw", "bitmap", "varint", "ef", "auto"])),
        draw(st.sampled_from([1, 3, 8])),
        draw(st.booleans()),
    )


@given(case=bfs_case())
@settings(max_examples=60, deadline=None)
def test_views_send_each_id_once_and_keep_levels(case):
    graph, source, schedule, wire, num_gpus, two_nodes = case
    single = bfs(CSRBackend(CSRGraph.from_graph(graph), DEVICE), source)
    cluster = ShardedCluster.build(
        graph, num_gpus, DEVICE, wire=wire, schedule=schedule,
        topology=_topology(schedule, num_gpus, two_nodes),
    )
    sent = _recording_pack(cluster)
    r = distributed_bfs(cluster, source)

    assert np.array_equal(r.levels, single.levels)
    # The single-GPU driver drops nothing, so its count is the
    # unfiltered one.
    assert r.edges_traversed == single.edges_traversed
    assert r.edges_traversed == sum(c.edges for c in cluster.charges)
    for charge in cluster.charges:
        assert charge.edges == charge.filtered + charge.packed

    ever_sent = [np.empty(0, dtype=np.int64)] * num_gpus
    for level, gpu, buckets in sent:
        ids = np.concatenate(buckets)
        # No GPU sends an id twice in one run...
        assert not np.isin(ids, ever_sent[gpu]).any(), (level, gpu)
        ever_sent[gpu] = np.concatenate([ever_sent[gpu], ids])
        # ...nor an id it owns that was visited when the level began.
        own = buckets[gpu]
        held = (r.levels[own] >= 0) & (r.levels[own] <= level)
        assert not held.any(), (level, gpu, own[held])


@pytest.fixture(scope="module")
def rmat_run():
    graph = rmat_graph(scale=10, edge_factor=8, seed=3)
    cluster = ShardedCluster.build(graph, 4, DEVICE, wire="ef")
    return distributed_bfs(cluster, int(np.argmax(graph.degrees))), graph


def test_gteps_gauge_counts_expanded_neighbours(rmat_run):
    r, graph = rmat_run
    cluster = r.cluster
    expanded = int(graph.degrees[r.levels >= 0].sum())
    filtered = sum(c.filtered for c in cluster.charges)
    # The views drop a real share of the expanded neighbours here...
    assert 0 < filtered < expanded
    assert cluster.metrics.counters["dist.filtered_ids"] == filtered
    # ...yet the gauge's numerator is every expanded neighbour.
    assert r.edges_traversed == expanded
    gauge = cluster.metrics.gauges["dist_bfs.gteps"]
    assert gauge == expanded / cluster.clock / 1e9


def test_filtered_ids_reach_the_dump_and_the_report(rmat_run):
    r, _ = rmat_run
    cluster = r.cluster
    levels = dist_run_metrics(cluster)["levels"]
    assert [row["filtered_ids"] for row in levels.values()] == [
        float(c.filtered) for c in cluster.charges
    ]
    report = dist_report(cluster).splitlines()
    assert "filtered" in report[1].split()
    for line, charge in zip(report[2:], cluster.charges):
        assert line.split()[3] == str(charge.filtered)


def test_attribution_catches_filtered_ids_leaking_out_of_edges(rmat_run):
    r, _ = rmat_run
    cluster = r.cluster
    charge = next(c for c in cluster.charges if c.filtered)
    original = charge.edges
    charge.edges = charge.packed
    try:
        with pytest.raises(AssertionError, match="expanded ids"):
            verify_dist_attribution(cluster)
    finally:
        charge.edges = original
    verify_dist_attribution(cluster)
