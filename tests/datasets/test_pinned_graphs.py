"""Pin generated graphs byte for byte.

Every generator, trim and symmetrize step sorts and dedups its edges in
``Graph.from_edges``.  A change to that dedup that reorders or drops a
single edge changes the sha256 of ``vlist`` + ``elist`` here, so it fails
by name instead of through a drifting benchmark number.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets import (
    build_suite_graph,
    rmat_graph,
    uniform_random_graph,
    web_graph,
)
from repro.datasets.rmat import SOCIAL_PARAMS

PINNED = {
    # CI's smoke graph.
    "rmat-s10-e8-seed1": (
        lambda: rmat_graph(10, 8, seed=1),
        1024, 6643,
        "e1eee2d4402a394ac17f026158a930558da4105e6fca198784d0de53f89d4379",
    ),
    "rmat-s16-e16-seed3": (
        lambda: rmat_graph(16, 16, seed=3),
        65536, 955263,
        "0d9303d16bfbadb58a348617320d50a0377a5cd5139d84113d27c232aeab3a33",
    ),
    "rmat-s12-e8-seed5-social-symmetrized": (
        lambda: rmat_graph(12, 8, SOCIAL_PARAMS, seed=5).symmetrized(),
        4096, 63832,
        "2a1f78798fc014b42d6fde846fc452fa00887fbe6ee2e679e778bd8d105a028a",
    ),
    "rmat-s11-e8-seed2-undirected": (
        lambda: rmat_graph(11, 8, seed=2, directed=False),
        2048, 13934,
        "42b42b2adbbd4c62a9eafd211d7e9574bea876339af2de37fe6b4b9429e59084",
    ),
    "urnd-4096-40000-seed4": (
        lambda: uniform_random_graph(4096, 40_000, seed=4),
        4096, 39947,
        "62bc993a2a875ef456c802c707802c7eac2c9caafeec5d3644a19cdc18e1b7e9",
    ),
    "web-4096-d12-seed6": (
        lambda: web_graph(4096, 12, seed=6),
        4096, 62458,
        "4b65f8bf20207dd9a50933b59472025d09aaa1736b8ba2b9985d6d338a21fce7",
    ),
    # The suite path: generate, then trim back to the Table II target.
    "suite-scc-lj": (
        lambda: build_suite_graph("scc-lj"),
        2048, 33642,
        "d8a661cd8412154f1c0361da03738f3a152e3f44072d25b1402ba91b3dbde789",
    ),
    # Symmetrize, then the pairwise symmetric trim.
    "suite-scc-lj_sym": (
        lambda: build_suite_graph("scc-lj_sym"),
        2048, 42100,
        "515151278fba82b999ce6a6bcc7a2890b0262acae7213bce65ad8398ef2936ea",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_graph_is_pinned(name):
    build, nodes, edges, digest = PINNED[name]
    graph = build()
    assert (graph.num_nodes, graph.num_edges) == (nodes, edges)
    got = hashlib.sha256(graph.vlist.tobytes() + graph.elist.tobytes())
    assert got.hexdigest() == digest
