"""Trace shape of every traversal driver, pinned as literals.

Each driver's kernel launch-name sequence and each level span's
attribute keys, in order, are what the profile reports, the Perfetto
exporter, the critical-path extractor and the what-if replay read.  A
refactor of the level scaffolding must leave them exactly as they are;
these literals were recorded from the hand-written drivers.  Level
spans carry the drivers' facts only: a level's costs are its launch
records and, on a cluster, its level charge.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import traversal
from repro.datasets.rmat import rmat_graph
from repro.dist import (
    ShardedCluster,
    distributed_bfs,
    distributed_pagerank,
    distributed_sssp,
)
from repro.gpusim.device import TITAN_XP
from repro.traversal.backends import build_backend
from repro.traversal.bfs import bfs
from repro.traversal.delta_stepping import delta_stepping_sssp
from repro.traversal.direction_optimizing import bfs_direction_optimizing
from repro.traversal.msbfs import msbfs
from repro.traversal.pagerank import pagerank
from repro.traversal.sssp import sssp

_DIST_ALGO = ("num_gpus", "fmt", "wire", "schedule")

#: driver -> (algorithm span name, algorithm attr keys, launch names
#: (one string per GPU for the distributed drivers), level count,
#: level attr keys).
SHAPES = {
    "bfs": (
        "bfs", ("source", "partial_sort"),
        "bfs_expand bfs_filter bfs_expand bfs_filter frontier_sort "
        "bfs_expand bfs_filter frontier_sort bfs_expand bfs_filter "
        "frontier_sort bfs_expand bfs_filter bfs_expand bfs_filter",
        6,
        ("level", "frontier_size", "edges_expanded", "claimed"),
    ),
    "dobfs": (
        "direction_optimizing", ("source", "alpha", "beta"),
        "bfs_top_down bfs_filter bfs_top_down bfs_filter bfs_top_down "
        "bfs_filter bfs_bottom_up bfs_top_down bfs_filter",
        5,
        ("level", "frontier_size", "direction", "edges_expanded", "claimed"),
    ),
    "msbfs": (
        "msbfs", ("num_sources", "num_lanes"),
        " ".join(["msbfs_expand msbfs_update"] * 6),
        6,
        ("level", "frontier_size", "edges_expanded", "source_edges",
         "claimed"),
    ),
    "sssp": (
        "sssp", ("source",),
        " ".join(["sssp_relax sssp_update sssp_scatter"] * 7),
        7,
        ("level", "frontier_size", "edges_expanded", "improved"),
    ),
    "delta": (
        "delta_stepping", ("source", "delta"),
        "ds_relax " + " ".join(["ds_relax ds_update"] * 13),
        5,
        ("level", "frontier_size", "light_phases", "edges_expanded"),
    ),
    "pagerank": (
        "pagerank", ("damping", "max_iterations"),
        " ".join(["pr_push pr_finalize"] * 3),
        3,
        ("level", "edges_expanded", "rank_delta"),
    ),
    "dist_bfs": (
        "dist_bfs", _DIST_ALGO + ("source",),
        (
            "dist_expand dist_pack dist_claim dist_expand dist_pack "
            "dist_claim dist_sort dist_expand dist_pack dist_claim "
            "dist_sort dist_expand dist_pack dist_claim dist_sort "
            "dist_expand dist_pack dist_claim dist_claim",
            "dist_claim dist_claim dist_sort dist_expand dist_pack "
            "dist_claim dist_sort dist_expand dist_pack dist_claim "
            "dist_sort dist_expand dist_pack dist_claim dist_expand "
            "dist_pack dist_claim",
        ),
        6,
        ("level", "frontier_size", "claimed"),
    ),
    "dist_sssp": (
        "dist_sssp", _DIST_ALGO + ("source",),
        (
            " ".join(["dist_relax dist_pack dist_update"] * 6)
            + " dist_update",
            "dist_update dist_update "
            + " ".join(["dist_relax dist_pack dist_update"] * 5),
        ),
        7,
        ("level", "frontier_size", "improved"),
    ),
    "dist_pagerank": (
        "dist_pagerank", _DIST_ALGO + ("damping", "max_iterations"),
        (" ".join(["dist_pr_push dist_pack dist_pr_finalize"] * 3),) * 2,
        3,
        ("level", "rank_delta"),
    ),
}

#: single-GPU SHAPES key -> (driver, how ``_run`` calls it on a backend
#: and the edge weights).
SINGLE_GPU = {
    "bfs": (bfs, lambda f, b, w: f(b, 0)),
    "dobfs": (
        bfs_direction_optimizing,
        lambda f, b, w: f(b, source=0, alpha=2.0, beta=4.0),
    ),
    "msbfs": (msbfs, lambda f, b, w: f(b, np.array([0, 3, 9]))),
    "sssp": (sssp, lambda f, b, w: f(b, 0, w)),
    "delta": (delta_stepping_sssp, lambda f, b, w: f(b, 0, w, delta=0.5)),
    "pagerank": (pagerank, lambda f, b, w: f(b, max_iterations=3)),
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=6, edge_factor=4, seed=5, directed=False)


@pytest.fixture(scope="module")
def weights(graph):
    rng = np.random.default_rng(1)
    return rng.uniform(0.1, 1.0, graph.num_edges).astype(np.float32)


def _run(driver, graph, weights):
    """Run ``driver``; return its tracer and the engines it launched on."""
    device = TITAN_XP.scaled(2048)
    if driver.startswith("dist_"):
        cluster = ShardedCluster.build(graph, 2, device, with_weights=True)
        if driver == "dist_bfs":
            distributed_bfs(cluster, 0)
        elif driver == "dist_sssp":
            distributed_sssp(cluster, 0, weights)
        else:
            distributed_pagerank(cluster, max_iterations=3)
        return cluster.tracer, [b.engine for b in cluster.backends]
    backend = build_backend(
        "efg", graph, device, weight_bytes=4 * graph.num_edges
    )
    run, call = SINGLE_GPU[driver]
    call(run, backend, weights)
    return backend.engine.tracer, [backend.engine]


@pytest.mark.parametrize("driver", list(SHAPES))
def test_trace_shape_is_pinned(driver, graph, weights):
    algo_name, algo_keys, launches, num_levels, level_keys = SHAPES[driver]
    tracer, engines = _run(driver, graph, weights)
    (algo,) = tracer.root.find("algorithm")
    assert algo.name == algo_name
    assert tuple(algo.attrs) == algo_keys
    names = tuple(" ".join(r.name for r in e.records) for e in engines)
    assert names == (launches if driver.startswith("dist_") else (launches,))
    levels = [tuple(s.attrs) for s in tracer.root.find("level")]
    assert levels == [level_keys] * num_levels


def test_every_exported_driver_is_pinned():
    """Each driver ``repro.traversal`` exports runs the level scaffold.

    A public function that is not a ``reference_*`` or ``validate_*``
    helper must be a driver with a pinned ``SHAPES`` entry; one that
    skips ``SimEngine.algorithm`` has no trace shape to pin and fails
    here by name.
    """
    pinned = {
        run.__name__ for key, (run, _) in SINGLE_GPU.items() if key in SHAPES
    }
    public = {
        name
        for name in traversal.__all__
        if inspect.isfunction(getattr(traversal, name))
        and not name.startswith(("reference_", "validate_"))
    }
    assert sorted(public - pinned) == []
