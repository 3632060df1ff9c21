"""Cross-format differential oracle (decode level and algorithm level).

Two layers of agreement checks, both over clean (uncorrupted) streams:

* **Decode level** — every compressed format must reproduce the
  uncompressed reference graph's flat neighbour stream bit-identically,
  and its freshly encoded container must pass its own integrity check.
* **Algorithm level** — BFS levels, SSSP distances and PageRank ranks
  must agree across the CSR / EFG / CGR simulator backends, and the
  single-GPU results must agree with the ``repro.dist`` sharded drivers
  (2 and 4 simulated GPUs).

BFS and SSSP are compared exactly: all backends feed the same
neighbour/segment streams to the same driver arithmetic, so any
difference is a decode bug, not float noise.  PageRank is compared with
a tight ``allclose`` because the sharded driver accumulates
contributions in a different order.
"""

from __future__ import annotations

import numpy as np

from repro.check.faults import FORMAT_ENCODERS, resolve_formats
from repro.formats.graph import Graph

__all__ = [
    "CHECK_DATASETS",
    "decode_differential",
    "algorithm_differential",
    "run_differential",
]

#: Suite graphs small enough for the CI differential sweep; the two
#: social entries cover both decode regimes (hub lists + long tails).
CHECK_DATASETS = ("scc-lj", "orkut")

#: Shard counts the dist drivers are cross-checked at.
DIST_GPUS = (2, 4)


def decode_differential(
    graph: Graph, fmts: tuple[str, ...] | None = None
) -> list[dict]:
    """Decode-level agreement of every format against ``graph``.

    Returns one row per format with ``agree`` (bit-identical flat
    neighbour stream) and ``integrity_ok`` (the clean container passes
    its own CRC check).
    """
    names = resolve_formats(fmts)
    reference = graph.elist.astype(np.int64, copy=False)
    rows: list[dict] = []
    for name in names:
        container = FORMAT_ENCODERS[name](graph)
        try:
            container.verify_integrity()
            integrity_ok = True
        except Exception:  # noqa: BLE001 - report, don't crash the sweep
            integrity_ok = False
        decoded = container.decode_all()
        agree = bool(np.array_equal(decoded, reference))
        rows.append(
            {
                "check": "decode",
                "graph": graph.name or "<anonymous>",
                "fmt": name,
                "edges": int(reference.shape[0]),
                "agree": agree,
                "integrity_ok": integrity_ok,
            }
        )
    return rows


def _dist_cluster(graph: Graph, gpus: int, with_weights: bool):
    from repro.dist import ShardedCluster
    from repro.gpusim.device import TITAN_XP

    return ShardedCluster.build(
        graph, gpus, TITAN_XP.scaled(2048), fmt="csr",
        with_weights=with_weights,
    )


def algorithm_differential(graph: Graph, seed: int = 0) -> list[dict]:
    """Algorithm-level agreement across backends and the dist drivers."""
    from repro.dist import (
        distributed_bfs,
        distributed_pagerank,
        distributed_sssp,
    )
    from repro.gpusim.device import TITAN_XP
    from repro.traversal.backends import GPU_FORMATS, build_backend
    from repro.traversal.bfs import bfs
    from repro.traversal.pagerank import pagerank
    from repro.traversal.sssp import sssp

    gname = graph.name or "<anonymous>"
    source = int(np.argmax(graph.degrees))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=graph.num_edges).astype(np.float32)
    rows: list[dict] = []

    def row(check: str, variant: str, agree: bool) -> None:
        rows.append(
            {
                "check": check,
                "graph": gname,
                "fmt": variant,
                "agree": bool(agree),
            }
        )

    # Every registered GPU format is checked against CSR; Ligra+ is a
    # CPU baseline outside the registry.
    device = TITAN_XP.scaled(2048)
    backends = {
        fmt: build_backend(
            fmt, graph, device, weight_bytes=4 * graph.num_edges
        )
        for fmt in GPU_FORMATS
    }
    ref_levels = bfs(backends["csr"], source).levels
    ref_dist = sssp(backends["csr"], source, weights).distances
    ref_ranks = pagerank(backends["csr"]).ranks
    for name, backend in backends.items():
        if name == "csr":
            continue
        row("bfs-levels", name, np.array_equal(
            bfs(backend, source).levels, ref_levels
        ))
        row("sssp-distances", name, np.array_equal(
            sssp(backend, source, weights).distances, ref_dist
        ))
        row("pagerank-ranks", name, np.allclose(
            pagerank(backend).ranks, ref_ranks, rtol=1e-9, atol=1e-12
        ))

    for gpus in DIST_GPUS:
        cluster = _dist_cluster(graph, gpus, with_weights=True)
        row(
            "bfs-levels", f"dist-{gpus}gpu",
            np.array_equal(distributed_bfs(cluster, source).levels, ref_levels),
        )
        row(
            "sssp-distances", f"dist-{gpus}gpu",
            np.array_equal(
                distributed_sssp(cluster, source, weights).distances, ref_dist
            ),
        )
        row(
            "pagerank-ranks", f"dist-{gpus}gpu",
            np.allclose(
                distributed_pagerank(cluster).ranks, ref_ranks,
                rtol=1e-9, atol=1e-12,
            ),
        )
    return rows


def run_differential(
    datasets: tuple[str, ...] = CHECK_DATASETS,
    seed: int = 0,
    graphs: list[Graph] | None = None,
    algorithms: bool = True,
) -> dict:
    """Run the full differential sweep; returns rows + disagreement count.

    ``graphs`` overrides ``datasets`` with explicit Graph objects (the
    CLI path for a user-supplied file).
    """
    if graphs is None:
        from repro.datasets.suite import build_suite_graph

        graphs = [build_suite_graph(name) for name in datasets]
    rows: list[dict] = []
    for graph in graphs:
        rows.extend(decode_differential(graph))
        if algorithms:
            rows.extend(algorithm_differential(graph, seed=seed))
    disagreements = sum(
        1 for r in rows if not (r["agree"] and r.get("integrity_ok", True))
    )
    return {"rows": rows, "disagreements": disagreements}
