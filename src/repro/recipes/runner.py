"""Recipe runner: execute an expanded recipe and emit its report.

One :func:`run_recipe` call walks the deterministic cell list from
:meth:`repro.recipes.spec.RecipeSpec.expand` and drives every cell
through the existing execution paths — :func:`repro.bench.harness.
run_profiled` for single-GPU cells, :class:`repro.dist.cluster.
ShardedCluster` plus the distributed drivers for multi-GPU cells — so
a recipe run prices exactly what ``repro profile`` / ``repro dist``
would price, knob for knob.

The report joins everything the observability stack already records:
the full per-cell metrics payloads (emulated hardware counters,
per-array attribution, roofline bounds, per-tier wire bytes, what-if
panels) under ``"runs"``, a compact per-cell summary table under
``"recipe"``, and — when a trajectory directory is supplied —
per-cell deltas against the latest bench entry under
``"trajectory_deltas"``.  Nothing in the payload depends on
wall-clock, so repeated invocations of the same recipe produce
byte-identical reports (CI gates this with ``cmp``).
"""

from __future__ import annotations

from repro.obs.metrics import METRICS_SCHEMA, git_sha
from repro.recipes.spec import RecipeCell, RecipeSpec, dataset_id

__all__ = [
    "build_cell_graph",
    "cell_summary",
    "run_recipe",
]


def build_cell_graph(dataset: dict, reorder: str):
    """Materialise one dataset spec and apply a vertex reorder."""
    if dataset["kind"] == "rmat":
        from repro.datasets.rmat import rmat_graph

        graph = rmat_graph(
            scale=dataset["scale"],
            edge_factor=dataset["edge_factor"],
            seed=dataset["seed"],
            name=dataset_id(dataset),
        )
    else:
        from repro.datasets.web import web_graph

        graph = web_graph(
            num_nodes=dataset["num_nodes"],
            avg_degree=dataset["edge_factor"],
            seed=dataset["seed"],
            name=dataset_id(dataset),
        )
    if reorder == "degree":
        from repro.reorder.degree import degree_order

        graph = graph.relabelled(degree_order(graph))
    elif reorder == "random":
        from repro.reorder.random_order import random_order

        graph = graph.relabelled(random_order(graph, seed=dataset["seed"]))
    return graph


def _run_serve(cell: RecipeCell, backend, graph, defaults) -> dict:
    """One serve cell: closed-loop drive over the recipe's backend.

    The backend is built by :func:`_run_single`, so the quantum/cache
    knobs price exactly as on the batch cells; the serve-only knobs
    (deadline mix, hot fraction) shape the query stream.  The payload
    carries both the PR 9 ``serve`` totals and the telemetry
    ``service`` section, so recipe grids can sweep deadline mixes and
    diff p99 latency.
    """
    from repro.obs.metrics import run_metrics
    from repro.serve import GraphService, drive, make_labeled_stream
    from repro.serve.container import GraphContainer
    from repro.serve.driver import parse_deadline_mix

    knobs = cell.knobs_dict
    service = GraphService(
        backend=backend, epoch=GraphContainer.from_graph(graph).epoch
    )
    deadline_mix = parse_deadline_mix(str(knobs.get("deadline_ms", "none")))
    sources, classes = make_labeled_stream(
        graph.num_nodes,
        defaults.serve_queries,
        hot_fraction=float(knobs.get("hot_fraction", 0.5)),
        seed=defaults.source_seed,
    )
    drive(
        service, sources, deadline_mix=deadline_mix,
        burst=defaults.serve_burst, classes=classes,
    )
    return run_metrics(
        service.backend.engine,
        meta=_cell_meta(cell, defaults),
        sections={
            "serve": service.metrics_section(),
            "service": service.service_section(),
        },
    )


def _run_single(cell: RecipeCell, graph, device, defaults) -> dict:
    """One single-GPU cell through :func:`run_profiled`."""
    from repro.bench.harness import make_weights, pick_sources, run_profiled
    from repro.traversal.backends import build_backend, encode

    knobs = cell.knobs_dict
    # The spec keeps ``quantum`` on EFG cells only.
    encode_kw = (
        {"quantum": int(knobs["quantum"])} if "quantum" in knobs else {}
    )
    needs_weights = cell.algo in ("sssp", "delta")
    backend = build_backend(
        cell.fmt,
        encode(cell.fmt, graph, **encode_kw),
        device,
        weight_bytes=4 * graph.num_edges if needs_weights else 0,
        cache_kb=int(knobs.get("cache_kb", 0)),
    )
    if cell.algo == "serve":
        return _run_serve(cell, backend, graph, defaults)
    kwargs: dict = {}
    if "sort_fraction" in knobs:
        kwargs["sort_fraction"] = float(knobs["sort_fraction"])
    source = 0
    sources = None
    if cell.algo == "msbfs":
        sources = pick_sources(
            graph, defaults.num_sources, seed=defaults.source_seed
        )
    elif cell.algo != "pagerank":
        source = int(pick_sources(graph, 1, seed=defaults.source_seed)[0])
    weights = None
    if cell.algo in ("sssp", "delta"):
        weights = make_weights(graph, defaults.weight_seed)
    run = run_profiled(
        cell.algo,
        backend,
        source=source,
        sources=sources,
        weights=weights,
        meta=_cell_meta(cell, defaults),
        **kwargs,
    )
    return run.metrics


def _run_dist(cell: RecipeCell, graph, device, defaults) -> dict:
    """One multi-GPU cell through the sharded-cluster drivers."""
    from repro.bench.harness import make_weights, pick_sources
    from repro.dist import ShardedCluster, build_topology, run_distributed
    from repro.dist.report import dist_run_metrics

    knobs = cell.knobs_dict
    topology = build_topology(
        cell.nodes,
        cell.gpus,
        device,
        defaults.link_gbs,
        defaults.inter_gbs,
        defaults.contention,
    )
    needs_weights = cell.algo == "sssp"
    cluster = ShardedCluster.build(
        graph,
        cell.gpus,
        device,
        fmt=cell.fmt,
        wire=str(knobs.get("wire", "auto")),
        schedule=str(
            knobs.get(
                "schedule", "hierarchical" if cell.nodes > 1 else "flat"
            )
        ),
        topology=topology,
        with_weights=needs_weights,
        overlap=bool(knobs.get("overlap", True)),
    )
    kwargs: dict = {}
    if "sort_fraction" in knobs:
        kwargs["sort_fraction"] = float(knobs["sort_fraction"])
    source = 0
    if cell.algo != "pagerank":
        source = int(pick_sources(graph, 1, seed=defaults.source_seed)[0])
    weights = None
    if needs_weights:
        weights = make_weights(graph, defaults.weight_seed)
    result = run_distributed(cluster, cell.algo, source, weights, **kwargs)
    payload = dist_run_metrics(cluster, meta=_cell_meta(cell, defaults))
    payload["totals"]["run_gteps"] = float(result.gteps)
    return payload


def _cell_meta(cell: RecipeCell, defaults) -> dict:
    return {
        "cell": cell.name,
        "dataset": dataset_id(cell.dataset_dict),
        "reorder": cell.reorder,
        "source_seed": defaults.source_seed,
        "weight_seed": defaults.weight_seed,
        "knobs": {str(k): v for k, v in cell.knobs},
    }


def cell_summary(cell: RecipeCell, payload: dict) -> dict:
    """The compact per-cell row joined into the recipe section.

    Pulls one number per observability layer: simulated seconds and
    byte totals (engine), GTEPS (driver), the bounding kernel and its
    roofline resource (PR 2), cached + wire/tier bytes (PR 5/6), and
    the best analytical what-if on file (PR 7) — the row the autotuner
    shortlists from.
    """
    totals = payload.get("totals", {})
    row: dict = {
        "seconds": float(totals.get("elapsed_seconds", 0.0)),
        "device_bytes": float(totals.get("device_bytes", 0.0)),
        "cached_bytes": float(totals.get("cached_bytes", 0.0)),
    }
    gauges = payload.get("gauges", {})
    gteps = totals.get("run_gteps", gauges.get("run.gteps"))
    if gteps is not None:
        row["gteps"] = float(gteps)
    roofline = payload.get("roofline", {})
    kernels = payload.get("kernels", {})
    if roofline and kernels:
        top = max(
            (k for k in roofline if k in kernels),
            key=lambda k: kernels[k].get("seconds", 0.0),
            default=None,
        )
        if top is not None:
            row["top_kernel"] = top
            row["top_kernel_bound"] = str(roofline[top].get("bound", ""))
    counters = payload.get("counters", {})
    if cell.is_dist:
        row["wire_bytes"] = float(counters.get("dist.wire_bytes", 0.0))
        tiers = payload.get("tiers", {})
        if cell.nodes > 1 and "inter" in tiers:
            row["inter_bytes"] = float(tiers["inter"].get("bytes", 0.0))
    serve = payload.get("serve")
    if serve is not None:
        service = payload.get("service", {})
        row["qps"] = float(serve.get("qps", 0.0))
        row["p99_latency_s"] = float(
            service.get("latency", {}).get("p99", 0.0)
        )
        row["miss_rate"] = float(
            service.get("rates", {}).get("miss_rate", 0.0)
        )
    whatif = payload.get("whatif", {})
    if whatif:
        best = min(
            whatif.items(),
            key=lambda kv: (kv[1].get("predicted_seconds", 0.0), kv[0]),
        )
        row["best_whatif"] = best[0]
        row["best_whatif_speedup"] = float(best[1].get("speedup", 1.0))
    return row


def _trajectory_delta(cell: RecipeCell, row: dict, baseline: dict) -> dict | None:
    """Delta of this cell's headline numbers vs the latest bench entry.

    Cells and bench workloads are matched on the ``algo/fmt`` key the
    bench suite uses; cells the suite never ran have no baseline and
    contribute no delta.
    """
    workloads = baseline.get("workloads", {})
    key = f"{cell.algo}/{cell.fmt}"
    if cell.is_dist:
        key = f"dist_{cell.algo}/{cell.knobs_dict.get('wire', 'auto')}"
    payload = workloads.get(key)
    if payload is None:
        return None
    base_seconds = float(
        payload.get("totals", {}).get("elapsed_seconds", 0.0)
    )
    if base_seconds <= 0.0:
        return None
    return {
        "workload": key,
        "baseline_seconds": base_seconds,
        "seconds": row["seconds"],
        "speedup": base_seconds / row["seconds"]
        if row["seconds"] > 0.0
        else 0.0,
    }


def run_recipe(
    spec: RecipeSpec,
    against: str | None = None,
    progress=None,
) -> dict:
    """Execute every cell of ``spec`` and assemble the recipe report.

    ``against`` names a trajectory directory (or single bench file);
    its latest readable entry supplies the trajectory deltas.
    ``progress`` is an optional callable receiving one line per cell
    (the CLI passes ``print``).
    """
    from repro.gpusim.device import TITAN_XP

    cells = spec.expand()
    defaults = spec.defaults
    device = TITAN_XP.scaled(defaults.device_scale)
    baseline = None
    if against is not None:
        from repro.bench.trajectory import load_bench

        baseline = load_bench(against)

    graphs: dict = {}
    recipe_rows: dict = {}
    runs: dict = {}
    deltas: dict = {}
    for cell in cells:
        gkey = (cell.dataset, cell.reorder)
        if gkey not in graphs:
            graphs[gkey] = build_cell_graph(cell.dataset_dict, cell.reorder)
        graph = graphs[gkey]
        if cell.is_dist:
            payload = _run_dist(cell, graph, device, defaults)
        else:
            payload = _run_single(cell, graph, device, defaults)
        row = cell_summary(cell, payload)
        recipe_rows[cell.name] = row
        runs[cell.name] = payload
        if baseline is not None:
            delta = _trajectory_delta(cell, row, baseline)
            if delta is not None:
                deltas[cell.name] = delta
        if progress is not None:
            progress(
                f"{cell.name}: {row['seconds'] * 1e3:.4f} ms simulated"
            )

    meta = {
        "recipe": spec.name,
        "cells": len(cells),
        "device_scale": defaults.device_scale,
        "source_seed": defaults.source_seed,
        "weight_seed": defaults.weight_seed,
        "git_sha": git_sha(),
        "schema_versions": {"metrics": METRICS_SCHEMA},
    }
    if baseline is not None:
        meta["against_suite"] = baseline.get("meta", {}).get("suite", {})
    report = {
        "schema": METRICS_SCHEMA,
        "meta": dict(sorted(meta.items())),
        "recipe": {name: dict(sorted(recipe_rows[name].items()))
                   for name in sorted(recipe_rows)},
        "runs": {name: runs[name] for name in sorted(runs)},
    }
    if baseline is not None:
        report["trajectory_deltas"] = {
            name: dict(sorted(deltas[name].items()))
            for name in sorted(deltas)
        }
    return report
