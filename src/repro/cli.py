"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info <container|edges.txt>``
    Dataset statistics plus the sizes every format would take — EFG's
    a-priori bound means this needs no actual compression.
``encode <container|edges.txt> -o out.npz``
    Compress to EFG and report ratio/encode time.
``serve <container|edges.txt> [--build-from GRAPH] [--queries N]
[--deadline-ms MIX] [--hot-fraction F] [--baseline] [--metrics m.json]``
    Stand up the resident graph service (``repro.serve``): open an
    O(1) mmap container (or build one with ``--build-from``, or read an
    edge list directly), then drive a deterministic closed-loop query
    stream through batched 64-wide msbfs waves with admission limits,
    per-query deadlines, and a ``(source, epoch)`` result LRU.  Prints
    per-status counts and simulated queries/sec; ``--baseline`` also
    replays the stream one ``bfs`` at a time and prints the batching
    speedup.
``profile <algo> [graph] [--trace out.json] [--metrics m.json]``
    Run one algorithm under full telemetry: prints runtime/GTEPS,
    residency, the list-cache hit rate when ``--cache-kb`` attaches a
    decoded-list cache, and the roofline report (per-kernel and
    per-level bound labels); optionally writes a Perfetto trace with
    nested spans + counter tracks and a stable-schema metrics JSON.
    Without a graph a deterministic RMAT graph is generated, so two
    invocations are byte-identical.
``dist <algo> [graph] [--gpus N] [--nodes M] [--fmt csr|efg]
[--wire CODEC] [--schedule flat|butterfly|hierarchical] [--overlap]``
    Sharded traversal (bfs/sssp/pagerank) over N simulated GPUs with a
    compressed frontier exchange; prints the per-level exchange
    breakdown and optionally writes a stable-schema metrics JSON.
    ``--nodes M`` splits the GPUs across M nodes (two-tier topology:
    fast intra-node links, slow ``--inter-gbs`` fabric), ``--wire ef``
    picks the Elias-Fano frontier codec, and ``--overlap`` turns on
    the async exchange/compute pipeline in the cost model.
``compare <a.json> <b.json> [--threshold PCT]``
    Diff two metrics dumps per kernel and per cost term.  Exit codes:
    0 = within threshold, 1 = regression past the threshold, 2 =
    unreadable/invalid input (CI perf gate).
``whatif <algo> [graph] [--set KEY=VALUE ...] [--rank]``
    Critical-path + what-if replay on a recorded distributed run
    (default: BFS on a pinned RMAT graph over 2 nodes x 4 GPUs,
    hierarchical schedule, ef wire codec, overlap on).  Prints the
    critical-path breakdown, re-prices the run under the ``--set``
    scenario without re-running the traversal, and ``--rank`` prints
    the standard scenario panel ordered by predicted speedup.  A wire
    codec swap (``--set wire=X``, the panel's ``wire X`` rows) runs the
    workload again with that codec.  Every prediction equals an actual
    re-run bit-for-bit.  Exit 2, before any run, on an unknown knob, a
    malformed --set or a bad value.
``bench [--out-dir D] [--against FILE|DIR] [--threshold PCT]
[--source-seed S]``
    Run the pinned workload suite (BFS/SSSP/PageRank x csr/efg/cgr on
    a seeded RMAT graph) and append ``BENCH_<n>.json`` — full emulated
    counters, simulated times, git sha and schema versions — to the
    bench trajectory.  With ``--against`` the new entry is gated
    against a baseline entry (or the latest readable one in a
    directory; only a fully unreadable baseline exits 2) and the
    command exits non-zero on any relative regression past the
    threshold.
``check [graph] [--fuzz N --seed S]``
    Decode-path verification: N seeded fault injections per compressed
    format (classified ok / detected / silent-corruption /
    foreign-exception) plus the cross-format differential oracle
    (decode-level and BFS/SSSP/PageRank agreement, single-GPU and
    sharded).  Exits non-zero on any silent corruption, foreign
    exception, or disagreement.
``suite``
    List the scaled paper suite with sizes and memory regions.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

__all__ = ["build_parser", "main"]


# -- shared argument handling ---------------------------------------------


def _load(path: str):
    """Open a container base path, else read a text edge list.

    A missing, unreadable or corrupt file, or one naming more vertices
    than memory holds, exits with one line, not a traceback.
    """
    from repro.core.errors import DecodeError
    from repro.formats.io import read_edge_list
    from repro.serve.container import is_container, open_container

    try:
        if is_container(path):
            return open_container(path).to_graph()
        return read_edge_list(path, name=path)
    except (OSError, ValueError, DecodeError, MemoryError) as exc:
        raise SystemExit(f"cannot open {path}: {exc}") from exc


def _graph(args: argparse.Namespace):
    """The ``graph`` file, else the seeded RMAT graph; plus a display name."""
    if args.graph is not None:
        return _load(args.graph), args.graph
    from repro.datasets.rmat import rmat_graph

    graph = rmat_graph(
        scale=args.rmat_scale, edge_factor=args.edge_factor, seed=args.seed
    )
    return graph, (
        f"rmat(scale={args.rmat_scale},ef={args.edge_factor},seed={args.seed})"
    )


def _source(args: argparse.Namespace, graph) -> int:
    """``--source``, checked against |V|; a vertex without out-edges
    falls back to the highest-degree one."""
    source = args.source
    if not 0 <= source < graph.num_nodes:
        raise SystemExit(
            f"--source must be in [0, {graph.num_nodes}), got {source}"
        )
    if graph.degrees[source] == 0:
        source = int(np.argmax(graph.degrees))
        print(f"source {args.source} has no out-edges; using {source}")
    return source


def _sample_sources(args: argparse.Namespace, graph) -> np.ndarray:
    """``--num-sources`` out-edge vertices drawn with ``--seed``."""
    from repro.bench.harness import pick_sources
    from repro.traversal.msbfs import MAX_SOURCES

    if not 1 <= args.num_sources <= MAX_SOURCES:
        raise SystemExit(f"--num-sources must be in [1, {MAX_SOURCES}]")
    try:
        return pick_sources(graph, args.num_sources, seed=args.seed)
    except ValueError as exc:
        raise SystemExit("graph has no vertex with out-edges") from exc


def _device(args: argparse.Namespace):
    """The Titan Xp shrunk by ``--device-scale``."""
    from repro.gpusim.device import TITAN_XP

    return TITAN_XP.scaled(args.device_scale)


def _cli_backend(args: argparse.Namespace, graph, weight_bytes: int = 0):
    """The ``--format`` backend on :func:`_device`, with ``--cache-kb``."""
    from repro.traversal.backends import build_backend

    if args.cache_kb < 0:
        raise SystemExit(f"--cache-kb must be >= 0, got {args.cache_kb}")
    return build_backend(
        args.format, graph, _device(args),
        weight_bytes=weight_bytes, cache_kb=args.cache_kb,
    )


def _check_layout(args: argparse.Namespace) -> None:
    if args.gpus < 1:
        raise SystemExit(f"--gpus must be >= 1, got {args.gpus}")
    if args.nodes < 1:
        raise SystemExit(f"--nodes must be >= 1, got {args.nodes}")
    if args.nodes > 1 and args.gpus % args.nodes:
        raise SystemExit(
            f"--gpus {args.gpus} not divisible by --nodes {args.nodes}"
        )


def _topology(args: argparse.Namespace):
    """The ``LinkTopology`` the cluster flags describe, layout checked."""
    from repro.dist import build_topology

    _check_layout(args)
    return build_topology(
        args.nodes, args.gpus, _device(args),
        args.link_gbs, args.inter_gbs, args.contention,
    )


def _cluster_runner(args: argparse.Namespace, graph):
    """``run(wire, overlap) -> (cluster, result)``: ``args.algo`` on a
    fresh ``ShardedCluster`` the cluster flags describe, from one
    source (SSSP weights seeded by ``--seed``)."""
    from repro.bench.harness import make_weights
    from repro.dist import ShardedCluster, run_distributed

    topology = _topology(args)
    device = _device(args)
    source = args.source if args.algo == "pagerank" else _source(args, graph)
    weights = make_weights(graph, args.seed) if args.algo == "sssp" else None

    def run(wire: str, overlap: bool):
        cluster = ShardedCluster.build(
            graph, args.gpus, device,
            fmt=args.fmt, wire=wire, schedule=args.schedule,
            topology=topology, with_weights=args.algo == "sssp",
            overlap=overlap,
        )
        return cluster, run_distributed(cluster, args.algo, source, weights)

    return run


def _cluster_label(args: argparse.Namespace, overlap: bool) -> str:
    layout = (
        f"{args.nodes} nodes x {args.gpus // args.nodes} GPUs"
        if args.nodes > 1 else f"{args.gpus} GPUs"
    )
    return (
        f"{args.fmt} dist-{args.algo} on {layout} "
        f"(wire={args.wire}, schedule={args.schedule}"
        f"{', overlap' if overlap else ''}): "
    )


def _threshold(args: argparse.Namespace) -> float:
    """``--threshold`` (percent) as a relative fraction."""
    if args.threshold < 0:
        raise SystemExit(f"--threshold must be >= 0, got {args.threshold}")
    return args.threshold / 100.0


def _gate(args: argparse.Namespace, cmp) -> int:
    """Print a comparison; exit status 1 when a key moved past threshold."""
    from repro.obs.compare import format_comparison

    print(format_comparison(cmp))
    if cmp.ok:
        return 0
    print(
        f"\nFAIL: {len(cmp.regressions)} key(s) moved more than "
        f"{args.threshold:.2f}%"
    )
    return 1


# -- commands ---------------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.efg import efg_encode
    from repro.formats.cgr import cgr_encode
    from repro.formats.csr import CSRGraph
    from repro.formats.ligra_plus import ligra_encode

    graph = _load(args.graph)
    stats = graph.stats()
    for key, value in stats.items():
        print(f"{key:16s}: {value}")
    csr = CSRGraph.from_graph(graph).nbytes
    print(f"{'csr_bytes':16s}: {csr:,}")
    efg = efg_encode(graph).nbytes
    print(f"{'efg_bytes':16s}: {efg:,}  ({csr / efg:.2f}x)")
    if args.all_formats:
        cgr = cgr_encode(graph).nbytes
        lig = ligra_encode(graph).nbytes
        print(f"{'cgr_bytes':16s}: {cgr:,}  ({csr / cgr:.2f}x)")
        print(f"{'ligra_bytes':16s}: {lig:,}  ({csr / lig:.2f}x)")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.core.efg import efg_encode
    from repro.formats.csr import CSRGraph

    graph = _load(args.graph)
    t0 = time.perf_counter()
    efg = efg_encode(graph, quantum=args.quantum)
    elapsed = time.perf_counter() - t0
    csr = CSRGraph.from_graph(graph).nbytes
    print(
        f"encoded {graph.num_edges:,} edges in {elapsed:.2f}s: "
        f"{csr:,} -> {efg.nbytes:,} bytes ({csr / efg.nbytes:.2f}x)"
    )
    if args.output:
        np.savez_compressed(
            args.output,
            vlist=efg.vlist,
            num_lower_bits=efg.num_lower_bits,
            offsets=efg.offsets,
            data=efg.data,
            quantum=np.int64(efg.quantum),
        )
        print(f"wrote {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.metrics import dump_metrics, run_metrics
    from repro.serve import (
        GraphService,
        drive,
        make_labeled_stream,
        parse_deadline_mix,
        save_container,
        serve_report,
        with_sequential_baseline,
    )

    if args.build_from:
        graph = _load(args.build_from)
        container = save_container(graph, args.target)
        print(
            f"built container {args.target}.{{offsets,graph,meta}}: "
            f"{container.num_nodes:,} vertices, {container.num_edges:,} "
            f"edges, epoch {container.epoch}"
        )
        if args.build_only:
            return 0

    graph = _load(args.target)
    try:
        service = GraphService.from_graph(
            graph, fmt=args.format, device=_device(args),
            cache_kb=args.cache_kb, max_pending=args.max_pending,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"serving epoch {service.epoch} ({args.format}, "
          f"{graph.num_nodes:,} vertices)")

    try:
        deadline_mix = parse_deadline_mix(args.deadline_ms)
    except ValueError as exc:
        raise SystemExit(f"--deadline-ms: {exc}") from exc

    try:
        sources, classes = make_labeled_stream(
            graph.num_nodes, args.queries,
            hot_fraction=args.hot_fraction, seed=args.seed,
        )
        drive(service, sources, deadline_mix=deadline_mix,
              burst=args.burst, classes=classes)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.baseline:
        def _mk():
            return _cli_backend(args, graph)
        seq = with_sequential_baseline(service, _mk, sources)

    section = service.metrics_section()
    counts = ", ".join(f"{k}={int(v)}" for k, v in section["queries"].items())
    print(
        f"{len(sources)} queries in {int(section['waves'])} waves: "
        f"{counts}"
    )
    print(
        f"batched: {section['elapsed_seconds'] * 1e3:.3f} ms simulated, "
        f"{section['qps']:,.0f} queries/sec"
    )
    if args.baseline:
        gauges = service.backend.engine.metrics.gauges
        print(
            f"sequential: {seq * 1e3:.3f} ms simulated, "
            f"{gauges['serve.qps_sequential']:,.0f} queries/sec "
            f"({gauges['serve.speedup_vs_sequential']:.2f}x batching speedup)"
        )
    print()
    print(serve_report(service))
    if args.metrics:
        payload = run_metrics(
            service.backend.engine,
            meta={
                "command": "serve",
                "graph": args.target,
                "format": args.format,
                "epoch": service.epoch,
                "queries": args.queries,
                "seed": args.seed,
            },
            sections={
                "serve": service.metrics_section(),
                "service": service.service_section(),
            },
        )
        dump_metrics(payload, args.metrics)
        print(f"wrote {args.metrics}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bench.harness import make_weights, run_profiled
    from repro.obs.export import write_perfetto_trace
    from repro.obs.metrics import dump_metrics

    graph, graph_name = _graph(args)
    needs_weights = args.algo in ("sssp", "delta")
    backend = _cli_backend(
        args, graph, 4 * graph.num_edges if needs_weights else 0
    )
    weights = make_weights(graph, args.seed) if needs_weights else None
    source = args.source if args.algo == "pagerank" else _source(args, graph)
    sources = _sample_sources(args, graph) if args.algo == "msbfs" else None

    run = run_profiled(
        args.algo,
        backend,
        source=source,
        sources=sources,
        weights=weights,
        meta={"graph": graph_name, "seed": str(args.seed)},
    )
    result = run.result
    fits = "resident" if backend.graph_fits_in_memory() else "out-of-core"
    print(
        f"{args.format} {args.algo}: "
        f"{result.sim_seconds * 1e3:.3f} ms simulated"
        + (f", {result.gteps:.2f} GTEPS" if hasattr(result, "gteps") else "")
        + f" ({fits})"
    )
    if backend.cache is not None:
        st = backend.cache.stats
        print(
            f"list cache: {st.hits}/{st.lookups} hits "
            f"({100 * st.hit_rate:.1f}%), {st.bytes_saved:,.0f} "
            f"compressed bytes saved"
        )
    print()
    print(run.report)
    if args.counters:
        from repro.obs.counters import counters_report

        print()
        print(counters_report(backend.engine))
    if args.trace:
        write_perfetto_trace(backend.engine, args.trace)
        print(f"\nwrote Perfetto trace to {args.trace}")
    if args.metrics:
        dump_metrics(run.metrics, args.metrics)
        print(f"wrote metrics to {args.metrics}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.trajectory import (
        BenchConfig,
        bench_payload,
        compare_bench,
        load_bench,
        next_seq,
        run_bench_suite,
        write_bench,
    )

    threshold = _threshold(args)
    config = BenchConfig(
        rmat_scale=args.rmat_scale,
        edge_factor=args.edge_factor,
        seed=args.seed,
        source_seed=args.source_seed,
        device_scale=args.device_scale,
    )
    workloads = run_bench_suite(config)
    seq = args.seq if args.seq is not None else next_seq(args.out_dir)
    payload = bench_payload(workloads, seq=seq, config=config)
    totals = {
        name: m["totals"]["elapsed_seconds"]
        for name, m in payload["workloads"].items()
    }
    print(f"bench suite: {len(totals)} workloads "
          f"(rmat scale={config.rmat_scale}, ef={config.edge_factor}, "
          f"seed={config.seed})")
    for name in sorted(totals):
        print(f"  {name:16s} {totals[name] * 1e3:9.4f} ms simulated")
    crossover = payload.get("crossover") or {}
    for tier in sorted(crossover):
        row = crossover[tier]
        print(
            f"  {tier} tier: raw {row['raw_bytes']:,.0f} B / "
            f"ef {row['ef_bytes']:,.0f} B, raw/ef exchange time "
            f"{row['raw_over_ef']:.2f}x"
        )
    targets = payload.get("whatif_targets") or {}
    if targets:
        print("top what-if targets:")
        for name in sorted(targets):
            row = targets[name]
            print(
                f"  {name:16s} {row['scenario']:24s} "
                f"{row['speedup']:.4f}x predicted"
            )
    if not args.no_write:
        path = write_bench(payload, args.out_dir)
        print(f"wrote {path}")
    if not args.against:
        return 0
    # A missing or unreadable trajectory must degrade into a clear
    # exit-2 diagnostic, never a raw traceback: load_bench already
    # skips unreadable entries, and everything it can still raise is
    # mapped here.
    try:
        baseline = load_bench(args.against)
        cmp = compare_bench(baseline, payload, threshold=threshold)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"\nagainst BENCH_{baseline['meta']['seq']} "
        f"(git {baseline['meta']['git_sha']}):"
    )
    return _gate(args, cmp)


def _cmd_dist(args: argparse.Namespace) -> int:
    from repro.dist.report import dist_report, dist_run_metrics
    from repro.dist.topology import TIERS
    from repro.obs.metrics import dump_metrics

    graph, graph_name = _graph(args)
    cluster, result = _cluster_runner(args, graph)(args.wire, args.overlap)
    if args.algo == "bfs":
        summary = f"{result.num_levels} levels"
    else:
        summary = f"{result.iterations} iterations"
        if args.algo == "pagerank" and result.converged:
            summary += " (converged)"
    print(
        _cluster_label(args, args.overlap)
        + f"{result.runtime_ms:.3f} ms simulated, {result.gteps:.2f} GTEPS, "
        f"{summary}, {result.exchanged_bytes:,} wire bytes"
    )
    if args.nodes > 1:
        counters = cluster.metrics.counters
        split = ", ".join(
            f"{tier} {int(counters.get(f'dist.tier.{tier}.bytes', 0)):,} B"
            for tier in TIERS
        )
        print(f"tier split: {split}")
    if args.overlap:
        print(
            f"overlapped: {result.overlapped_seconds * 1e3:.3f} ms of "
            f"exchange hidden under compute"
        )
    print()
    print(dist_report(cluster))
    if args.metrics:
        payload = dist_run_metrics(
            cluster,
            meta={"algo": args.algo, "graph": graph_name,
                  "seed": str(args.seed)},
        )
        dump_metrics(payload, args.metrics)
        print(f"\nwrote metrics to {args.metrics}")
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.obs.critpath import (
        critpath_report_line,
        extract_cluster_critical_path,
    )
    from repro.obs.whatif import (
        CLUSTER_KNOBS,
        cluster_scenario,
        parse_sets,
        rank_cluster_whatifs,
        whatif_cluster,
    )

    # Check every --set key and value up front: a bad scenario must fail
    # before the (comparatively expensive) baseline run, not after.
    try:
        sets = parse_sets(args.set, known=CLUSTER_KNOBS)
        cluster_scenario(_topology(args), sets)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    graph, _ = _graph(args)
    overlap = not args.no_overlap
    run = _cluster_runner(args, graph)
    cluster, result = run(args.wire, overlap)

    def rerun(wire: str):
        return run(wire, overlap)[0]

    print(
        _cluster_label(args, overlap)
        + f"{result.runtime_ms:.6f} ms simulated baseline"
    )
    print(critpath_report_line(extract_cluster_critical_path(cluster)))
    # The baseline run checked its critical path when it ended.
    print("verify_critpath: ok")
    if sets:
        scenario = whatif_cluster(cluster, sets, rerun)
        print(
            f"\nwhat-if {scenario.name}: "
            f"{scenario.predicted_seconds * 1e3:.6f} ms predicted, "
            f"{scenario.speedup:.4f}x speedup"
        )
    if args.rank:
        print("\ntop optimization targets:")
        print(f"{'scenario':28s} {'predicted ms':>14s} {'speedup':>9s}")
        for r in rank_cluster_whatifs(cluster, rerun):
            print(
                f"{r.name:28s} {r.predicted_seconds * 1e3:14.6f} "
                f"{r.speedup:8.4f}x"
            )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs.compare import compare_metrics, load_metrics

    threshold = _threshold(args)
    try:
        a = load_metrics(args.metrics_a)
        b = load_metrics(args.metrics_b)
        cmp = compare_metrics(a, b, threshold=threshold)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _gate(args, cmp)


def _cmd_check(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.check.differential import CHECK_DATASETS, run_differential
    from repro.check.faults import (
        OUTCOMES,
        default_fuzz_graph,
        run_fault_campaign,
    )
    from repro.check.report import check_report
    from repro.obs.metrics import dump_metrics

    if args.fuzz < 0:
        raise SystemExit(f"--fuzz must be >= 0, got {args.fuzz}")
    if args.graph is not None:
        graphs = [_load(args.graph)]
        fuzz_graph = graphs[0]
        dataset_names = (args.graph,)
    else:
        graphs = None
        fuzz_graph = default_fuzz_graph()
        dataset_names = CHECK_DATASETS

    faults = run_fault_campaign(fuzz_graph, trials=args.fuzz, seed=args.seed)
    differential = run_differential(
        datasets=dataset_names, seed=args.seed, graphs=graphs,
        algorithms=not args.decode_only,
    )
    report = check_report(
        faults, differential,
        meta={
            "fuzz_trials": str(args.fuzz),
            "seed": str(args.seed),
            "datasets": ",".join(dataset_names),
        },
    )
    fail = report["failures"]
    counts = Counter((r.fmt, r.outcome) for r in faults)
    for fmt in sorted({fmt for fmt, _ in counts}):
        n = sum(counts[fmt, outcome] for outcome in OUTCOMES)
        print(
            f"{fmt:6s}: {n} faults injected -> {counts[fmt, 'detected']} "
            f"detected, {counts[fmt, 'ok']} inert, "
            f"{counts[fmt, 'silent-corruption']} silent, "
            f"{counts[fmt, 'foreign-exception']} foreign"
        )
    agree = sum(
        1 for r in differential["rows"]
        if r["agree"] and r.get("integrity_ok", True)
    )
    print(
        f"differential: {agree}/{len(differential['rows'])} checks agree "
        f"across {len(dataset_names)} graph(s)"
    )
    for r in differential["rows"]:
        if not (r["agree"] and r.get("integrity_ok", True)):
            print(f"  DISAGREE: {r}")
    if args.metrics:
        dump_metrics(report, args.metrics)
        print(f"wrote metrics to {args.metrics}")
    bad = (
        fail["silent_corruption"]
        + fail["foreign_exceptions"]
        + fail["differential_disagreements"]
    )
    if bad:
        print(
            f"FAIL: {fail['silent_corruption']} silent corruption(s), "
            f"{fail['foreign_exceptions']} foreign exception(s), "
            f"{fail['differential_disagreements']} disagreement(s)"
        )
        return 1
    print("OK: no silent corruption, no foreign exceptions, no disagreements")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.datasets.suite import build_suite_graph, suite_entries
    from repro.formats.csr import CSRGraph
    from repro.gpusim.device import TITAN_XP

    cap = TITAN_XP.scaled(2048).memory_bytes
    print(f"{'graph':16s} {'category':8s} {'|V|':>8s} {'|E|':>9s} "
          f"{'CSR MB':>8s} region")
    for entry in suite_entries(include_v100=args.v100):
        graph = build_suite_graph(entry.name)
        csr = CSRGraph.from_graph(graph).nbytes
        region = "fits" if csr < cap else "out-of-core"
        print(
            f"{entry.name:16s} {entry.category:8s} {graph.num_nodes:8,d} "
            f"{graph.num_edges:9,d} {csr / 1e6:8.2f} {region}"
        )
    return 0


# -- parser -------------------------------------------------------------------


def _checked(kind, ok, wanted: str):
    """An argparse ``kind`` (``int``/``float``) type that also requires
    ``ok(value)``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return parse


_POSITIVE_FLOAT = _checked(float, lambda v: v > 0, "> 0")
_UNIT_FLOAT = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE_INT = _checked(int, lambda v: v > 0, "> 0")
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
#: The scales ``rmat_graph`` accepts.
_RMAT_SCALE = _checked(int, lambda v: 1 <= v <= 30, "in [1, 30]")

_GRAPH_HELP = (
    "<container|edges.txt>; omit to generate a deterministic RMAT graph"
)


def _graph_source_args(
    p, *, seed: int, seed_help: str, scale: int = 10,
    graph_help: str | None = _GRAPH_HELP,
) -> None:
    """Optional ``graph`` file, else a generated RMAT graph.

    ``graph_help=None`` drops the positional: the RMAT graph is then
    the command's pinned input (``bench``).
    """
    what = "pinned" if graph_help is None else "generated"
    if graph_help is not None:
        p.add_argument("graph", nargs="?", default=None, help=graph_help)
    p.add_argument("--rmat-scale", type=_RMAT_SCALE, default=scale,
                   help=f"log2 |V| of the {what} RMAT graph "
                   f"(default {scale})")
    p.add_argument("--edge-factor", type=_NON_NEGATIVE_INT, default=8,
                   help=f"edges per vertex of the {what} graph (default 8)")
    p.add_argument("--seed", type=int, default=seed, help=seed_help)


def _device_args(
    p, *, formats: bool = False, cache_kb: int | None = None,
    cache_help: str = "decoded-list cache budget in KiB (0 = no cache)",
    format_help: str | None = None,
) -> None:
    """``--device-scale``, plus ``--format`` / ``--cache-kb`` when asked."""
    from repro.traversal.backends import GPU_FORMATS

    if formats:
        p.add_argument("--format", choices=GPU_FORMATS, default="efg",
                       help=format_help)
    p.add_argument("--device-scale", type=_POSITIVE_FLOAT, default=2048,
                   help="shrink the Titan Xp by this factor (default 2048)")
    if cache_kb is not None:
        p.add_argument("--cache-kb", type=int, default=cache_kb,
                       help=cache_help)


def _cluster_args(
    p, *, gpus: int, nodes: int, fmt: str, wire: str, schedule: str,
) -> None:
    """Layout, shard format, exchange and link flags."""
    from repro.dist import DIST_FORMATS, SCHEDULES, WIRE_CODECS

    p.add_argument("--gpus", type=int, default=gpus,
                   help=f"number of simulated devices (default {gpus})")
    p.add_argument("--nodes", type=int, default=nodes,
                   help=f"nodes the GPUs are split across (default {nodes}; "
                   ">1 builds a two-tier topology)")
    p.add_argument("--fmt", choices=DIST_FORMATS, default=fmt,
                   help=f"shard storage format (default {fmt})")
    p.add_argument("--wire", choices=WIRE_CODECS, default=wire,
                   help=f"frontier wire codec (default {wire})")
    p.add_argument("--schedule", choices=SCHEDULES, default=schedule,
                   help=f"exchange schedule (default {schedule})")
    p.add_argument("--link-gbs", type=_POSITIVE_FLOAT, default=10.0,
                   help="per-link intra-node bandwidth in GB/s (default 10)")
    p.add_argument("--inter-gbs", type=_POSITIVE_FLOAT, default=1.0,
                   help="inter-node fabric bandwidth in GB/s, used when "
                   "--nodes > 1 (default 1)")
    p.add_argument("--contention", type=_UNIT_FLOAT, default=0.5,
                   help="shared-fabric contention in [0,1] (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser: one subcommand per verb."""
    from repro.bench.harness import PROFILE_ALGOS
    from repro.dist import DIST_ALGOS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="EFG compressed-graph tools (IPDPS'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dataset statistics and format sizes")
    p.add_argument("graph", help="<container|edges.txt>")
    p.add_argument("--all-formats", action="store_true",
                   help="also encode CGR and Ligra+ (slower)")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("encode", help="compress a graph to EFG")
    p.add_argument("graph", help="<container|edges.txt>")
    p.add_argument("-o", "--output", help="write EFG arrays to this .npz")
    p.add_argument("--quantum", type=_POSITIVE_INT, default=512,
                   help="forward-pointer quantum k (default 512)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser(
        "serve",
        help="stand up the resident graph service and drive a query load",
    )
    p.add_argument(
        "target",
        help="container base path (its .meta exists) or an edge list",
    )
    p.add_argument("--build-from", metavar="GRAPH",
                   help="write <container|edges.txt> GRAPH as a container "
                   "at TARGET first")
    p.add_argument("--build-only", action="store_true",
                   help="with --build-from: write the container and exit")
    p.add_argument("--queries", type=int, default=200,
                   help="closed-loop queries to drive (default 200)")
    p.add_argument("--hot-fraction", type=float, default=0.5,
                   help="share of queries drawn from the hot source set "
                   "(default 0.5)")
    p.add_argument("--deadline-ms", default="none",
                   help="comma list of per-query deadline budgets in ms, "
                   "cycled; 'none' = no deadline (default none)")
    p.add_argument("--burst", type=int, default=16,
                   help="queries submitted between waves (default 16)")
    p.add_argument("--seed", type=int, default=7,
                   help="query-stream seed (default 7)")
    _device_args(
        p, formats=True, cache_kb=256,
        format_help="resident representation (default efg)",
        cache_help="decoded-list cache budget in KiB (default 256)",
    )
    p.add_argument("--max-pending", type=int, default=1024,
                   help="admission bound on queued queries (default 1024)")
    p.add_argument("--baseline", action="store_true",
                   help="also replay the stream one bfs at a time and "
                   "print the batching speedup")
    p.add_argument("--metrics", metavar="PATH",
                   help="write the stable-schema metrics JSON (includes "
                   "the serve and service sections)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "profile", help="run one algorithm under full telemetry"
    )
    p.add_argument("algo", choices=PROFILE_ALGOS)
    _graph_source_args(
        p, seed=1, seed_help="seed for generated graphs, weights and sources"
    )
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--num-sources", type=int, default=64,
                   help="sources for msbfs (default 64)")
    _device_args(p, formats=True, cache_kb=0)
    p.add_argument("--counters", action="store_true",
                   help="print the emulated hardware-counter tables")
    p.add_argument("--trace", metavar="PATH",
                   help="write a Perfetto trace (nested spans + counters)")
    p.add_argument("--metrics", metavar="PATH",
                   help="write the stable-schema metrics JSON")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "dist", help="sharded traversal over multiple simulated GPUs"
    )
    p.add_argument("algo", choices=DIST_ALGOS)
    _graph_source_args(
        p, seed=1, seed_help="seed for generated graphs and weights"
    )
    _cluster_args(p, gpus=4, nodes=1, fmt="csr", wire="auto",
                  schedule="flat")
    p.add_argument("--overlap", action="store_true",
                   help="overlap exchange with compute in the cost model")
    p.add_argument("--source", type=int, default=0)
    _device_args(p)
    p.add_argument("--metrics", metavar="PATH",
                   help="write the stable-schema metrics JSON")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser(
        "whatif",
        help="critical-path + what-if replay on a recorded distributed run",
    )
    p.add_argument("algo", choices=DIST_ALGOS)
    _graph_source_args(
        p, seed=1, seed_help="seed for generated graphs and weights"
    )
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="re-price the run under this knob (repeatable; "
                   "wire=CODEC re-runs with that codec); knobs: intra_gbs, "
                   "inter_gbs, bandwidth_x, contention, inter_contention, "
                   "latency_us, inter_latency_us, overlap, wire")
    p.add_argument("--rank", action="store_true",
                   help="print the standard scenario panel ranked by "
                   "predicted speedup")
    _cluster_args(p, gpus=8, nodes=2, fmt="csr", wire="ef",
                  schedule="hierarchical")
    p.add_argument("--no-overlap", action="store_true",
                   help="price the baseline without the exchange/compute "
                   "overlap pipeline")
    p.add_argument("--source", type=int, default=0)
    _device_args(p)
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser(
        "compare", help="diff two metrics dumps; exit 1 past threshold"
    )
    p.add_argument("metrics_a")
    p.add_argument("metrics_b")
    p.add_argument("--threshold", type=float, default=2.0,
                   help="max tolerated relative change in percent (default 2)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "bench",
        help="run the pinned workload suite; append to the bench trajectory",
    )
    p.add_argument("--out-dir", default=".",
                   help="directory for BENCH_<n>.json (default cwd)")
    p.add_argument("--seq", type=int, default=None,
                   help="force the sequence number (default: next in dir)")
    p.add_argument("--against", metavar="FILE|DIR",
                   help="gate against this bench entry (dir = latest entry)")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="max tolerated relative change in percent (default 0)")
    p.add_argument("--no-write", action="store_true",
                   help="compare only; do not write BENCH_<n>.json")
    _graph_source_args(
        p, seed=3, scale=9, seed_help="suite seed (default 3)",
        graph_help=None,
    )
    p.add_argument("--source-seed", type=int, default=42,
                   help="seed of the start-vertex draw, stamped into the "
                   "payload meta (default 42)")
    _device_args(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "check",
        help="fault-injection + cross-format differential verification",
    )
    p.add_argument(
        "graph", nargs="?", default=None,
        help="<container|edges.txt>; omit to use the built-in fuzz graph "
        "and the small dataset-suite entries",
    )
    p.add_argument("--fuzz", type=int, default=200,
                   help="fault injections per format (default 200)")
    p.add_argument("--seed", type=int, default=7,
                   help="campaign seed (default 7)")
    p.add_argument("--decode-only", action="store_true",
                   help="skip the algorithm-level differential checks")
    p.add_argument("--metrics", metavar="PATH",
                   help="write the stable-schema metrics JSON")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("suite", help="list the scaled paper suite")
    p.add_argument("--v100", action="store_true",
                   help="include the Table III additions")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    A reader that closes stdout early (``repro ... | head -n 1``) ends
    the command quietly with exit status 1: stdout is pointed at
    ``os.devnull`` so the interpreter's exit flush cannot fail again.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
