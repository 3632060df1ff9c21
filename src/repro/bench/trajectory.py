"""Continuous benchmark trajectory: ``BENCH_<n>.json`` producer + gate.

Each entry in the trajectory is one run of a **pinned workload suite**
(BFS / SSSP / PageRank x csr / efg / cgr on a fixed seeded RMAT graph,
plus distributed BFS over a two-tier 2 nodes x 4 GPUs cluster with the
raw and Elias-Fano wire codecs), serialised as the full
:func:`repro.obs.metrics.run_metrics` /
:func:`repro.dist.report.dist_run_metrics` payload per workload —
emulated hardware counters, per-array attribution and simulated times
included — plus a self-describing ``meta`` block (git sha, sequence
number, schema versions, suite parameters) and a ``crossover`` summary
locating where frontier compression pays: the raw-over-ef exchange-time
ratio on the slow inter-node tier vs the fast intra-node tier.

The suite is deterministic end to end: same seed, same graph, same
traversal order, same counters — so ``repro bench --against`` can gate
*relative* regressions with an exact zero-delta baseline (the
comparison reuses :mod:`repro.obs.compare`; any cost-term drift shows
up as a non-zero delta and a non-zero exit).

File naming: ``BENCH_<n>.json`` where ``n`` continues the highest
sequence already in the output directory (1 in an empty one); a
directory resolves to its highest-numbered readable entry.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

from repro.obs.compare import Comparison, DeltaRow, flatten_metrics
from repro.obs.metrics import METRICS_SCHEMA, git_sha

__all__ = [
    "BENCH_SCHEMA",
    "BenchConfig",
    "run_bench_suite",
    "crossover_summary",
    "whatif_targets",
    "bench_payload",
    "next_seq",
    "bench_path",
    "write_bench",
    "load_bench",
    "compare_bench",
]

#: Version tag of the bench-trajectory JSON layout.
BENCH_SCHEMA = "repro.bench/1"

_BENCH_FILE_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: The suite's algorithms and storage formats (one workload per pair).
ALGOS = ("bfs", "sssp", "pagerank")
FORMATS = ("csr", "efg", "cgr")
#: Distributed workloads: dist BFS per wire codec on a two-tier cluster.
DIST_WIRES = ("raw", "ef")
DIST_NODES = 2
DIST_GPUS_PER_NODE = 4
DIST_SCHEDULE = "hierarchical"
DIST_OVERLAP = True
#: NVLink-class intra-node links vs a 1 GB/s inter-node fabric: the
#: fast tier is latency-dominated (raw competitive), the slow tier
#: bandwidth-dominated (Elias-Fano wins) — the crossover the
#: ``crossover`` payload section locates.
DIST_LINK_GBS = 300.0
DIST_INTER_GBS = 1.0


@dataclass(frozen=True)
class BenchConfig:
    """Pinned parameters of one bench-suite run.

    The defaults define the canonical CI suite: an RMAT graph small
    enough to run in seconds, on a device scaled so the graph occupies
    a realistic fraction of memory.  Changing any default (or a suite
    constant above) is a trajectory break — old entries stop being
    comparable — so overrides are for local experiments, not for the
    committed baseline.
    """

    rmat_scale: int = 9
    edge_factor: int = 8
    seed: int = 3
    #: Seed of the source-vertex draw (:func:`repro.bench.harness.
    #: pick_sources`).  Threaded explicitly — and stamped into the
    #: payload ``meta`` — so two trajectories built with different
    #: source draws can never silently gate against each other.
    source_seed: int = 42
    device_scale: float = 2048.0

    def suite_meta(self) -> dict:
        return {
            "rmat_scale": self.rmat_scale,
            "edge_factor": self.edge_factor,
            "seed": self.seed,
            "source_seed": self.source_seed,
            "device_scale": self.device_scale,
            "algos": list(ALGOS),
            "formats": list(FORMATS),
            "dist_wires": list(DIST_WIRES),
            "dist_nodes": DIST_NODES,
            "dist_gpus_per_node": DIST_GPUS_PER_NODE,
            "dist_schedule": DIST_SCHEDULE,
            "dist_overlap": DIST_OVERLAP,
            "dist_link_gbs": DIST_LINK_GBS,
            "dist_inter_gbs": DIST_INTER_GBS,
        }


def run_bench_suite(
    config: BenchConfig | None = None,
) -> dict[str, dict]:
    """Run the pinned workload suite; return per-workload metrics dumps.

    Keys are ``"<algo>/<fmt>"``; values are full
    :func:`~repro.obs.metrics.run_metrics` payloads (schema
    ``repro.metrics/2``), so every trajectory entry carries the whole
    counter surface, not a digest.
    """
    from repro.bench.harness import pick_sources, run_profiled
    from repro.datasets.rmat import rmat_graph
    from repro.gpusim.device import TITAN_XP
    from repro.traversal.backends import build_backend

    config = config or BenchConfig()
    graph = rmat_graph(
        scale=config.rmat_scale,
        edge_factor=config.edge_factor,
        seed=config.seed,
    )
    device = TITAN_XP.scaled(config.device_scale)
    # Deterministic weights in CSR slot order, shared by every format.
    rng = np.random.default_rng(config.seed)
    weights = rng.uniform(0.1, 1.0, graph.num_edges).astype(np.float32)
    # The source draw is seeded from the config — never a hardcoded
    # default — and recorded in suite_meta for the gate guard.
    source = int(pick_sources(graph, 1, seed=config.source_seed)[0])

    workloads: dict[str, dict] = {}
    for algo in ALGOS:
        needs_weights = algo in ("sssp", "delta")
        for fmt in FORMATS:
            backend = build_backend(
                fmt, graph, device,
                weight_bytes=4 * graph.num_edges if needs_weights else 0,
            )
            run = run_profiled(
                algo,
                backend,
                source=source,
                weights=weights if needs_weights else None,
                meta={"bench_workload": f"{algo}/{fmt}"},
            )
            workloads[f"{algo}/{fmt}"] = run.metrics
    for wire in DIST_WIRES:
        workloads[f"dist_bfs/{wire}"] = _run_dist_workload(
            graph, device, source, wire
        )
    workloads["serve/qps"] = _run_serve_workload(config, graph, device)
    workloads["serve/p99"] = _run_p99_workload(config, graph, device)
    return workloads


def _run_serve_workload(config: BenchConfig, graph, device) -> dict:
    """One full serving wave: 64 concurrent sources, batched vs not.

    The batched side is a :class:`~repro.serve.GraphService` draining
    64 distinct pinned sources in one msbfs wave; the sequential side
    replays the same list one :func:`bfs` at a time on an identically
    configured backend.  Both land in the payload (``serve`` section +
    gauges), so the batching speedup is a diffable bench column.
    """
    from repro.bench.harness import pick_sources
    from repro.obs.metrics import run_metrics
    from repro.serve import GraphService, drive, with_sequential_baseline
    from repro.traversal.backends import build_backend

    sources = pick_sources(graph, 64, seed=config.source_seed)
    cache_kb = 256
    service = GraphService.from_graph(
        graph, fmt="efg", device=device, cache_kb=cache_kb
    )
    drive(service, sources, burst=64)

    def _sequential_backend():
        return build_backend("efg", graph, device, cache_kb=cache_kb)

    with_sequential_baseline(service, _sequential_backend, sources)
    return run_metrics(
        service.backend.engine,
        meta={"bench_workload": "serve/qps"},
        sections={"serve": service.metrics_section()},
    )


def _run_p99_workload(config: BenchConfig, graph, device) -> dict:
    """Tail-latency column: a mixed-deadline drive with full telemetry.

    200 skewed queries (half from an 8-source hot set) arrive in bursts
    of 96 with a cycling deadline mix — patient, 0.5 ms, patient, 1 µs —
    against a service capped at 32 lanes per wave, so overflow queries
    wait a full wave and the impatient ones expire: every serve
    disposition (done/cached/expired) appears in the payload.  Unlike
    ``serve/qps`` this workload dumps the ``service`` telemetry
    section, making latency p50/p95/p99, queue-wait, lane occupancy,
    and the miss rate diffable trajectory columns.

    Parameters are pinned here rather than on :class:`BenchConfig` —
    growing the config would change ``suite_meta`` and break the gate
    against every earlier trajectory entry.
    """
    from repro.obs.metrics import run_metrics
    from repro.serve import (
        GraphService,
        drive,
        make_labeled_stream,
        parse_deadline_mix,
    )

    sources, classes = make_labeled_stream(
        graph.num_nodes, 200, hot_fraction=0.5, hot_set_size=8,
        seed=config.source_seed,
    )
    service = GraphService.from_graph(
        graph, fmt="efg", device=device, cache_kb=256, max_wave=32
    )
    drive(
        service, sources,
        deadline_mix=parse_deadline_mix("none,0.5,none,0.001"),
        burst=96, classes=classes,
    )
    return run_metrics(
        service.backend.engine,
        meta={"bench_workload": "serve/p99"},
        sections={
            "serve": service.metrics_section(),
            "service": service.service_section(),
        },
    )


def _run_dist_workload(graph, device, source: int, wire: str) -> dict:
    """One distributed-BFS workload on the pinned two-tier cluster."""
    from repro.dist import ShardedCluster, distributed_bfs
    from repro.dist.report import dist_run_metrics
    from repro.dist.topology import LinkTopology

    topology = LinkTopology.two_tier(
        num_nodes=DIST_NODES,
        gpus_per_node=DIST_GPUS_PER_NODE,
        link_bandwidth=DIST_LINK_GBS * 1e9,
        inter_bandwidth=DIST_INTER_GBS * 1e9,
        message_latency_s=device.launch_overhead_s,
    )
    cluster = ShardedCluster.build(
        graph,
        DIST_NODES * DIST_GPUS_PER_NODE,
        device,
        wire=wire,
        schedule=DIST_SCHEDULE,
        topology=topology,
        overlap=DIST_OVERLAP,
    )
    distributed_bfs(cluster, source)
    return dist_run_metrics(
        cluster, meta={"bench_workload": f"dist_bfs/{wire}"}
    )


def crossover_summary(workloads: dict[str, dict]) -> dict:
    """Where frontier compression pays: per-tier raw-over-ef ratios.

    Reads the per-tier fabric seconds (transfer + latency) of the
    ``dist_bfs/raw`` and ``dist_bfs/ef`` workloads and reports, per
    tier, the ratio of raw exchange time over ef exchange time — above
    1 means the Elias-Fano wire is faster on that fabric.  Empty when
    either workload is missing from the suite.
    """
    raw = workloads.get("dist_bfs/raw")
    ef = workloads.get("dist_bfs/ef")
    if raw is None or ef is None:
        return {}
    out: dict = {}
    for tier in ("intra", "inter"):
        row: dict = {}
        for name, payload in (("raw", raw), ("ef", ef)):
            tiers = payload.get("tiers", {}).get(tier, {})
            row[f"{name}_bytes"] = tiers.get("bytes", 0.0)
            row[f"{name}_seconds"] = (
                tiers.get("transfer_seconds", 0.0)
                + tiers.get("latency_seconds", 0.0)
            )
        row["raw_over_ef"] = (
            row["raw_seconds"] / row["ef_seconds"]
            if row["ef_seconds"] > 0 else 0.0
        )
        out[tier] = row
    return out


def whatif_targets(workloads: dict[str, dict]) -> dict:
    """Top predicted optimization target per workload.

    Reads each workload's ``whatif`` metrics section (the ranked
    scenario panel the what-if replay engine priced) and reports the
    best predicted scenario — ties broken alphabetically so the digest
    is deterministic.  Workloads without a ``whatif`` section (old
    schema entries) are skipped.
    """
    out: dict = {}
    for name in sorted(workloads):
        section = workloads[name].get("whatif") or {}
        best_name = None
        best = 0.0
        for scenario in sorted(section):
            speedup = section[scenario].get("speedup", 0.0)
            if best_name is None or speedup > best:
                best_name, best = scenario, speedup
        if best_name is not None:
            out[name] = {"scenario": best_name, "speedup": best}
    return out


def bench_payload(
    workloads: dict[str, dict], seq: int, config: BenchConfig | None = None
) -> dict:
    """Assemble one self-describing trajectory entry."""
    config = config or BenchConfig()
    return {
        "schema": BENCH_SCHEMA,
        "meta": {
            "git_sha": git_sha(),
            "seq": int(seq),
            "schema_versions": {
                "bench": BENCH_SCHEMA,
                "metrics": METRICS_SCHEMA,
            },
            "suite": config.suite_meta(),
        },
        "crossover": crossover_summary(workloads),
        "whatif_targets": whatif_targets(workloads),
        "workloads": {name: workloads[name] for name in sorted(workloads)},
    }


def next_seq(out_dir: str) -> int:
    """Next trajectory sequence number for ``out_dir``.

    Continues the highest existing ``BENCH_<n>.json``; an empty or
    missing directory starts at 1.
    """
    existing = [0]
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            match = _BENCH_FILE_RE.match(name)
            if match:
                existing.append(int(match.group(1)))
    return max(existing) + 1


def bench_path(out_dir: str, seq: int) -> str:
    return os.path.join(out_dir, f"BENCH_{int(seq)}.json")


def write_bench(payload: dict, out_dir: str) -> str:
    """Write one trajectory entry as canonical JSON; return its path.

    Canonical form (sorted keys, two-space indent, trailing newline)
    matches :func:`repro.obs.metrics.dump_metrics`, so identical runs
    produce byte-identical files — the CI determinism gate relies on
    this.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = bench_path(out_dir, payload["meta"]["seq"])
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _read_entry(path: str) -> dict:
    """Load + schema-check one ``BENCH_<n>.json`` file."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} != expected {BENCH_SCHEMA!r}"
        )
    return payload


def load_bench(path: str) -> dict:
    """Load one trajectory entry from a file, or the latest from a dir.

    A directory resolves to its highest-numbered ``BENCH_<n>.json``.
    Unreadable entries are skipped latest-first, and only when *no*
    entry is readable does the lookup raise — with a message naming the
    directory, never a raw traceback from a half-written file.
    """
    if not os.path.isdir(path):
        return _read_entry(path)
    on_disk = sorted(
        (name for name in os.listdir(path) if _BENCH_FILE_RE.match(name)),
        key=lambda name: int(_BENCH_FILE_RE.match(name).group(1)),
    )
    if not on_disk:
        raise FileNotFoundError(f"{path}: no BENCH_<n>.json files")
    errors: list[str] = []
    for name in reversed(on_disk):
        try:
            return _read_entry(os.path.join(path, name))
        except (OSError, ValueError) as exc:
            errors.append(str(exc))
    raise ValueError(
        f"{path}: no readable BENCH_<n>.json entry "
        f"({'; '.join(errors)})"
    )


def compare_bench(
    baseline: dict, current: dict, threshold: float = 0.0
) -> Comparison:
    """Diff two trajectory entries workload by workload.

    Flattens each workload's metrics dump with the same rules as
    ``repro compare`` (identity sections skipped, numeric leaves only)
    under a ``workloads.<name>.`` prefix.  Workloads present only in
    the *baseline* compare against 0 (a removed workload is a
    regression); workloads present only in the *current* entry are
    skipped — the suite grows over time and a new workload has no
    history to regress against.  The returned
    :class:`~repro.obs.compare.Comparison` applies ``threshold`` as a
    relative gate, so ``threshold=0`` demands byte-level equality of
    every counter.

    Two entries are only comparable when they ran the *same pinned
    suite*: when both carry a ``meta.suite`` block and any parameter
    differs (seed, source_seed, scale, wires, ...) the comparison
    raises instead of silently gating apples against oranges.
    """
    suite_a = baseline.get("meta", {}).get("suite")
    suite_b = current.get("meta", {}).get("suite")
    if suite_a and suite_b and suite_a != suite_b:
        diff = sorted(
            key
            for key in set(suite_a) | set(suite_b)
            if suite_a.get(key) != suite_b.get(key)
        )
        raise ValueError(
            "bench entries ran different suites "
            f"(differing parameters: {', '.join(diff)}); "
            "refusing to gate one against the other"
        )
    rows: list[DeltaRow] = []
    names = sorted(baseline.get("workloads", {}))
    for name in names:
        flat_a = flatten_metrics(baseline.get("workloads", {}).get(name, {}))
        flat_b = flatten_metrics(current.get("workloads", {}).get(name, {}))
        for key in sorted(set(flat_a) | set(flat_b)):
            rows.append(
                DeltaRow(
                    key=f"workloads.{name}.{key}",
                    a=flat_a.get(key, 0.0),
                    b=flat_b.get(key, 0.0),
                )
            )
    return Comparison(rows=rows, threshold=threshold)
