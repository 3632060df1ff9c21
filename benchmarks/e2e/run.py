#!/usr/bin/env python3
"""End-to-end benchmark: four paper-regime workloads on both clocks.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload bfs-fits --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 3

One workload per process: set up ``SETUP_REPEATS`` times (the median is
``setup_s``), run one untimed warm-up round, then repeat timed rounds
until ``--seconds`` have passed.  Every round's outputs are checked
against an oracle outside the timed region, and every round must
reproduce the warm-up's simulated results exactly.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the ``end_to_end`` list of BENCHMARK.json; with ``--trace 1``
they are the ``per_layer`` list, measured by alternating untraced and
traced rounds, and the spans are written as a Chrome trace.  ``--workload
all`` runs each workload in its own subprocess and prints one JSON line
per workload instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: One thread per BLAS/OpenMP pool: the workloads are single-threaded,
#: and an idle pool sized to the cores only adds scheduling noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _bootstrap() -> None:
    """Use this checkout's ``src``; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        sys.exit(f"run.py: {SRC / 'repro'} or {SPEC_PATH.name} is missing; "
                 "run from the root of a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Counts:
    """Operations attempted and failed, over every check of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one workload; returns the run record (metrics and evidence)."""
    import tracing
    from workloads import ANSWERED, WORKLOADS

    started_ns = time.time_ns()
    workload = WORKLOADS[name]
    recorder = tracing.Recorder() if trace else None

    setup_s = []
    state = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        state = None
        gc.collect()
        with _traced(recorder, "setup"):
            t0 = perf_counter()
            state = workload.setup(seed, smoke)
            setup_s.append(perf_counter() - t0)

    refs = workload.references(state)
    counts = Counts()
    first = workload.summarize(state, workload.run_round(state))
    counts.add(*workload.check(state, first, refs))
    expected = first.signature()

    plain: list[float] = []
    traced: list[float] = []
    deadline = perf_counter() + seconds
    while True:
        use_trace = recorder is not None and len(traced) < len(plain)
        gc.collect()
        try:
            with _traced(recorder if use_trace else None, "round"):
                t0 = perf_counter()
                raw = workload.run_round(state)
                elapsed = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            counts.add(1, 1)
            break
        (traced if use_trace else plain).append(elapsed)
        rnd = workload.summarize(state, raw)
        counts.add(*workload.check(state, rnd, refs))
        counts.add(1, rnd.signature() != expected)
        del raw, rnd
        if perf_counter() >= deadline and (recorder is None or traced):
            break

    for invariant in workload.invariants(state):
        try:
            invariant()
            counts.add(1, 0)
        except Exception:
            traceback.print_exc()
            counts.add(1, 1)

    answered = [op.sim_s for op in first.ops if op.status in ANSWERED]
    values = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host.medges_per_s": first.edges / statistics.median(plain) / 1e6,
        "sim_gteps": first.edges / first.sim_seconds / 1e9,
        "sim_latency_ms_p50": statistics.median(answered) * 1e3,
    }
    values.update(_sim_layers(first, state))
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "started_ns": started_ns,
        "setup_s": setup_s, "round_host_s": plain,
        "traced_round_host_s": traced, "ops_per_round": len(first.ops),
        "edges_per_round": first.edges,
        "attempted": counts.attempted, "failed": counts.failed,
    }
    if recorder is not None:
        values.update(_host_layers(recorder, plain, traced))
        record["shares"] = tracing.shares(recorder.spans)
        record["chrome_trace"] = tracing.chrome_trace(recorder.spans)
    record["values"] = values
    return record


@contextmanager
def _traced(recorder, name: str):
    """Install the wrappers and record a root span, when tracing."""
    if recorder is None:
        yield
        return
    with recorder.installed(), recorder.span(name):
        yield


def _sim_layers(first, state) -> dict:
    """Simulated-clock per-layer metrics of the (deterministic) round."""
    tally = first.tally
    device_edges = sum(op.edges for op in first.ops if op.status == "done")
    out = {
        "gpusim.launches": tally.launches,
        "gpusim.launch_overhead_frac": tally.overhead_s / tally.engine_s,
        "gpusim.dram_bytes_per_edge": tally.dram_bytes / device_edges,
        "gpusim.pcie_bytes_per_edge": tally.pcie_bytes / device_edges,
    }
    if state["efg"] is not None:
        out["core.efg_bytes_per_edge"] = (
            state["efg"].nbytes / state["graph"].num_edges
        )
    out.update(first.extra)
    return out


def _host_layers(recorder, plain: list[float], traced: list[float]) -> dict:
    """Host-clock per-layer metrics from the traced spans.

    ``<layer>.calls`` and ``<layer>.self_s`` are medians per traced
    round; ``<layer>.s`` is inclusive time, per set-up for set-up layers
    and per round otherwise.
    """
    import tracing

    rounds = tracing.layer_stats(recorder.spans, "round")
    setups = tracing.layer_stats(recorder.spans, "setup")
    out = {}
    for metric in load_spec()["per_layer"]:
        layer, _, stat = metric["name"].rpartition(".")
        if stat in ("calls", "self_s"):
            out[metric["name"]] = tracing.median_stat(rounds, layer, stat)
        elif stat == "s":
            in_setup = any(layer in table for table in setups)
            out[metric["name"]] = tracing.median_stat(
                setups if in_setup else rounds, layer, "s"
            )
    waves = [s.duration for s in recorder.spans if s.name == "serve.step_wave"]
    out["serve.wave_host_ms_p50"] = (
        statistics.median(waves) * 1e3 if waves else 0.0
    )
    out["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    return out


def result_line(record: dict, spec: dict) -> dict:
    """The contract's JSON object: every metric of the mode, with units.

    A per-layer metric the workload does not exercise (a serve counter
    on a batch workload, say) reads 0.
    """
    key = "per_layer" if record["trace"] else "end_to_end"
    values = record["values"]
    metrics = {}
    for metric in spec[key]:
        name = metric["name"]
        if key == "end_to_end" and name not in values:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        metrics[name] = {"value": float(values.get(name, 0.0)),
                         "unit": metric["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report(record: dict, result: dict) -> list[str]:
    """Human-readable lines printed above the JSON result."""
    plain = record["round_host_s"]
    q1, med, q3 = _quartiles(plain)
    lines = [
        f"{record['workload']} seed {record['seed']}: set-up x"
        f"{len(record['setup_s'])} "
        + " ".join(f"{s:.3f}" for s in record["setup_s"]) + " s; "
        f"{len(plain)} timed rounds, host s/round median {med:.4f} "
        f"IQR {q3 - q1:.4f} ({record['ops_per_round']} ops, "
        f"{record['edges_per_round']} edges per round)",
        f"  correct {result['correct']}: {result['failed']} of "
        f"{result['attempted']} checked operations failed",
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for group, table in record.get("shares", {}).items():
        top = ", ".join(
            f"{layer} {share:.1%}" for layer, share in list(table.items())[:6]
        )
        base = "round" if group == "round" else f"{group[4:]} ops"
        lines.append(f"  self-time share of {base}: {top}")
    return lines


def _write(out: Path, record: dict, result: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{record['trace']}-{record['started_ns']}")
    trace = record.pop("chrome_trace", None)
    if trace is not None:
        (out / f"{stem}.trace.json").write_text(json.dumps(trace))
    (out / f"{stem}.json").write_text(
        json.dumps({**record, "result": result}, indent=1, sort_keys=True)
    )


def run_all(args) -> int:
    """Every workload, each in its own subprocess, one after another."""
    from workloads import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(args.out)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps({"workloads": results}, sort_keys=True))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-round budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for run records and Chrome traces")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, one set-up and one timed round")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _bootstrap()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"run.py: unknown workload {args.workload!r}; pick from {names}")
    record = measure(args.workload, args.seed,
                     0.0 if args.smoke else args.seconds,
                     bool(args.trace), args.smoke)
    result = result_line(record, spec)
    print("\n".join(report(record, result)))
    _write(args.out, record, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
