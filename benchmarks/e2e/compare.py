#!/usr/bin/env python3
"""Compare end-to-end runs of a parent and a change, per workload.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``run.py --out DIR`` writes
(untraced runs only are read).  Runs are paired in the order they
started, so alternate the two sides when producing them.  For every
(workload, end-to-end metric) the report gives each side's median,
quartiles and spread (IQR / median) and one verdict:

``regression``  the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
``unresolved``  either side's spread (IQR / median) exceeds the bound,
                and not every change run beats every parent run;
``gain``        at least 10 pairs, the change wins at least 90% of them
                (ties count for neither), and the medians differ by more
                than the parent's IQR;
``same``        none of the above.

Host throughput (``host.medges_per_s``, in every run record) is also
reported, without a bound: on a shared machine its run-to-run spread is
too wide to gate on.  Its verdict is ``gain``, ``loss`` (the gain rule
mirrored) or ``same``, and never changes the exit status.

Simulated metrics of same-seed pairs are also checked for bit identity
(column ``exact``).  Exit status: 1 on any regression, on a rise in the
failed-operation fraction, or on an incorrect change run; 2 when a
directory holds no usable runs; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10

#: Share of pairs the change must win to claim a gain.
MIN_WIN_RATE = 0.9

#: Run-record values compared without a bound, with their direction.
UNBOUNDED = (("host.medges_per_s", "higher"),)


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, in start order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") or "result" not in record:
            continue
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_ns"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``statistics.quantiles(values, n=4)``, defined for one value too."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> dict:
    """The section-8 rule for one (workload, metric).

    ``bound=None`` marks a metric that is reported but not gated.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)

    def clear(count: int) -> bool:
        return (len(pairs) >= MIN_PAIRS
                and count >= MIN_WIN_RATE * len(pairs)
                and abs(c_med - p_med) > p_q3 - p_q1)

    if bound is not None and gain < -bound:
        outcome = "regression"
    elif (bound is not None and not all_better
          and max(spread(parent), spread(change)) > bound):
        outcome = "unresolved"
    elif gain > 0 and clear(wins):
        outcome = "gain"
    elif bound is None and gain < 0 and clear(losses):
        outcome = "loss"
    else:
        outcome = "same"
    return {"gain": gain, "pairs": len(pairs), "wins": wins,
            "verdict": outcome}


def _value(record: dict, name: str) -> float:
    """An end-to-end metric from the result, else a run-record value."""
    metric = record["result"]["metrics"].get(name)
    return metric["value"] if metric else record["values"][name]


def _exact(parent: list[dict], change: list[dict], name: str) -> str:
    """Bit identity of a simulated metric over same-seed pairs."""
    same_seed = [(p, c) for p, c in zip(parent, change)
                 if p["seed"] == c["seed"]]
    if not name.startswith("sim_") or not same_seed:
        return ""
    identical = all(_value(p, name) == _value(c, name) for p, c in same_seed)
    return "yes" if identical else "NO"


def _cell(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] {spread(values):6.1%}"


def failed_frac(records: list[dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / max(attempted, 1)


def compare(parent_dir: Path, change_dir: Path) -> tuple[list[str], int]:
    spec = json.loads(SPEC_PATH.read_text())
    parent_runs = load_runs(parent_dir)
    change_runs = load_runs(change_dir)
    common = [w["name"] for w in spec["workloads"]
              if w["name"] in parent_runs and w["name"] in change_runs]
    if not common:
        return [f"no workload has untraced runs in both {parent_dir} "
                f"and {change_dir}"], 2
    status = 0
    lines = [f"{'workload':18s} {'metric':20s} "
             f"{'parent median [q1, q3] spread':>41s} "
             f"{'change median [q1, q3] spread':>41s} {'gain':>8s} {'wins':>7s} "
             f"{'exact':>5s}  verdict"]
    for workload in common:
        parent, change = parent_runs[workload], change_runs[workload]
        rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
        rows += [(name, better, None) for name, better in UNBOUNDED]
        for name, better, bound in rows:
            p = [_value(r, name) for r in parent]
            c = [_value(r, name) for r in change]
            v = verdict(p, c, better, bound)
            status |= v["verdict"] == "regression"
            lines.append(
                f"{workload:18s} {name:20s} {_cell(p):>41s} "
                f"{_cell(c):>41s} {v['gain']:+8.2%} "
                f"{v['wins']:3d}/{v['pairs']:<3d} "
                f"{_exact(parent, change, name):>5s}  {v['verdict']}"
            )
        p_fail, c_fail = failed_frac(parent), failed_frac(change)
        incorrect = sum(not r["result"]["correct"] for r in change)
        if c_fail > p_fail or incorrect:
            status = 1
            lines.append(f"{workload:18s} failed operations rose: "
                         f"{p_fail:.4%} -> {c_fail:.4%} "
                         f"({incorrect} incorrect change runs)")
    return lines, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    args = parser.parse_args(argv)
    lines, status = compare(args.parent_dir, args.change_dir)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
