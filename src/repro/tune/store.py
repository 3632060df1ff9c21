"""Persisted tuned configs: per-family JSON files plus an index.

The autotuner's output has to outlive the process that found it —
``repro dist --tuned`` reads the chosen knob settings back at a later
date, possibly from CI.  The layout mirrors the bench trajectory's:
one canonical-JSON file per *graph family* under ``benchmarks/tuned/``,
each holding one entry per *workload* (``algo/fmt/nodes x
gpus-per-node``), plus a ``TUNED.json`` index enumerating what is on
disk (the TRAJECTORY.json analogue).

A family groups graphs whose tuning transfers: same generator, scale
and edge factor (``rmat-s9-e8``).  Different seeds of one family share
an entry — the whole point of persisting is reusing a search done on
one instance.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "TUNED_SCHEMA",
    "TUNED_INDEX_SCHEMA",
    "graph_family",
    "workload_key",
    "load_tuned",
    "lookup_tuned",
    "write_tuned",
    "write_tuned_index",
]

#: Version tag of one family's tuned-config file.
TUNED_SCHEMA = "repro.tuned/1"

#: Version tag of the ``TUNED.json`` index.
TUNED_INDEX_SCHEMA = "repro.tuned.index/1"


def graph_family(dataset: dict) -> str:
    """Family id of one dataset spec (seed-independent)."""
    kind = dataset.get("kind", "rmat")
    if kind == "rmat":
        return f"rmat-s{dataset['scale']}-e{dataset['edge_factor']}"
    return f"web-n{dataset['num_nodes']}-e{dataset['edge_factor']}"


def workload_key(algo: str, fmt: str, nodes: int, gpus: int) -> str:
    """Workload id: algorithm, format and GPU layout."""
    per_node = gpus // nodes if nodes else gpus
    return f"{algo}/{fmt}/{nodes}x{per_node}"


def _dump(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_tuned(out_dir: str, family: str) -> dict:
    """One family's tuned-config file (``{}``-shaped when absent)."""
    path = os.path.join(out_dir, f"{family}.json")
    if not os.path.exists(path):
        return {"schema": TUNED_SCHEMA, "family": family, "workloads": {}}
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if payload.get("schema") != TUNED_SCHEMA:
        raise ValueError(
            f"{path}: schema {payload.get('schema')!r} != {TUNED_SCHEMA}"
        )
    return payload


def lookup_tuned(out_dir: str, family: str, workload: str) -> dict | None:
    """The persisted config for one family/workload, or ``None``."""
    try:
        payload = load_tuned(out_dir, family)
    except (OSError, ValueError):
        return None
    return payload.get("workloads", {}).get(workload)


def write_tuned(
    out_dir: str, family: str, workload: str, entry: dict
) -> str:
    """Merge one workload's entry into its family file; returns the path.

    Existing entries for other workloads survive; the index is
    refreshed afterwards so ``TUNED.json`` always reflects the
    directory.
    """
    os.makedirs(out_dir, exist_ok=True)
    payload = load_tuned(out_dir, family)
    payload["workloads"][workload] = dict(sorted(entry.items()))
    payload["workloads"] = dict(sorted(payload["workloads"].items()))
    path = os.path.join(out_dir, f"{family}.json")
    _dump(payload, path)
    write_tuned_index(out_dir)
    return path


def write_tuned_index(out_dir: str) -> str:
    """Regenerate ``TUNED.json`` from the family files on disk."""
    families = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".json") or name == "TUNED.json":
            continue
        family = name[: -len(".json")]
        try:
            payload = load_tuned(out_dir, family)
        except (OSError, ValueError):
            continue
        families[family] = {
            "file": name,
            "workloads": sorted(payload.get("workloads", {})),
        }
    path = os.path.join(out_dir, "TUNED.json")
    _dump({"schema": TUNED_INDEX_SCHEMA, "families": families}, path)
    return path
