"""What-if replay: predict a recorded run's clock under parameter deltas.

A finished run is a complete pricing record — per-launch cost
snapshots on the single-GPU timeline, per-step byte/message maxima in
the cluster's :class:`~repro.dist.cluster.LevelCharge` sequence.
Because none of the priced knobs (bandwidths, latencies, contention,
``cached_bw_ratio``, launch overhead, overlap) change the *functional*
traversal, a run's charges can be re-priced under new parameters
without re-traversing anything, in milliseconds instead of a full
re-run.  The replay performs the same floating-point operations in the
same order as an actual re-run under the changed parameters, so
predicted equals actual *bit-for-bit* (asserted in tests).

A wire-codec swap changes what travels — every message's size, and so
every step's maxima — so it is not a replay: the caller hands in a
``rerun(codec)`` callable that runs the same workload with that codec,
and the prediction is that run's clock (re-priced under any other
knobs).  Every what-if is therefore exact.

:func:`rank_engine_whatifs` / :func:`rank_cluster_whatifs` run the
standard scenario panel and rank by predicted speedup — the "top
optimization targets" table the CLI, metrics dumps, and bench
trajectory surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.obs.critpath import level_seconds

__all__ = [
    "CLUSTER_KNOBS",
    "PANEL_CODECS",
    "WhatIfResult",
    "cluster_scenario",
    "parse_sets",
    "rank_cluster_whatifs",
    "rank_engine_whatifs",
    "replay_cluster_seconds",
    "replay_engine_seconds",
    "whatif_cluster",
    "whatif_section",
]

#: ``--set`` knobs on a distributed run.
CLUSTER_KNOBS = (
    "intra_gbs",
    "inter_gbs",
    "bandwidth_x",
    "contention",
    "inter_contention",
    "latency_us",
    "inter_latency_us",
    "overlap",
    "wire",
)

#: Wire codecs the ranked cluster panel re-runs (``auto`` picks among
#: them per message, so it is not a swap target of its own).
PANEL_CODECS = ("raw", "raw64", "bitmap", "varint", "ef")


@dataclass(frozen=True)
class WhatIfResult:
    """One scenario's predicted end-to-end time."""

    name: str
    baseline_seconds: float
    predicted_seconds: float

    @property
    def speedup(self) -> float:
        """Baseline over predicted (>1 means the change helps)."""
        if self.predicted_seconds <= 0.0:
            return 0.0
        return self.baseline_seconds / self.predicted_seconds


# -- cluster replay -------------------------------------------------------


def replay_cluster_seconds(
    cluster, topology=None, overlap: bool | None = None
) -> float:
    """Re-price a recorded cluster run; returns the predicted clock.

    With no arguments this replays the run as recorded and reproduces
    ``cluster.clock`` bit-exactly (a replay self-check the tests pin).
    ``topology`` re-prices every exchange step and sync under different
    link parameters (``LinkTopology.step_seconds``, the call the run
    made); ``overlap`` switches the level cost model.
    """
    topo = cluster.topology if topology is None else topology
    ov = cluster.overlap if overlap is None else overlap
    clock = 0.0
    for charge in cluster.charges:
        ex_seconds = 0.0
        for rec in charge.exchange.step_records:
            ex_seconds += topo.step_seconds(rec)
        sync = 0.0
        if charge.sync_record is not None:
            sync = topo.step_seconds(charge.sync_record)
        clock += level_seconds(
            charge.expand_seconds, ex_seconds, charge.claim_seconds, sync, ov
        )
    return clock


def _parse_bool(raw) -> bool:
    text = str(raw).strip().lower()
    if text in ("1", "true", "on", "yes"):
        return True
    if text in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_number(raw) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _apply_knob(topo, key: str, raw):
    """``topo`` with one link knob set (``LinkTopology`` checks it).

    An ``inter_*`` knob needs an inter tier: a one-node layout refuses
    it rather than predict an unchanged run.
    """
    if key.startswith("inter_") and topo.num_nodes == 1:
        raise ValueError("a one-node layout has no inter tier")
    value = _parse_number(raw)
    if key == "intra_gbs":
        return replace(topo, link_bandwidth=value * 1e9)
    if key == "inter_gbs":
        return replace(topo, inter_bandwidth=value * 1e9)
    if key == "bandwidth_x":
        return topo.scaled_bandwidth(value)
    if key == "contention":
        return replace(topo, contention=value)
    if key == "inter_contention":
        return replace(topo, inter_contention=value)
    if key == "latency_us":
        return replace(topo, message_latency_s=value * 1e-6)
    return replace(topo, inter_latency_s=value * 1e-6)


def cluster_scenario(topology, sets: dict) -> tuple:
    """Turn a ``--set`` knob dict into ``(topology, overlap, codec)``.

    ``overlap`` and ``codec`` are ``None`` when not set.  Every value is
    checked here — numbers parse, the changed ``LinkTopology`` validates
    its ranges, ``overlap`` is a boolean and ``wire`` names a codec — so
    a bad scenario fails before any run, with one ``ValueError`` naming
    the knob.
    """
    from repro.dist.wire import WIRE_CODECS

    topo = topology
    overlap: bool | None = None
    codec: str | None = None
    for key in sorted(sets):
        raw = sets[key]
        if key not in CLUSTER_KNOBS:
            raise ValueError(
                f"unknown knob {key!r}; cluster knobs: "
                f"{', '.join(CLUSTER_KNOBS)}"
            )
        try:
            if key == "overlap":
                overlap = _parse_bool(raw)
            elif key == "wire":
                if raw not in WIRE_CODECS:
                    raise ValueError(
                        f"pick a codec from {', '.join(WIRE_CODECS)}"
                    )
                codec = raw
            else:
                topo = _apply_knob(topo, key, raw)
        except ValueError as exc:
            raise ValueError(f"bad --set {key}={raw}: {exc}") from None
    return topo, overlap, codec


def whatif_cluster(cluster, sets: dict, rerun=None) -> WhatIfResult:
    """Predict a cluster run's clock under a ``--set`` knob dict.

    Link and overlap knobs re-price ``cluster``'s recorded charges.
    ``wire=X`` re-prices ``rerun(X)`` instead: the same workload run to
    completion with codec ``X`` (required for a ``wire`` knob).
    """
    topo, overlap, codec = cluster_scenario(cluster.topology, sets)
    run = cluster
    if codec is not None:
        if rerun is None:
            raise ValueError(f"wire={codec} needs a re-run with that codec")
        run = rerun(codec)
    name = ",".join(f"{k}={sets[k]}" for k in sorted(sets))
    return WhatIfResult(
        name=name or "baseline",
        baseline_seconds=cluster.clock,
        predicted_seconds=replay_cluster_seconds(
            run, topology=topo, overlap=overlap
        ),
    )


def rank_cluster_whatifs(cluster, rerun=None) -> list[WhatIfResult]:
    """The standard scenario panel, ranked by predicted speedup.

    With ``rerun`` (as for :func:`whatif_cluster`) the panel adds one
    ``wire X`` row per :data:`PANEL_CODECS` codec, the clock of
    ``rerun(X)``.
    """
    base = cluster.clock
    topo = cluster.topology
    results = [
        WhatIfResult(
            name="intra_bandwidth x2",
            baseline_seconds=base,
            predicted_seconds=replay_cluster_seconds(
                cluster,
                topology=replace(
                    topo, link_bandwidth=topo.link_bandwidth * 2.0
                ),
            ),
        )
    ]
    if topo.num_nodes > 1:
        inter_bw = topo.tier_params("inter")[0]
        results.append(
            WhatIfResult(
                name="inter_bandwidth x2",
                baseline_seconds=base,
                predicted_seconds=replay_cluster_seconds(
                    cluster,
                    topology=replace(
                        topo, inter_bandwidth=inter_bw * 2.0
                    ),
                ),
            )
        )
    results.append(
        WhatIfResult(
            name=f"overlap {'off' if cluster.overlap else 'on'}",
            baseline_seconds=base,
            predicted_seconds=replay_cluster_seconds(
                cluster, overlap=not cluster.overlap
            ),
        )
    )
    if rerun is not None:
        results.extend(
            WhatIfResult(
                name=f"wire {codec}",
                baseline_seconds=base,
                predicted_seconds=rerun(codec).clock,
            )
            for codec in PANEL_CODECS
        )
    return sorted(results, key=lambda r: (-r.speedup, r.name))


# -- single-GPU replay ----------------------------------------------------


def replay_engine_seconds(engine, device=None, params=None) -> float:
    """Re-price an engine timeline; returns the predicted elapsed.

    Walks ``engine.records`` in launch order, re-pricing each cost
    snapshot through a :class:`~repro.gpusim.cost.CostModel` with the
    substituted device/params, accumulating exactly like the engine
    clock did (``acc += seconds`` per launch) — bit-identical to an
    actual re-run, because none of these knobs change the traversal.
    """
    from repro.gpusim.cost import CostModel

    model = CostModel(
        device if device is not None else engine.device,
        engine.memory,
        params if params is not None else engine.params,
    )
    acc = 0.0
    for rec in engine.records:
        acc += model.kernel_seconds(rec.cost)
    return acc


def rank_engine_whatifs(engine) -> list[WhatIfResult]:
    """The standard single-GPU scenario panel, ranked by speedup."""
    base = engine.elapsed_seconds
    device = engine.device
    params = engine.params
    scenarios = [
        (
            "dram_bandwidth x2",
            replace(device, dram_bandwidth=device.dram_bandwidth * 2.0),
            params,
        ),
        (
            "pcie_bandwidth x2",
            replace(device, link_bandwidth=device.link_bandwidth * 2.0),
            params,
        ),
        (
            "cached_bw_ratio x2",
            device,
            replace(params, cached_bw_ratio=params.cached_bw_ratio * 2.0),
        ),
        (
            "zero launch overhead",
            replace(device, launch_overhead_s=0.0),
            params,
        ),
    ]
    results = [
        WhatIfResult(
            name=name,
            baseline_seconds=base,
            predicted_seconds=replay_engine_seconds(
                engine, device=dev, params=par
            ),
        )
        for name, dev, par in scenarios
    ]
    return sorted(results, key=lambda r: (-r.speedup, r.name))


# -- shared surfaces ------------------------------------------------------


def parse_sets(
    pairs: list[str], known: tuple[str, ...] | None = None
) -> dict[str, str]:
    """``["k=v", ...]`` (CLI ``--set``) to an ordered knob dict.

    Strict by design — a scenario must say exactly what it prices: a
    duplicated key raises (last-wins would silently drop the earlier setting), and
    with ``known`` given an unknown key raises up front, before any
    expensive run, naming the offending key.  The CLI maps these
    :class:`ValueError`\\ s to exit code 2.
    """
    out: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(
                f"malformed --set {pair!r}; expected key=value"
            )
        if key in out:
            raise ValueError(
                f"duplicate --set key {key!r} "
                f"(already set to {out[key]!r})"
            )
        if known is not None and key not in known:
            raise ValueError(
                f"unknown knob {key!r}; knobs: {', '.join(known)}"
            )
        out[key] = value
    return out


def whatif_section(results: list[WhatIfResult]) -> dict:
    """The ``whatif`` metrics-dump section (numeric, diffable)."""
    return {
        r.name: {
            "predicted_seconds": r.predicted_seconds,
            "speedup": r.speedup,
        }
        for r in results
    }
