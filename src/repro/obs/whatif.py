"""What-if replay: re-price a recorded run under parameter deltas.

A finished run is a complete pricing record — per-launch cost
snapshots on the single-GPU timeline, per-step byte/message maxima in
the cluster's :class:`~repro.dist.cluster.LevelCharge` sequence.
Because none of the priced knobs (bandwidths, latencies, contention,
``cached_bw_ratio``, overlap) change the *functional* traversal, a
run's charges can be re-priced under new parameters without
re-traversing anything, in milliseconds instead of a full re-run.

Replays come in two flavours:

* **Exact** — bandwidth / latency / contention / ``cached_bw_ratio`` /
  launch-overhead / overlap changes.  The replay performs the same
  floating-point operations in the same order as an actual re-run
  under the changed parameters, so predicted equals actual
  *bit-for-bit* (asserted in tests).
* **Estimates** — wire-codec swaps: per-tier byte rescaling from the
  recorded per-codec trial sizes (run with ``record_wire=True``).  The
  recorded trials give each codec's total bytes per tier, not each
  message's, so the per-step message maxima are rescaled by a ratio of
  totals — close, not bit-exact.

:func:`rank_engine_whatifs` / :func:`rank_cluster_whatifs` run the
standard scenario panel and rank by predicted speedup — the "top
optimization targets" table the CLI, metrics dumps, and bench
trajectory surface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.obs.critpath import level_seconds

__all__ = [
    "CLUSTER_KNOBS",
    "WhatIfResult",
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


@dataclass(frozen=True)
class WhatIfResult:
    """One scenario's predicted end-to-end time."""

    name: str
    baseline_seconds: float
    predicted_seconds: float
    #: True when the replay is bit-exact w.r.t. an actual re-run.
    exact: bool

    @property
    def speedup(self) -> float:
        """Baseline over predicted (>1 means the change helps)."""
        if self.predicted_seconds <= 0.0:
            return 0.0
        return self.baseline_seconds / self.predicted_seconds


# -- cluster replay -------------------------------------------------------


def _price_step(record: dict, topology, scale: dict | None = None) -> float:
    """Re-price one exchange step from its record.

    ``LinkTopology.step_seconds`` prices the record, the same call the
    run made, so a replay on the recorded topology is bit-identical.
    ``scale`` multiplies a tier's bytes first (codec swaps; breaks
    exactness by construction).
    """
    if scale:
        record = {
            tier: {
                **row,
                "link_bytes": row["link_bytes"] * scale.get(tier, 1.0),
                "total_bytes": row["total_bytes"] * scale.get(tier, 1.0),
            }
            for tier, row in record.items()
        }
    return topology.step_seconds(record)


def _codec_scale(ex, codec_name: str) -> dict[str, float]:
    """Per-tier byte rescaling of one exchange under a codec swap.

    New tier bytes = the codec's recorded trial id payload plus the
    unchanged value/header bytes; the factor applies uniformly to the
    step maxima (the estimate: per-message skew is folded into the
    tier aggregate).
    """
    if codec_name in ex.trial_invalid:
        raise ValueError(
            f"codec {codec_name!r} cannot represent this run's messages"
        )
    trials = ex.trial_id_bytes.get(codec_name)
    if trials is None:
        if ex.messages == 0:
            return {}
        raise ValueError(
            f"no trial sizes for codec {codec_name!r}; rerun with "
            "record_wire=True (repro whatif does this automatically)"
        )
    out: dict[str, float] = {}
    for tier, old in ex.tier_bytes.items():
        if old <= 0:
            out[tier] = 1.0
            continue
        new = (
            trials[tier]
            + ex.tier_value_bytes[tier]
            + ex.tier_header_bytes[tier]
        )
        out[tier] = new / old
    return out


def replay_cluster_seconds(
    cluster,
    topology=None,
    overlap: bool | None = None,
    codec: str | None = None,
) -> float:
    """Re-price a recorded cluster run; returns the predicted clock.

    With no arguments this replays the run as recorded and reproduces
    ``cluster.clock`` bit-exactly (a replay self-check the tests pin).
    ``topology`` re-prices every exchange step and sync under different
    link parameters; ``overlap`` switches the level cost model;
    ``codec`` rescales exchange bytes per the recorded trial sizes.
    """
    topo = cluster.topology if topology is None else topology
    ov = cluster.overlap if overlap is None else overlap
    clock = 0.0
    for charge in cluster.charges:
        scale = _codec_scale(charge.exchange, codec) if codec else None
        ex_seconds = 0.0
        for rec in charge.exchange.step_records:
            ex_seconds += _price_step(rec, topo, scale)
        # The sync carries scalars, not codec traffic: never scaled.
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


def whatif_cluster(cluster, sets: dict) -> WhatIfResult:
    """Predict a cluster run's clock under a ``--set`` knob dict."""
    topo = cluster.topology
    overlap: bool | None = None
    codec: str | None = None
    exact = True
    for key in sorted(sets):
        raw = sets[key]
        if key == "intra_gbs":
            topo = replace(topo, link_bandwidth=float(raw) * 1e9)
        elif key == "inter_gbs":
            topo = replace(topo, inter_bandwidth=float(raw) * 1e9)
        elif key == "bandwidth_x":
            topo = topo.scaled_bandwidth(float(raw))
        elif key == "contention":
            topo = replace(topo, contention=float(raw))
        elif key == "inter_contention":
            topo = replace(topo, inter_contention=float(raw))
        elif key == "latency_us":
            topo = replace(topo, message_latency_s=float(raw) * 1e-6)
        elif key == "inter_latency_us":
            topo = replace(topo, inter_latency_s=float(raw) * 1e-6)
        elif key == "overlap":
            overlap = _parse_bool(raw)
        elif key == "wire":
            codec = str(raw)
            exact = False
        else:
            raise ValueError(
                f"unknown knob {key!r}; cluster knobs: "
                f"{', '.join(CLUSTER_KNOBS)}"
            )
    predicted = replay_cluster_seconds(
        cluster, topology=topo, overlap=overlap, codec=codec
    )
    name = ",".join(f"{k}={sets[k]}" for k in sorted(sets))
    return WhatIfResult(
        name=name or "baseline",
        baseline_seconds=cluster.clock,
        predicted_seconds=predicted,
        exact=exact,
    )


def rank_cluster_whatifs(cluster) -> list[WhatIfResult]:
    """The standard scenario panel, ranked by predicted speedup."""
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
            exact=True,
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
                exact=True,
            )
        )
    results.append(
        WhatIfResult(
            name=f"overlap {'off' if cluster.overlap else 'on'}",
            baseline_seconds=base,
            predicted_seconds=replay_cluster_seconds(
                cluster, overlap=not cluster.overlap
            ),
            exact=True,
        )
    )
    # Codec swaps need recorded trial sizes; codecs any message broke
    # (representation limits) are excluded per _codec_scale.
    trialed: set[str] = set()
    invalid: set[str] = set()
    for charge in cluster.charges:
        trialed.update(charge.exchange.trial_id_bytes)
        invalid.update(charge.exchange.trial_invalid)
    for name in sorted(trialed - invalid):
        results.append(
            WhatIfResult(
                name=f"wire {name}",
                baseline_seconds=base,
                predicted_seconds=replay_cluster_seconds(
                    cluster, codec=name
                ),
                exact=False,
            )
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
            exact=True,
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
            "exact": float(r.exact),
        }
        for r in results
    }
