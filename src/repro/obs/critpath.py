"""Critical-path extraction over recorded runs.

A finished run — single-GPU engine timeline or distributed cluster —
is a complete record of every priced charge.  This module walks that
record and labels each segment *on* or *off* the end-to-end critical
path:

* **Single-GPU** runs are strictly serial: the engine clock only ever
  advances through ``SimEngine.launch``, so every kernel launch is on
  the path and the chain is the timeline itself.
* **Distributed** runs advance the cluster clock once per
  bulk-synchronous level (``ShardedCluster.superstep``), by
  :func:`level_seconds`: ``expand + exchange + claim`` in the serial
  cost model or ``max(expand, exchange) + claim`` under overlap, plus
  any serial post-level sync (PageRank's scalar allreduce).  Under overlap
  the shorter of expand/exchange is *off* the path — its whole
  duration is hidden, and its ``slack_seconds`` says how much it could
  grow before surfacing.

:func:`verify_critpath` replays the on-path chain with exactly the
arithmetic the simulator used (same order, same association) and
asserts the sum reproduces ``elapsed_seconds`` bit-for-bit — floats
are not associative, so the replay mirrors the original accumulation
rather than summing segments in an arbitrary order.  The check uses
explicit ``raise AssertionError`` so it survives ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CriticalPath",
    "PathSegment",
    "critical_path_section",
    "critpath_report_line",
    "extract_cluster_critical_path",
    "extract_critical_path",
    "level_seconds",
    "verify_critpath",
]


@dataclass
class PathSegment:
    """One attributed slice of a run's wall-clock.

    ``level`` orders segments into their bulk-synchronous group (for a
    single-GPU run, the launch record's enclosing level ordinal, or -1
    outside any level).  ``phase`` is ``expand``/``exchange``/``claim``/
    ``sync`` on clusters and the kernel name on engines.  ``array`` is
    the kernel's dominant traffic binding, ``tier`` the link tier an
    exchange drained on.  Off-path segments are fully hidden under the
    path; ``slack_seconds`` is how much they could grow before
    surfacing on it.
    """

    level: int
    level_name: str
    phase: str
    kernel: str = ""
    array: str = ""
    tier: str = ""
    start_s: float = 0.0
    seconds: float = 0.0
    on_path: bool = True
    slack_seconds: float = 0.0


@dataclass
class CriticalPath:
    """The labeled segment chain of one finished run."""

    #: ``"engine"`` (serial single-GPU timeline) or ``"cluster"``.
    kind: str
    #: Whether the cluster priced levels with the overlap model.
    overlap: bool
    #: The recorded end-to-end clock the on-path chain must reproduce.
    elapsed_seconds: float
    segments: list[PathSegment] = field(default_factory=list)

    @property
    def on_path(self) -> list[PathSegment]:
        """The segments that carry the end-to-end time."""
        return [s for s in self.segments if s.on_path]

    @property
    def hidden_seconds(self) -> float:
        """Total off-path time hidden under the path (overlap wins)."""
        return sum(s.seconds for s in self.segments if not s.on_path)

    def levels(self) -> list[list[PathSegment]]:
        """Segments grouped by bulk-synchronous level, in clock order."""
        groups: list[list[PathSegment]] = []
        current: int | None = None
        for seg in self.segments:
            if seg.level != current:
                groups.append([])
                current = seg.level
            groups[-1].append(seg)
        return groups

    def phase_seconds(self) -> dict[str, float]:
        """On-path seconds per phase (display aggregation)."""
        out: dict[str, float] = {}
        for seg in self.on_path:
            out[seg.phase] = out.get(seg.phase, 0.0) + seg.seconds
        return out


def _dominant_array(breakdown: dict) -> str:
    """The array carrying the most bytes (name breaks exact ties)."""
    if not breakdown:
        return ""
    return max(breakdown.items(), key=lambda kv: (kv[1], kv[0]))[0]


def extract_critical_path(engine) -> CriticalPath:
    """Label a single-GPU engine timeline (every launch is on-path).

    One segment per launch record, in launch order, carrying the exact
    ``seconds`` the engine clock advanced by, attributed to its
    enclosing level span and dominant traffic array.
    """
    root = engine.tracer.root
    levels = root.find("level") if root is not None else []
    path = CriticalPath(
        kind="engine",
        overlap=False,
        elapsed_seconds=engine.elapsed_seconds,
    )
    for rec in engine.records:
        level_name = levels[rec.level].name if rec.level >= 0 else ""
        path.segments.append(
            PathSegment(
                level=rec.level,
                level_name=level_name,
                phase=rec.name,
                kernel=rec.name,
                array=_dominant_array(rec.cost.breakdown),
                start_s=rec.start_s,
                seconds=rec.seconds,
                on_path=True,
            )
        )
    return path


def _cluster_kernel_arrays(cluster) -> dict[str, str]:
    """Dominant traffic array per kernel name, summed over all shards."""
    totals: dict[str, dict[str, float]] = {}
    for backend in cluster.backends:
        for rec in backend.engine.records:
            per = totals.setdefault(rec.name, {})
            for array, nbytes in rec.cost.breakdown.items():
                per[array] = per.get(array, 0.0) + nbytes
    return {name: _dominant_array(per) for name, per in totals.items()}


def _slower_tier(seconds: dict[str, float]) -> str:
    """The tier a step spent more fabric time on (``"intra"`` on a tie
    or when no tier was recorded)."""
    if seconds.get("inter", 0.0) > seconds.get("intra", 0.0):
        return "inter"
    return "intra"


def extract_cluster_critical_path(cluster) -> CriticalPath:
    """Label a cluster run's level charges on/off the critical path.

    Serial model: expand, exchange, claim (and sync) all queue — every
    segment is on-path.  Overlap model: the longer of expand/exchange
    is on-path (expand wins exact ties, mirroring ``max``'s
    first-argument preference in :func:`level_seconds`) and
    the shorter is hidden; claim and sync stay serial.  Exchange and
    sync segments bind to the tier that spent more fabric time.
    """
    path = CriticalPath(
        kind="cluster",
        overlap=cluster.overlap,
        elapsed_seconds=cluster.clock,
    )
    arrays = _cluster_kernel_arrays(cluster)
    clock = 0.0
    for i, charge in enumerate(cluster.charges):
        ex = charge.exchange
        expand_on = True
        exchange_on = True
        if cluster.overlap:
            expand_on = charge.expand_seconds >= ex.seconds
            exchange_on = not expand_on
        longer = max(charge.expand_seconds, ex.seconds)
        expand_kernel = charge.expand_kernel
        claim_kernel = charge.claim_kernel
        tier = _slower_tier({
            t: ex.tier_seconds(t) for t in ("intra", "inter")
        })
        path.segments.append(
            PathSegment(
                level=i,
                level_name=charge.name,
                phase="expand",
                kernel=expand_kernel,
                array=arrays.get(expand_kernel, ""),
                start_s=clock,
                seconds=charge.expand_seconds,
                on_path=expand_on,
                slack_seconds=(
                    0.0 if expand_on else longer - charge.expand_seconds
                ),
            )
        )
        path.segments.append(
            PathSegment(
                level=i,
                level_name=charge.name,
                phase="exchange",
                tier=tier,
                # Overlapped phases both start at the level boundary.
                start_s=clock if cluster.overlap
                else clock + charge.expand_seconds,
                seconds=ex.seconds,
                on_path=exchange_on,
                slack_seconds=(
                    0.0 if exchange_on else longer - ex.seconds
                ),
            )
        )
        serial_front = (
            longer if cluster.overlap
            else charge.expand_seconds + ex.seconds
        )
        path.segments.append(
            PathSegment(
                level=i,
                level_name=charge.name,
                phase="claim",
                kernel=claim_kernel,
                array=arrays.get(claim_kernel, ""),
                start_s=clock + serial_front,
                seconds=charge.claim_seconds,
                on_path=True,
            )
        )
        if charge.sync_record is not None:
            path.segments.append(
                PathSegment(
                    level=i,
                    level_name=charge.name,
                    phase="sync",
                    tier=_slower_tier({
                        t: sum(cluster.topology.tier_seconds(t, row))
                        for t, row in charge.sync_record.items()
                    }),
                    start_s=clock + serial_front + charge.claim_seconds,
                    seconds=charge.sync_seconds,
                    on_path=True,
                )
            )
        clock += level_seconds(
            charge.expand_seconds, ex.seconds, charge.claim_seconds,
            charge.sync_seconds, cluster.overlap,
        )
    return path


def level_seconds(
    expand: float, exchange: float, claim: float, sync: float, overlap: bool
) -> float:
    """One bulk-synchronous level's clock advance.

    Serial model: expand, exchange and claim queue (a left-associated
    sum).  Overlap: the exchange streams while expansion still runs, so
    the level pays ``max(expand, exchange)`` plus the claim.  A serial
    post-level sync adds on after.  ``ShardedCluster`` prices its clock
    with this function and every replay calls it too, so a replay of
    the recorded inputs is bit-identical to the recorded advance.
    """
    if overlap:
        total = max(expand, exchange) + claim
    else:
        total = expand + exchange + claim
    return total + sync


def verify_critpath(path: CriticalPath) -> None:
    """Assert the on-path chain reproduces ``elapsed_seconds`` exactly.

    Replays the accumulation with the simulator's own operation order:
    per-launch ``acc += seconds`` for engines, the per-level
    serial/overlap expression for clusters.  Every on-path segment
    contributes its full duration exactly once; off-path segments
    contribute nothing.  Raises ``AssertionError`` (explicitly — the
    invariant holds under ``python -O``) on any mismatch.
    """
    if path.kind == "engine":
        acc = 0.0
        for seg in path.segments:
            if not seg.on_path:
                raise AssertionError(
                    f"engine runs are serial; segment {seg.phase!r} at "
                    f"{seg.start_s} cannot be off-path"
                )
            acc += seg.seconds
    else:
        acc = 0.0
        for group in path.levels():
            phases = {}
            for seg in group:
                if seg.phase in phases:
                    raise AssertionError(
                        f"level {seg.level_name!r} has duplicate "
                        f"{seg.phase!r} segments"
                    )
                phases[seg.phase] = seg
            expand = phases.get("expand")
            exchange = phases.get("exchange")
            claim = phases.get("claim")
            if expand is None or exchange is None or claim is None:
                raise AssertionError(
                    f"level group {group[0].level_name!r} is missing an "
                    "expand/exchange/claim segment"
                )
            if path.overlap:
                longer, shorter = expand, exchange
                if exchange.seconds > expand.seconds:
                    longer, shorter = exchange, expand
                if not longer.on_path or shorter.on_path:
                    raise AssertionError(
                        f"level {expand.level_name!r}: overlap on-path "
                        "labels disagree with the longer phase"
                    )
            elif not (expand.on_path and exchange.on_path):
                raise AssertionError(
                    f"level {expand.level_name!r}: serial phases "
                    "must all be on-path"
                )
            if not claim.on_path:
                raise AssertionError(
                    f"level {claim.level_name!r}: claim is never hidden"
                )
            sync = phases.get("sync")
            if sync is not None and not sync.on_path:
                raise AssertionError(
                    f"level {sync.level_name!r}: sync is serial"
                )
            acc += level_seconds(
                expand.seconds, exchange.seconds, claim.seconds,
                0.0 if sync is None else sync.seconds, path.overlap,
            )
    if acc != path.elapsed_seconds:
        raise AssertionError(
            f"on-path replay {acc!r} != elapsed {path.elapsed_seconds!r} "
            f"({path.kind}, overlap={path.overlap})"
        )


def critical_path_section(path: CriticalPath) -> dict:
    """The ``critical_path`` metrics-dump section (numeric, diffable)."""
    phases = path.phase_seconds()
    return {
        "elapsed_seconds": path.elapsed_seconds,
        "hidden_seconds": path.hidden_seconds,
        "segments": float(len(path.segments)),
        "on_path_segments": float(len(path.on_path)),
        "phases": {
            name: phases[name] for name in sorted(phases)
        },
    }


def critpath_report_line(path: CriticalPath, top: int = 5) -> str:
    """``critical path: 54% expand / 31% exchange / ...`` report line."""
    phases = path.phase_seconds()
    if not phases or path.elapsed_seconds <= 0.0:
        return "critical path: (empty run)"
    ranked = sorted(phases.items(), key=lambda kv: (-kv[1], kv[0]))
    parts = [
        f"{100.0 * seconds / path.elapsed_seconds:.0f}% "
        f"{name if len(name) <= 32 else name[:31] + '…'}"
        for name, seconds in ranked[:top]
    ]
    if len(ranked) > top:
        parts.append(f"+{len(ranked) - top} more")
    line = f"critical path: {' / '.join(parts)}"
    if path.hidden_seconds > 0.0:
        line += f" ({path.hidden_seconds * 1e3:.4f} ms hidden)"
    return line
