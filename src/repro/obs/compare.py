"""Run-comparison tooling: diff two metrics dumps, gate regressions.

``repro compare a.json b.json`` flattens the numeric leaves of two
:func:`repro.obs.metrics.run_metrics` dumps and prints per-key deltas
(per-kernel seconds, per-term bytes, counters, histogram moments).  A
relative change beyond the threshold on any key marks the comparison as
a regression and the CLI exits non-zero, so CI can run the same
workload on base and PR and fail the build when a cost term moved.

Deterministic runs (same graph, same seed) produce byte-identical
dumps, so the zero-delta case is exact, not approximate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.metrics import SUPPORTED_SCHEMAS

__all__ = ["DeltaRow", "Comparison", "load_metrics", "flatten_metrics",
           "check_sections", "compare_metrics", "format_comparison"]

#: Sections never diffed: identity, not measurement.
SKIP_SECTIONS = ("meta", "schema", "device")

#: Sections allowed to exist on one side only: ``arrays`` and
#: ``hw_counters`` are absent from dumps without per-array attribution
#: (e.g. :func:`repro.dist.report.dist_run_metrics`), and
#: ``critical_path``/``whatif`` appear only on profiled runs.  Any
#: *other* one-sided section — e.g. the serving ``service`` section
#: against a pre-observability dump — means the two dumps describe
#: different workloads and the comparison refuses rather than silently
#: diffing a whole subsystem against zero.
OPTIONAL_SECTIONS = frozenset(
    {"arrays", "hw_counters", "critical_path", "whatif"}
)


@dataclass(frozen=True)
class DeltaRow:
    """One compared numeric leaf."""

    key: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel(self) -> float:
        """Relative change of b vs a (signed; inf when a == 0 != b)."""
        if self.a == 0.0:
            return 0.0 if self.b == 0.0 else float("inf")
        return (self.b - self.a) / abs(self.a)


@dataclass
class Comparison:
    """Outcome of diffing two metrics dumps."""

    rows: list[DeltaRow] = field(default_factory=list)
    threshold: float = 0.0  # relative (0.05 = 5%)

    @property
    def changed(self) -> list[DeltaRow]:
        """Rows with any delta at all."""
        return [r for r in self.rows if r.delta != 0.0]

    @property
    def regressions(self) -> list[DeltaRow]:
        """Rows past the threshold, worst relative change first.

        Deterministically ordered: ties on ``|rel|`` (e.g. several
        keys appearing on one side only, all ``inf``) break on the
        key, so two runs of ``repro compare`` always print and gate
        on the identical list.
        """
        rows = [r for r in self.rows if abs(r.rel) > self.threshold]
        return sorted(rows, key=lambda r: (-abs(r.rel), r.key))

    @property
    def ok(self) -> bool:
        """True when no key moved past the threshold."""
        return not self.regressions


def load_metrics(path: str) -> dict:
    """Load and schema-check one metrics dump.

    Accepts only :data:`~repro.obs.metrics.SUPPORTED_SCHEMAS` (the
    current ``repro.metrics/2``); any other schema, ``/1`` included,
    raises ``ValueError`` naming it.
    """
    with open(path) as fh:
        payload = json.load(fh)
    schema = payload.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"{path}: schema {schema!r} not in supported {SUPPORTED_SCHEMAS!r}"
        )
    return payload


def _flatten(node, prefix: str, out: dict[str, float]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(node, bool):
        return  # bools are config, not measurement
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)


def flatten_metrics(payload: dict) -> dict[str, float]:
    """Numeric leaves of a dump as dotted keys, skipping identity keys."""
    out: dict[str, float] = {}
    for section, node in payload.items():
        if section in SKIP_SECTIONS:
            continue
        _flatten(node, section, out)
    return out


def check_sections(a: dict, b: dict) -> None:
    """Refuse structurally mismatched dumps with a named-section error.

    Raises ``ValueError`` listing every section present in exactly one
    dump (identity and schema-growth sections exempt) — the error
    ``repro compare`` turns into exit code 2.
    """
    exempt = set(SKIP_SECTIONS) | OPTIONAL_SECTIONS
    only_a = sorted(set(a) - set(b) - exempt)
    only_b = sorted(set(b) - set(a) - exempt)
    if only_a or only_b:
        parts = []
        if only_a:
            parts.append(f"only in first dump: {', '.join(only_a)}")
        if only_b:
            parts.append(f"only in second dump: {', '.join(only_b)}")
        raise ValueError(
            "section mismatch — the dumps describe different workloads "
            f"({'; '.join(parts)})"
        )


def compare_metrics(a: dict, b: dict, threshold: float = 0.0) -> Comparison:
    """Diff two dumps; keys present in only one side compare against 0.

    Whole-section mismatches are refused (see :func:`check_sections`):
    a missing *key* is a measurement that moved to zero, but a missing
    *section* means a different workload shape was recorded.
    """
    check_sections(a, b)
    fa = flatten_metrics(a)
    fb = flatten_metrics(b)
    rows = [
        DeltaRow(key=key, a=fa.get(key, 0.0), b=fb.get(key, 0.0))
        for key in sorted(set(fa) | set(fb))
    ]
    return Comparison(rows=rows, threshold=threshold)


def format_comparison(cmp: Comparison, max_rows: int = 40) -> str:
    """Human-readable delta table (changed keys only, largest first;
    ties on relative change break on the key for deterministic output)."""
    changed = sorted(cmp.changed, key=lambda r: (-abs(r.rel), r.key))
    lines = [
        f"{len(cmp.rows)} keys compared, {len(changed)} changed, "
        f"{len(cmp.regressions)} past threshold "
        f"({100 * cmp.threshold:.2f}%)"
    ]
    if not changed:
        lines.append("no deltas: runs are metrically identical")
        return "\n".join(lines)
    lines.append(f"{'key':48s} {'a':>14s} {'b':>14s} {'delta':>12s} {'rel%':>8s}")
    shown = changed[:max_rows]
    for r in shown:
        name = r.key if len(r.key) <= 48 else r.key[:47] + "…"
        rel = "inf" if r.rel == float("inf") else f"{100 * r.rel:8.2f}"
        flag = " *" if abs(r.rel) > cmp.threshold else ""
        lines.append(
            f"{name:48s} {r.a:14.6g} {r.b:14.6g} {r.delta:12.4g} {rel:>8s}{flag}"
        )
    if len(changed) > len(shown):
        lines.append(f"... {len(changed) - len(shown)} more changed keys")
    return "\n".join(lines)
