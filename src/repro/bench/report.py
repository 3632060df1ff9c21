"""Plain-text reporting: aligned tables and ASCII bar series.

The paper's artifacts are tables and bar/line figures; at the terminal
we render the same rows/series as monospace text so a reader can
compare shapes against the paper directly.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "ascii_series"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospace table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) if _numericish(c) else c.ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_series(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
    title: str = "",
) -> str:
    """Render one bar per label, scaled to the maximum value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    peak = max((v for v in values if v is not None), default=0.0)
    lines = [title] if title else []
    label_w = max((len(l) for l in labels), default=0)
    for label, value in zip(labels, values):
        if value is None:
            lines.append(f"{label.ljust(label_w)} | DNR")
            continue
        bar = "#" * (int(round(width * value / peak)) if peak > 0 else 0)
        lines.append(f"{label.ljust(label_w)} | {bar} {value:.3g}{unit}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if cell is None:
        return "DNR"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def _numericish(cell: str) -> bool:
    stripped = cell.replace(",", "").replace(".", "").replace("-", "")
    return stripped.isdigit() or cell == "DNR"
