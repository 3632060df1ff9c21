"""Hierarchical spans over simulated time.

A traversal run is a tree of nested phases — ``run -> algorithm ->
level/iteration`` (serve waves on a service engine) — and every
question worth asking about its performance ("why was level 7 slow?",
"which levels paid PCIe traffic?") is a question about one subtree.
:class:`Tracer` records that tree: each :class:`Span` carries its
simulated start/end time plus the driver's facts (frontier size, edges
expanded, direction decision), and child spans nest strictly inside
their parent's interval because all timestamps come from the same
monotonically increasing simulated clock.  Spans hold no costs: a
level's launches are the launch records that name it
(:class:`repro.gpusim.engine.LaunchRecord`), and a distributed level's
price is its :class:`repro.dist.cluster.LevelCharge`.

The tracer is deliberately clock-agnostic: callers pass timestamps in
(the engine passes its accumulated simulated seconds), so the span tree
is exactly as deterministic as the simulation itself — two identical
runs produce identical trees, which is what makes metrics dumps and
trace files diffable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One node of the span tree.

    ``start_s``/``end_s`` are simulated seconds since the engine's
    timeline reset; ``end_s`` is ``None`` while the span is open (the
    root "run" span stays open until export, which treats the current
    simulated time as its end).
    """

    name: str
    kind: str = "phase"
    start_s: float = 0.0
    end_s: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def annotate(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Depth-first (pre-order) traversal yielding ``(depth, span)``."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, kind: str) -> list["Span"]:
        """All descendants (including self) of the given kind, pre-order."""
        return [s for _, s in self.walk() if s.kind == kind]

    def to_dict(self, end_default: float | None = None) -> dict:
        """JSON-ready recursive dict; open spans end at ``end_default``."""
        end = self.end_s if self.end_s is not None else end_default
        return {
            "name": self.name,
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": end,
            "attrs": dict(sorted(self.attrs.items())),
            "children": [c.to_dict(end_default) for c in self.children],
        }


class Tracer:
    """Builds the span tree for one engine run.

    The first :meth:`open` call lazily creates the root "run" span, so
    traversal drivers only ever open their own algorithm/level spans and
    the hierarchy falls out of call nesting.  Timestamps are supplied by
    the caller (the engine's simulated clock).
    """

    def __init__(self) -> None:
        self.root: Span | None = None
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """Innermost open span (``None`` between top-level spans)."""
        return self._stack[-1] if self._stack else None

    def open(
        self, name: str, kind: str, t: float, attrs: dict | None = None
    ) -> Span:
        """Open a child span of the current span at simulated time ``t``."""
        if self.root is None:
            self.root = Span(name="run", kind="run", start_s=t)
        parent = self._stack[-1] if self._stack else self.root
        span = Span(name=name, kind=kind, start_s=t, attrs=dict(attrs or {}))
        parent.children.append(span)
        self._stack.append(span)
        return span

    def close(self, t: float) -> Span:
        """Close the innermost open span at simulated time ``t``."""
        if not self._stack:
            raise RuntimeError("no open span to close")
        span = self._stack.pop()
        span.end_s = t
        return span

    def to_dict(self, end_default: float | None = None) -> dict | None:
        """The whole tree as a JSON-ready dict (``None`` if nothing ran)."""
        if self.root is None:
            return None
        return self.root.to_dict(end_default)

