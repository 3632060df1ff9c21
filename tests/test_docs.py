"""``docs/api.md`` names only symbols that import from where it says.

The reference promises that "everything here is importable from the
named module".  For every ``## `repro.x` `` section, each backticked
symbol in a table's first column must resolve against ``repro.x``;
a fully qualified ``repro.a.b.c`` name resolves on its own, and a
``.member`` continues the symbol before it (``ShardedCluster.algorithm``
/ ``.level``).
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

API_MD = Path(__file__).resolve().parents[1] / "docs" / "api.md"

_SECTION = re.compile(r"^## `(repro(?:\.\w+)*)`")
_SYMBOL = re.compile(r"`([^`]+)`")
_MISSING = object()


def documented_symbols(text: str) -> list[tuple[str, str]]:
    """``(module, symbol)`` for each first-column symbol of each section."""
    out: list[tuple[str, str]] = []
    module = None
    for line in text.splitlines():
        if line.startswith("## "):
            m = _SECTION.match(line)
            module = m.group(1) if m else None
            continue
        if module is None or not line.startswith("|"):
            continue
        first = line.split(" | ", 1)[0]
        for token in _SYMBOL.findall(first):
            out.append((module, re.split(r"[(\s]", token, maxsplit=1)[0]))
    return out


def resolve(module: str, symbol: str, previous: str | None = None) -> bool:
    """Whether ``symbol`` (as documented under ``module``) exists.

    A bare name that only finds a submodule is a miss: ``from
    repro.traversal import msbfs`` returns the module, not the driver.
    """
    if symbol.startswith(".") and previous is not None:
        symbol = previous.rsplit(".", 1)[0] + symbol
    parts = symbol.split(".")
    if parts[0] == "repro":
        for cut in range(len(parts), 0, -1):
            try:
                base = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            break
        rest = parts[cut:]
    else:
        base, rest = importlib.import_module(module), parts
    obj = base
    for part in rest:
        obj = getattr(obj, part, _MISSING)
        if obj is _MISSING or inspect.ismodule(obj):
            return False
    return True


def unresolved(text: str) -> list[str]:
    misses, previous = [], None
    for module, symbol in documented_symbols(text):
        if not resolve(module, symbol, previous):
            misses.append(f"{module}: {symbol}")
        previous = symbol if not symbol.startswith(".") else previous
    return misses


def test_every_api_symbol_resolves():
    assert unresolved(API_MD.read_text(encoding="utf-8")) == []


def test_resolver_catches_misses():
    doc = (
        "## `repro.traversal` — x\n\n| Symbol | D |\n|---|---|\n"
        "| `bfs(backend)` / `no_such_driver` | a |\n"
        "| `repro.traversal.msbfs.msbfs(backend)` | b |\n"
        "| `repro.traversal.msbfs.nothing` / `msbfs(backend)` | c |\n"
        "| `CSRBackend.expand` / `.no_such_method` | d |\n"
        "\n## Command line\n\n| `not_checked` | e |\n"
    )
    assert unresolved(doc) == [
        "repro.traversal: no_such_driver",
        "repro.traversal: repro.traversal.msbfs.nothing",
        "repro.traversal: msbfs",
        "repro.traversal: .no_such_method",
    ]
