"""The docs name only code and CLI surface that exists.

``docs/api.md`` promises that "everything here is importable from the
named module".  For every ``## `repro.x` `` section, each backticked
symbol in a table's first column must resolve against ``repro.x``;
a fully qualified ``repro.a.b.c`` name resolves on its own, and a
``.member`` continues the symbol before it (``ShardedCluster.algorithm``
/ ``.level``).

Every ``repro <verb>`` command in ``docs/*.md``, ``README.md`` and
``DESIGN.md`` names a verb of :func:`repro.cli.build_parser`, and each
``--flag`` on it is one of that verb's options.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
API_MD = ROOT / "docs" / "api.md"
CLI_DOCS = [*sorted((ROOT / "docs").glob("*.md")),
            ROOT / "README.md", ROOT / "DESIGN.md"]

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


_FENCE = re.compile(r"^\s*(```|~~~)")
_SPAN = re.compile(r"`([^`]+)`")
#: ``repro <verb> ...`` at the start of a span or line, after a ``$``
#: prompt, or after ``python -m``.
_COMMAND = re.compile(r"(?:^|\$\s+|-m\s+)repro\s+([a-z][\w-]*)(.*)")
#: Shell separators: what follows is a new command, or a comment.
_SEPARATOR = re.compile(r"&&|;|\s\|\s|\s#\s")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def cli_commands(text: str) -> list[str]:
    """The command text of each fenced code line and each backtick span
    of prose.  A fenced line ending in ``\\``, or starting with ``[`` (a
    wrapped usage synopsis), continues the line before it."""
    lines, prose, fenced, joined = [], [], False, False
    for line in text.splitlines():
        if _FENCE.match(line):
            fenced, joined = not fenced, False
            prose.append("")
        elif not fenced:
            prose.append(line)
        elif lines and (joined or line.lstrip().startswith("[")):
            lines[-1] += " " + line.strip().rstrip("\\")
            joined = line.rstrip().endswith("\\")
        else:
            lines.append(line.strip().rstrip("\\"))
            joined = line.rstrip().endswith("\\")
    spans = [" ".join(s.split()) for s in _SPAN.findall("\n".join(prose))]
    return [
        part.strip() for chunk in lines + spans
        for part in _SEPARATOR.split(chunk)
    ]


def _verb_options() -> dict[str, set[str]]:
    """Each ``repro`` verb and its option strings."""
    (subparsers,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        verb: {opt for a in parser._actions for opt in a.option_strings}
        for verb, parser in subparsers.choices.items()
    }


def stale_cli(text: str) -> list[str]:
    """``repro <verb>`` and ``repro <verb> --flag`` the parser rejects."""
    options, misses = _verb_options(), []
    for command in cli_commands(text):
        m = _COMMAND.search(command)
        if m is None:
            continue
        verb, rest = m.groups()
        if verb not in options:
            misses.append(f"repro {verb}")
            continue
        misses += [
            f"repro {verb} {flag}" for flag in _FLAG.findall(rest)
            if flag not in options[verb]
        ]
    return misses


def test_docs_name_only_existing_cli_surface():
    stale = {
        doc.relative_to(ROOT).as_posix(): misses for doc in CLI_DOCS
        if (misses := stale_cli(doc.read_text(encoding="utf-8")))
    }
    assert stale == {}


def test_cli_checker_catches_stale_commands():
    doc = (
        "Run `repro bench --stale DIR` or `python -m repro nosuchverb`;\n"
        "`repro dist\n--overlap` and `repro.dist` are fine, `from\n"
        "repro import x` is not a command.\n\n"
        "```\n"
        "python -m repro bench [--out-dir D] [--seq N]\n"
        "                      [--rmat-scale S] [--bogus X]\n"
        "$ repro profile bfs --rmat-scale 8 \\\n"
        "      --no-such-flag\n"
        "repro info g && repro encode g --quantum 8 --nope  # --fine\n"
        "profile bfs/efg: --not-a-command\n"
        "```\n"
    )
    assert stale_cli(doc) == [
        "repro bench --bogus",
        "repro profile --no-such-flag",
        "repro encode --nope",
        "repro bench --stale",
        "repro nosuchverb",
    ]
