"""Every public top-level ``def``/``class`` in ``src/repro`` has a reader.

The package ships what the program runs.  A public top-level definition
needs at least one reference, by name, from:

* another ``src/`` module.  Import statements (so ``__init__``
  re-exports) and ``__all__`` strings are not references: they make a
  name reachable, not used;
* its own module, outside the definition itself;
* ``benchmarks/`` or ``examples/``;
* the first column of ``docs/api.md``, as
  :func:`tests.test_docs.documented_symbols` reads it.  This is how a
  reference oracle that only tests call (``decompress_multiple_lists``,
  ``reference_sssp_distances``, ``BitWriter``) stays on purpose.

Names are matched, not resolved, so a reference to a same-named
attribute elsewhere also counts; the guard errs towards passing.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.test_docs import API_MD, documented_symbols

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
READERS = (ROOT / "benchmarks", ROOT / "examples")

#: ``module.name`` entries exempt from the guard.
ALLOWLIST: frozenset[str] = frozenset()


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every ``Name`` and attribute in ``tree``, outside the ``skip`` subtree."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced(src: dict[str, str], readers: list[str], api_md: str) -> list[str]:
    """``module.name`` of each public top-level def/class in ``src``
    (module name -> source) that nothing above references."""
    trees = {module: ast.parse(text) for module, text in src.items()}
    used = {module: _names(tree) for module, tree in trees.items()}
    outside = set().union(*(_names(ast.parse(text)) for text in readers))
    documented = {
        part for _, symbol in documented_symbols(api_md) for part in symbol.split(".")
    }
    misses = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            name = node.name
            if (
                name in outside
                or name in documented
                or any(name in names for m, names in used.items() if m != module)
                or name in _names(tree, skip=node)
            ):
                continue
            misses.append(f"{module}.{name}")
    return misses


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_public_def_has_a_reader():
    src = {
        _module_name(p): p.read_text(encoding="utf-8")
        for p in sorted((SRC / "repro").rglob("*.py"))
    }
    readers = [
        p.read_text(encoding="utf-8") for d in READERS for p in sorted(d.rglob("*.py"))
    ]
    misses = unreferenced(src, readers, API_MD.read_text(encoding="utf-8"))
    assert [m for m in misses if m not in ALLOWLIST] == []


def test_guard_catches_unreferenced_defs():
    src = {
        "repro.pkg": (
            "from repro.pkg.mod import exported\n"
            '__all__ = ["exported"]\n'
        ),
        "repro.pkg.mod": (
            "def planted(n):\n    return planted(n - 1) if n else 0\n\n"
            "def exported():\n    pass\n\n"
            "def in_prose():\n    pass\n\n"
            "def documented():\n    pass\n\n"
            "def bench_only():\n    pass\n\n"
            "def _private():\n    pass\n\n"
            "class Helper:\n    pass\n\n"
            "def caller():\n    return Helper()\n"
        ),
        "repro.other": "from repro.pkg.mod import caller\n\ncaller()\n",
    }
    readers = ["from repro.pkg.mod import bench_only\n\nbench_only()\n"]
    doc = (
        "## `repro.pkg` — x\n\n`in_prose` is only mentioned here.\n\n"
        "| Symbol | D |\n|---|---|\n"
        "| `repro.pkg.mod.documented()` | the oracle; `in_prose` again |\n"
    )
    assert unreferenced(src, readers, doc) == [
        "repro.pkg.mod.planted",
        "repro.pkg.mod.exported",
        "repro.pkg.mod.in_prose",
    ]
