"""Every public ``def``/``class`` and method in ``src/repro`` has a reader.

The package ships what the program runs.  A public top-level definition,
and a public method or property of a top-level class, needs at least
one reference, by name, from:

* another ``src/`` module.  Import statements (so ``__init__``
  re-exports) and ``__all__`` strings are not references: they make a
  name reachable, not used;
* its own module, outside the definition itself;
* ``benchmarks/`` or ``examples/``.

Tests are not readers, and neither are the docs.  The only exemptions
are the reference oracles in :data:`ALLOWLIST`, each named with the
test that compares the program against it.

Names are matched, not resolved, so a reference to a same-named
attribute elsewhere also counts; the guard errs towards passing.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
READERS = (ROOT / "benchmarks", ROOT / "examples")

#: Reference oracles: ``module.name`` -> the test that compares against it.
ALLOWLIST: dict[str, str] = {
    "repro.core.kernels.decompress_multiple_lists":
        "tests/core/test_kernels.py (the Alg. 1 kernel vs the batched decode)",
    "repro.ef.bitstream.BitWriter":
        "tests/ef/test_bitstream.py (scalar reference for pack_bits)",
    "repro.ef.bitstream.BitReader":
        "tests/ef/test_bitstream.py (scalar reference for extract_fields)",
    "repro.traversal.validate.reference_sssp_distances":
        "tests/traversal/test_sssp.py (Dijkstra oracle for every SSSP driver)",
}


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_defs(tree: ast.Module):
    """``(qualified name, node)`` of each public top-level def/class and
    each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced(src: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each public def/class/method in ``src`` (module
    name -> source) that nothing above references."""
    trees = {module: ast.parse(text) for module, text in src.items()}
    used = {module: _names(tree) for module, tree in trees.items()}
    outside = set().union(*(_names(ast.parse(text)) for text in readers))
    misses = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(n for m, n in used.items() if m != module))
        for qualname, node in _public_defs(tree):
            name = node.name
            if name in elsewhere or name in _names(tree, skip=node):
                continue
            misses.append(f"{module}.{qualname}")
    return misses


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _misses() -> list[str]:
    src = {
        _module_name(p): p.read_text(encoding="utf-8")
        for p in sorted((SRC / "repro").rglob("*.py"))
    }
    readers = [
        p.read_text(encoding="utf-8") for d in READERS for p in sorted(d.rglob("*.py"))
    ]
    return unreferenced(src, readers)


def test_every_public_def_has_a_reader():
    # An allowlisted class exempts its methods too.
    assert [
        m for m in _misses()
        if m not in ALLOWLIST and m.rsplit(".", 1)[0] not in ALLOWLIST
    ] == []


def test_allowlist_names_only_unread_oracles():
    misses = set(_misses())
    for entry, test in ALLOWLIST.items():
        assert entry in misses, f"{entry} has a program reader; drop it"
        assert (ROOT / test.split(" ", 1)[0]).is_file(), test


def test_guard_catches_unreferenced_defs():
    src = {
        "repro.pkg": (
            "from repro.pkg.mod import exported\n"
            '__all__ = ["exported"]\n'
        ),
        "repro.pkg.mod": (
            "def planted(n):\n    return planted(n - 1) if n else 0\n\n"
            "def exported():\n    pass\n\n"
            "def bench_only():\n    pass\n\n"
            "def _private():\n    pass\n\n"
            "class Helper:\n"
            "    def used(self):\n        return 1\n\n"
            "    def orphan(self):\n        return self.orphan()\n\n"
            "    @property\n    def prop(self):\n        return 0\n\n"
            "    def _hidden(self):\n        pass\n\n"
            "def caller():\n    return Helper().used()\n"
        ),
        "repro.other": "from repro.pkg.mod import caller\n\ncaller()\n",
    }
    readers = ["from repro.pkg.mod import bench_only\n\nbench_only()\n"]
    assert unreferenced(src, readers) == [
        "repro.pkg.mod.planted",
        "repro.pkg.mod.exported",
        "repro.pkg.mod.Helper.orphan",
        "repro.pkg.mod.Helper.prop",
    ]
