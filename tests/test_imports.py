"""Every module-level import under ``src/repro`` is used by its module.

A stdlib-``ast`` scan: an import binds a name, and the module must read
that name somewhere (code, annotations, quoted annotations) or export it
through ``__all__``.  Package ``__init__.py`` files are skipped -- their
imports are the package's re-exports.  An import kept only for its side
effect says so with ``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def _module_imports(tree):
    """``(name, line)`` of every name bound by an import at module level
    (including inside top-level ``if``/``try`` blocks)."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)


def _used_names(tree):
    """Names the module reads, quoted annotations and ``__all__`` included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation such as ``-> "Message"``: its names count.
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                inner.id for inner in ast.walk(quoted) if isinstance(inner, ast.Name)
            )
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            try:
                used.update(ast.literal_eval(node.value))
            except ValueError:
                continue  # a computed __all__ exports nothing we can read
    return used


def unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    return sorted(
        (line, name)
        for name, line in _module_imports(tree)
        if name not in used and "noqa: F401" not in lines[line - 1]
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "from math import inf as INF\n"
        "__all__ = ['INF']\n"
        "def f(x: Dict) -> 'Optional[int]':\n"
        "    return None\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(2, "os"), (4, "List")]
