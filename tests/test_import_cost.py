"""The library defines its records without ``dataclasses``.

A dataclass is generated when its class statement runs: ``dataclasses``
writes the source of ``__init__``, ``__repr__``, ``__eq__`` and the rest
and compiles it with ``exec``, on every fresh import, about 1 ms per class
in CPython 3.11.  A command-line process pays that before its first answer.
A ``typing.NamedTuple`` class is built without compiling anything (about
0.1 ms), and its instances are built faster too, so the records are
NamedTuples, and this test keeps ``dataclasses`` out of ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "artinsigma"


def dataclass_imports(source: str) -> list[int]:
    """Lines that import ``dataclasses`` or anything from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "dataclasses" for alias in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            lines.append(node.lineno)
    return sorted(lines)


def test_library_imports_no_dataclasses():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in dataclass_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_guard_sees_every_form():
    for source in ("import dataclasses", "import dataclasses as dc", "import os, dataclasses",
                   "from dataclasses import dataclass", "from dataclasses import replace",
                   "def f():\n    import dataclasses"):
        assert dataclass_imports(source) != [], source
    for source in ("import typing", "from typing import NamedTuple", "from . import records"):
        assert dataclass_imports(source) == [], source
