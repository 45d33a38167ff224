"""The library carries no API that only the tests call.

What the tests alone need lives in ``tests/genutil.py``.  This guard lists
every function and method in ``src/`` whose name is read nowhere else in
``src/``, as a name or as an attribute, and compares the list with an
allow-list that gives each entry its reason.  Imports are not reads, so a
re-export in ``__init__.py`` keeps nothing alive.  Special methods
(``__init__``, ``__eq__`` and the rest) are called by the language and are
not listed.  The match is by name alone, so a name that another object
also carries counts as read.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "artinsigma"

ALLOWED = {
    "cli._Parser.error": "argparse's hook: ArgumentParser calls it on a bad command line",
    "salvetti.TwistedComplex.differential":
        "read by demos/dihedral_homology.py, whose output tests/test_demos.py pins",
}


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module's functions and the methods of its classes, with their
    qualified names, special methods left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not (item.name.startswith("__") and item.name.endswith("__")))
    return found


def _reads(node: ast.AST) -> dict[str, int]:
    """How often each name is read under ``node``, as a name or an attribute."""
    reads: dict[str, int] = {}
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else \
            sub.attr if isinstance(sub, ast.Attribute) else None
        if name is not None:
            reads[name] = reads.get(name, 0) + 1
    return reads


def unreferenced(sources: dict[str, str]) -> list[str]:
    """The functions and methods of the modules ``sources`` (module name to
    source) whose name is read nowhere outside their own body, as
    "module.function" or "module.Class.method"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total: dict[str, int] = {}
    for tree in trees.values():
        for name, count in _reads(tree).items():
            total[name] = total.get(name, 0) + count
    flagged = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if total.get(name, 0) == _reads(node).get(name, 0):
                flagged.append(f"{module}.{qualname}")
    return sorted(flagged)


def test_every_library_function_has_a_library_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == sorted(ALLOWED)


def test_guard_sees_every_form():
    method = "class C:\n    def helper(self):\n        return 1\n"
    function = "def helper():\n    return 1\n"
    assert unreferenced({"m": method}) == ["m.C.helper"]
    assert unreferenced({"m": function}) == ["m.helper"]
    # a call from its own body is not a caller, and an import is not a read:
    # re-exporting a name keeps nothing alive
    assert unreferenced({"m": "def helper(n):\n    return helper(n - 1) if n else 0\n"}) \
        == ["m.helper"]
    assert unreferenced({"m": function, "__init__": "from .m import helper\n"}) == ["m.helper"]
    # read as an attribute, called by name, or handed on by name, in the
    # module or in another one
    for source, reader in ((method, "value = C().helper()\n"),
                           (method, "value = getter(C()).helper\n"),
                           (function, "value = helper()\n"),
                           (function, "value = list(map(helper, []))\n")):
        assert unreferenced({"m": source + reader}) == [], reader
        assert unreferenced({"m": source, "n": "from .m import *\n" + reader}) == [], reader
    assert unreferenced({"m": "class C:\n    def __eq__(self, other):\n        return True\n"}) \
        == []
