"""The library builds no tuple from a lazy iterator, and a probe shows why.

In CPython 3.11, ``tuple()`` over an iterator whose length it cannot know in
advance (a generator expression, and possibly ``map``, ``filter``, ``zip``,
``reversed`` or ``iter``), and a call with such an iterator as a starred
argument, allocate 10 slots and then resize the tuple to its final length.
When that tuple dies it goes onto the free list of its final size.  So each
such call moves one tuple from the size-10 free list onto another, and the
free lists of sizes 1 to 20, up to 2,000 entries each, are emptied only by a
full collection of the cycle collector.  The command line builds its
argument parser once per process and leaves no cyclic garbage behind, so no
full collection comes to empty them: the lists would grow with every
command, by several megabytes over ten thousand commands.  Hence the rule
that ``tuple([...])`` is written instead, which these tests guard.
"""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from artinsigma import character_to_dict, graph_to_dict

from genutil import random_character, random_even_fc_graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAZY = {"map", "filter", "zip", "reversed", "iter"}


def _lazy(node: ast.AST) -> bool:
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in LAZY)


def pump_sites(source: str) -> list[int]:
    """Lines of ``tuple(<lazy iterator>)`` and of calls with a starred lazy
    iterator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args \
                and _lazy(node.args[0]):
            lines.append(node.lineno)
        elif any(isinstance(a, ast.Starred) and _lazy(a.value) for a in node.args):
            lines.append(node.lineno)
    return sorted(lines)


def test_library_builds_no_tuple_from_a_lazy_iterator():
    found = [f"{path.name}:{line}" for path in sorted((SRC / "artinsigma").glob("*.py"))
             for line in pump_sites(path.read_text(encoding="utf-8"))]
    assert found == []


def test_guard_sees_every_form():
    for source in ("tuple(x for x in y)", "tuple(map(f, y))", "tuple(filter(f, y))",
                   "tuple(zip(a, b))", "tuple(reversed(y))", "tuple(iter(y))",
                   "lcm(*(x for x in y))", "f(a, *map(g, y))"):
        assert pump_sites(source) == [1], source
    for source in ("tuple([x for x in y])", "tuple(y)", "lcm(*[x for x in y])", "f(*y)",
                   "sum(x for x in y)", "frozenset(x for x in y)"):
        assert pump_sites(source) == [], source


# Run in a fresh interpreter: the full collection at the start empties every
# free list, the collector then stays off, and a first pass of the commands
# sets each list's high-water mark.  The second pass, doing the same work,
# must leave the lists of sizes 1 to 19 no longer.  (Size 20 is left out:
# CPython 3.11 puts tuples of that size onto their free list but never takes
# them off it.)
PROBE = r"""
import gc, io, json, os, re, sys, tempfile
from artinsigma.cli import run

def free_lists():
    with tempfile.TemporaryFile("w+") as fh:
        saved = os.dup(2)
        os.dup2(fh.fileno(), 2)
        try:
            sys._debugmallocstats()
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        fh.seek(0)
        text = fh.read()
    return {int(size): int(count)
            for count, size in re.findall(r"(\d+) free (\d+)-sized PyTupleObjects", text)}

commands = json.loads(sys.argv[1])
gc.collect()
gc.disable()
free_lists()
for argv in commands:
    run(argv, out=io.StringIO())
first = free_lists()
for argv in commands:
    run(argv, out=io.StringIO())
second = free_lists()
print(json.dumps([first, second]))
"""


def test_repeated_commands_leave_the_tuple_free_lists_as_they_were(tmp_path):
    instances = sorted((ROOT / "demos" / "instances").glob("*.json"))
    rng = random.Random(97)
    for k in range(3):
        g = random_even_fc_graph(rng, max_vertices=10, edge_p=0.7)
        path = tmp_path / f"generated-{k}.json"
        path.write_text(json.dumps({"graph": graph_to_dict(g),
                                    **character_to_dict(random_character(rng, g))}))
        instances.append(path)
    commands = [[*command, str(path)] for path in instances
                for command in (("verdict", "--n", "3"),
                                ("homology", "--p", "2", "--n", "2", "--oracle"))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    first, second = json.loads(done.stdout)
    grown = {size: (first[size], second[size]) for size in first
             if int(size) < 20 and second[size] > first[size]}
    assert grown == {}
