"""Large graphs: complete graphs through the CLI, and the clique budget.

K_n with every label 2 and values alternating 0 and 1 (see
``genutil.alternating_complete_graph``) has n/2 dead vertices; every clique
of them is dead, and each has the same link, the complete graph on the
living half.  The reports of ``verdict --n 4`` and ``links --n 3`` on K30
and of ``verdict --n 4`` on K60 (523,686 cliques, under the clique budget)
are pinned by SHA-256 digests of their text and ``--json`` output, and the
analysis context must build that one link, and describe it, once.  K120
(about 8.5 million cliques) is refused.

After a deliberate change of output, regenerate the digests with

    PYTHONPATH=src:tests python tests/test_large_graphs.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from artinsigma import (Analysis, EvenGraph, TooManyCliques, character_to_dict,
                        enumerate_cliques, graph_to_dict, link)
from artinsigma import conditions, graphs, homology
from artinsigma.cli import run

from genutil import alternating_complete_graph, random_character, random_even_fc_graph

DIGESTS = Path(__file__).resolve().parent / "data" / "large_graph_digests.json"
COMMANDS = ((30, ("verdict", "--n", "4")), (30, ("links", "--n", "3")),
            (60, ("verdict", "--n", "4")))


def _instance_file(directory: str, size: int) -> Path:
    g, chi = alternating_complete_graph(size)
    path = Path(directory) / f"k{size}.json"
    path.write_text(json.dumps({"name": f"K{size}", "graph": graph_to_dict(g),
                                **character_to_dict(chi)}))
    return path


def _run(size: int, argv) -> tuple[int, str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "report.json"
        text = io.StringIO()
        code, _ = run([*argv, "--json", str(json_path), str(_instance_file(tmp, size))],
                      out=text)
        written = json_path.read_bytes() if json_path.exists() else b""
    return code, text.getvalue(), written


def report_digests() -> dict[str, dict]:
    """Exit code and digests of the text and JSON reports, keyed by command."""
    out = {}
    for size, argv in COMMANDS:
        code, text, written = _run(size, argv)
        out[" ".join([*argv, f"K{size}"])] = {
            "exit_code": code,
            "text": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "json": hashlib.sha256(written).hexdigest(),
        }
    return out


def test_complete_graph_reports_match_recorded_digests():
    assert report_digests() == json.loads(DIGESTS.read_text())


def _count_link_work(monkeypatch) -> tuple[list, list]:
    """Record the source graph of every ``induced_subgraph`` call made by the
    analysis context, and every graph whose description is computed."""
    built, described = [], []
    induced, describe = conditions.induced_subgraph, graphs._describe

    def counting_induced(g, *args):
        built.append(g)
        return induced(g, *args)

    def counting_describe(g):
        described.append(g)
        return describe(g)

    monkeypatch.setattr(conditions, "induced_subgraph", counting_induced)
    monkeypatch.setattr(graphs, "_describe", counting_describe)
    return built, described


@pytest.mark.parametrize("argv", [("verdict", "--n", "4"), ("links", "--n", "3")])
def test_complete_graph_builds_and_describes_its_one_link_once(monkeypatch, argv):
    built, described = _count_link_work(monkeypatch)
    code, _, _ = _run(30, argv)
    assert code == 0
    # one living subgraph (no edge is dead, so every mode shares it) and one link
    assert len(built) == 2
    living_vertices = [f"v{i:03d}" for i in range(1, 30, 2)]
    assert [g.vertices for g in described] == [tuple(living_vertices)]


def test_one_link_graph_per_distinct_mask(monkeypatch):
    # the links of every mode, against the public link() of each dead clique;
    # modes that remove the same dead edges share one living subgraph object
    built, _ = _count_link_work(monkeypatch)
    rng = random.Random(71)
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=9)
        chi = random_character(rng, g)
        ctx = Analysis(g, chi)
        built.clear()
        livings, distinct = [], {}
        for p in (None, 0, *sorted(ctx.classification.relevant_primes)):
            living = ctx.living(p)
            livings.append(living)
            for clique, _, lk, _ in ctx.links(3, p):
                assert lk == link(g, living, clique)
                assert distinct.setdefault((id(living), lk.vertices), lk) is lk
        links_built = [src for src in built if any(src is living for living in livings)]
        assert len(links_built) == len(distinct)


def test_clique_budget_refuses_k120():
    code, text, written = _run(120, ("verdict", "--n", "4"))
    assert code == 1 and written == b""
    assert text == ("error: the clique enumeration is refused: 8502671 cliques of size at "
                    "most 4, above the budget of 2000000\n")


def test_clique_budget_is_inclusive(monkeypatch):
    # a path a-b-c has 1 + 3 + 2 = 6 cliques of size <= 2
    g = EvenGraph("abc", [("a", "b", 2), ("b", "c", 2)])
    monkeypatch.setattr(homology, "MAX_CLIQUES", 6)
    assert len(enumerate_cliques(g, 2)) == 6
    monkeypatch.setattr(homology, "MAX_CLIQUES", 5)
    assert len(enumerate_cliques(g, 1)) == 4
    with pytest.raises(TooManyCliques, match="6 cliques of size at most 2, above the "
                                             "budget of 5"):
        enumerate_cliques(g, 2)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=2, sort_keys=True) + "\n")
