"""Large graphs: complete graphs through the CLI, and the clique budget.

K_n with every label 2 and values alternating 0 and 1 (see
``genutil.alternating_complete_graph``) has n/2 dead vertices; every clique
of them is dead, and each has the same link, the complete graph on the
living half.  The reports of ``verdict --n 4`` and ``links --n 3`` on K30
and of ``verdict --n 4`` on K60 (523,686 cliques, under the clique budget)
are pinned by SHA-256 digests of their text and ``--json`` output, and the
analysis context must build that one link once, and describe it once when
``links`` prints it and never when ``verdict`` passes every witness.  On K42
the links are K21, whose full flag complexes would pass the clique budget;
``links --n 3`` reads their one-vertex strong-collapse cores.  K120 (about
8.5 million cliques) is refused, in under a second.

The cocktail-party family (see ``genutil.cocktail_party_graph``) has link
cores that are cross-polytope spheres, which no strong collapse shrinks.
Its reports on K30, K38 and K42 are pinned by digests recorded before the
boundary matrices became sparse rows and the flag complexes were built only
as deep as read; the memory of K30 and the time of K50 are bounded.

After a deliberate change of output, regenerate the digests with

    PYTHONPATH=src:tests python tests/test_large_graphs.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from artinsigma import (Analysis, Character, EvenGraph, TooManyCliques, character_to_dict,
                        describe_graph, graph_to_dict)
from artinsigma import conditions, graphs, homology
from artinsigma.cli import run

from genutil import (alternating_complete_graph, cocktail_party_graph, enumerate_cliques, link,
                     living_subgraph, random_character, random_even_fc_graph)

DIGESTS = Path(__file__).resolve().parent / "data" / "large_graph_digests.json"
COMMANDS = ((30, ("verdict", "--n", "4")), (30, ("links", "--n", "3")),
            (60, ("verdict", "--n", "4")))
COCKTAIL_DIGESTS = DIGESTS.with_name("cocktail_party_digests.json")
COCKTAIL_COMMANDS = ((30, ("verdict", "--n", "4")), (30, ("links", "--n", "3")),
                     (38, ("links", "--n", "3")), (42, ("verdict", "--n", "4")))


def _instance_file(directory: str, size: int, family=alternating_complete_graph) -> Path:
    g, chi = family(size)
    path = Path(directory) / f"k{size}.json"
    path.write_text(json.dumps({"name": f"K{size}", "graph": graph_to_dict(g),
                                **character_to_dict(chi)}))
    return path


def _run(size: int, argv, family=alternating_complete_graph) -> tuple[int, str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "report.json"
        text = io.StringIO()
        code, _ = run([*argv, "--json", str(json_path), str(_instance_file(tmp, size, family))],
                      out=text)
        written = json_path.read_bytes() if json_path.exists() else b""
    return code, text.getvalue(), written


def report_digests(commands=COMMANDS, family=alternating_complete_graph) -> dict[str, dict]:
    """Exit code and digests of the text and JSON reports, keyed by command."""
    out = {}
    for size, argv in commands:
        code, text, written = _run(size, argv, family)
        out[" ".join([*argv, f"K{size}"])] = {
            "exit_code": code,
            "text": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "json": hashlib.sha256(written).hexdigest(),
        }
    return out


def test_complete_graph_reports_match_recorded_digests():
    assert report_digests() == json.loads(DIGESTS.read_text())


def test_cocktail_party_reports_match_recorded_digests():
    assert (report_digests(COCKTAIL_COMMANDS, cocktail_party_graph)
            == json.loads(COCKTAIL_DIGESTS.read_text()))


def test_cocktail_party_link_homology_stays_small():
    # the living subgraph of K30 is the cocktail-party graph on 8 pairs, a
    # 7-sphere; verdict --n 4 reads its simplices through dimension 4, whose
    # boundary matrices held as dense grids took 20.7 MiB at the peak
    tracemalloc.start()
    try:
        code, _, _ = _run(30, ("verdict", "--n", "4"), cocktail_party_graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 10 * 2 ** 20


def _count_link_work(monkeypatch) -> tuple[list, list]:
    """Record each graph ("link") the analysis context builds, living
    subgraphs (the links of the empty clique) included, and the vertices of
    every graph whose description is computed."""
    built, described = [], []
    build, describe = conditions.MaskGraph, graphs._describe

    def counting_build(g, *args):
        built.append("link")
        return build(g, *args)

    def counting_describe(vertices, edges):
        described.append(tuple(vertices))
        return describe(vertices, edges)

    monkeypatch.setattr(conditions, "MaskGraph", counting_build)
    monkeypatch.setattr(graphs, "_describe", counting_describe)
    return built, described


@pytest.mark.parametrize("argv", [("verdict", "--n", "4"), ("links", "--n", "3")])
def test_complete_graph_builds_and_describes_its_one_link_once(monkeypatch, argv):
    built, described = _count_link_work(monkeypatch)
    code, _, _ = _run(30, argv)
    assert code == 0
    # one link, the living subgraph (no edge is dead, so every mode shares it);
    # its core is one vertex, so no core graph is built either
    assert built == ["link"]
    living_vertices = [f"v{i:03d}" for i in range(1, 30, 2)]
    # links prints it; verdict passes every witness, and prints no link
    assert described == ([tuple(living_vertices)] if argv[0] == "links" else [])


def test_one_link_graph_per_distinct_mask(monkeypatch):
    # the links of every mode, against the reference link() of each dead clique;
    # modes that remove the same dead edges share one living subgraph object
    built, _ = _count_link_work(monkeypatch)
    rng = random.Random(71)
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=9)
        chi = random_character(rng, g)
        ctx = Analysis(g, chi)
        built.clear()
        distinct = {}
        for p in (None, 0, *sorted(ctx.classification.relevant_primes)):
            living = ctx.living(p)
            for clique, _, lk, _ in ctx.links(3, p):
                ref = link(g, living_subgraph(g, chi, p), clique)
                assert ((lk.vertices, lk.neighbor_masks, lk.description)
                        == (ref.vertices, ref.neighbor_masks, describe_graph(ref)))
                assert distinct.setdefault((id(living), lk.vertices), lk) is lk
        assert built.count("link") == len(distinct)


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


def test_clique_budget_on_the_analysis_path(monkeypatch):
    # the path b-a-c has 1 + 3 + 2 = 6 cliques of size <= 3, and 2^3 = 8
    # vertex sets bound them; the dead cliques lie on a alone
    g = EvenGraph("abc", [("a", "b", 2), ("a", "c", 2)])
    chi = Character({"a": 0, "b": 1, "c": 1})
    starts = []
    levels = homology._levels

    def recorded(nbr, start=None):
        starts.append(start)
        return levels(nbr, start)

    monkeypatch.setattr(homology, "_levels", recorded)
    # bound within the budget: only the restricted walk, on a
    monkeypatch.setattr(homology, "MAX_CLIQUES", 8)
    assert [c for c, *_ in Analysis(g, chi).links(3)] == [(), ("a",)]
    assert starts == [0b001]
    # bound above the budget and count within it: counted, then admitted
    starts.clear()
    monkeypatch.setattr(homology, "MAX_CLIQUES", 6)
    assert [c for c, *_ in Analysis(g, chi).links(3)] == [(), ("a",)]
    assert starts == [None, 0b001]
    # count above the budget: refused as the full walk refuses it
    monkeypatch.setattr(homology, "MAX_CLIQUES", 5)
    with pytest.raises(TooManyCliques, match="^the clique enumeration is refused: 6 cliques of "
                                             "size at most 2, above the budget of 5$"):
        list(Analysis(g, chi).links(3))


def test_clique_budget_check_counts_the_top_size_without_building_it(monkeypatch):
    # K24 (2^24 vertex sets, above the budget) at size 4: the 10,626 cliques
    # of size 4 are counted from the 2,024 of size 3, and only those are built
    nbr = [((1 << 24) - 1) ^ 1 << i for i in range(24)]
    tracemalloc.start()
    try:
        homology._check_clique_budget(nbr, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 2 ** 20
    # the refusal is the one the walk itself gives, at every size
    for budget in (24, 25, 300, 301, 2324, 2325, 12950, 12951):
        monkeypatch.setattr(homology, "MAX_CLIQUES", budget)
        for top in range(1, 5):
            try:
                homology._cliques(nbr, top)
                walked = None
            except TooManyCliques as exc:
                walked = str(exc)
            try:
                homology._check_clique_budget(nbr, top)
                checked = None
            except TooManyCliques as exc:
                checked = str(exc)
            assert checked == walked, (budget, top)


def test_core_budget_refuses_before_any_smith_form(monkeypatch):
    # the join of CP(4) and a 5-cycle, all labels 2, is its own strong-collapse
    # core and no sphere; it has 275 cliques of size <= 3 and 571 of size
    # <= 4.  strong_n_link(3) reads the living subgraph's homology through
    # degree 2, that is cliques of size <= 4, so with a budget of 300 it is
    # refused before any level is diagonalised
    cp = [f"p{i}" for i in range(8)]
    cycle = [f"c{i}" for i in range(5)]
    edges = [(cp[i], cp[j], 2) for i in range(8) for j in range(i + 1, 8) if j != i ^ 1]
    edges += [(cycle[i], cycle[(i + 1) % 5], 2) for i in range(5)]
    edges += [(u, v, 2) for u in cp for v in cycle]
    g = EvenGraph(cp + cycle, edges)
    chi = Character({v: 1 for v in g.vertices})
    calls = []
    honest = homology.integer_invariant_factors

    def counted(*args):
        calls.append(args[1:])
        return honest(*args)

    monkeypatch.setattr(homology, "integer_invariant_factors", counted)
    monkeypatch.setattr(homology, "MAX_CLIQUES", 300)
    with pytest.raises(TooManyCliques, match="^the clique enumeration is refused: 571 cliques "
                                             "of size at most 4, above the budget of 300$"):
        Analysis(g, chi).strong_n_link(3)
    assert calls == []
    monkeypatch.setattr(homology, "MAX_CLIQUES", 571)
    assert Analysis(g, chi).strong_n_link(3).holds
    assert calls


def _timed_run(size: int, argv,
               family=alternating_complete_graph) -> tuple[int, str, dict | None, float]:
    """Exit code, text and JSON reports, and seconds spent in ``run`` alone
    (writing the instance file is not timed)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _instance_file(tmp, size, family)
        text = io.StringIO()
        start = time.perf_counter()
        code, report = run([*argv, str(path)], out=text)
        elapsed = time.perf_counter() - start
    return code, text.getvalue(), report, elapsed


def test_k42_links_read_the_one_vertex_core():
    # the link of every dead clique is K21, whose full flag complex (2^21
    # cliques) is over the clique budget; its core is one vertex
    code, _, report, elapsed = _timed_run(42, ("links", "--n", "3"))
    assert code == 0 and elapsed < 10
    entries = report["results"]["cliques"]
    assert len(entries) == 1 + 21 + 210 + 1330
    for entry in entries:
        d = entry["required_degree"]
        assert entry["betti"] == {str(j): 0 for j in range(-1, d + 1)}
        assert entry["torsion"] == {str(j): [] for j in range(-1, d + 1)}


def test_cocktail_party_k50_reads_its_spheres_only_as_deep_as_asked():
    # the full flag complex of the living subgraph, a 12-sphere, has 3^13 - 1
    # (about 1.6 million) simplices; degree 4 reads those of dimension <= 4
    code, _, report, elapsed = _timed_run(50, ("verdict", "--n", "4"), cocktail_party_graph)
    assert code == 0 and elapsed < 10
    assert report["results"]["sigma_z"]["status"] == "IN"


def test_clique_budget_refuses_k120_at_once():
    code, text, report, elapsed = _timed_run(120, ("verdict", "--n", "4"))
    assert code == 1 and report is None and text.startswith("error: the clique enumeration")
    assert elapsed < 1


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=2, sort_keys=True) + "\n")
    COCKTAIL_DIGESTS.write_text(json.dumps(report_digests(COCKTAIL_COMMANDS, cocktail_party_graph),
                                           indent=2, sort_keys=True) + "\n")
