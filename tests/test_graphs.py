import ast
import random
import re
from pathlib import Path

import pytest

from artinsigma import (Character, EvenGraph, Finding, GraphFormatError, describe_graph,
                        graph_from_dict, graph_to_dict, is_connected, validate_even, validate_fc)
from artinsigma import characters, graphs
from artinsigma.graphs import MAX_LABEL

from genutil import has_edge, induced_subgraph, is_subgraph, random_even_fc_graph


def test_construction_rejects_structural_garbage():
    with pytest.raises(ValueError):
        EvenGraph(["a", "a"])
    with pytest.raises(ValueError):
        EvenGraph(["a"], [("a", "a", 2)])
    with pytest.raises(ValueError):
        EvenGraph(["a", "b"], [("a", "b", 2), ("b", "a", 4)])
    with pytest.raises(ValueError):
        EvenGraph(["a", "b"], [("a", "c", 2)])
    with pytest.raises(ValueError):
        EvenGraph(["a", "b"], [("a", "b", 0)])


def first_structural_error(vertices, edges) -> str | None:
    """Reference for the constructor's edge checks: the message of the first
    fault, each edge checked for an unknown vertex, a loop, a bad label and
    a duplicate in that order, or None."""
    index = {v: i for i, v in enumerate(vertices)}
    seen = set()
    for u, v, label in edges:
        if u not in index or v not in index:
            return f"edge {u!r}-{v!r} mentions an unknown vertex"
        if u == v:
            return f"loop at vertex {u!r}"
        if not isinstance(label, int) or label < 1:
            return f"edge {u!r}-{v!r}: label must be an integer >= 1"
        if frozenset((u, v)) in seen:
            return f"duplicate edge {u!r}-{v!r}"
        seen.add(frozenset((u, v)))
    return None


def random_edge_list(rng: random.Random):
    """Shuffled vertex names and a shuffled edge list, each edge in a random
    orientation."""
    vertices = [f"x{k}" for k in range(rng.randint(1, 12))]
    rng.shuffle(vertices)
    edges = [(u, v, rng.choice((2, 4, 6))) for i, u in enumerate(vertices)
             for v in vertices[i + 1:] if rng.random() < 0.5]
    edges = [(v, u, label) if rng.random() < 0.5 else (u, v, label) for u, v, label in edges]
    rng.shuffle(edges)
    return vertices, edges


def test_edges_come_sorted_by_vertex_order():
    rng = random.Random(8)
    for _ in range(300):
        vertices, edges = random_edge_list(rng)
        g = EvenGraph(vertices, edges)
        index = {v: i for i, v in enumerate(vertices)}
        pairs = [(u, v) if index[u] < index[v] else (v, u) for u, v, _ in edges]
        assert g.edges() == tuple(sorted(pairs, key=lambda e: (index[e[0]], index[e[1]])))
        assert dict(g.edge_items()) == {pair: label for pair, (_, _, label) in zip(pairs, edges)}


def test_constructor_errors_come_first_in_edge_order():
    rng = random.Random(9)
    faults = {
        "unknown": lambda vs, es: ("nowhere", rng.choice(vs), 2),
        "unknown loop": lambda vs, es: ("nowhere", "nowhere", 0),
        "loop": lambda vs, es: (rng.choice(vs),) * 2 + (rng.choice((2, 0)),),
        "label": lambda vs, es: (*rng.choice(es)[:2], rng.choice((0, -2, 2.0, "4", None))),
        "duplicate": lambda vs, es: (*rng.choice(es)[1::-1], rng.choice((2, 4))),
    }
    met = set()
    for _ in range(400):
        vertices, edges = random_edge_list(rng)
        if not edges:
            continue
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(sorted(faults))
            edges.insert(rng.randint(0, len(edges)), faults[kind](vertices, edges))
        expected = first_structural_error(vertices, edges)
        met.add(expected.split()[0])
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            EvenGraph(vertices, edges)
    assert met >= {"edge", "loop", "duplicate"}


def test_validate_even():
    assert validate_even(EvenGraph(["a", "b"], [("a", "b", 4)])).ok
    report = validate_even(EvenGraph(["a", "b"], [("a", "b", 3)]))
    assert not report.ok
    assert "odd" in report.violations[0].message
    assert validate_even(EvenGraph([])).ok


def test_validate_fc_triangle():
    g = EvenGraph(["a", "b", "c"], [("a", "b", 4), ("b", "c", 4), ("a", "c", 2)])
    report = validate_fc(g)
    assert not report.ok
    assert report.violations[0].vertices == ("a", "b", "c")


def test_validate_fc_product_of_dihedrals_ok():
    g = EvenGraph(["v", "w", "x", "y"],
                  [("v", "w", 4), ("x", "y", 6),
                   ("v", "x", 2), ("v", "y", 2), ("w", "x", 2), ("w", "y", 2)])
    assert validate_fc(g).ok


def test_validate_fc_all_label_2_triangle_ok():
    g = EvenGraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    assert validate_fc(g).ok


def test_induced_subgraph_identity_and_single_vertex(example1):
    g, _ = example1
    assert induced_subgraph(g, g.vertices) == g
    single = induced_subgraph(g, ["a"])
    assert single.vertices == ("a",) and not single.edges()


def test_induced_subgraph_drop_edge(example1):
    g, _ = example1
    sub = induced_subgraph(g, ["a", "b", "d"], drop_edges=[("a", "b")])
    assert sub.vertices == ("a", "b", "d")
    assert sub.edges() == (("a", "d"), ("b", "d"))


def test_induced_subgraph_unknown_ids(example1):
    g, _ = example1
    with pytest.raises(ValueError):
        induced_subgraph(g, ["z"])
    # unknown edge
    with pytest.raises(ValueError):
        induced_subgraph(g, g.vertices, drop_edges=[("c", "b")])


def test_induced_subgraph_idempotent_and_commutes():
    rng = random.Random(1)
    for _ in range(30):
        g = random_even_fc_graph(rng)
        vs = list(g.vertices)
        keep1 = set(rng.sample(vs, rng.randint(0, len(vs))))
        keep2 = set(rng.sample(vs, rng.randint(0, len(vs))))
        once = induced_subgraph(g, keep1)
        assert induced_subgraph(once, keep1.intersection(once.vertices)) == once
        a = induced_subgraph(induced_subgraph(g, keep1), keep1 & keep2)
        b = induced_subgraph(induced_subgraph(g, keep2), keep1 & keep2)
        assert a == b


def test_fc_passes_to_induced_subgraphs():
    rng = random.Random(2)
    for _ in range(30):
        g = random_even_fc_graph(rng)
        assert validate_fc(g).ok
        keep = set(rng.sample(list(g.vertices), rng.randint(0, len(g.vertices))))
        assert validate_fc(induced_subgraph(g, keep)).ok


def test_fc_monotone_under_label_increase():
    # relabeling a 2-edge to 4 never turns a violation into ok
    rng = random.Random(3)
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=5)
        if validate_fc(g).ok:
            continue
        edges = [(u, v, 4 if label == 2 and rng.random() < 0.5 else label)
                 for (u, v), label in g.edge_items()]
        bumped = EvenGraph(g.vertices, edges)
        assert not validate_fc(bumped).ok


def test_graph_json_round_trip(example1):
    g, _ = example1
    assert graph_from_dict(graph_to_dict(g)) == g


@pytest.mark.parametrize("edges", [
    [{"u": "a", "v": "b", "label": 3}],
    [{"u": "a", "v": "b", "label": 0}],
    [{"u": "a", "v": "b", "label": 2}, {"u": "b", "v": "a", "label": 2}],
    [{"u": "a", "v": "z", "label": 2}],
    [{"u": "a", "v": "a", "label": 2}],
])
def test_graph_json_parse_errors(edges):
    with pytest.raises(GraphFormatError):
        graph_from_dict({"vertices": ["a", "b"], "edges": edges})


@pytest.mark.parametrize("edges", [
    5,
    None,
    [{"u": ["x"], "v": "b", "label": 2}],
    [{"u": "a", "v": {"b": 1}, "label": 2}],
])
def test_graph_json_malformed_edges_are_format_errors(edges):
    # these once escaped as TypeError: iterating an int, hashing a list
    with pytest.raises(GraphFormatError):
        graph_from_dict({"vertices": ["a", "b"], "edges": edges})


def test_graph_json_refuses_labels_too_large_to_factor():
    edge = {"u": "a", "v": "b", "label": MAX_LABEL}
    assert graph_from_dict({"vertices": ["a", "b"], "edges": [edge]}).label("a", "b") == MAX_LABEL
    # half of this label is the prime 2^61 - 1: trial division would not finish
    edge["label"] = 2 * (2 ** 61 - 1)
    with pytest.raises(GraphFormatError, match="exceeds the largest supported label"):
        graph_from_dict({"vertices": ["a", "b"], "edges": [edge]})


def validate_fc_by_triples(g):
    """The definition: scan every vertex triple in order."""
    violations = []
    n = len(g.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                u, v, w = g.vertices[i], g.vertices[j], g.vertices[k]
                if not (has_edge(g, u, v) and has_edge(g, u, w) and has_edge(g, v, w)):
                    continue
                big = [e for e in ((u, v), (u, w), (v, w)) if g.label(*e) > 2]
                if len(big) >= 2:
                    violations.append(Finding(
                        f"triangle {u},{v},{w} carries {len(big)} labels > 2",
                        vertices=(u, v, w), edges=tuple(big)))
    return violations


def test_validate_fc_matches_triple_scan():
    rng = random.Random(131)
    for _ in range(200):
        n = rng.randint(0, 9)
        vs = [f"v{i}" for i in range(n)]
        rng.shuffle(vs)     # vertex order is not the order of the names
        edges = [(vs[i], vs[j], rng.choice((2, 2, 4, 6))) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.6]
        rng.shuffle(edges)
        g = EvenGraph(vs, edges)
        report = validate_fc(g)
        assert report.violations == tuple(validate_fc_by_triples(g))
        assert report.ok == (not report.violations)


def test_fc_findings_and_the_door_agree_with_the_definitions(monkeypatch):
    # FC graphs, half of them with up to three label-2 edges changed to 1 or
    # 3..6, which may plant odd labels and triangles with two or three labels
    # > 2: validate_fc against the walk over every triple, the constructor's
    # odd-label flag against a forced scan, and the door raising, with the
    # first finding, exactly when either reports one
    rng = random.Random(132)
    seen = set()
    full = 0    # graphs with a triangle of three labels > 2
    for _ in range(300):
        g = random_even_fc_graph(rng, max_vertices=9, edge_p=0.6)
        plain = [e for e, label in g.edge_items() if label == 2]
        if plain and rng.random() < 0.5:
            changed = {e: rng.choice((1, 3, 4, 5, 6))
                       for e in rng.sample(plain, min(len(plain), rng.randint(1, 3)))}
            g = EvenGraph(g.vertices, [(*e, changed.get(e, label)) for e, label in g.edge_items()])
        even, fc = validate_even(g), validate_fc(g)
        assert fc.violations == tuple(validate_fc_by_triples(g))
        full += any(len(f.edges) == 3 for f in fc.violations)
        with monkeypatch.context() as m:
            m.setattr(g, "_odd_label", True)
            assert validate_even(g) == even
        findings = even.violations + fc.violations
        try:
            characters._check_domain(g, Character({v: 1 for v in g.vertices}))
        except ValueError as exc:
            assert findings and str(exc) == f"not an even FC graph: {findings[0].message}"
        else:
            assert not findings
        seen.add((even.ok, fc.ok))
    assert seen == {(True, True), (False, False), (True, False), (False, True)}
    assert full >= 5, full


def test_validate_fc_reports_each_triangle_of_k4_once():
    # every label 4: each triangle has three vertices with two adjacent
    # label > 2 partners, and is reported once, in lexicographic order
    vs = ["d", "c", "b", "a"]   # vertex order is not the order of the names
    g = EvenGraph(vs, [(vs[i], vs[j], 4) for i in range(4) for j in range(i + 1, 4)])
    report = validate_fc(g)
    assert [f.vertices for f in report.violations] == [
        ("d", "c", "b"), ("d", "c", "a"), ("d", "b", "a"), ("c", "b", "a")]
    assert [f.message for f in report.violations] == [
        "triangle d,c,b carries 3 labels > 2", "triangle d,c,a carries 3 labels > 2",
        "triangle d,b,a carries 3 labels > 2", "triangle c,b,a carries 3 labels > 2"]
    assert report.violations[0].edges == (("d", "c"), ("d", "b"), ("c", "b"))
    assert report.violations == tuple(validate_fc_by_triples(g))


def test_validate_fc_on_a_long_path():
    vs = [f"v{i}" for i in range(1000)]
    g = EvenGraph(vs, [(vs[i], vs[i + 1], 4) for i in range(999)])
    assert validate_fc(g).ok
    closed = EvenGraph(vs, [(vs[i], vs[i + 1], 4) for i in range(999)] + [(vs[0], vs[2], 2)])
    assert [f.vertices for f in validate_fc(closed).violations] == [("v0", "v1", "v2")]


def test_is_subgraph_and_connectivity(example1):
    g, _ = example1
    sub = induced_subgraph(g, ["a", "b", "d"], drop_edges=[("a", "b")])
    assert is_subgraph(sub, g)
    assert not is_subgraph(g, sub)
    assert is_connected(sub)
    assert not is_connected(EvenGraph(["a", "b"]))
    assert not is_connected(EvenGraph([]))
    assert is_connected(EvenGraph(["a"]))


def even_graph_calls(node: ast.AST) -> int:
    return sum(1 for n in ast.walk(node) if isinstance(n, ast.Call)
               and "EvenGraph" in (getattr(n.func, "id", None), getattr(n.func, "attr", None)))


def test_only_the_parser_builds_an_even_graph():
    # after parsing, subgraphs (living subgraphs, links, cores) are neighbour masks
    found = {}
    for path in sorted(Path(graphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.stem] = even_graph_calls(tree)
        if path.stem == "graphs":
            parser, = [n for n in tree.body
                       if isinstance(n, ast.FunctionDef) and n.name == "graph_from_dict"]
    assert {stem: n for stem, n in found.items() if n} == {"graphs": 1}
    assert even_graph_calls(parser) == 1


def test_describe_graph_deterministic(example1):
    g, _ = example1
    assert describe_graph(g) == describe_graph(graph_from_dict(graph_to_dict(g)))
    assert describe_graph(EvenGraph([])) == "empty graph"
