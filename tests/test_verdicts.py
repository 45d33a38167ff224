import itertools
import random
from fractions import Fraction

import pytest

from artinsigma import (IN, NOT_IN, UNKNOWN, Analysis, Character, EvenGraph, ZeroCharacterError,
                        fp_verdict, homotopic_sigma_verdict, odd_cycle_condition,
                        product_sigma_member, sigma_verdict, validate_fc)

from genutil import (dihedral_sigma_member, negated_character, random_character,
                     random_even_fc_graph, scaled_character)


def fired_rules(verdict):
    return [j.rule for j in verdict.justifications if j.fired]


def test_example1_in_by_strong_link(example1):
    g, chi = example1
    v = sigma_verdict(Analysis(g, chi), 3)
    assert v.status == IN
    assert fired_rules(v)[0] == "strong_link"


def test_example2_not_in_by_p_local(example2):
    g, chi = example2
    v = sigma_verdict(Analysis(g, chi), 1)
    assert v.status == NOT_IN
    assert "p_local_obstruction" in fired_rules(v)
    detail = next(j.detail for j in v.justifications
                  if j.rule == "p_local_obstruction" and j.fired)
    assert "2-living" in detail or "2-1" in detail


def test_d4d6_not_in_by_product_rule_only(d4d6):
    g, chi = d4d6
    v = sigma_verdict(Analysis(g, chi), 2)
    assert v.status == NOT_IN
    rules = fired_rules(v)
    assert rules == ["dihedral_product"]
    # the p-local rule specifically must not fire: no characteristic matches
    # the living subgraph here
    p_local = next(j for j in v.justifications if j.rule == "p_local_obstruction")
    assert not p_local.fired and "larger living subgraph" in p_local.detail


def test_d4d6_degree_1_in(d4d6):
    # below the number of dihedral factors, membership is automatic
    g, chi = d4d6
    v = sigma_verdict(Analysis(g, chi), 1)
    assert v.status == IN


def test_unknown_instance_lists_silent_rules():
    # square with label-4 and label-6 dead edges: the living subgraph is
    # disconnected but every characteristic keeps one more edge alive, the
    # graph is not complete, and n = 2 rules out the degree-1 rule
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 4), ("c", "d", 6), ("a", "c", 2), ("b", "d", 2)])
    chi = Character({"a": 1, "b": -1, "c": 1, "d": -1})
    assert Analysis(g, chi).strong_n_link(2).holds is False
    v = sigma_verdict(Analysis(g, chi), 2)
    assert v.status == UNKNOWN
    assert not fired_rules(v)
    assert all(j.detail for j in v.justifications)


def test_unknown_instance_decided_in_degree_one():
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 4), ("c", "d", 6), ("a", "c", 2), ("b", "d", 2)])
    chi = Character({"a": 1, "b": -1, "c": 1, "d": -1})
    v = sigma_verdict(Analysis(g, chi), 1)
    assert v.status == NOT_IN
    assert "sigma1_connectivity" in fired_rules(v)


def test_fp_verdict_forwards_status(example1, example2):
    g, chi = example1
    fp = fp_verdict(sigma_verdict(Analysis(g, chi), 2))
    assert fp.status == IN and fp.question == "kernel-FP_2"
    assert fp.justifications[-1].rule == "kernel_symmetry"
    g, chi = example2
    assert fp_verdict(sigma_verdict(Analysis(g, chi), 1)).status == NOT_IN


def test_fp_verdict_d4d6(d4d6):
    g, chi = d4d6
    assert fp_verdict(sigma_verdict(Analysis(g, chi), 2)).status == NOT_IN


def test_homotopic_verdicts(example1, example2):
    g, chi = example1
    assert homotopic_sigma_verdict(Analysis(g, chi), 1).status == IN
    assert homotopic_sigma_verdict(Analysis(g, chi), 3).status == IN
    g, chi = example2
    # the homotopic condition fails exactly, but failure of a sufficient
    # condition proves nothing: stay unknown
    assert homotopic_sigma_verdict(Analysis(g, chi), 1).status == UNKNOWN


def test_zero_character_rejected(example1):
    g, _ = example1
    zero = Character({v: 0 for v in g.vertices})
    with pytest.raises(ZeroCharacterError):
        sigma_verdict(Analysis(g, zero), 1)
    with pytest.raises(ZeroCharacterError):
        homotopic_sigma_verdict(Analysis(g, zero), 1)


def test_dihedral_sigma_member():
    assert dihedral_sigma_member(4, 1, -1) is False
    assert dihedral_sigma_member(4, 1, 1) is True
    assert dihedral_sigma_member(6, 2, -2) is False
    assert dihedral_sigma_member(3, 1, -1) is True
    assert dihedral_sigma_member("odd", 1, -1) is True
    with pytest.raises(ValueError):
        dihedral_sigma_member(4, 0, 0)
    with pytest.raises(ValueError):
        dihedral_sigma_member(2, 1, 1)
    with pytest.raises(ValueError):
        dihedral_sigma_member(4, 1, 1, n=0)


def test_product_sigma_member_known_cases(d4d6):
    g, chi = d4d6
    delta = g.vertices
    assert product_sigma_member(g, delta, chi, 2) is False
    assert product_sigma_member(g, delta, chi, 1) is True
    lively = Character({"v": 1, "w": 2, "x": 1, "y": -1})
    assert product_sigma_member(g, delta, lively, 5) is True


def test_product_sigma_member_zero_restriction(d4d6):
    g, _ = d4d6
    chi = Character({"v": 0, "w": 0, "x": 1, "y": -1})
    with pytest.raises(ValueError):
        product_sigma_member(g, ("v", "w"), chi, 1)


def test_product_sigma_member_free_abelian_part():
    # a vertex off every label > 2 edge with nonzero value meets the center,
    # so the class is a member in every degree
    g = EvenGraph(["z", "x", "y"],
                  [("x", "y", 4), ("z", "x", 2), ("z", "y", 2)])
    chi = Character({"z": 1, "x": 1, "y": -1})
    for m in (1, 2, 3):
        assert product_sigma_member(g, g.vertices, chi, m) is True
    dead_z = Character({"z": 0, "x": 1, "y": -1})
    assert product_sigma_member(g, g.vertices, dead_z, 1) is False


def complete_fc_graph(rng: random.Random, size: int) -> EvenGraph:
    """K_size with labels drawn from (2, 2, 4, 6), repaired to FC type as
    ``random_even_fc_graph`` repairs: the later big edges of each offending
    triangle are demoted to 2."""
    vs = [chr(ord("a") + i) for i in range(size)]
    labels = {(u, v): rng.choice((2, 2, 4, 6)) for u, v in itertools.combinations(vs, 2)}
    while True:
        g = EvenGraph(vs, [(u, v, l) for (u, v), l in sorted(labels.items())])
        report = validate_fc(g)
        if report.ok:
            return g
        for finding in report.violations:
            for e in sorted(finding.edges)[1:]:
                labels[e] = 2


def test_product_rule_consistent_with_link_machinery():
    # on complete graphs the closed form is exact, and the strong n-link
    # condition over Z holds exactly when it says IN.  One direction is a
    # theorem (the condition is sufficient for membership); the other is
    # evidence for a converse on complete graphs, not a rule the library uses
    rng = random.Random(99)
    outcomes = {True: 0, False: 0}
    for _ in range(375):
        g = complete_fc_graph(rng, rng.randint(1, 6))
        chi = random_character(rng, g)
        ctx = Analysis(g, chi)
        for n in range(1, 5):
            member = product_sigma_member(g, g.vertices, chi, n)
            assert ctx.strong_n_link(n).holds is member, (g, chi, n)
            outcomes[member] += 1
    assert sum(outcomes.values()) == 1500 and min(outcomes.values()) > 0


def test_odd_cycle_condition():
    def big_graph(edges):
        vs = sorted({v for e in edges for v in e})
        return EvenGraph(vs, [(u, v, 4) for u, v in edges])

    matching = big_graph([("a", "b"), ("c", "d")])
    assert odd_cycle_condition(matching)
    four_cycle = big_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert not odd_cycle_condition(four_cycle)
    five_cycle = big_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    assert odd_cycle_condition(five_cycle)
    # theta graph: all blocks together, contains an even cycle
    theta = big_graph([("a", "b"), ("b", "c"), ("a", "d"), ("d", "c"), ("a", "c")])
    assert not odd_cycle_condition(theta)
    assert odd_cycle_condition(EvenGraph(["a", "b"], [("a", "b", 2)]))
    # two pentagons through one vertex a: two cycles, both odd
    pentagons = big_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
                           ("a", "f"), ("f", "g"), ("g", "h"), ("h", "i"), ("i", "a")])
    assert odd_cycle_condition(pentagons)
    # two pentagons on one edge a-b: their outer cycle has 8 edges
    assert not odd_cycle_condition(big_graph([
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
        ("b", "f"), ("f", "g"), ("g", "h"), ("h", "a")]))
    # two triangles on one edge a-b: their outer cycle has 4 edges
    assert not odd_cycle_condition(big_graph([("a", "b"), ("b", "c"), ("c", "a"),
                                              ("a", "d"), ("d", "b")]))


def test_odd_cycle_condition_against_brute_force():
    # oracle: enumerate all simple cycles of the label > 2 subgraph
    def has_even_cycle(g: EvenGraph) -> bool:
        adj = {v: set() for v in g.vertices}
        for (u, v), label in g.edge_items():
            if label > 2:
                adj[u].add(v)
                adj[v].add(u)

        def extend(path, seen):
            last = path[-1]
            for w in sorted(adj[last]):
                if w == path[0] and len(path) >= 3:
                    if len(path) % 2 == 0:
                        return True
                elif w not in seen and w > path[0]:
                    if extend(path + [w], seen | {w}):
                        return True
            return False

        return any(extend([v], {v}) for v in sorted(adj))

    rng = random.Random(62)
    for _ in range(60):
        g = random_even_fc_graph(rng, max_vertices=6, edge_p=0.6)
        assert odd_cycle_condition(g) == (not has_even_cycle(g))
    # arbitrary graphs, FC or not, of up to 9 vertices
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        vs = [f"v{i}" for i in range(rng.randint(1, 9))]
        edge_p = rng.choice((0.3, 0.45, 0.6))
        g = EvenGraph(vs, [(u, w, rng.choice((2, 4, 6))) for u, w in itertools.combinations(vs, 2)
                           if rng.random() < edge_p])
        holds = odd_cycle_condition(g)
        assert holds == (not has_even_cycle(g)), g
        outcomes[holds] += 1
    assert min(outcomes.values()) >= 80, outcomes


def test_odd_cycle_condition_on_long_paths_and_cycles():
    # forest paths of 1,200 edges: deeper than the default recursion limit
    names = [f"v{i:04d}" for i in range(1201)]
    path = EvenGraph(names[:1200], [(a, b, 4) for a, b in zip(names[:1199], names[1:1200])])
    assert odd_cycle_condition(path)
    odd = EvenGraph(names, [(a, b, 4) for a, b in zip(names, names[1:] + names[:1])])
    assert odd_cycle_condition(odd)
    even = EvenGraph(names[:1200],
                     [(a, b, 4) for a, b in zip(names[:1200], names[1:1200] + names[:1])])
    assert not odd_cycle_condition(even)


def test_verdict_invariance_under_scaling_and_negation():
    rng = random.Random(63)
    for _ in range(30):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        base = sigma_verdict(Analysis(g, chi), n).status
        assert sigma_verdict(Analysis(g, negated_character(chi)), n).status == base
        assert sigma_verdict(Analysis(g, scaled_character(chi, Fraction(7, 3))), n).status == base


def test_sufficient_and_obstruction_rules_never_conflict():
    rng = random.Random(64)
    for _ in range(80):
        g = random_even_fc_graph(rng, max_vertices=6)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        v = sigma_verdict(Analysis(g, chi), n)  # raises RuleConflictError on conflict
        statuses = {j.status for j in v.justifications if j.fired}
        assert not ({IN, NOT_IN} <= statuses)
