import random
import re
from fractions import Fraction

import pytest

from artinsigma import (Analysis, Character, ConditionReport, EvenGraph, GraphDomainError,
                        ZeroCharacterError, build_salvetti_complex, classify,
                        homotopic_sigma_verdict, is_connected, is_dominating,
                        product_sigma_member, sigma_verdict)
from artinsigma import conditions
from artinsigma.characters import _center_states
from artinsigma.graphs import _bits
from artinsigma.homology import _cliques

from genutil import (center_generators, center_values, dihedral, finite_dimensional_through,
                     raag_n_link, random_character, random_even_fc_graph, random_raag)
from test_homology import rp2_subdivision_graph


def test_example1_strong_link_all_degrees_by_cones(example1):
    g, chi = example1
    for n in range(1, 5):
        report = Analysis(g, chi).strong_n_link(n)
        assert report.holds is True
        expected = [c for c in [(), ("c",), ("a", "b")] if len(c) <= n]
        assert [w.clique for w in report.witnesses] == expected
        assert all(w.via == "cone" for w in report.witnesses)


def test_example2_strong_1_link_fails_at_empty_clique(example2):
    g, chi = example2
    report = Analysis(g, chi).strong_n_link(1)
    assert report.holds is False
    failing = [w for w in report.witnesses if w.status == "fail"]
    assert [w.clique for w in failing] == [()]
    assert failing[0].required_degree == 0 and failing[0].failing_degree == 0


def test_d4d6_strong_2_link_fails_over_z(d4d6):
    g, chi = d4d6
    report = Analysis(g, chi).strong_n_link(2)
    assert report.holds is False
    failing = {w.clique: w for w in report.witnesses if w.status == "fail"}
    assert set(failing) == {()}
    assert failing[()].failing_degree == 1  # the living square has a 1-cycle


def test_d4d6_strong_3_link_fails_at_edge_clique(d4d6):
    g, chi = d4d6
    report = Analysis(g, chi).strong_n_link(3)
    assert report.holds is False
    failing = {w.clique for w in report.witnesses if w.status == "fail"}
    assert ("v", "w") in failing  # its link is two isolated vertices


def test_d4d6_p_local_conditions_hold(d4d6):
    g, chi = d4d6
    for p in (0, 2, 3, 5):
        assert Analysis(g, chi).strong_p_n_link(2, p).holds is True


def test_d4d4_p2_condition_fails(d4d4):
    g, chi = d4d4
    report = Analysis(g, chi).strong_p_n_link(2, 2)
    assert report.holds is False
    assert any(w.clique == () and w.failing_degree == 1 for w in report.witnesses)


def test_strong_p_n_link_rejects_composite(d4d4):
    g, chi = d4d4
    with pytest.raises(ValueError):
        Analysis(g, chi).strong_p_n_link(2, 4)


def test_zero_character_rejected(example1):
    g, _ = example1
    zero = Character({v: 0 for v in g.vertices})
    with pytest.raises(ZeroCharacterError):
        Analysis(g, zero).strong_n_link(1)
    with pytest.raises(ZeroCharacterError):
        Analysis(g, zero).strong_homotopic_n_link(1)


def test_free_ranks_refuse_the_zero_character():
    # the kernel of the zero character is the whole group, whose homology is
    # finite dimensional; the formula would read the clique counts [1, 3, 2]
    g = EvenGraph("abc", [("a", "b", 4), ("b", "c", 2)])
    zero = Character(dict.fromkeys("abc", 0))
    with pytest.raises(ZeroCharacterError, match="the zero character has no sphere class"):
        Analysis(g, zero).free_ranks(2, 2)


def test_homotopic_example2_fails(example2):
    g, chi = example2
    report = Analysis(g, chi).strong_homotopic_n_link(1)
    assert report.holds is False
    assert any(w.via == "connectivity" and w.status == "fail" for w in report.witnesses)


def test_homotopic_example1_exact_true(example1):
    g, chi = example1
    assert Analysis(g, chi).strong_homotopic_n_link(1).holds is True
    # in degree 3 the required connectivities exceed 0, but every link is a
    # cone, which settles them exactly
    report = Analysis(g, chi).strong_homotopic_n_link(3)
    assert report.holds is True
    assert all(w.via in ("cone", "vacuous") for w in report.witnesses)


def test_homotopic_unknown_when_only_homology_is_available():
    # living subgraph is a hexagon subdivided... use a 6-cycle: its flag
    # complex is the circle, homology fails in degree 1, so the witness is an
    # exact failure; a tree gives acyclicity but no cone, leaving "unknown"
    vs = list("abcdef")
    cycle = EvenGraph(vs + ["z"],
                      [(vs[i], vs[(i + 1) % 6], 2) for i in range(6)] +
                      [("z", "a", 4)])
    chi = Character({"a": 1, "b": -1, "c": 1, "d": -1, "e": 1, "f": -1, "z": -1})
    report = Analysis(cycle, chi).strong_homotopic_n_link(2)
    assert report.holds is False

    # path on 4 vertices hanging off a dead vertex: acyclic but not coned
    path = EvenGraph(["p", "q", "r", "s"],
                     [("p", "q", 2), ("q", "r", 2), ("r", "s", 2)])
    chi2 = Character({"p": 1, "q": 1, "r": 1, "s": 1})
    report2 = Analysis(path, chi2).strong_homotopic_n_link(2)
    assert report2.holds is None
    assert any(w.status == "unknown" for w in report2.witnesses)


def test_homotopic_true_implies_homological_true():
    rng = random.Random(51)
    hits = 0
    for _ in range(60):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        homotopic = Analysis(g, chi).strong_homotopic_n_link(n)
        if homotopic.holds is True:
            assert Analysis(g, chi).strong_n_link(n).holds is True
            hits += 1
    assert hits > 5


def test_kernel_free_rank_dihedral():
    for half in (2, 3, 4, 6):
        for p in (0, 2, 3, 5):
            g, chi = dihedral(half)
            expected = 1 if p != 0 and half % p == 0 else 0
            assert Analysis(g, chi).free_ranks(p, 1)[1] == expected


def test_kernel_free_rank_d4d4(d4d4):
    g, chi = d4d4
    assert Analysis(g, chi).free_ranks(2, 2)[2] == 1


def test_finite_dimensional_through(d4d6, d4d4):
    g, chi = d4d6
    for p in (0, 2, 3, 5):
        assert finite_dimensional_through(g, chi, p, 2)
    g, chi = d4d4
    assert not finite_dimensional_through(g, chi, 2, 2)
    assert finite_dimensional_through(g, chi, 0, 2)


def test_finite_dimensionality_matches_p_condition():
    rng = random.Random(52)
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        from artinsigma import classify

        for p in sorted({0, 2, *classify(g, chi).relevant_primes}):
            for n in (1, 2):
                assert finite_dimensional_through(g, chi, p, n) == \
                    bool(Analysis(g, chi).strong_p_n_link(n, p).holds)


def test_raag_two_isolated_vertices():
    g = EvenGraph(["a", "b"])
    chi = Character({"a": 1, "b": 1})
    assert raag_n_link(Analysis(g, chi), 1).holds is False


def test_raag_four_cycle_all_alive():
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)])
    chi = Character({v: 1 for v in "abcd"})
    assert raag_n_link(Analysis(g, chi), 1).holds is True


def test_raag_single_vertex():
    g = EvenGraph(["a"])
    chi = Character({"a": 1})
    for n in (1, 2, 3):
        assert raag_n_link(Analysis(g, chi), n).holds is True


def test_raag_rejects_bigger_labels(example1):
    g, chi = example1
    with pytest.raises(ValueError):
        raag_n_link(Analysis(g, chi), 1)


def test_raag_agrees_with_strong_condition():
    rng = random.Random(53)
    for _ in range(60):
        g = random_raag(rng, max_vertices=6)
        chi = random_character(rng, g)
        for n in (1, 2, 3):
            assert raag_n_link(Analysis(g, chi), n).holds == \
                Analysis(g, chi).strong_n_link(n).holds


def test_strong_condition_monotone_in_degree():
    rng = random.Random(54)
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        if Analysis(g, chi).strong_n_link(3).holds:
            assert Analysis(g, chi).strong_n_link(2).holds
            assert Analysis(g, chi).strong_n_link(1).holds


def test_strong_1_link_is_connected_and_dominating():
    rng = random.Random(55)
    for _ in range(60):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g)
        living = Analysis(g, chi).living()
        expected = is_connected(living) and is_dominating(g, living)
        assert bool(Analysis(g, chi).strong_n_link(1).holds) == expected


def test_center_recheck_raises_on_disagreement(monkeypatch, example1):
    g, chi = example1
    # a center that is never killed contradicts the empty clique, which is
    # always dead-supported
    monkeypatch.setattr("artinsigma.conditions._center_states",
                        lambda g, values, cliques: ((0, False) for _ in cliques))
    with pytest.raises(RuntimeError, match="dead-clique/center mismatch on \\(\\)"):
        Analysis(g, chi).strong_n_link(1)


def test_center_recheck_sees_corrupted_values():
    # the walk reads only the cliques that can be dead or have their center
    # killed, the latter from the re-check's own values: a corrupted value
    # that kills a center off the dead cliques must still be caught
    rng = random.Random(57)
    caught = 0
    for _ in range(150):
        g = random_even_fc_graph(rng, max_vertices=8)
        chi = random_character(rng, g)
        ints = chi.primitive_integer_values()
        m = [ints[v] for v in g.vertices]
        corruptions = []
        for i, partners in enumerate(g.big_partner_masks):
            for j in _bits(partners):
                if m[i] and not m[j]:
                    corruptions.append(("value", i, 0))       # a nonzero value set to 0
                if m[i] + m[j]:
                    corruptions.append(("value", j, -m[i]))   # a label > 2 edge summed to 0
        corruptions.extend(("nonzero", i, 0) for i in range(len(m)) if m[i])
        for kind, i, x in corruptions:
            ctx = Analysis(g, chi)
            if kind == "value":
                ctx._values[i] = x
            else:
                ctx._nonzero_values &= ~(1 << i)
            with pytest.raises(RuntimeError, match="dead-clique/center mismatch"):
                ctx.strong_n_link(2)
            caught += 1
    assert caught > 1000


def test_raag_reverification_raises_on_disagreement(monkeypatch):
    g = EvenGraph(["a", "b"], [("a", "b", 2)])
    chi = Character({"a": 0, "b": 1})
    holds = raag_n_link(Analysis(g, chi), 1).holds
    monkeypatch.setattr(Analysis, "strong_n_link",
                        lambda self, n: ConditionReport(not holds, n, "Z", "dead",
                                                        "homological", ()))
    with pytest.raises(RuntimeError, match="disagrees with the strong condition"):
        raag_n_link(Analysis(g, chi), 1)


def test_analysis_answers_like_fresh_calls():
    rng = random.Random(56)
    for _ in range(30):
        g = random_even_fc_graph(rng, max_vertices=6)
        chi = random_character(rng, g)
        ctx = Analysis(g, chi)
        # larger degrees first, then smaller ones, from the same context
        for n in (3, 1, 2):
            assert ctx.strong_n_link(n) == Analysis(g, chi).strong_n_link(n)
            assert ctx.strong_homotopic_n_link(n) == Analysis(g, chi).strong_homotopic_n_link(n)
            for p in (0, 2, 3):
                assert ctx.strong_p_n_link(n, p) == Analysis(g, chi).strong_p_n_link(n, p)
                ranks = [Analysis(g, chi).free_ranks(p, k)[k] for k in range(n + 1)]
                assert ctx.free_ranks(p, n) == ranks
                assert ctx.living(p) == Analysis(g, chi).living(p)


def test_one_cone_test_per_link_over_a_verdict(monkeypatch):
    # the homological and homotopic verdicts of one context test each link,
    # keyed by its mode's living subgraph and its vertex mask, for a cone
    # once; every link whose requirement is not vacuous is tested
    tested = []
    cone_test = conditions.has_cone_vertex

    def counted(lk):
        tested.append((tuple(lk.adjacency), lk.mask))
        return cone_test(lk)

    monkeypatch.setattr(conditions, "has_cone_vertex", counted)
    rng = random.Random(31)
    repeated = 0
    for _ in range(60):
        g = random_even_fc_graph(rng, max_vertices=9, edge_p=0.7)
        chi = random_character(rng, g)
        for n in (1, 2, 3, 4):
            ctx = Analysis(g, chi)
            tested.clear()
            sigma_verdict(ctx, n)
            homotopic_sigma_verdict(ctx, n)
            links = [(tuple(w.link_graph.adjacency), w.link_graph.mask)
                     for w in ctx.strong_n_link(n).witnesses if w.required_degree >= -1]
            repeated += len(links) - len(set(links))
            assert sorted(tested) == sorted(set(links)), (g, chi, n)
    assert repeated > 50    # links shared by several cliques were met


def test_witness_outcomes_are_kept_per_coefficients():
    # every vertex alive: the one dead clique is the empty one, whose link is
    # the barycentric projective plane (H_1 = Z/2), which fails in degree 1
    # over Z and F_2 and is acyclic over Q and F_3; one context answers each
    # as a fresh one does, in either order
    g = rp2_subdivision_graph()
    chi = Character({v: 1 for v in g.vertices})
    for order in ((None, 0, 2, 3), (3, 2, 0, None)):
        ctx = Analysis(g, chi)
        for p in order:
            report = ctx.strong_n_link(2) if p is None else ctx.strong_p_n_link(2, p)
            w, = report.witnesses
            assert (report.holds, w.failing_degree) == ((True, None) if p in (0, 3) else (False, 1))
        assert ctx.strong_homotopic_n_link(2).holds is False


def test_center_zero_test_matches_center_values():
    # the center states carried along the clique walk, on primitive integer
    # values, against the from-scratch generators and the Fraction entries of
    # the public route, on every clique of size <= 4; rational values make
    # the rescaling to primitive integers matter
    rng = random.Random(61)
    outcomes = set()
    for _ in range(300):
        g = random_even_fc_graph(rng, max_vertices=8)
        chi = Character({v: Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                         for v in g.vertices})
        ints = chi.primitive_integer_values()
        m = [ints[v] for v in g.vertices]
        cliques = _cliques(g.neighbor_masks, 4)
        for members, (on_big, vanish) in zip(cliques, _center_states(g, m, cliques),
                                             strict=True):
            pairs, leftover = center_generators(g, members)
            assert on_big == members & ~leftover
            assert vanish == all(m[i] + m[j] == 0 for i, j, _ in pairs)
            killed = vanish and not any(m[i] for i in _bits(leftover))
            clique = tuple([g.vertices[i] for i in _bits(members)])
            assert killed == center_values(g, chi, clique).is_zero, (g, chi, clique)
            outcomes.add(killed)
    assert outcomes == {True, False}


K5_BIG_AT_A = [("a", w, 4) for w in "bcde"] + [
    (u, w, 2) for i, u in enumerate("bcde") for w in "bcde"[i + 1:]]


@pytest.mark.parametrize("vertices, edges, values, clique, finding", [
    # a on two labels > 2
    ("abcd", [("a", "b", 4), ("a", "c", 6), ("b", "c", 2)], (1, 1, 0, 1), "abc",
     "triangle a,b,c carries 2 labels > 2"),
    # b on two labels > 2, first held by the clique {a, b, d}
    ("abcd", [("a", "b", 4), ("a", "c", 2), ("a", "d", 2), ("b", "c", 2), ("b", "d", 4),
              ("c", "d", 2)], (1, 1, 0, 1), "abd", "triangle a,b,d carries 2 labels > 2"),
    # c, the highest vertex, on two labels > 2
    ("abcd", [("a", "b", 2), ("a", "c", 4), ("b", "c", 6)], (1, 1, 0, 1), "abc",
     "triangle a,b,c carries 2 labels > 2"),
    # an odd label in a triangle
    ("abcd", [("a", "b", 3), ("a", "c", 2), ("b", "c", 2)], (1, 1, 0, 1), "abc",
     "odd label 3 on edge a-b"),
    # a on two labels > 2, on a triangle of nonzero values, off every dead
    # clique and every killed center
    ("abcd", [("a", "b", 4), ("a", "d", 6), ("b", "d", 2), ("c", "d", 2)], (1, 1, 0, 1), "abd",
     "triangle a,b,d carries 2 labels > 2"),
    ("ab", [("a", "b", 3)], (1, -1), "ab", "odd label 3 on edge a-b"),
    ("ab", [("a", "b", 1)], (1, 1), "ab", "odd label 1 on edge a-b"),
    # FC violated at a; the span of b(a, K5) is 2,805, but read as on an FC
    # graph it would be 1,401, within the oracle's budget
    ("abcde", K5_BIG_AT_A, (1, 700, 700, 700, 700), "abcde",
     "triangle a,b,c carries 2 labels > 2"),
], ids=["a_on_two", "b_on_two", "c_on_two", "odd_in_triangle", "off_dead_cliques", "label_3",
        "label_1", "k5"])
def test_every_entry_point_refuses_a_graph_that_is_not_even_fc(vertices, edges, values,
                                                                clique, finding):
    # one check at the door, at every degree, whether or not a clique walk
    # would reach the fault
    g = EvenGraph(vertices, edges)
    chi = Character(dict(zip(vertices, values)))
    message = re.escape(f"not an even FC graph: {finding}")
    with pytest.raises(ValueError, match=message):
        Analysis(g, chi)
    with pytest.raises(ValueError, match=message):
        classify(g, chi)
    for n in range(1, 5):
        with pytest.raises(ValueError, match=message):
            build_salvetti_complex(g, chi, 2, n)
        with pytest.raises(ValueError, match=message):
            product_sigma_member(g, clique, chi, n)


def test_the_refusal_carries_every_finding():
    # validate_even's findings, then validate_fc's; the message names the first
    g = EvenGraph("abcd", [("a", "b", 3), ("a", "c", 4), ("b", "c", 4), ("c", "d", 5)])
    with pytest.raises(GraphDomainError, match="^not an even FC graph: odd label 3 on edge a-b$") \
            as refusal:
        Analysis(g, Character(dict.fromkeys("abcd", 1)))
    assert [f.message for f in refusal.value.findings] == [
        "odd label 3 on edge a-b", "odd label 5 on edge c-d", "triangle a,b,c carries 3 labels > 2"]
