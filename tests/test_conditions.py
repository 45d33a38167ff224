import random
from fractions import Fraction

import pytest

from artinsigma import (Analysis, Character, ConditionReport, EvenGraph,
                        ZeroCharacterError, center_values, enumerate_cliques,
                        finite_dimensional_through, is_connected, is_dominating,
                        kernel_free_rank, living_subgraph, raag_n_link,
                        strong_homotopic_n_link, strong_n_link, strong_p_n_link)

from genutil import dihedral, random_character, random_even_fc_graph, random_raag


def test_example1_strong_link_all_degrees_by_cones(example1):
    g, chi = example1
    for n in range(1, 5):
        report = strong_n_link(g, chi, n)
        assert report.holds is True
        expected = [c for c in [(), ("c",), ("a", "b")] if len(c) <= n]
        assert [w.clique for w in report.witnesses] == expected
        assert all(w.via == "cone" for w in report.witnesses)


def test_example2_strong_1_link_fails_at_empty_clique(example2):
    g, chi = example2
    report = strong_n_link(g, chi, 1)
    assert report.holds is False
    failing = [w for w in report.witnesses if w.status == "fail"]
    assert [w.clique for w in failing] == [()]
    assert failing[0].required_degree == 0 and failing[0].failing_degree == 0


def test_d4d6_strong_2_link_fails_over_z(d4d6):
    g, chi = d4d6
    report = strong_n_link(g, chi, 2)
    assert report.holds is False
    failing = {w.clique: w for w in report.witnesses if w.status == "fail"}
    assert set(failing) == {()}
    assert failing[()].failing_degree == 1  # the living square has a 1-cycle


def test_d4d6_strong_3_link_fails_at_edge_clique(d4d6):
    g, chi = d4d6
    report = strong_n_link(g, chi, 3)
    assert report.holds is False
    failing = {w.clique for w in report.witnesses if w.status == "fail"}
    assert ("v", "w") in failing  # its link is two isolated vertices


def test_d4d6_p_local_conditions_hold(d4d6):
    g, chi = d4d6
    for p in (0, 2, 3, 5):
        assert strong_p_n_link(g, chi, 2, p).holds is True


def test_d4d4_p2_condition_fails(d4d4):
    g, chi = d4d4
    report = strong_p_n_link(g, chi, 2, 2)
    assert report.holds is False
    assert any(w.clique == () and w.failing_degree == 1 for w in report.witnesses)


def test_strong_p_n_link_rejects_composite(d4d4):
    g, chi = d4d4
    with pytest.raises(ValueError):
        strong_p_n_link(g, chi, 2, 4)


def test_zero_character_rejected(example1):
    g, _ = example1
    zero = Character({v: 0 for v in g.vertices})
    with pytest.raises(ZeroCharacterError):
        strong_n_link(g, zero, 1)
    with pytest.raises(ZeroCharacterError):
        strong_homotopic_n_link(g, zero, 1)


def test_homotopic_example2_fails(example2):
    g, chi = example2
    report = strong_homotopic_n_link(g, chi, 1)
    assert report.holds is False
    assert any(w.via == "connectivity" and w.status == "fail" for w in report.witnesses)


def test_homotopic_example1_exact_true(example1):
    g, chi = example1
    assert strong_homotopic_n_link(g, chi, 1).holds is True
    # in degree 3 the required connectivities exceed 0, but every link is a
    # cone, which settles them exactly
    report = strong_homotopic_n_link(g, chi, 3)
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
    report = strong_homotopic_n_link(cycle, chi, 2)
    assert report.holds is False

    # path on 4 vertices hanging off a dead vertex: acyclic but not coned
    path = EvenGraph(["p", "q", "r", "s"],
                     [("p", "q", 2), ("q", "r", 2), ("r", "s", 2)])
    chi2 = Character({"p": 1, "q": 1, "r": 1, "s": 1})
    report2 = strong_homotopic_n_link(path, chi2, 2)
    assert report2.holds is None
    assert any(w.status == "unknown" for w in report2.witnesses)


def test_homotopic_true_implies_homological_true():
    rng = random.Random(51)
    hits = 0
    for _ in range(60):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        homotopic = strong_homotopic_n_link(g, chi, n)
        if homotopic.holds is True:
            assert strong_n_link(g, chi, n).holds is True
            hits += 1
    assert hits > 5


def test_kernel_free_rank_dihedral():
    for half in (2, 3, 4, 6):
        for p in (0, 2, 3, 5):
            g, chi = dihedral(half)
            expected = 1 if p != 0 and half % p == 0 else 0
            assert kernel_free_rank(g, chi, p, 1) == expected


def test_kernel_free_rank_d4d4(d4d4):
    g, chi = d4d4
    assert kernel_free_rank(g, chi, 2, 2) == 1


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
                    bool(strong_p_n_link(g, chi, n, p).holds)


def test_raag_two_isolated_vertices():
    g = EvenGraph(["a", "b"])
    chi = Character({"a": 1, "b": 1})
    assert raag_n_link(g, chi, 1).holds is False


def test_raag_four_cycle_all_alive():
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)])
    chi = Character({v: 1 for v in "abcd"})
    assert raag_n_link(g, chi, 1).holds is True


def test_raag_single_vertex():
    g = EvenGraph(["a"])
    chi = Character({"a": 1})
    for n in (1, 2, 3):
        assert raag_n_link(g, chi, n).holds is True


def test_raag_rejects_bigger_labels(example1):
    g, chi = example1
    with pytest.raises(ValueError):
        raag_n_link(g, chi, 1)


def test_raag_agrees_with_strong_condition():
    rng = random.Random(53)
    for _ in range(60):
        g = random_raag(rng, max_vertices=6)
        chi = random_character(rng, g)
        for n in (1, 2, 3):
            assert raag_n_link(g, chi, n).holds == strong_n_link(g, chi, n).holds


def test_strong_condition_monotone_in_degree():
    rng = random.Random(54)
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        if strong_n_link(g, chi, 3).holds:
            assert strong_n_link(g, chi, 2).holds
            assert strong_n_link(g, chi, 1).holds


def test_strong_1_link_is_connected_and_dominating():
    rng = random.Random(55)
    for _ in range(60):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g)
        living = living_subgraph(g, chi)
        expected = is_connected(living) and is_dominating(g, living)
        assert bool(strong_n_link(g, chi, 1).holds) == expected


def test_center_recheck_raises_on_disagreement(monkeypatch, example1):
    g, chi = example1
    # a center that is never killed contradicts the empty clique, which is
    # always dead-supported
    monkeypatch.setattr("artinsigma.conditions.Analysis._center_killed",
                        lambda self, members: False)
    with pytest.raises(RuntimeError, match="dead-clique/center mismatch on \\(\\)"):
        strong_n_link(g, chi, 1)


def test_raag_reverification_raises_on_disagreement(monkeypatch):
    g = EvenGraph(["a", "b"], [("a", "b", 2)])
    chi = Character({"a": 0, "b": 1})
    holds = raag_n_link(g, chi, 1).holds
    monkeypatch.setattr(Analysis, "strong_n_link",
                        lambda self, n: ConditionReport(not holds, n, "Z", "dead",
                                                        "homological", ()))
    with pytest.raises(RuntimeError, match="disagrees with the strong condition"):
        raag_n_link(g, chi, 1)


def test_analysis_answers_like_fresh_calls():
    rng = random.Random(56)
    for _ in range(30):
        g = random_even_fc_graph(rng, max_vertices=6)
        chi = random_character(rng, g)
        ctx = Analysis(g, chi)
        # larger degrees first, then smaller ones, from the same context
        for n in (3, 1, 2):
            assert ctx.strong_n_link(n) == strong_n_link(g, chi, n)
            assert ctx.strong_homotopic_n_link(n) == strong_homotopic_n_link(g, chi, n)
            for p in (0, 2, 3):
                assert ctx.strong_p_n_link(n, p) == strong_p_n_link(g, chi, n, p)
                ranks = [kernel_free_rank(g, chi, p, k) for k in range(n + 1)]
                assert ctx.free_ranks(p, n) == ranks
                assert ctx.living(p) == living_subgraph(g, chi, p)


def test_center_zero_test_matches_center_values():
    # the context's zero test on primitive integer values against the public
    # route's Fraction entries, on every clique of size <= 4; rational values
    # make the rescaling to primitive integers matter
    rng = random.Random(61)
    outcomes = set()
    for _ in range(300):
        g = random_even_fc_graph(rng, max_vertices=8)
        chi = Character({v: Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                         for v in g.vertices})
        ctx = Analysis(g, chi)
        for clique in enumerate_cliques(g, 4):
            killed = ctx._center_killed(g.vertex_mask(clique))
            assert killed == center_values(g, chi, clique).is_zero, (g, chi, clique)
            outcomes.add(killed)
    assert outcomes == {True, False}


@pytest.mark.parametrize("edges, clique", [
    # a on two labels > 2
    ([("a", "b", 4), ("a", "c", 6), ("b", "c", 2)], ("a", "b", "c")),
    # b on two labels > 2, found after the nonzero generator (ab)^2
    ([("a", "b", 4), ("a", "c", 2), ("a", "d", 2), ("b", "c", 2), ("b", "d", 4),
      ("c", "d", 2)], ("a", "b", "c", "d")),
    # an odd label
    ([("a", "b", 3), ("a", "c", 2), ("b", "c", 2)], ("a", "b", "c")),
])
def test_center_zero_test_raises_as_center_values(edges, clique):
    g = EvenGraph(["a", "b", "c", "d"], edges)
    chi = Character({"a": 1, "b": 1, "c": 0, "d": 1})
    ctx = Analysis(g, chi)
    with pytest.raises(ValueError) as public:
        center_values(g, chi, clique)
    with pytest.raises(ValueError) as context:
        ctx._center_killed(g.vertex_mask(clique))
    assert type(context.value) is type(public.value)
    assert str(context.value) == str(public.value)
