import random
from fractions import Fraction

import pytest

from artinsigma import (Character, CharacterError, center_values, character_from_dict,
                        classify, dead_cliques, is_dominating, living_subgraph)
from artinsigma.graphs import EvenGraph
from artinsigma.homology import enumerate_cliques

from genutil import (center_values_pairwise, dihedral, random_character, random_even_fc_graph,
                     scaled_character)


def test_classify_example1(example1):
    g, chi = example1
    cls = classify(g, chi)
    assert cls.dead_vertices == {"c"}
    assert cls.dead_edges == {("a", "b")}
    assert cls.p_dead_edges == {2: frozenset({("a", "b")})}
    assert cls.relevant_primes == {2}


def test_classify_all_alive(example1):
    g, _ = example1
    chi = Character({"a": 1, "b": 1, "c": 2, "d": 3})
    cls = classify(g, chi)
    assert not cls.dead_vertices and not cls.dead_edges and not cls.relevant_primes


def test_classify_d4d6(d4d6):
    g, chi = d4d6
    cls = classify(g, chi)
    assert cls.dead_edges == {("v", "w"), ("x", "y")}
    assert cls.p_dead_edges[2] == {("v", "w")}
    assert cls.p_dead_edges[3] == {("x", "y")}
    assert cls.relevant_primes == {2, 3}


def test_classify_domain_mismatch(example1):
    g, _ = example1
    with pytest.raises(CharacterError):
        classify(g, Character({"a": 1}))


def test_living_subgraph_example1(example1):
    g, chi = example1
    living = living_subgraph(g, chi)
    assert living.vertices == ("a", "b", "d")
    assert living.edges() == (("a", "d"), ("b", "d"))


def test_living_subgraph_example2(example2):
    g, chi = example2
    living = living_subgraph(g, chi)
    assert living.vertices == ("a", "b", "d")
    assert living.edges() == (("b", "d"),)


def test_living_subgraph_p5_is_whole_graph(d4d6):
    g, chi = d4d6
    assert living_subgraph(g, chi, p=5) == g


def test_living_subgraph_containments():
    rng = random.Random(11)
    for _ in range(40):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g, nonzero=False)
        cls = classify(g, chi)
        l_global = living_subgraph(g, chi)
        l0 = living_subgraph(g, chi, p=0)
        for p in [0, 5, 7, *cls.relevant_primes]:
            lp = living_subgraph(g, chi, p=p)
            assert set(l_global.edges()) <= set(lp.edges()) <= set(l0.edges())
            assert lp.vertices == l0.vertices == l_global.vertices
            if p and all(g.half_label(*e) % p for e in cls.dead_edges):
                assert lp == l0


def test_center_values_example1(example1):
    g, chi = example1
    cv = center_values(g, chi, ["a", "b"])
    assert cv.entries == (("(ab)^2", Fraction(0)),)
    assert cv.is_zero
    cv = center_values(g, chi, ["a", "b", "d"])
    assert dict(cv.entries) == {"(ab)^2": Fraction(0), "d": Fraction(1)}
    assert not cv.is_zero
    assert center_values(g, chi, []).is_zero
    with pytest.raises(ValueError):
        center_values(g, chi, ["b", "c"])  # not a clique


def outcome(f, *args):
    try:
        return "entries", f(*args).entries
    except (ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def test_center_values_match_pairwise_labels():
    # FC and non-FC graphs, odd labels, shuffled vertex order; every clique in
    # shuffled order, and random vertex lists that may repeat a vertex, name
    # one the graph lacks or not be cliques
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        vs = rng.sample("abcdefgh", n)
        edges = [(u, v, rng.choice((2, 2, 3, 4, 6)))
                 for i, u in enumerate(vs) for v in vs[i + 1:] if rng.random() < 0.6]
        g = EvenGraph(vs, edges)
        chi = Character({v: rng.randint(-2, 2) for v in vs})
        deltas = [rng.sample(c, len(c)) for c in enumerate_cliques(g, n)]
        deltas += [rng.choices(vs + ["z"], k=rng.randint(0, 4)) for _ in range(5)]
        for delta in deltas:
            got = outcome(center_values, g, chi, delta)
            assert got == outcome(center_values_pairwise, g, chi, delta)
            seen.add(got[0] if got[0] == "entries" else
                     next(k for k in ("not a clique", "FC violated", "odd label", "'z'")
                          if k in got[1]))
    assert seen == {"entries", "not a clique", "FC violated", "odd label", "'z'"}


def test_dead_cliques_example1(example1):
    g, chi = example1
    assert dead_cliques(g, chi, 3) == ((), ("c",), ("a", "b"))


def test_dead_cliques_p_local_d4d6(d4d6):
    g, chi = d4d6
    assert dead_cliques(g, chi, 2, p=2) == ((), ("v", "w"))
    assert dead_cliques(g, chi, 2, p=3) == ((), ("x", "y"))
    assert dead_cliques(g, chi, 2, p=5) == ((),)


def test_dead_cliques_trivial_when_nothing_dies(example1):
    g, _ = example1
    chi = Character({"a": 1, "b": 1, "c": 1, "d": 1})
    assert dead_cliques(g, chi, 4) == ((),)


def test_dead_cliques_match_center_kill():
    rng = random.Random(12)
    for _ in range(50):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g, nonzero=False)
        expected = tuple(c for c in enumerate_cliques(g, 3)
                         if center_values(g, chi, c).is_zero)
        assert dead_cliques(g, chi, 3) == expected


def test_vanishing_data_scale_invariant():
    rng = random.Random(13)
    for _ in range(30):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g)
        scaled = scaled_character(chi, Fraction(3, 2))
        assert classify(g, chi) == classify(g, scaled)
        assert living_subgraph(g, chi) == living_subgraph(g, scaled)
        assert dead_cliques(g, chi, 3) == dead_cliques(g, scaled, 3)


def test_raag_dead_cliques_are_dead_vertex_cliques():
    # with every label 2 there are no dead edges at all
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 6)
        vs = [chr(ord("a") + i) for i in range(n)]
        edges = [(vs[i], vs[j], 2) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = EvenGraph(vs, edges)
        chi = random_character(rng, g, nonzero=False)
        cls = classify(g, chi)
        assert not cls.dead_edges
        dead = cls.dead_vertices
        expected = tuple(c for c in enumerate_cliques(g, n) if set(c) <= dead)
        assert dead_cliques(g, chi, n) == expected


def test_is_dominating(example1):
    g, chi = example1
    assert is_dominating(g, g)
    assert is_dominating(g, living_subgraph(g, chi))
    assert not is_dominating(g, EvenGraph([]))
    with pytest.raises(ValueError):
        is_dominating(g, EvenGraph(["z"]))


def test_character_parsing():
    chi = character_from_dict({"character": {"a": 1, "b": "-1/2"}})
    assert chi.value("b") == Fraction(-1, 2)
    with pytest.raises(CharacterError):
        character_from_dict({"character": {"a": 1.5}})
    with pytest.raises(CharacterError):
        character_from_dict({"character": {"a": "x"}})
    with pytest.raises(CharacterError):
        character_from_dict({})


def test_character_document_rejects_booleans():
    for value in (True, False):
        with pytest.raises(CharacterError, match="must be an integer"):
            character_from_dict({"character": {"a": value, "b": 1}})


def test_zero_character_flag():
    assert Character({"a": 0, "b": 0}).is_zero
    assert not Character({"a": 0, "b": 1}).is_zero


def test_primitive_integer_values():
    assert Character({"a": Fraction(1, 2), "b": Fraction(-3, 2)}).primitive_integer_values() \
        == {"a": 1, "b": -3}
    assert Character({"a": 2, "b": -4}).primitive_integer_values() == {"a": 1, "b": -2}
    assert Character({"a": 0, "b": 0}).primitive_integer_values() == {"a": 0, "b": 0}


def test_dihedral_fixture_classification():
    for half in (2, 3):
        g, chi = dihedral(half)
        cls = classify(g, chi)
        assert cls.dead_edges == {("v", "w")}
        assert cls.relevant_primes == ({2} if half == 2 else {3})
