import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsigma import (Analysis, Character, CharacterError, character_from_dict, classify,
                        is_dominating)
from artinsigma.graphs import EvenGraph

from genutil import (as_mask_graph, center_values, center_values_pairwise, classify_fractions,
                     dead_cliques, dihedral, enumerate_cliques, is_subgraph, living_subgraph,
                     mask_edges, primitive_fractions, random_character, random_even_fc_graph,
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
    living = Analysis(g, chi).living()
    assert living.vertices == ("a", "b", "d")
    assert mask_edges(living) == (("a", "d"), ("b", "d"))


def test_living_subgraph_example2(example2):
    g, chi = example2
    living = Analysis(g, chi).living()
    assert living.vertices == ("a", "b", "d")
    assert mask_edges(living) == (("b", "d"),)


def test_living_subgraph_p5_is_whole_graph(d4d6):
    g, chi = d4d6
    assert Analysis(g, chi).living(5) == as_mask_graph(g)


def test_living_subgraph_containments():
    rng = random.Random(11)
    for _ in range(40):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g, nonzero=False)
        cls = classify(g, chi)
        l_global = Analysis(g, chi).living()
        l0 = Analysis(g, chi).living(0)
        for p in [0, 5, 7, *cls.relevant_primes]:
            lp = Analysis(g, chi).living(p)
            assert set(mask_edges(l_global)) <= set(mask_edges(lp)) <= set(mask_edges(l0))
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


def test_dead_cliques_match_the_definition_in_every_mode():
    # a clique is dead in mode p when each of its vertices is dead or on a
    # p-dead edge inside it (any dead edge for p = None, none for p = 0);
    # filtered from every clique, in walk order
    rng = random.Random(15)
    for _ in range(120):
        g = random_even_fc_graph(rng, max_vertices=8, labels=rng.choice(((2, 4, 6), (2, 12, 4))))
        chi = random_character(rng, g, nonzero=False)

        def on_dead_edge(v, clique, p):
            return p != 0 and any(
                g.label(v, w) > 2 and chi.edge_value(v, w) == 0
                and (p is None or g.half_label(v, w) % p == 0)
                for w in clique if w != v)

        for p in (None, 0, 2, 3):
            for n in range(5):
                expected = tuple([c for c in enumerate_cliques(g, n)
                                  if all(chi.value(v) == 0 or on_dead_edge(v, c, p) for v in c)])
                assert dead_cliques(g, chi, n, p) == expected, (g, chi, n, p)


def test_vanishing_data_scale_invariant():
    rng = random.Random(13)
    for _ in range(30):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g)
        scaled = scaled_character(chi, Fraction(3, 2))
        assert classify(g, chi) == classify(g, scaled)
        assert Analysis(g, chi).living() == Analysis(g, scaled).living()
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


def test_living_is_the_link_of_the_empty_clique_and_matches_the_reference():
    rng = random.Random(15)
    for _ in range(60):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g, nonzero=False)
        ctx = Analysis(g, chi)
        for p in (None, 0, 2, 3, 5, *sorted(ctx.classification.relevant_primes)):
            living, ref = ctx.living(p), living_subgraph(g, chi, p)
            # vertices, neighbour masks and description
            assert living == as_mask_graph(ref)
            assert is_subgraph(ref, g)
            assert [lk for _, _, lk, _ in ctx.links(0, p)] == [living]
            assert next(ctx.links(2, p))[2] is living is ctx.living(p)


def test_is_dominating(example1):
    g, chi = example1
    assert is_dominating(g, g)
    assert is_dominating(g, Analysis(g, chi).living())
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


def test_primitive_values_are_computed_once_per_character(monkeypatch):
    # an analysis (classification and the center re-check) and an oracle
    # build of one character read its primitive values from one computation
    import artinsigma.characters as characters
    from artinsigma import build_salvetti_complex

    g, chi = dihedral(2)
    computed = []
    gcd = characters.gcd
    monkeypatch.setattr(characters, "gcd", lambda *a: computed.append(a) or gcd(*a))
    Analysis(g, chi).free_ranks(2, 1)
    build_salvetti_complex(g, chi, 2, max_n=2)
    assert len(computed) == 1


# negative, zero and p/q values, few enough that edge values often cancel
VALUES = st.sampled_from([0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
                          Fraction(-2, 3), Fraction(-7, 6), Fraction(7, 6), Fraction(5, 9)])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32), values=st.lists(VALUES, min_size=8, max_size=8))
def test_integer_classification_matches_fraction_arithmetic(seed, values):
    # labels 6 and 20 make the primes 2, 3 and 5 relevant
    g = random_even_fc_graph(random.Random(seed), max_vertices=8, labels=(2, 6, 20), edge_p=0.7)
    chi = Character(dict(zip(g.vertices, values)))
    assert classify(g, chi) == classify_fractions(g, chi)
    assert chi.primitive_integer_values() == primitive_fractions(chi)


def test_dihedral_fixture_classification():
    for half in (2, 3):
        g, chi = dihedral(half)
        cls = classify(g, chi)
        assert cls.dead_edges == {("v", "w")}
        assert cls.relevant_primes == ({2} if half == 2 else {3})
