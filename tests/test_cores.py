"""Strong-collapse cores and their reductions: the link homology the conditions read.

The analysis context computes the reduced homology of each link's flag
complex on its strong-collapse core, reduced further by
:func:`reduce_core`: suspension pairs peeled, vertices with contractible
links deleted, a remainder with no triangle read as a graph.  Each step is
exact, so the answer must equal the full complex's over Z (betti numbers
and torsion), Q and every F_p; these tests compare the two on random
graphs, on the barycentric projective plane (whose torsion must survive)
and its suspensions (where it must move up one degree per suspension), on
the join of two 5-cycles, on coned graphs and on every link of random
instances.  A core that reduces to a graph is answered in closed form;
that answer is compared with the full computation on the spheres CP(0) to
CP(5), a point, the 5-cycle and every core met on random instances.
"""

from __future__ import annotations

import random

from artinsigma import (Analysis, Character, EvenGraph, MaskGraph, flag_complex,
                        has_cone_vertex, reduced_homology)
from artinsigma.homology import reduce_core, strong_core, suspended_homology

from genutil import neighbors, random_character, random_even_fc_graph, random_raag
from test_homology import rp2_subdivision_graph

COEFFICIENTS = (None, 0, 2, 3)


def core_of(g: EvenGraph) -> MaskGraph:
    full = (1 << len(g.vertices)) - 1
    return MaskGraph(g, g.neighbor_masks, strong_core(g.neighbor_masks, full))


def profiles(g, top: int) -> list:
    c = flag_complex(g)
    return [(p.betti, p.torsion) for p in (reduced_homology(c, k, top) for k in COEFFICIENTS)]


def dominated(g: EvenGraph) -> list[str]:
    """Vertices v with N[v] inside N[w] for a neighbour w, from edge lookups."""
    closed = {v: {v, *neighbors(g, v)} for v in g.vertices}
    return [v for v in g.vertices if any(closed[v] <= closed[w] for w in neighbors(g, v))]


def test_core_homology_equals_full_homology():
    rng = random.Random(81)
    graphs = [rp2_subdivision_graph()]
    graphs += [random_raag(rng, max_vertices=10, edge_p=rng.choice((0.3, 0.5, 0.7, 0.9)))
               for _ in range(300)]
    full_vertices = core_vertices = 0
    for g in graphs:
        core = core_of(g)
        top = max(len(g.vertices) - 1, 0)
        assert profiles(core, top) == profiles(g, top)
        full_vertices += len(g.vertices)
        core_vertices += len(core.vertices)
    assert core_vertices < full_vertices / 2


def test_projective_plane_is_its_own_core():
    g = rp2_subdivision_graph()
    core = core_of(g)
    assert core.vertices == g.vertices
    z = reduced_homology(flag_complex(core), None, 2)
    assert z.torsion[1] == (2,) and all(z.betti_at(d) == 0 for d in range(-1, 3))


def test_core_has_no_dominated_vertex():
    rng = random.Random(82)
    for _ in range(300):
        g = random_raag(rng, max_vertices=10, edge_p=rng.choice((0.3, 0.6, 0.9)))
        core = core_of(g)
        kept = EvenGraph(core.vertices, [(u, v, 2) for u, v in g.edges()
                                         if u in core.vertices and v in core.vertices])
        assert dominated(kept) == []
        assert bool(core.vertices) == bool(g.vertices)
        assert tuple(kept.neighbor_masks) == core.neighbor_masks


def test_coned_graph_has_one_vertex_core():
    rng = random.Random(83)
    for _ in range(200):
        g = random_raag(rng, max_vertices=9, edge_p=rng.random())
        edges = [(u, v, 2) for u, v in g.edges()]
        coned = EvenGraph([*g.vertices, "z"], [*edges, *((v, "z", 2) for v in g.vertices)])
        assert has_cone_vertex(coned)
        assert len(core_of(coned).vertices) == 1
        if has_cone_vertex(g):
            assert len(core_of(g).vertices) == 1


def square_and_four_points() -> tuple[EvenGraph, Character]:
    """Dead vertices x and y: x is joined to the 4-cycle abcd, y to the four
    isolated vertices efgh.  Both links are their own 4-vertex cores, the
    circle and four points, with different homology."""
    square = [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)]
    edges = [*square, *((v, "x", 2) for v in "abcd"), *((v, "y", 2) for v in "efgh")]
    g = EvenGraph([*"abcdefgh", "x", "y"], edges)
    return g, Character({**{v: 1 for v in "abcdefgh"}, "x": 0, "y": 0})


def test_analysis_links_read_core_homology():
    # every link of every mode, against the full flag complex of the link graph
    rng = random.Random(84)
    instances = [square_and_four_points()]
    for _ in range(150):
        g = random_even_fc_graph(rng, max_vertices=10, edge_p=rng.choice((0.4, 0.7)))
        instances.append((g, random_character(rng, g)))
    for g, chi in instances:
        ctx = Analysis(g, chi)
        for p in (None, 0, *sorted(ctx.classification.relevant_primes)):
            for coeffs in COEFFICIENTS:
                for _, d, lk, homology in ctx.links(3, p, coeffs):
                    assert homology() == reduced_homology(flag_complex(lk), coeffs, d)


def test_homotopic_ok_implies_homological_ok():
    rng = random.Random(85)
    seen = 0
    for _ in range(150):
        g = random_even_fc_graph(rng, max_vertices=8, edge_p=0.7)
        chi = random_character(rng, g)
        for n in (1, 2, 3):
            homotopic = Analysis(g, chi).strong_homotopic_n_link(n)
            homological = Analysis(g, chi).strong_n_link(n)
            pairs = list(zip(homotopic.witnesses, homological.witnesses, strict=True))
            for a, b in pairs:
                assert a.clique == b.clique and a.link == b.link
                if a.status == "ok":
                    assert b.status == "ok"
                    seen += 1
            if homotopic.holds:
                assert homological.holds
    assert seen > 100


def cross_polytope(k: int) -> EvenGraph:
    """CP(k): k pairs of vertices, each adjacent to all but its partner."""
    vs = [f"x{i}" for i in range(2 * k)]
    return EvenGraph(vs, [(vs[i], vs[j], 2) for i in range(2 * k) for j in range(i + 1, 2 * k)
                          if j != i + 1 or i % 2])


def closed_form_agrees(core: MaskGraph, top: int) -> bool:
    """Whether ``core`` has a closed form, checking it in degrees up to
    ``top`` against its flag complex over Z, Q, F_2 and F_3."""
    s, _, betti = reduce_core(core.adjacency, core.mask)
    if betti is None:
        return False
    c = flag_complex(core)
    for coeffs in COEFFICIENTS:
        assert suspended_homology(betti, s, coeffs, top) == reduced_homology(c, coeffs, top)
    return True


def test_cross_polytopes_and_a_point_are_read_in_closed_form():
    for k in range(6):
        g = cross_polytope(k)
        full = (1 << len(g.vertices)) - 1
        assert strong_core(g.neighbor_masks, full) == full
        assert reduce_core(g.neighbor_masks, full) == (k, 0, (1, 0, 0))   # S^{k-1}
        assert closed_form_agrees(MaskGraph(g, g.neighbor_masks, full), k + 1)
    point = EvenGraph(["v"])
    assert reduce_core(point.neighbor_masks, 1) == (0, 1, (0, 0, 0))
    assert closed_form_agrees(MaskGraph(point, point.neighbor_masks, 1), 3)
    # the 5-cycle is a core read as a graph; the projective plane has no closed form
    pentagon = EvenGraph("abcde", [(u, v, 2) for u, v in ("ab", "bc", "cd", "de", "ae")])
    assert reduce_core(pentagon.neighbor_masks, 31) == (0, 31, (0, 0, 1))
    assert closed_form_agrees(MaskGraph(pentagon, pentagon.neighbor_masks, 31), 3)
    g = rp2_subdivision_graph()
    full = (1 << len(g.vertices)) - 1
    assert strong_core(g.neighbor_masks, full) == full
    assert not closed_form_agrees(MaskGraph(g, g.neighbor_masks, full), 2)


def test_closed_form_agrees_on_every_core_met():
    rng = random.Random(86)
    closed = other = 0
    for _ in range(200):
        g = random_even_fc_graph(rng, max_vertices=9)
        ctx = Analysis(g, random_character(rng, g))
        for n in range(1, 5):
            for p in (None, 0, *sorted(ctx.classification.relevant_primes)):
                for _, _, lk, _ in ctx.links(n, p):
                    core = MaskGraph(g, lk.adjacency, strong_core(lk.adjacency, lk.mask))
                    if closed_form_agrees(core, max(len(core.vertices) - 1, 0)):
                        closed += 1
                    else:
                        other += 1
    assert closed > other > 0


# -- the three rules of reduce_core, against the full flag complex ----------


def suspension(g: EvenGraph, a: str, b: str) -> EvenGraph:
    """S^0 * g: two new non-adjacent vertices a and b joined to every vertex."""
    edges = [(u, v, 2) for u, v in g.edges()]
    return EvenGraph([*g.vertices, a, b], [*edges, *((v, x, 2) for v in g.vertices
                                                     for x in (a, b))])


def join(g: EvenGraph, h: EvenGraph) -> EvenGraph:
    """g * h on disjoint vertex names: every vertex of g joined to every vertex of h."""
    edges = [(u, v, 2) for u, v in (*g.edges(), *h.edges())]
    return EvenGraph([*g.vertices, *h.vertices],
                     [*edges, *((u, v, 2) for u in g.vertices for v in h.vertices)])


def cycle(names: str) -> EvenGraph:
    return EvenGraph(names, [(u, v, 2) for u, v in zip(names, names[1:] + names[:1])])


def one_triangle() -> EvenGraph:
    """The triangle abc with a path of length 3 beside each edge: its own
    core, no vertex with a contractible link, one triangle, H_1 of rank 3
    (4 if the triangle were read as a graph)."""
    paths = [("a", "u1"), ("u1", "u2"), ("u2", "b"), ("b", "v1"), ("v1", "v2"), ("v2", "c"),
             ("c", "w1"), ("w1", "w2"), ("w2", "a")]
    return EvenGraph(["a", "b", "c", "u1", "u2", "v1", "v2", "w1", "w2"],
                     [(u, v, 2) for u, v in [("a", "b"), ("b", "c"), ("a", "c"), *paths]])


def read(g: EvenGraph, top: int) -> tuple[int, int, tuple | None, list]:
    """reduce_core on all of g, and the homology it gives over each of
    COEFFICIENTS in degrees -1 .. top, after asserting that it equals the
    full flag complex's."""
    full = (1 << len(g.vertices)) - 1
    s, rest, betti = reduce_core(g.neighbor_masks, full)
    remainder = flag_complex(MaskGraph(g, g.neighbor_masks, rest))   # built only when read
    c = flag_complex(g)
    out = []
    for coeffs in COEFFICIENTS:
        expected = reduced_homology(c, coeffs, top)
        part = betti if betti is not None else reduced_homology(remainder, coeffs, top - s)
        assert suspended_homology(part, s, coeffs, top) == expected, (g, coeffs)
        out.append(expected)
    return s, rest, betti, out


def test_a_core_vertex_that_misses_one_vertex_is_its_partner():
    # reduce_core peels every vertex of a strong core that misses exactly one
    # other vertex; that vertex must miss it alone, so each is one of a pair
    rng = random.Random(88)
    pairs = 0
    for _ in range(400):
        g = random_raag(rng, max_vertices=10, edge_p=rng.choice((0.5, 0.7, 0.9)))
        nbr = g.neighbor_masks
        core = strong_core(nbr, (1 << len(g.vertices)) - 1)
        missed = {v: core & ~(nbr[v] | 1 << v) for v in range(len(nbr)) if core >> v & 1}
        for v, m in missed.items():
            if m.bit_count() == 1:
                assert missed[m.bit_length() - 1] == 1 << v
                pairs += 1
    assert pairs > 50


def test_suspensions_move_torsion_up_one_degree_each():
    rp2 = rp2_subdivision_graph()
    once = suspension(rp2, "p", "q")
    twice = suspension(once, "r", "s")
    for k, g in enumerate((rp2, once, twice)):
        s, rest, betti, (z, q, f2, f3) = read(g, 4)
        assert (s, rest, betti) == (k, (1 << len(rp2.vertices)) - 1, None)
        assert z.torsion[1 + k] == (2,) and all(z.betti_at(d) == 0 for d in range(-1, 5))
        assert f2.betti_at(1 + k) == f2.betti_at(2 + k) == 1
        assert all(f3.trivial_at(d) and q.trivial_at(d) for d in range(-1, 5))


def test_join_of_two_pentagons_is_a_three_sphere():
    g = join(cycle("abcde"), cycle("fghij"))
    s, rest, betti, profiles = read(g, 4)
    assert (s, rest, betti) == (0, (1 << 10) - 1, None)
    for profile in profiles:
        assert [profile.betti_at(d) for d in range(-1, 5)] == [0, 0, 0, 0, 1, 0]


def test_one_triangle_is_not_read_as_a_graph():
    s, rest, betti, profiles = read(one_triangle(), 2)
    assert (s, rest, betti) == (0, (1 << 9) - 1, None)
    assert all(p.betti_at(1) == 3 for p in profiles)


def test_reduced_cores_equal_full_homology():
    rng = random.Random(87)
    graphs = [cycle("abcde"), suspension(cycle("abcde"), "p", "q"), one_triangle()]
    for _ in range(400):
        g = random_raag(rng, max_vertices=12, edge_p=rng.choice((0.3, 0.5, 0.6, 0.7)))
        graphs.append(g)
        graphs.append(join(g, EvenGraph(["z"])))    # coned
    graphs.append(join(cycle("abcde"), EvenGraph(["z"])))
    peeled = deleted = graphs_read = complexes = 0
    for g in graphs:
        full = (1 << len(g.vertices)) - 1
        s, rest, betti, _ = read(g, len(g.vertices))
        peeled += s > 0
        # a vertex beyond the peeled pairs left the strong core: a contractible link
        deleted += strong_core(g.neighbor_masks, full).bit_count() - 2 * s > rest.bit_count()
        graphs_read += betti is not None
        complexes += betti is None
        if has_cone_vertex(g):
            assert (betti, rest.bit_count()) == ((0, 0, 0), 1)
    assert min(peeled, deleted, graphs_read, complexes) > 10
