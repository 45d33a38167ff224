"""Strong-collapse cores: the link homology the conditions read.

The analysis context computes the reduced homology of each link's flag
complex on its strong-collapse core.  A strong collapse is a homotopy
equivalence, so the core's homology must equal the full complex's over Z
(betti numbers and torsion), Q and every F_p; these tests compare the two
on random graphs, on the barycentric projective plane (whose torsion must
survive) and on every link of random instances.  A core that is a point
or a cross-polytope sphere is answered in closed form; that answer is
compared with the full computation on the spheres CP(0) to CP(5), a point
and every core met on random instances.
"""

from __future__ import annotations

import math
import random

from artinsigma import (Analysis, Character, EvenGraph, MaskGraph, flag_complex,
                        has_cone_vertex, reduced_homology)
from artinsigma.homology import sphere_dimension, sphere_homology, strong_core

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
    dimension = sphere_dimension(core.adjacency, core.mask)
    if dimension is None:
        return False
    c = flag_complex(core)
    for coeffs in COEFFICIENTS:
        assert sphere_homology(dimension, coeffs, top) == reduced_homology(c, coeffs, top)
    return True


def test_cross_polytopes_and_a_point_are_read_in_closed_form():
    for k in range(6):
        g = cross_polytope(k)
        full = (1 << len(g.vertices)) - 1
        assert strong_core(g.neighbor_masks, full) == full
        assert sphere_dimension(g.neighbor_masks, full) == k - 1
        assert closed_form_agrees(MaskGraph(g, g.neighbor_masks, full), k + 1)
    point = EvenGraph(["v"])
    assert sphere_dimension(point.neighbor_masks, 1) == math.inf
    assert closed_form_agrees(MaskGraph(point, point.neighbor_masks, 1), 3)
    # the 5-cycle and the projective plane are cores with no closed form
    pentagon = EvenGraph("abcde", [(u, v, 2) for u, v in ("ab", "bc", "cd", "de", "ae")])
    for g in (pentagon, rp2_subdivision_graph()):
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
