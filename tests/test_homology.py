import itertools
import random
import string
from fractions import Fraction
from operator import attrgetter

import pytest

from artinsigma import (Analysis, Character, EvenGraph, LaurentPoly, TooManyCliques,
                        flag_complex, has_cone_vertex, laurent_divmod,
                        reduced_homology, smith_normal_form)
from artinsigma import conditions, homology
from artinsigma.homology import (PRIME_BOUND, _boundary, _smith_diagonal,
                                 integer_invariant_factors, is_prime, prime_factors)

from genutil import (as_mask_graph, closed_complex, dense, dense_matrix, enumerate_cliques,
                     enumerate_cliques_scan, has_edge, link, living_subgraph, poly_term,
                     random_even_fc_graph, sparse_rows)


def boundary_matrices(c, max_degree):
    """Augmented boundary matrices d_0 .. d_max_degree."""
    return [dense(_boundary(c, k), c.chain_rank(k - 1), c.chain_rank(k))
            for k in range(max_degree + 1)]


def is_d_acyclic(c, d, coeffs):
    """Reduced homology vanishes in every degree <= d (vacuously below -1)."""
    profile = reduced_homology(c, coeffs, max(d, -1))
    return all(profile.trivial_at(j) for j in range(-1, d + 1))


# --- independent oracles ----------------------------------------------------

def brute_force_cliques(g: EvenGraph, max_size: int):
    """Power-set filter, independent of the library's incremental search."""
    out = []
    for size in range(max_size + 1):
        for combo in itertools.combinations(g.vertices, size):
            if all(has_edge(g, u, v) for u, v in itertools.combinations(combo, 2)):
                out.append(combo)
    return out


def reference_rank(matrix):
    """Plain Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][j]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                c = m[i][j]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# --- cliques, links, flag complexes ------------------------------------------

def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 50) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for n in range(20000):
        assert is_prime(n) == (prime_factors(n) == {n})


def test_is_prime_rejects_strong_pseudoprimes_and_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    # each is a strong pseudoprime to every prime base up to some bound below 41
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    for n in (561, 1105, 1729, 2465, 41 * 43, (2**31 - 1) * 4294967311):
        assert not is_prime(n), n
    for n in (2**31 - 1, 2**61 - 1, 1000000000000000003, PRIME_BOUND - 2):
        assert is_prime(n) == sympy.isprime(n), n
    rng = random.Random(49)
    for _ in range(2000):
        n = rng.randrange(2, PRIME_BOUND)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_the_undecided_range():
    with pytest.raises(ValueError, match="primality is only decided below"):
        is_prime(PRIME_BOUND)


def test_enumerate_cliques_triangle():
    g = EvenGraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    assert len(enumerate_cliques(g, 3)) == 8


def test_negative_sizes_and_degrees_keep_only_the_empty_clique():
    g = EvenGraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    assert enumerate_cliques(g, 0) == enumerate_cliques(g, -2) == ((),)
    report = Analysis(g, Character({"a": 1, "b": -1, "c": 0})).strong_n_link(-1)
    assert report.holds and [w.via for w in report.witnesses] == ["vacuous"]


def test_enumerate_cliques_edgeless():
    g = EvenGraph(["a", "b", "c", "d"])
    assert enumerate_cliques(g, 2) == ((), ("a",), ("b",), ("c",), ("d",))


def test_enumerate_cliques_complete_graph_matches_brute_force(d4d6):
    g, _ = d4d6
    assert len(enumerate_cliques(g, 4)) == 16
    for max_size in range(5):
        assert sorted(enumerate_cliques(g, max_size)) == sorted(brute_force_cliques(g, max_size))


def test_enumerate_cliques_random_matches_brute_force():
    rng = random.Random(21)
    for _ in range(25):
        g = random_even_fc_graph(rng, max_vertices=6)
        for max_size in (2, 3, len(g.vertices)):
            assert sorted(enumerate_cliques(g, max_size)) == sorted(brute_force_cliques(g, max_size))


def random_graph(rng: random.Random, max_vertices: int) -> EvenGraph:
    """Any density, vertex order unlike the names' order, edges given in
    either orientation; labels are irrelevant to cliques."""
    n = rng.randint(0, max_vertices)
    vs = rng.sample(string.ascii_lowercase, n)
    density = rng.random()
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            u, v = (vs[i], vs[j]) if rng.random() < 0.5 else (vs[j], vs[i])
            edges.append((u, v, rng.choice((2, 4, 6))))
    rng.shuffle(edges)
    return EvenGraph(vs, edges)


def test_enumerate_cliques_matches_has_edge_scan():
    rng = random.Random(31)
    for _ in range(300):
        g = random_graph(rng, 14)
        n = len(g.vertices)
        for max_size in sorted({0, 1, 2, rng.randint(0, n), n}):
            assert enumerate_cliques(g, max_size) == enumerate_cliques_scan(g, max_size)


def test_flag_complex_matches_closed_simplices():
    rng = random.Random(32)
    for _ in range(150):
        g = random_graph(rng, 10)
        ours = flag_complex(g)
        closed = closed_complex(g.vertices, [c for c in enumerate_cliques_scan(g, 10) if c])
        assert ours.vertex_order == closed.vertex_order == g.vertices
        assert ours.dimension == closed.dimension and ours.is_empty() == closed.is_empty()
        for d in range(-1, closed.dimension + 2):
            assert ours.simplices(d) == closed.simplices(d)


def test_link_example1(example1):
    g, chi = example1
    living = living_subgraph(g, chi)
    assert Analysis(g, chi).living() == as_mask_graph(living)
    lk_c = link(g, living, ["c"])
    assert lk_c.vertices == ("a", "d") and lk_c.edges() == (("a", "d"),)
    lk_ab = link(g, living, ["a", "b"])
    assert lk_ab.vertices == ("d",) and not lk_ab.edges()
    assert link(g, living, []) == living


def test_link_requires_containment(example1):
    g, _ = example1
    other = EvenGraph(["a", "z"], [("a", "z", 2)])
    with pytest.raises(ValueError):
        link(g, other, [])
    with pytest.raises(ValueError):
        link(g, g, ["b", "c"])  # not a clique


def test_flag_complex_square():
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)])
    c = flag_complex(g)
    assert len(c.simplices(0)) == 4 and len(c.simplices(1)) == 4
    assert not c.simplices(2)


def test_flag_complex_complete_graph():
    g = EvenGraph(["a", "b", "c", "d"],
                  [(u, v, 2) for u, v in itertools.combinations("abcd", 2)])
    c = flag_complex(g)
    assert [len(c.simplices(d)) for d in range(4)] == [4, 6, 4, 1]


def test_flag_complex_two_glued_triangles(d4d6):
    # remove the open label-4 edge from the complete graph: the cliques are
    # exactly the subsets avoiding {v, w} together
    g, chi = d4d6
    living = Analysis(g, chi).living(2)
    c = flag_complex(living)
    expected = sorted(c for size in range(1, 5)
                      for c in itertools.combinations("vwxy", size)
                      if not {"v", "w"} <= set(c))
    assert sorted(tuple(v for i, v in enumerate(c.vertex_order) if s >> i & 1)
                  for d in range(0, 4) for s in c.simplices(d)) == expected
    assert len(c.simplices(2)) == 2  # the triangles vxy and wxy


def test_flag_complex_is_built_only_as_deep_as_read(monkeypatch):
    # K8 has 1 + 8 + 28 + 56 = 93 cliques of size <= 3 and 70 of size 4
    vs = string.ascii_lowercase[:8]
    g = EvenGraph(vs, [(u, v, 2) for u, v in itertools.combinations(vs, 2)])
    monkeypatch.setattr(homology, "MAX_CLIQUES", 93)
    c = flag_complex(g)
    assert is_d_acyclic(c, 1, None)     # reads the simplices through dimension 2
    for _ in range(2):      # refused again, not read as a complex that ends there
        with pytest.raises(TooManyCliques, match="163 cliques of size at most 4"):
            reduced_homology(c, None, 2)
    assert is_d_acyclic(c, 1, None)


def _suspended_pentagon() -> EvenGraph:
    """The 5-cycle abcde with two apexes p and q joined to all of it: a
    2-sphere that is its own strong-collapse core, read in closed form as
    the suspension of the 5-cycle."""
    cycle = [(u, v, 2) for u, v in ("ab", "bc", "cd", "de", "ae")]
    return EvenGraph("abcdepq", [*cycle, *((v, apex, 2) for v in "abcde" for apex in "pq")])


def _icosahedron() -> EvenGraph:
    """The icosahedron: apexes a and l, the 5-cycles bcdef and ghijk between
    them, b-f each joined to two neighbouring vertices of g-k.  A 2-sphere
    that no rule of reduce_core shrinks: every link is a 5-cycle."""
    upper, lower = "bcdef", "ghijk"
    edges = [(v, "a", 2) for v in upper] + [(v, "l", 2) for v in lower]
    for i in range(5):
        edges += [(upper[i], upper[i - 1], 2), (lower[i], lower[i - 1], 2),
                  (upper[i], lower[i], 2), (upper[i], lower[i - 1], 2)]
    return EvenGraph("abcdefghijkl", edges)


def _octahedron() -> EvenGraph:
    """The cocktail-party graph on three pairs: the octahedron, a 2-sphere
    and its own strong-collapse core, read in closed form."""
    vs = "abcdef"
    return EvenGraph(vs, [(u, v, 2) for u, v in itertools.combinations(vs, 2)
                          if u + v not in ("ab", "cd", "ef")])


def _sphere_questions(monkeypatch, g: EvenGraph) -> list:
    """Ask strong_n_link at degrees 1, 3 and 2 of one context, checking each
    report against a fresh context's; the empty clique is the one dead
    clique, and its link is a 2-sphere.  Returns the graphs whose flag
    complexes the context built."""
    chi = Character(dict.fromkeys(g.vertices, 1))
    fresh = {n: Analysis(g, chi).strong_n_link(n) for n in (1, 2, 3)}
    built = []
    monkeypatch.setattr(conditions, "flag_complex", lambda h: built.append(h) or flag_complex(h))
    ctx = Analysis(g, chi)
    for n in (1, 3, 2):
        assert ctx.strong_n_link(n) == fresh[n]
    assert [w.failing_degree for w in fresh[3].witnesses] == [2]
    assert fresh[1].holds and fresh[2].holds
    return built


def test_deeper_questions_extend_the_one_complex(monkeypatch):
    # degree 1 reads the complex through dimension 1, degree 3 through dimension 3
    assert len(_sphere_questions(monkeypatch, _icosahedron())) == 1
    # the suspended pentagon is read in closed form: no complex, no Smith form
    factored = []
    honest = homology.integer_invariant_factors
    monkeypatch.setattr(homology, "integer_invariant_factors",
                        lambda *args: factored.append(args) or honest(*args))
    assert _sphere_questions(monkeypatch, _suspended_pentagon()) == []
    assert factored == []


def test_cross_polytope_core_builds_no_complex(monkeypatch):
    assert _sphere_questions(monkeypatch, _octahedron()) == []


def test_flag_complex_of_empty_graph_is_empty():
    c = flag_complex(EvenGraph([]))
    assert c.is_empty()
    assert c.chain_rank(-1) == 1 and c.chain_rank(0) == 0


def test_boundary_single_edge():
    c = flag_complex(EvenGraph(["u", "v"], [("u", "v", 2)]))
    d0, d1 = boundary_matrices(c, 1)
    assert d0 == [[1, 1]]
    assert d1 == [[-1], [1]]


def test_boundary_empty_complex():
    c = flag_complex(EvenGraph([]))
    d0, d1 = boundary_matrices(c, 1)
    assert d0 == [[]] and d1 == []


def test_boundary_square_rank():
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)])
    c = flag_complex(g)
    d1 = boundary_matrices(c, 1)[1]
    assert reference_rank(d1) == 3


def test_boundary_composition_vanishes():
    rng = random.Random(22)
    for _ in range(20):
        g = random_even_fc_graph(rng)
        c = flag_complex(g)
        mats = boundary_matrices(c, c.dimension + 1)
        for d in range(1, len(mats)):
            lower, upper = mats[d - 1], mats[d]
            rows = c.chain_rank(d - 2)
            mid = c.chain_rank(d - 1)
            cols = c.chain_rank(d)
            for i in range(rows):
                for j in range(cols):
                    assert sum(lower[i][k] * upper[k][j] for k in range(mid)) == 0


def named_boundary(c, k):
    """Reference d_k on vertex names, rows and columns in the complex's
    order: the face dropping the i-th name of a simplex has the sign (-1)^i."""
    def names(s):
        return tuple(v for i, v in enumerate(c.vertex_order) if s >> i & 1)

    rows = [names(s) for s in c.simplices(k - 1)] if k else [()]
    cols = [names(s) for s in c.simplices(k)]
    out = [[0] * len(cols) for _ in rows]
    for j, x in enumerate(cols):
        for i in range(len(x)):
            out[rows.index(x[:i] + x[i + 1:])][j] = (-1) ** i
    return out


def test_boundary_matches_named_faces():
    rng = random.Random(33)
    for _ in range(100):
        c = flag_complex(random_graph(rng, 9))
        for k in range(c.dimension + 2):
            assert dense(_boundary(c, k), c.chain_rank(k - 1), c.chain_rank(k)) \
                == named_boundary(c, k)


# --- exact homology -----------------------------------------------------------

def test_integer_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(23)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        ours = integer_invariant_factors(sparse_rows(m), nr, nc)
        theirs = smith_normal_form(sympy.Matrix(m))
        diag = [abs(theirs[i, i]) for i in range(min(nr, nc))]
        assert ours == [d for d in diag if d]


def sympy_invariant_factors(m, nr, nc):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    if not nr or not nc:
        return []
    theirs = smith_normal_form(sympy.Matrix(m))
    return [d for d in (abs(theirs[i, i]) for i in range(min(nr, nc))) if d]


def test_sparse_integer_snf_against_sympy_on_sign_matrices():
    rng = random.Random(25)
    for _ in range(300):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.random()
        m = [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(nc)]
             for _ in range(nr)]
        assert (integer_invariant_factors(sparse_rows(m), nr, nc)
                == sympy_invariant_factors(m, nr, nc))


def test_sparse_integer_snf_against_sympy_on_flag_complex_boundaries():
    rng = random.Random(26)
    checked = 0
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=9, edge_p=rng.uniform(0.3, 0.8))
        c = flag_complex(g)
        for k in range(c.dimension + 1):
            nr, nc = c.chain_rank(k - 1), c.chain_rank(k)
            m = _boundary(c, k)
            assert (integer_invariant_factors(m, nr, nc)
                    == sympy_invariant_factors(dense(m, nr, nc), nr, nc))
            checked += nr * nc
    assert checked > 5000


def test_integer_snf_divisibility_chain():
    rng = random.Random(24)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        factors = integer_invariant_factors(sparse_rows(m), nr, nc)
        assert all(d > 0 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert len(factors) == reference_rank(m)
    # diagonals that repeat non-units, whose chain merges copies of a pair
    # at once, as they are and after unimodular row and column operations
    diagonals = [(4, 4, 6, 6, 9, -3, 1), (2, 2, 3, 3), (6, 10, 15, 6, 10, 15)]
    diagonals += [tuple(rng.choice((1, 2, -2, 3, 4, 6, 9, 12)) for _ in range(rng.randint(2, 8)))
                  for _ in range(25)]
    for diagonal in diagonals:
        size = len(diagonal)
        m = [[diagonal[i] if i == j else 0 for j in range(size)] for i in range(size)]
        expected = sympy_invariant_factors(m, size, size)
        for grid in (m, mixed(rng, m, size, size)):
            assert integer_invariant_factors(sparse_rows(grid), size, size) == expected, diagonal


# minimal 6-vertex triangulation of the projective plane
RP2_TRIANGLES = ("123", "134", "145", "156", "126", "235", "246", "245", "346", "356")


def rp2_subdivision_graph() -> EvenGraph:
    """Comparability graph of the faces of the 6-vertex projective plane: its
    flag complex is the barycentric subdivision, with H_1 = Z/2."""
    faces = sorted({"".join(f) for t in RP2_TRIANGLES for k in (1, 2, 3)
                    for f in itertools.combinations(t, k)})
    edges = [(u, v, 2) for u, v in itertools.combinations(faces, 2)
             if set(u) < set(v) or set(v) < set(u)]
    return EvenGraph(faces, edges)


def mixed(rng: random.Random, m: list[list[int]], nrows: int, ncols: int) -> list[list[int]]:
    """``m`` after random elementary row and column operations: the same
    invariant factors, but larger entries and non-unit pivots."""
    m = [list(row) for row in m]
    for _ in range(nrows + ncols):
        k = rng.choice((-3, -2, 2, 3))
        if nrows > 1 and rng.random() < 0.5:
            a, b = rng.sample(range(nrows), 2)
            m[b] = [x + k * y for x, y in zip(m[b], m[a])]
        elif ncols > 1:
            a, b = rng.sample(range(ncols), 2)
            for row in m:
                row[b] += k * row[a]
    return m


def test_integer_and_laurent_smith_forms_agree_on_ranks():
    # One elimination serves both rings.  On an integer matrix read as a
    # constant Laurent matrix, the rank over Q is the number of integer
    # invariant factors, and over F_p the number of them prime to p.
    rng = random.Random(27)
    complexes = [flag_complex(rp2_subdivision_graph())]
    complexes += [flag_complex(random_graph(rng, 7)) for _ in range(40)]
    torsion = 0
    for c in complexes:
        for k in range(c.dimension + 1):
            nr, nc = c.chain_rank(k - 1), c.chain_rank(k)
            boundary = dense(_boundary(c, k), nr, nc)
            factors = integer_invariant_factors(sparse_rows(boundary), nr, nc)
            torsion += sum(1 for d in factors if d > 1)
            for m in (boundary, mixed(rng, boundary, nr, nc)):
                assert integer_invariant_factors(sparse_rows(m), nr, nc) == factors
                for p in (0, 2, 3):
                    constant = dense_matrix(p, nr, nc, [[poly_term(p, a, 0) for a in row]
                                                        for row in m])
                    assert smith_normal_form(constant)[1] == sum(1 for d in factors
                                                                 if p == 0 or d % p)
    assert torsion > 0


def test_homology_square_circle():
    g = EvenGraph(["a", "b", "c", "d"],
                  [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)])
    profile = reduced_homology(flag_complex(g), None, 2)
    assert profile.betti_at(0) == 0 and profile.betti_at(1) == 1 and profile.betti_at(2) == 0
    assert not profile.torsion[1]


def test_homology_two_points():
    g = EvenGraph(["a", "b"])
    for coeffs in (None, 0, 2, 3):
        profile = reduced_homology(flag_complex(g), coeffs, 1)
        assert profile.betti_at(-1) == 0
        assert profile.betti_at(0) == 1


def test_homology_empty_complex():
    profile = reduced_homology(flag_complex(EvenGraph([])), None, 0)
    assert profile.betti_at(-1) == 1 and profile.betti_at(0) == 0


def test_homology_torsion_projective_plane():
    # textbook: H0 = 0, H1 = Z/2 reduced
    c = closed_complex("123456", [tuple(f) for f in RP2_TRIANGLES])
    z = reduced_homology(c, None, 2)
    assert z.betti_at(0) == 0 and z.betti_at(1) == 0 and z.betti_at(2) == 0
    assert z.torsion[1] == (2,)
    q = reduced_homology(c, 0, 2)
    assert q.betti_at(1) == 0 and q.betti_at(2) == 0
    f2 = reduced_homology(c, 2, 2)
    assert f2.betti_at(1) == 1 and f2.betti_at(2) == 1
    f3 = reduced_homology(c, 3, 2)
    assert f3.betti_at(1) == 0 and f3.betti_at(2) == 0


def test_field_betti_match_integer_betti_without_torsion():
    rng = random.Random(25)
    for _ in range(25):
        g = random_even_fc_graph(rng, max_vertices=6)
        c = flag_complex(g)
        top = max(c.dimension, 0)
        z = reduced_homology(c, None, top)
        if any(z.torsion[d] for d in z.torsion):
            continue
        for p in (0, 2, 3, 5):
            f = reduced_homology(c, p, top)
            assert all(f.betti_at(d) == z.betti_at(d) for d in range(-1, top + 1))


def test_homology_invariant_under_vertex_relabeling():
    rng = random.Random(26)
    for _ in range(15):
        g = random_even_fc_graph(rng, max_vertices=6)
        perm = list(g.vertices)
        rng.shuffle(perm)
        g2 = EvenGraph(perm, [(u, v, l) for (u, v), l in g.edge_items()])
        top = max(flag_complex(g).dimension, 0)
        a = reduced_homology(flag_complex(g), None, top)
        b = reduced_homology(flag_complex(g2), None, top)
        assert a.betti == b.betti and a.torsion == b.torsion


def test_cone_implies_acyclic():
    rng = random.Random(27)
    found = 0
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=5)
        if not g.vertices:
            continue
        # cone off with a fresh dominating vertex
        vs = list(g.vertices) + ["z"]
        edges = [(u, v, l) for (u, v), l in g.edge_items()]
        edges += [(v, "z", 2) for v in g.vertices]
        coned = EvenGraph(vs, edges)
        assert has_cone_vertex(coned)
        c = flag_complex(coned)
        for d in range(-1, c.dimension + 1):
            assert is_d_acyclic(c, d, None)
        found += 1
    assert found


def test_is_d_acyclic_degenerate_degrees(example1):
    empty = flag_complex(EvenGraph([]))
    assert not is_d_acyclic(empty, -1, None)
    assert is_d_acyclic(empty, -2, None)
    g, chi = example1
    path = Analysis(g, chi).living()
    assert is_d_acyclic(flag_complex(path), 0, None)


def test_has_cone_vertex():
    assert has_cone_vertex(EvenGraph(["a"]))
    assert not has_cone_vertex(EvenGraph([]))
    assert not has_cone_vertex(EvenGraph(["a", "b"]))
    assert has_cone_vertex(EvenGraph(["a", "b"], [("a", "b", 2)]))


def test_coefficient_spec_validation(example1):
    g, _ = example1
    c = flag_complex(g)
    with pytest.raises(ValueError):
        reduced_homology(c, 4, 1)  # composite characteristic
    with pytest.raises(ValueError):
        reduced_homology(c, "R", 1)


def test_smith_form_fails_on_a_size_that_disagrees_with_division():
    # Sizes that do not fall with the remainders of the ring's division: the
    # elimination must raise instead of looping.  Without the check, the two
    # Laurent matrices below make it spin forever.  The rows are consumed.
    laurent_cases = {
        "offset": (lambda: {0: {0: LaurentPoly(2, -2, [1, 1, 0, 1])},
                            1: {0: LaurentPoly(2, -1, [1, 1]), 1: LaurentPoly(2, -1, [1])}}, 2),
        "span": (lambda: {0: {0: LaurentPoly(3, -2, [1])}, 1: {0: LaurentPoly(3, 2, [1])}}, 1),
    }
    for name, (rows, rank) in laurent_cases.items():
        with pytest.raises(RuntimeError, match="size function disagrees"):
            _smith_diagonal(rows(), attrgetter(name), laurent_divmod)
        # the true size diagonalises the same matrix
        assert len(_smith_diagonal(rows(), attrgetter("size"), laurent_divmod)) == rank
    # over Z, a size that ranks larger integers as smaller
    with pytest.raises(RuntimeError, match="size function disagrees"):
        _smith_diagonal({0: {0: 2}, 1: {0: 3}}, lambda a: 1000 - abs(a) if a else 0, divmod)
    assert _smith_diagonal({0: {0: 2}, 1: {0: 3}}, abs, divmod) in ([1], [-1])
