"""Seeded random instance generators and the small fixed instances shared by
the suites, character, graph and polynomial helpers that only tests need
(among them the neighbour list and the edge test, the polynomial
constructors and evaluation, the Laurent matrix built from a dense grid and
the named bases of a twisted complex, none of which the library uses),
Fraction references for the classification, matrix helpers (sparse integer
rows to dense grids and back) and the JSON dumps of matrices and twisted
complexes shared by the Laurent and twisted-complex tests, the all-labels-2
n-link condition, and plain reference versions of the bitmask graph kernels,
induced and living subgraphs built as ``EvenGraph``, the links of cliques,
the clique-center generators and values, the flag-complex closure, the
twisted differential weight (with the geometric sums and t^m - 1 it is built
from) and two closed-form criteria."""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from artinsigma import (Analysis, Character, Classification, ConditionReport, EvenGraph, Field,
                        LaurentMatrix, LaurentPoly, MaskGraph, SimplicialComplex, classify,
                        validate_fc)
from artinsigma import salvetti
from artinsigma.graphs import _bits
from artinsigma.homology import _cliques


def dihedral(half_label: int) -> tuple[EvenGraph, Character]:
    """Single edge with label 2*half_label and the difference character."""
    g = EvenGraph(["v", "w"], [("v", "w", 2 * half_label)])
    chi = Character({"v": 1, "w": -1})
    return g, chi


def product_of_dihedrals(label1: int, label2: int) -> tuple[EvenGraph, Character]:
    """Complete graph on four vertices: two disjoint labeled edges, rest 2."""
    g = EvenGraph(["v", "w", "x", "y"],
                  [("v", "w", label1), ("x", "y", label2),
                   ("v", "x", 2), ("v", "y", 2), ("w", "x", 2), ("w", "y", 2)])
    chi = Character({"v": 1, "w": -1, "x": 1, "y": -1})
    return g, chi


def dead_cliques(g: EvenGraph, chi: Character, max_size: int, p: int | None = None):
    """The dead cliques of mode ``p`` with at most ``max_size`` vertices."""
    return tuple(clique for clique, *_ in Analysis(g, chi).links(max_size, p))


def classify_fractions(g: EvenGraph, chi: Character) -> Classification:
    """Reference ``classify``: the zeros are tested in ``Fraction``
    arithmetic on the values themselves, and the primes of each half label
    are found by trial division."""
    values = chi.values
    dead_vertices = frozenset([v for v in g.vertices if values[v] == 0])
    dead_edges = frozenset([e for e, label in g.edge_items()
                            if label > 2 and values[e[0]] + values[e[1]] == 0])
    p_dead: dict[int, set] = {}
    for e in dead_edges:
        half = g.half_label(*e)
        for p in range(2, half + 1):
            if half % p == 0 and all(p % q for q in range(2, p)):
                p_dead.setdefault(p, set()).add(e)
    return Classification(dead_vertices, dead_edges,
                          {p: frozenset(es) for p, es in sorted(p_dead.items())},
                          frozenset(p_dead))


def primitive_fractions(chi: Character) -> dict[str, int]:
    """Reference ``primitive_integer_values``: each value is multiplied, as a
    ``Fraction``, by the lcm of the denominators, then divided by the gcd."""
    denom = lcm(*[x.denominator for x in chi.values.values()])
    ints = {v: int(x * denom) for v, x in chi.values.items()}
    g = gcd(*ints.values())
    return {v: n // g for v, n in ints.items()} if g else ints


def scaled_character(chi: Character, c: Fraction | int) -> Character:
    c = Fraction(c)
    return Character({v: x * c for v, x in chi.values.items()})


def negated_character(chi: Character) -> Character:
    return scaled_character(chi, -1)


def poly_term(field: Field, c, k: int) -> LaurentPoly:
    """The monomial c t^k."""
    return LaurentPoly(field, k, [c])


def poly_from_terms(field: Field, terms: dict[int, object]) -> LaurentPoly:
    """The sum of the terms c t^k, given as {k: c}."""
    if not terms:
        return LaurentPoly.zero(field)
    lo, hi = min(terms), max(terms)
    return LaurentPoly(field, lo, [terms.get(k, 0) for k in range(lo, hi + 1)])


def poly_shifted(p: LaurentPoly, k: int) -> LaurentPoly:
    """p times the unit t^k."""
    if p.is_zero():
        return p
    return LaurentPoly(p.field, p.offset + k, p.coeffs)


def poly_scaled(p: LaurentPoly, c) -> LaurentPoly:
    f = p.field
    return LaurentPoly(f, p.offset, [f.mul(x, f.coerce(c)) for x in p.coeffs])


def random_even_fc_graph(rng: random.Random, max_vertices: int = 6,
                         labels=(2, 4, 6), edge_p: float = 0.55) -> EvenGraph:
    """Random even graph repaired to FC type.

    Labels are drawn with a bias toward 2; whenever a triangle carries two
    labels > 2 the lexicographically later offending edge is demoted to 2,
    which is monotone and terminates.
    """
    n = rng.randint(1, max_vertices)
    vs = list(string.ascii_lowercase[:n])
    chosen: dict[tuple[str, str], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_p:
                r = rng.random()
                if r < 0.5 or len(labels) == 1:
                    label = labels[0]
                elif r < 0.8:
                    label = labels[1 % len(labels)]
                else:
                    label = labels[-1]
                chosen[(vs[i], vs[j])] = label
    while True:
        g = EvenGraph(vs, [(u, v, l) for (u, v), l in sorted(chosen.items())])
        report = validate_fc(g)
        if report.ok:
            return g
        for finding in report.violations:
            big = sorted(finding.edges)
            for e in big[1:]:
                chosen[e] = 2


def random_raag(rng: random.Random, max_vertices: int = 7, edge_p: float = 0.5) -> EvenGraph:
    n = rng.randint(1, max_vertices)
    vs = list(string.ascii_lowercase[:n])
    edges = [(vs[i], vs[j], 2) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_p]
    return EvenGraph(vs, edges)


def alternating_complete_graph(size: int) -> tuple[EvenGraph, Character]:
    """K_size with every label 2, and values 0, 1, 0, 1, ... in vertex order."""
    vs = [f"v{i:03d}" for i in range(size)]
    g = EvenGraph(vs, [(vs[i], vs[j], 2) for i in range(size) for j in range(i + 1, size)])
    return g, Character({v: i % 2 for i, v in enumerate(vs)})


def cocktail_party_graph(size: int) -> tuple[EvenGraph, Character]:
    """K_size with label 4 on each pair {v(2i), v(2i+1)} and 2 elsewhere, and
    values 1, -1, 0, 0 repeating in vertex order.  The pairs of values 1 and
    -1 are dead edges, so the living subgraph is a cocktail-party graph, whose
    flag complex is the boundary of a cross-polytope: a sphere with 3^k - 1
    simplices on k pairs, of which a degree-bounded question reads few."""
    vs = [f"v{i:03d}" for i in range(size)]
    edges = [(vs[i], vs[j], 4 if j == i + 1 and i % 2 == 0 else 2)
             for i in range(size) for j in range(i + 1, size)]
    return EvenGraph(vs, edges), Character({v: (1, -1, 0, 0)[i % 4] for i, v in enumerate(vs)})


def random_character(rng: random.Random, g: EvenGraph, lo: int = -2, hi: int = 2,
                     nonzero: bool = True) -> Character:
    while True:
        chi = Character({v: rng.randint(lo, hi) for v in g.vertices})
        if not nonzero or not chi.is_zero:
            return chi


def poly_evaluate(p: LaurentPoly, x):
    """The value of ``p`` at a nonzero point ``x`` of its coefficient field."""
    f = p.field
    x = f.coerce(x)
    if not x:
        raise ZeroDivisionError("Laurent polynomials are evaluated at nonzero points")
    acc = f.zero
    for c in reversed(p.coeffs):
        acc = f.add(f.mul(acc, x), c)
    step = x if p.offset >= 0 else f.inv(x)
    for _ in range(abs(p.offset)):
        acc = f.mul(acc, step)
    return acc


def dense_matrix(field: Field, nrows: int, ncols: int,
                 grid: Sequence[Sequence[LaurentPoly]]) -> LaurentMatrix:
    """The Laurent matrix with the dense grid of entries ``grid``, zeros
    included, handed to the library as its sparse rows."""
    grid = [list(row) for row in grid]
    if len(grid) != nrows or any(len(row) != ncols for row in grid):
        raise ValueError("entry grid does not match the stated dimensions")
    rows = {}
    for i, row in enumerate(grid):
        nonzero = {j: e for j, e in enumerate(row) if e.size}
        if nonzero:
            rows[i] = nonzero
    return LaurentMatrix(field, nrows, ncols, rows)


def permuted(m: LaurentMatrix, row_order, col_order) -> LaurentMatrix:
    """The matrix with its rows and columns taken in the given orders."""
    rows = [[m.entries[i][j] for j in col_order] for i in row_order]
    return dense_matrix(m.field, m.nrows, m.ncols, rows)


def matrix_entry(m: LaurentMatrix, i: int, j: int) -> LaurentPoly:
    return m.entries[i][j]


def matrix_is_zero(m: LaurentMatrix) -> bool:
    return all(e.is_zero() for row in m.entries for e in row)


def matrix_product(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Sparse product: only pairs of nonzero entries are multiplied."""
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch in matrix product")
    b_rows = [[(j, e) for j, e in enumerate(row) if e.coeffs] for row in b.entries]
    z = LaurentPoly.zero(a.field)
    rows = []
    for row in a.entries:
        acc: dict[int, LaurentPoly] = {}
        for k, e in enumerate(row):
            if e.coeffs:
                for j, f in b_rows[k]:
                    acc[j] = acc[j] + e * f if j in acc else e * f
        out = [z] * b.ncols
        for j, v in acc.items():
            out[j] = v
        rows.append(out)
    return dense_matrix(a.field, a.nrows, b.ncols, rows)


def neighbors(g: EvenGraph, v: str) -> tuple[str, ...]:
    """The neighbours of v in the vertex order."""
    return tuple([g.vertices[j] for j in _bits(g.neighbor_masks[g.index(v)])])


def has_edge(g: EvenGraph, u: str, v: str) -> bool:
    """Whether {u, v} is an edge of g; False for an unknown vertex or u = v."""
    if not (g.has_vertex(u) and g.has_vertex(v)) or u == v:
        return False
    return g.neighbor_masks[g.index(u)] >> g.index(v) & 1 == 1


def induced_subgraph(g: EvenGraph, keep_vertices: Iterable[str],
                     drop_edges: Iterable[tuple[str, str]] = ()) -> EvenGraph:
    """Reference induced subgraph on ``keep_vertices`` minus the open
    ``drop_edges``, built as an :class:`EvenGraph`.

    Dropping an edge keeps both endpoints; the inherited vertex order is the
    ambient one restricted to the kept vertices.
    """
    keep = 0
    for v in keep_vertices:
        if not g.has_vertex(v):
            raise ValueError(f"unknown vertex {v!r}")
        keep |= 1 << g.index(v)
    dropped = set()
    for (u, v) in drop_edges:
        if not has_edge(g, u, v):
            raise ValueError(f"unknown edge {u!r}-{v!r}")
        dropped.add(g.edge_key(u, v))
    vs, labels = g.vertices, g._labels
    kept = _bits(keep)
    es = []
    for i in kept:
        # the kept neighbours after vertex i
        for j in _bits(g.neighbor_masks[i] & keep >> (i + 1) << (i + 1)):
            e = (vs[i], vs[j])
            if e not in dropped:
                es.append((*e, labels[e]))
    return EvenGraph([vs[i] for i in kept], es)


def is_subgraph(g1: EvenGraph, g2: EvenGraph) -> bool:
    """True when g1 is contained in g2 vertex- and edge-wise with equal labels."""
    for v in g1.vertices:
        if not g2.has_vertex(v):
            return False
    for (u, v), label in g1.edge_items():
        if not has_edge(g2, u, v) or g2.label(u, v) != label:
            return False
    return True


def living_subgraph(g: EvenGraph, chi: Character, p: int | None = None) -> EvenGraph:
    """Reference living subgraph of mode ``p`` (see ``Analysis.living``):
    the subgraph induced on the living vertices minus every dead edge
    (``p`` None), no edge (0) or every p-dead edge (a prime p)."""
    cls = classify(g, chi)
    edges = cls.dead_edges if p is None else cls.p_dead_edges.get(p, frozenset())
    return induced_subgraph(g, [v for v in g.vertices if v not in cls.dead_vertices], edges)


def as_mask_graph(g: EvenGraph) -> MaskGraph:
    """``g`` in the form of ``Analysis.living`` and the links."""
    return MaskGraph(g, g.neighbor_masks, (1 << len(g.vertices)) - 1)


def mask_edges(h: MaskGraph) -> tuple[tuple[str, str], ...]:
    """The edges of ``h`` as pairs of names, in the order of ``EvenGraph.edges``."""
    vs, nbr = h.vertices, h.neighbor_masks
    return tuple([(vs[i], vs[j])
                  for i in range(len(vs)) for j in _bits(nbr[i] >> (i + 1) << (i + 1))])


def sparse_rows(matrix: Sequence[Sequence[int]]) -> dict[int, dict[int, int]]:
    """The nonzero rows of a dense integer matrix with their nonzero entries
    by column: the form ``integer_invariant_factors`` reads."""
    return {i: {j: a for j, a in enumerate(row) if a} for i, row in enumerate(matrix) if any(row)}


def dense(rows: dict[int, dict[int, int]], nrows: int, ncols: int) -> list[list[int]]:
    """The ``nrows`` x ``ncols`` integer matrix with the sparse rows ``rows``."""
    out = [[0] * ncols for _ in range(nrows)]
    for i, row in rows.items():
        for j, a in row.items():
            out[i][j] = a
    return out


def enumerate_cliques(g: EvenGraph, max_size: int) -> tuple[tuple[str, ...], ...]:
    """All cliques of size <= max_size by their vertex names, the empty
    clique first, then by size and lexicographically in the vertex order:
    the masks of the library's clique walk (``homology._cliques``), named.
    A total above ``MAX_CLIQUES`` raises ``TooManyCliques``."""
    vs = g.vertices
    return tuple([tuple([vs[i] for i in _bits(x)]) for x in _cliques(g.neighbor_masks, max_size)])


def enumerate_cliques_scan(g: EvenGraph, max_size: int) -> tuple[tuple[str, ...], ...]:
    """Reference clique enumeration: each clique is extended by every later
    vertex adjacent (by :func:`has_edge`) to all of its members."""
    by_size: list[list[tuple[str, ...]]] = [[()]]
    current: list[tuple[str, ...]] = [()]
    for _ in range(max_size):
        nxt = []
        for clique in current:
            start = g.index(clique[-1]) + 1 if clique else 0
            for v in g.vertices[start:]:
                if all(has_edge(g, u, v) for u in clique):
                    nxt.append(clique + (v,))
        if not nxt:
            break
        by_size.append(nxt)
        current = nxt
    return tuple(c for group in by_size for c in group)


def link(g_ambient: EvenGraph, gamma1: EvenGraph, delta: Sequence[str]) -> EvenGraph:
    """Link of the clique ``delta`` taken inside the subgraph ``gamma1``.

    Adjacency to ``delta`` is tested in the ambient graph; the returned graph
    is the subgraph of ``gamma1`` induced on the adjacent vertices.  The link
    of the empty clique is ``gamma1`` itself.
    """
    if not is_subgraph(gamma1, g_ambient):
        raise ValueError("gamma1 is not a subgraph of the ambient graph")
    if not g_ambient.is_clique(delta):
        raise ValueError(f"{tuple(delta)} is not a clique of the ambient graph")
    return induced_subgraph(gamma1, [v for v in gamma1.vertices
                                     if all(has_edge(g_ambient, u, v) for u in delta)])


def center_generators(g: EvenGraph, members: int) -> tuple[list[tuple[int, int, int]], int]:
    """Reference for ``characters._center_states``, from scratch: the
    standard generators of the center of the clique subgroup on the vertex
    mask ``members``, as the label > 2 pairs (i, j, half label) with i < j,
    in the order of i and then j, and the mask of the leftover vertices.
    Every pair of the clique is visited, so a vertex on two labels > 2 (FC
    violated) or an odd label raises ValueError wherever it is."""
    big, vs = g.big_partner_masks, g.vertices
    on_big_edge = 0
    pairs = []
    for i in _bits(members):
        # the label > 2 partners of vertex i after it in the clique
        later = big[i] & members >> (i + 1) << (i + 1)
        for j in _bits(later):
            if (on_big_edge >> i | on_big_edge >> j) & 1:
                clique = tuple([vs[k] for k in _bits(members)])
                raise ValueError(
                    f"clique {clique} has a vertex on two labels > 2 (FC violated)")
            on_big_edge |= 1 << i | 1 << j
            pairs.append((i, j, g.half_label(vs[i], vs[j])))
    return pairs, members & ~on_big_edge


@dataclass(frozen=True)
class CenterValues:
    """Character values on the standard generators of a clique subgroup's
    center (see :func:`center_generators`)."""

    entries: tuple[tuple[str, Fraction], ...]

    @property
    def is_zero(self) -> bool:
        return not any(x for _, x in self.entries)


def check_character_domain(g: EvenGraph, chi: Character) -> None:
    """The character's own domain check, without the library's refusal of
    a graph that is not even FC, so that the references reach the faults
    of such a graph themselves."""
    if set(chi.values) != set(g.vertices):
        raise ValueError("character domain mismatch")


def center_values(g: EvenGraph, chi: Character, delta: Iterable[str]) -> CenterValues:
    check_character_domain(g, chi)
    delta = g.sort_vertices(delta)
    if not g.is_clique(delta):
        raise ValueError(f"{tuple(delta)} is not a clique")
    vs = g.vertices
    pairs, leftover = center_generators(g, g.vertex_mask(delta))
    entries = [(f"({vs[i]}{vs[j]})^{half}", half * chi.edge_value(vs[i], vs[j]))
               for i, j, half in pairs]
    entries.extend((vs[i], chi.value(vs[i])) for i in _bits(leftover))
    return CenterValues(tuple(entries))


def center_values_pairwise(g: EvenGraph, chi: Character, delta) -> CenterValues:
    """Reference center values: the label of every pair of the clique is
    looked up, in lexicographic order of the pairs."""
    if set(chi.values) != set(g.vertices):
        raise ValueError("character domain mismatch")
    delta = g.sort_vertices(delta)
    if not all(g.has_vertex(v) for v in delta) or not all(
            has_edge(g, u, v) for i, u in enumerate(delta) for v in delta[i + 1:]):
        raise ValueError(f"{tuple(delta)} is not a clique")
    on_big_edge: set[str] = set()
    entries = []
    for i, u in enumerate(delta):
        for v in delta[i + 1:]:
            if g.label(u, v) > 2:
                if u in on_big_edge or v in on_big_edge:
                    raise ValueError(
                        f"clique {tuple(delta)} has a vertex on two labels > 2 (FC violated)")
                on_big_edge.update((u, v))
                half = g.half_label(u, v)
                entries.append((f"({u}{v})^{half}", half * chi.edge_value(u, v)))
    for v in delta:
        if v not in on_big_edge:
            entries.append((v, chi.value(v)))
    return CenterValues(tuple(entries))


def closed_complex(vertex_order, simplices) -> SimplicialComplex:
    """Reference complex: the downward closure of ``simplices``, grouped by
    dimension and sorted lexicographically in the vertex order, each simplex
    then handed on as the vertex mask that ``SimplicialComplex`` holds."""
    vertex_order = tuple(vertex_order)
    index = {v: i for i, v in enumerate(vertex_order)}
    closed: set[tuple[str, ...]] = set()
    for s in simplices:
        vs = tuple(sorted(set(s), key=index.__getitem__))
        for v in vs:
            if v not in index:
                raise ValueError(f"simplex vertex {v!r} not in vertex order")
        for mask in range(1 << len(vs)):
            closed.add(tuple(v for i, v in enumerate(vs) if mask >> i & 1))
    closed.discard(())
    by_dim: dict[int, list[tuple[str, ...]]] = {}
    for s in closed:
        by_dim.setdefault(len(s) - 1, []).append(s)
    return SimplicialComplex(vertex_order, [
        tuple(sum(1 << index[v] for v in s)
              for s in sorted(group, key=lambda s: tuple(index[v] for v in s)))
        for _, group in sorted(by_dim.items())
    ])


def q_poly(k: int, m: int, field: Field) -> LaurentPoly:
    """The truncated geometric sum 1 + t^m + ... + t^(m(k-1)).

    This is (x^k - 1)/(x - 1) evaluated at x = t^m; for m = 0 it degenerates
    to the constant k, which vanishes exactly in characteristic p | k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m == 0:
        return poly_term(field, k, 0)
    return poly_from_terms(field, {m * i: 1 for i in range(k)})


def t_power_minus_one(field: Field, m: int) -> LaurentPoly:
    """t^m - 1 (zero when m = 0)."""
    if m == 0:
        return LaurentPoly.zero(field)
    return poly_from_terms(field, {m: 1, 0: -1})


def coefficient_b(g: EvenGraph, chi: Character, x_clique, v: str, p: int = 0) -> LaurentPoly:
    """Differential weight b(v, X) of the facet of clique X obtained by
    removing v: t^(m_v) - 1 times q_poly(l, m_v + m_w) for each w in X - v
    with label 2l, from the primitive integer values m of chi."""
    check_character_domain(g, chi)
    field = Field(p)
    x_clique = g.sort_vertices(x_clique)
    if v not in x_clique:
        raise ValueError(f"{v!r} is not a vertex of the clique {x_clique}")
    if not g.is_clique(x_clique):
        raise ValueError(f"{x_clique} is not a clique")
    exps = chi.primitive_integer_values()
    out = t_power_minus_one(field, exps[v])
    for w in x_clique:
        if w != v:
            out = out * q_poly(g.half_label(v, w), exps[v] + exps[w], field)
    return out


def finite_dimensional_through(g: EvenGraph, chi: Character, p: int, n: int) -> bool:
    """Whether kernel homology is finite dimensional in all degrees 0..n.

    Equivalent to the strong p-n-link condition: a degree has infinite
    dimension exactly when its module has positive free rank.
    """
    return not any(Analysis(g, chi).free_ranks(p, n))


def dihedral_sigma_member(label, m_x, m_y, n: int = 1) -> bool:
    """Membership for a single dihedral Artin group.

    Odd-type groups (odd label, or the string "odd") have full invariants;
    even-type groups with label >= 4 exclude exactly the classes of the
    character sending the generators to 1 and -1 and its negative, i.e. a
    class is a member iff the generator values do not cancel.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if (m_x, m_y) == (0, 0):
        raise ValueError("the zero restriction has no sphere class")
    if label == "odd":
        return True
    if not isinstance(label, int) or label < 3:
        raise ValueError(f"label must be an integer >= 3 or 'odd', got {label!r}")
    if label % 2:
        return True
    return m_x + m_y != 0


def raag_n_link(ctx: Analysis, n: int) -> ConditionReport:
    """n-link condition for the all-labels-2 case.

    For these groups the condition ranges over cliques of dead vertices and
    links in the vertex-living subgraph; it must coincide with the strong
    n-link condition, which is re-verified on every call.
    """
    if any(label != 2 for _, label in ctx.g.edge_items()):
        raise ValueError("the n-link condition in this form needs all labels equal to 2")
    report = ctx._link_condition(n, 0, None)._replace(mode="dead-vertices")
    strong = ctx.strong_n_link(n)
    if strong.holds is not report.holds:
        raise RuntimeError(
            f"n-link condition ({report.holds}) disagrees with the strong condition "
            f"({strong.holds}) on an all-labels-2 graph")
    return report


def matrix_to_dict(m: LaurentMatrix) -> dict:
    """JSON dump of a Laurent matrix, entries in ``LaurentPoly.to_dict`` form."""
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[e.to_dict() for e in row] for row in m.entries],
    }


def basis(twisted: salvetti.TwistedComplex, n: int) -> tuple[tuple[str, ...], ...]:
    """The cliques of degree n of a twisted complex by their vertex names,
    in the order of its rows and columns."""
    if not 0 <= n <= twisted.max_degree:
        raise ValueError(f"degree {n} out of range 0..{twisted.max_degree}")
    vs = twisted.vertices
    return tuple([tuple([vs[i] for i in _bits(x)]) for x in twisted.levels[n]])


def complex_to_dict(twisted: salvetti.TwistedComplex) -> dict:
    """JSON dump of a twisted complex for external verification: its
    characteristic, bases and differentials."""
    return {
        "characteristic": twisted.field.char,
        "bases": {str(n): [list(c) for c in basis(twisted, n)]
                  for n in range(twisted.max_degree + 1)},
        "differentials": {str(n): matrix_to_dict(twisted.differential(n))
                          for n in range(1, twisted.max_degree + 1)},
    }
