"""Seeded random instance generators shared by the property and acceptance
suites, matrix helpers shared by the Laurent and twisted-complex tests, and
plain reference versions of the bitmask graph kernels."""

from __future__ import annotations

import random
import string

from artinsigma import (CenterValues, Character, EvenGraph, LaurentMatrix, LaurentPoly,
                        validate_fc)


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


def random_character(rng: random.Random, g: EvenGraph, lo: int = -2, hi: int = 2,
                     nonzero: bool = True) -> Character:
    while True:
        chi = Character({v: rng.randint(lo, hi) for v in g.vertices})
        if not nonzero or not chi.is_zero:
            return chi


def permuted(m: LaurentMatrix, row_order, col_order) -> LaurentMatrix:
    """The matrix with its rows and columns taken in the given orders."""
    rows = [[m.entries[i][j] for j in col_order] for i in row_order]
    return LaurentMatrix(m.field, m.nrows, m.ncols, rows)


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
    return LaurentMatrix(a.field, a.nrows, b.ncols, rows)


def enumerate_cliques_scan(g: EvenGraph, max_size: int) -> tuple[tuple[str, ...], ...]:
    """Reference clique enumeration: each clique is extended by every later
    vertex adjacent (by ``has_edge``) to all of its members."""
    by_size: list[list[tuple[str, ...]]] = [[()]]
    current: list[tuple[str, ...]] = [()]
    for _ in range(max_size):
        nxt = []
        for clique in current:
            start = g.index(clique[-1]) + 1 if clique else 0
            for v in g.vertices[start:]:
                if all(g.has_edge(u, v) for u in clique):
                    nxt.append(clique + (v,))
        if not nxt:
            break
        by_size.append(nxt)
        current = nxt
    return tuple(c for group in by_size for c in group)


def center_values_pairwise(g: EvenGraph, chi: Character, delta) -> CenterValues:
    """Reference center values: the label of every pair of the clique is
    looked up, in lexicographic order of the pairs."""
    if set(chi.values) != set(g.vertices):
        raise ValueError("character domain mismatch")
    delta = g.sort_vertices(delta)
    if not all(g.has_vertex(v) for v in delta) or not all(
            g.has_edge(u, v) for i, u in enumerate(delta) for v in delta[i + 1:]):
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
