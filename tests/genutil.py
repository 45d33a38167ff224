"""Seeded random instance generators shared by the property and acceptance
suites, and matrix helpers shared by the Laurent and twisted-complex tests."""

from __future__ import annotations

import random
import string

from artinsigma import Character, EvenGraph, LaurentMatrix, LaurentPoly, validate_fc


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
