"""Flag complexes, links, and exact reduced simplicial homology.

Homology is computed from augmented boundary matrices by integer Smith
normal form with arbitrary-precision integers; no floating point and no
modular shortcuts.  One Smith form per boundary matrix serves every
coefficient system at once:

* over Z, the betti numbers come from the ranks and the torsion from the
  invariant factors;
* over Q, the betti numbers equal the integer ranks;
* over F_p, the rank of a matrix is the number of invariant factors not
  divisible by p (the transforming matrices are unimodular, hence
  invertible mod p).

The augmented chain complex always carries the empty simplex in degree -1,
so the reduced homology of the empty complex is the coefficient module in
degree -1 and acyclicity tests see the nonempty/empty distinction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .graphs import EvenGraph, induced_subgraph, is_subgraph


def prime_factors(n: int) -> set[int]:
    """The primes dividing n, by trial division (empty for n < 2); meant for
    edge labels, which are bounded.  Test a characteristic with
    :func:`is_prime`."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# The smallest integer that is a strong pseudoprime to every prime base up to
# 41 (Sorenson and Webster, Math. Comp. 2017); below it those bases decide
# primality exactly.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41.

    Exact for n < PRIME_BOUND (about 3.3e24); larger n raise ValueError,
    since no fixed set of bases is known to decide them.
    """
    if n < 2:
        return False
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is only decided below {PRIME_BOUND}, got {n}")
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_coeffs(coeffs) -> None:
    """Coefficient system: the string "Z", or an int characteristic (0 for Q,
    a prime p for F_p)."""
    if coeffs == "Z":
        return
    if isinstance(coeffs, int) and not isinstance(coeffs, bool):
        if coeffs == 0 or is_prime(coeffs):
            return
        raise ValueError(f"field characteristic must be 0 or a prime, got {coeffs}")
    raise ValueError(f"coefficients must be 'Z', 0 (rationals) or a prime, got {coeffs!r}")


def coeffs_label(coeffs) -> str:
    _check_coeffs(coeffs)
    if coeffs == "Z":
        return "Z"
    return "Q" if coeffs == 0 else f"F{coeffs}"


# ---------------------------------------------------------------------------
# cliques, links, flag complexes


def enumerate_cliques(g: EvenGraph, max_size: int) -> tuple[tuple[str, ...], ...]:
    """All cliques of size <= max_size, including the empty clique.

    Order: by size, then lexicographically in the global vertex order, so
    every downstream basis and report is deterministic.
    """
    by_size: list[list[tuple[str, ...]]] = [[()]]
    current: list[tuple[str, ...]] = [()]
    for size in range(1, max_size + 1):
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


def link(g_ambient: EvenGraph, gamma1: EvenGraph, delta: Sequence[str]) -> EvenGraph:
    """Link of the clique ``delta`` taken inside the subgraph ``gamma1``.

    Adjacency to ``delta`` is tested in the ambient graph; the returned graph
    is the subgraph of ``gamma1`` induced on the adjacent vertices.  The link
    of the empty clique is ``gamma1`` itself.
    """
    if not is_subgraph(gamma1, g_ambient):
        raise ValueError("gamma1 is not a subgraph of the ambient graph")
    delta = list(delta)
    if not g_ambient.is_clique(delta):
        raise ValueError(f"{tuple(delta)} is not a clique of the ambient graph")
    keep = [w for w in gamma1.vertices
            if all(g_ambient.has_edge(v, w) for v in delta)]
    return induced_subgraph(gamma1, keep)


class SimplicialComplex:
    """Finite abstract simplicial complex over an ordered vertex set.

    Simplices are stored downward closed; the empty simplex is present
    exactly when the complex is nonempty.  Within each dimension, simplices
    are sorted lexicographically in the vertex order.
    """

    def __init__(self, vertex_order: Iterable[str], simplices: Iterable[Sequence[str]]):
        self.vertex_order = tuple(vertex_order)
        index = {v: i for i, v in enumerate(self.vertex_order)}
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
        self._by_dim = {
            d: tuple(sorted(group, key=lambda s: tuple(index[v] for v in s)))
            for d, group in sorted(by_dim.items())
        }
        self._factors: dict[int, list[int]] = {}

    def is_empty(self) -> bool:
        return not self._by_dim

    @property
    def dimension(self) -> int:
        return max(self._by_dim, default=-1)

    def simplices(self, dim: int) -> tuple[tuple[str, ...], ...]:
        if dim == -1:
            return ((),) if not self.is_empty() else ()
        return self._by_dim.get(dim, ())

    def chain_rank(self, dim: int) -> int:
        """Rank of the augmented chain group: degree -1 is always 1."""
        if dim == -1:
            return 1
        if dim < -1:
            return 0
        return len(self._by_dim.get(dim, ()))

    def invariant_factors(self, k: int) -> list[int]:
        """Invariant factors of the augmented boundary map d_k, computed once.

        Above the dimension there are no k-simplices, so d_k has no columns
        and nothing is diagonalised.
        """
        if k > self.dimension:
            return []
        if k not in self._factors:
            self._factors[k] = integer_invariant_factors(
                _boundary(self, k), self.chain_rank(k - 1), self.chain_rank(k))
        return self._factors[k]


def flag_complex(g: EvenGraph) -> SimplicialComplex:
    """Flag complex of a graph: one (k-1)-simplex per k-clique."""
    cliques = enumerate_cliques(g, len(g.vertices))
    return SimplicialComplex(g.vertices, [c for c in cliques if c])


def _boundary(c: SimplicialComplex, k: int) -> list[list[int]]:
    """Augmented boundary matrix d_k from degree k to degree k-1.

    d_0 is the augmentation sending every vertex to the empty simplex.  The
    face obtained by removing the i-th vertex (in global order) carries the
    sign (-1)^i, which makes consecutive matrices compose to zero.
    """
    cols = c.simplices(k)
    if k == 0:
        # the augmentation row exists even for the empty complex
        return [[1] * len(cols)]
    rows = c.simplices(k - 1)
    row_of = {s: i for i, s in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            matrix[row_of[face]][j] = -1 if i % 2 else 1
    return matrix


# ---------------------------------------------------------------------------
# exact linear algebra over Z


def integer_invariant_factors(matrix: Sequence[Sequence[int]], nrows: int, ncols: int) -> list[int]:
    """Positive invariant factors d_1 | d_2 | ... of an integer matrix.

    Elimination to a diagonal form: the pivot is a minimal-absolute-value
    nonzero entry, its column and row are cleared by exact division steps,
    and the diagonal is then turned into the divisibility chain by (gcd,
    lcm) exchanges.  Arbitrary-precision throughout.
    """
    m = [list(row) for row in matrix]
    diagonal: list[int] = []
    k = 0
    while k < nrows and k < ncols:
        piv = None
        best = 0
        for i in range(k, nrows):
            for j in range(k, ncols):
                a = m[i][j]
                if a and (piv is None or abs(a) < best):
                    piv, best = (i, j), abs(a)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i0, j0 = piv
        m[k], m[i0] = m[i0], m[k]
        for row in m:
            row[k], row[j0] = row[j0], row[k]
        while True:
            p = m[k][k]
            for i in range(k + 1, nrows):
                if m[i][k]:
                    q = m[i][k] // p
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[k])]
            for j in range(k + 1, ncols):
                if m[k][j]:
                    q = m[k][j] // p
                    if q:
                        for row in m:
                            row[j] -= q * row[k]
            # a nonzero remainder is smaller than the pivot: it becomes the
            # pivot and the clearing starts again
            i = next((i for i in range(k + 1, nrows) if m[i][k]), None)
            j = next((j for j in range(k + 1, ncols) if m[k][j]), None)
            if i is not None:
                m[k], m[i] = m[i], m[k]
            elif j is not None:
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                break
        diagonal.append(abs(m[k][k]))
        k += 1
    return _divisibility_chain(diagonal)


def _divisibility_chain(diagonal: list[int]) -> list[int]:
    """Invariant factors of a nonsingular diagonal matrix.  Exchanging each
    pair of entries for (gcd, lcm) sorts every prime's exponents; units
    divide everything and stay in front."""
    chain = sorted(x for x in diagonal if x != 1)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return [1] * (len(diagonal) - len(chain)) + chain


def _rank_from_factors(factors: Sequence[int], coeffs) -> int:
    if coeffs == "Z" or coeffs == 0:
        return len(factors)
    return sum(1 for d in factors if d % coeffs)


# ---------------------------------------------------------------------------
# homology profiles


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology per degree: betti numbers and, over Z, torsion.

    ``torsion[d]`` is the elementary-divisor chain of the torsion subgroup
    of reduced H_d; it is always empty over a field.
    """

    coefficients: str
    max_degree: int
    betti: dict[int, int]
    torsion: dict[int, tuple[int, ...]]

    def betti_at(self, d: int) -> int:
        return self.betti.get(d, 0)

    def trivial_at(self, d: int) -> bool:
        return self.betti_at(d) == 0 and not self.torsion.get(d, ())


def reduced_homology(c: SimplicialComplex, coeffs, max_degree: int) -> HomologyProfile:
    """Exact reduced homology of the augmented chain complex.

    Degrees -1 .. max_degree.  Over "Z" the profile carries both betti
    numbers and torsion; over 0 (the rationals) or a prime p only betti
    numbers, derived from the same integer Smith forms, which the complex
    keeps: asking again, in any degree or over other coefficients, reuses
    them.
    """
    label = coeffs_label(coeffs)
    factors = {k: c.invariant_factors(k) for k in range(0, max_degree + 2)}
    betti = {}
    torsion = {}
    for d in range(-1, max_degree + 1):
        rank_in = _rank_from_factors(factors[d + 1], coeffs)
        rank_out = _rank_from_factors(factors[d], coeffs) if d >= 0 else 0
        betti[d] = c.chain_rank(d) - rank_out - rank_in
        if coeffs == "Z":
            torsion[d] = tuple(f for f in factors[d + 1] if f > 1)
        else:
            torsion[d] = ()
    return HomologyProfile(label, max_degree, betti, torsion)


def has_cone_vertex(g: EvenGraph) -> bool:
    """A vertex adjacent to every other one cones off the flag complex,
    which is then contractible (hence acyclic over every coefficient ring)."""
    if not g.vertices:
        return False
    n = len(g.vertices)
    return any(len(g.neighbors(v)) == n - 1 for v in g.vertices)
