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

from .graphs import EvenGraph, _bits, induced_subgraph, is_subgraph


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


# The most cliques one enumeration may hold.  Measured on a 2-vCPU machine
# with K_n, all labels 2 and values alternating 0 and 1: `verdict --n 4` on
# K60 (523,686 cliques of size <= 4) takes 4 s and on K83 (1,932,988) 17 s
# and 410 MB, and `links --n 3` on K40, whose links are K20 with a flag
# complex of 2^20 cliques, takes 3 s.  K120 (8,502,671) would take minutes.
MAX_CLIQUES = 2_000_000


class TooManyCliques(ValueError):
    """A clique enumeration would exceed :data:`MAX_CLIQUES`."""


def enumerate_cliques(g: EvenGraph, max_size: int) -> tuple[tuple[str, ...], ...]:
    """All cliques of size <= max_size, including the empty clique.

    Order: by size, then lexicographically in the global vertex order, so
    every downstream basis and report is deterministic.  Each clique is
    extended by the vertices in the mask of its common neighbours after its
    last vertex.  Each size is counted from those masks before it is built,
    and a total above :data:`MAX_CLIQUES` raises :class:`TooManyCliques`.
    """
    vs, nbr = g.vertices, g.neighbor_masks
    by_size: list[list[tuple[str, ...]]] = [[()]]
    current: list[tuple[tuple[str, ...], int]] = [((), (1 << len(vs)) - 1)]
    total = 1
    for size in range(1, max_size + 1):
        total += sum(later.bit_count() for _, later in current)
        if total > MAX_CLIQUES:
            raise TooManyCliques(f"the clique enumeration is refused: {total} cliques of size "
                                 f"at most {size}, above the budget of {MAX_CLIQUES}")
        nxt = []
        for clique, later in current:
            for i in _bits(later):
                nxt.append((clique + (vs[i],), later & nbr[i] >> (i + 1) << (i + 1)))
        if not nxt:
            break
        by_size.append([clique for clique, _ in nxt])
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
    keep = _link_mask(g_ambient, g_ambient.vertex_mask(gamma1.vertices), list(delta))
    return induced_subgraph(gamma1, [g_ambient.vertices[i] for i in _bits(keep)])


def _link_mask(g_ambient: EvenGraph, gamma1_mask: int, delta: Sequence[str]) -> int:
    """Vertex mask of the link of the clique ``delta`` inside the subgraph of
    ``g_ambient`` on the bits of ``gamma1_mask``: those bits adjacent in the
    ambient graph to every vertex of ``delta``."""
    if not g_ambient.is_clique(delta):
        raise ValueError(f"{tuple(delta)} is not a clique of the ambient graph")
    keep = gamma1_mask
    for v in delta:
        keep &= g_ambient.neighbor_masks[g_ambient.index(v)]
    return keep


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

    @classmethod
    def _of_closed(cls, vertex_order: tuple[str, ...],
                   by_dim: dict[int, tuple[tuple[str, ...], ...]]) -> "SimplicialComplex":
        """A complex from simplices already downward closed and grouped by
        dimension, each group sorted as the constructor sorts it."""
        c = cls.__new__(cls)
        c.vertex_order = vertex_order
        c._by_dim = by_dim
        c._factors = {}
        return c

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
    by_dim: dict[int, list[tuple[str, ...]]] = {}
    for c in enumerate_cliques(g, len(g.vertices)):
        if c:
            by_dim.setdefault(len(c) - 1, []).append(c)
    # every face of a clique is a clique, and the enumeration order is the
    # constructor's order within each dimension
    return SimplicialComplex._of_closed(g.vertices, {d: tuple(cs) for d, cs in by_dim.items()})


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

    Sparse elimination in the manner of Dumas, Saunders and Villard (J. Symb.
    Comput., 2001), as in :func:`artinsigma.laurent.smith_normal_form`: each
    row holds only its nonzero entries, and a column index lists the rows of
    each column.  The pivot is an entry of smallest absolute value (the
    first unit found).  It clears its column by row operations, and a
    nonzero remainder becomes the new pivot.  Then the pivot row is cleared
    by column operations, which touch no other row and are skipped for a
    unit pivot.  The diagonal left at the end is turned into the
    divisibility chain by (gcd, lcm) exchanges.  Arbitrary-precision
    throughout.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, entries in enumerate(matrix):
        row = {j: a for j, a in enumerate(entries) if a}
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    diagonal: list[int] = []
    while rows:
        i0, j0 = _min_abs_entry(rows)
        while True:
            i0 = _clear_column(rows, cols, i0, j0)
            j = _clear_row(rows[i0], cols, i0, j0)
            if j is None:
                break
            j0 = j
        row = rows.pop(i0)
        diagonal.append(abs(row[j0]))
        for j in row:
            cols[j].discard(i0)
    return _divisibility_chain(diagonal)


def _min_abs_entry(rows: dict[int, dict[int, int]]) -> tuple[int, int]:
    """Position of a nonzero entry of smallest absolute value (the first
    unit found)."""
    best, best_abs = None, 0
    for i, row in rows.items():
        for j, a in row.items():
            if best is None or abs(a) < best_abs:
                best, best_abs = (i, j), abs(a)
                if best_abs == 1:
                    return best
    return best


def _clear_column(rows: dict[int, dict[int, int]], cols: dict[int, set[int]],
                  i0: int, j0: int) -> int:
    """Reduce column j0 to the single entry in the returned pivot row: every
    other row loses a multiple of the pivot row, and while remainders are
    left, the smallest becomes the pivot and the pass repeats."""
    while True:
        pivot_row = rows[i0]
        pivot = pivot_row[j0]
        best, best_abs = None, 0
        for i in list(cols[j0]):
            if i == i0:
                continue
            row = rows[i]
            q, r = divmod(row[j0], pivot)
            if q:
                for j, a in pivot_row.items():
                    v = r if j == j0 else row.get(j, 0) - q * a
                    if v:
                        row[j] = v
                        cols[j].add(i)
                    elif j in row:
                        del row[j]
                        cols[j].discard(i)
                if not row:
                    del rows[i]
            if r and (best is None or abs(r) < best_abs):
                best, best_abs = i, abs(r)
        if best is None:
            return i0
        i0 = best


def _clear_row(pivot_row: dict[int, int], cols: dict[int, set[int]],
               i0: int, j0: int) -> int | None:
    """Clear the pivot row by column operations once column j0 holds only
    the pivot, leaving the remainder of each entry.  Returns the column of
    the smallest nonzero remainder, the next pivot, or None when there is
    none (always for a unit pivot)."""
    pivot = pivot_row[j0]
    if pivot in (1, -1):
        return None
    best, best_abs = None, 0
    for j in [j for j in pivot_row if j != j0]:
        r = pivot_row[j] % pivot
        if r:
            pivot_row[j] = r
            if best is None or abs(r) < best_abs:
                best, best_abs = j, abs(r)
        else:
            del pivot_row[j]
            cols[j].discard(i0)
    return best


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
    return any(m.bit_count() == n - 1 for m in g.neighbor_masks)
