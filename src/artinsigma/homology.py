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

from collections import defaultdict
from itertools import count, islice
from math import gcd, inf
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import EvenGraph, MaskGraph, _bits


def prime_factors(n: int) -> set[int]:
    """The primes dividing n, by trial division (empty for n < 2); meant for
    edge labels, which are bounded.  Check a characteristic with
    :func:`coeffs_label`."""
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


def coeffs_label(p: int | None) -> str:
    """The name of the coefficients ``p`` ("Z" for None, "Q" for 0, "F<p>"
    for a prime p), and the library's one check of such a value: anything
    else raises ValueError."""
    if p is None:
        return "Z"
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"coefficients must be None (Z), 0 (Q) or a prime, got {p!r}")
    if p >= PRIME_BOUND:
        raise ValueError(f"must be below {PRIME_BOUND}, where primality is decided exactly, "
                         f"got {p}")
    if p != 0 and not is_prime(p):
        raise ValueError(f"must be 0 or a prime, got {p}")
    return "Q" if p == 0 else f"F{p}"


def _require_field(p: int) -> None:
    """The check of :func:`coeffs_label` where a field is needed: None is refused too."""
    if p is None:
        raise ValueError("a field characteristic is needed: 0 (Q) or a prime, not None (Z)")
    coeffs_label(p)


# ---------------------------------------------------------------------------
# cliques, links, flag complexes


# The most cliques one enumeration may hold.  Measured on a 2-vCPU machine
# with K_n, all labels 2 and values alternating 0 and 1: `verdict --n 4` on
# K60 (523,686 cliques of size <= 4) takes 4 s and on K83 (1,932,988) 17 s
# and 410 MB; K120 (8,502,671) would take minutes and is refused at once.
# Link homology reads a link's strong-collapse core, which for these links
# (complete graphs) is one vertex, read in closed form, so `links --n 3` on
# K42, whose full link complexes would hold 2^21 cliques, takes 0.2 s.
MAX_CLIQUES = 2_000_000


class TooManyCliques(ValueError):
    """A clique enumeration would exceed :data:`MAX_CLIQUES`."""


def _cliques(nbr: Sequence[int], max_size: int, start: int | None = None) -> list[int]:
    """The vertex masks of the cliques of size <= max_size of the graph with
    neighbour masks ``nbr``: the empty clique 0, then those of :func:`_levels`
    (on the vertex mask ``start``, all vertices by default)."""
    out = [0]
    for level in islice(_levels(nbr, start), max(max_size, 0)):
        out.extend(members for members, _ in level)
    return out


def _levels(nbr: Sequence[int], start: int | None = None) -> Iterator[list[tuple[int, int]]]:
    """The nonempty cliques of the graph with neighbour masks ``nbr`` whose
    vertices lie on the mask ``start`` (all vertices by default), one size at
    a time from size 1: each size as pairs (vertex mask, mask of the common
    neighbours on ``start`` after its last vertex), lexicographically in the
    vertex order, so every basis and report built on them is deterministic.
    Restricted to ``start``, the walk is the full walk with the cliques that
    leave ``start`` taken out, in the same order.

    Each clique of a size is extended by the vertices of its second mask.
    Each size is counted from those masks before it is built, and a total
    (the empty clique included) above :data:`MAX_CLIQUES` raises
    :class:`TooManyCliques`.
    """
    current = [(0, (1 << len(nbr)) - 1 if start is None else start)]
    total = 1
    for size in count(1):
        total += sum(later.bit_count() for _, later in current)
        if total > MAX_CLIQUES:
            raise _too_many(total, size)
        nxt = []
        for members, later in current:
            rest = later
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                nxt.append((members | low, later & nbr[i] >> (i + 1) << (i + 1)))
                rest ^= low
        if not nxt:
            return
        yield nxt
        current = nxt


def _check_clique_budget(nbr: Sequence[int], max_size: int) -> None:
    """Raise what :func:`_levels` raises when the graph with neighbour masks
    ``nbr`` has more than :data:`MAX_CLIQUES` cliques of size <= max_size.
    A graph has no more cliques than vertex sets, so the cliques are counted
    only when 2^|V| is above the budget (above 20 vertices).  The sizes
    below max_size are walked, and max_size is counted from the masks of
    the level below it, without being built."""
    if max_size > 0 and 1 << len(nbr) > MAX_CLIQUES:
        total, below = 1, [(0, (1 << len(nbr)) - 1)]
        for below in islice(_levels(nbr), max_size - 1):
            total += len(below)
        total += sum(later.bit_count() for _, later in below)
        if total > MAX_CLIQUES:
            raise _too_many(total, max_size)


def _too_many(total: int, size: int) -> TooManyCliques:
    return TooManyCliques(f"the clique enumeration is refused: {total} cliques of size at most "
                          f"{size}, above the budget of {MAX_CLIQUES}")


def strong_core(nbr: Sequence[int], mask: int) -> int:
    """The vertex mask of a strong-collapse core of the flag complex of the
    graph with neighbour masks ``nbr``, induced on the vertex mask ``mask``;
    the core keeps the positions of ``nbr``.

    A vertex v whose closed neighbourhood N[v] lies inside N[w] for some
    neighbour w is dominated: every maximal simplex through v contains w,
    so deleting v is a strong collapse, a homotopy equivalence (Barmak and
    Minian, *Strong homotopy types, nerves and collapses*, Discrete Comput.
    Geom. 2012).  Dominated vertices are deleted, lowest first, until none
    is left; the flag complex of what remains has the reduced homology of
    the whole over every coefficient ring.
    """
    changed = True
    while changed:
        changed = False
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            closed = nbr[bit.bit_length() - 1] & mask | bit
            others = closed ^ bit
            while others:
                low = others & -others
                if not closed & ~(nbr[low.bit_length() - 1] | low):
                    mask ^= bit
                    changed = True
                    break
                others ^= low
    return mask


def sphere_dimension(nbr: Sequence[int], mask: int) -> int | float | None:
    """The dimension of the sphere that the flag complex of the graph with
    neighbour masks ``nbr``, induced on ``mask``, is known to be, or None.

    The cocktail-party graph CP(k), k pairs of vertices with every vertex
    adjacent to all but its partner, has as flag complex the boundary of
    the k-dimensional cross-polytope, the sphere S^{k-1}; CP(0) is the
    empty graph, S^{-1}, and CP(1) two points, S^0.  A graph is CP(k)
    exactly when each of its 2k vertices has 2k - 2 neighbours.  One vertex
    is contractible: it is read as a sphere of infinite dimension, whose
    reduced homology vanishes in every degree.  :func:`sphere_homology`
    gives the homology of either without a complex; any other graph gives
    None.
    """
    size = mask.bit_count()
    if size == 1:
        return inf
    if all((nbr[v] & mask).bit_count() == size - 2 for v in _bits(mask)):
        return size // 2 - 1
    return None


class SimplicialComplex:
    """Finite abstract simplicial complex over an ordered vertex set.

    A simplex is a vertex mask, bit i standing for ``vertex_order[i]``.
    Built from ``groups``, its simplices already downward closed and grouped
    by dimension 0, 1, ... in turn, each group sorted lexicographically in
    the vertex order; the empty simplex 0 is present exactly when the
    complex is nonempty.  A group is taken from ``groups`` only when a
    question reads that deep (see :func:`flag_complex`).
    """

    def __init__(self, vertex_order: tuple[str, ...], groups: Iterable[tuple[int, ...]]):
        self.vertex_order = vertex_order
        self._by_dim: list[tuple[int, ...]] = []
        self._groups = iter(groups)
        self._error: Exception | None = None
        self._factors: dict[int, list[int]] = {}

    def _build(self, dim: float) -> None:
        """Take the groups through dimension ``dim``, or all there are.  An
        error raised while taking a group (such as :class:`TooManyCliques`)
        is raised again by every later attempt, so the groups it cut short
        are never taken for all there are."""
        while len(self._by_dim) <= dim:
            if self._error is not None:
                raise self._error
            try:
                group = next(self._groups, None)
            except Exception as exc:
                self._error = exc
                raise
            if group is None:
                return
            self._by_dim.append(group)

    def is_empty(self) -> bool:
        return not self.simplices(0)

    @property
    def dimension(self) -> int:
        """The top dimension, for which every simplex is built."""
        self._build(inf)
        return len(self._by_dim) - 1

    def simplices(self, dim: int) -> tuple[int, ...]:
        if dim == -1:
            return (0,) if not self.is_empty() else ()
        self._build(dim)
        return self._by_dim[dim] if 0 <= dim < len(self._by_dim) else ()

    def chain_rank(self, dim: int) -> int:
        """Rank of the augmented chain group: degree -1 is always 1."""
        if dim == -1:
            return 1
        return len(self.simplices(dim))

    def invariant_factors(self, k: int) -> list[int]:
        """Invariant factors of the augmented boundary map d_k, computed once.

        Without k-simplices (above the dimension) d_k has no columns and
        nothing is diagonalised.
        """
        if not self.simplices(k):
            return []
        if k not in self._factors:
            self._factors[k] = integer_invariant_factors(
                _boundary(self, k), self.chain_rank(k - 1), self.chain_rank(k))
        return self._factors[k]


def flag_complex(g: EvenGraph | MaskGraph) -> SimplicialComplex:
    """Flag complex of a graph: one (k-1)-simplex per k-clique mask of
    :func:`_levels`, one size at a time, only as deep as the questions asked
    of the complex read, each size counted against :data:`MAX_CLIQUES`."""
    levels = _levels(g.neighbor_masks)
    return SimplicialComplex(g.vertices, (tuple([s for s, _ in level]) for level in levels))


def _boundary(c: SimplicialComplex, k: int) -> dict[int, dict[int, int]]:
    """Augmented boundary matrix d_k from degree k to degree k-1, as sparse
    rows: the index of each nonzero row maps to its nonzero entries by
    column index.  Rows come in the order in which the columns, taken in
    turn, first reach them, so :func:`_smith_diagonal` finds its pivots
    roughly column by column; on the cross-polytope spheres of
    ``verdict --n 4`` on the cocktail-party graph K50 that is three times
    faster than rows in index order.

    d_0 is the augmentation sending every vertex to the empty simplex.  The
    face s ^ 1 << v of the simplex s, which drops its i-th vertex v in
    global order, carries the sign (-1)^i, so consecutive matrices compose
    to zero.
    """
    row_of = {s: i for i, s in enumerate(c.simplices(k - 1))}
    rows: dict[int, dict[int, int]] = {}
    for j, s in enumerate(c.simplices(k)):
        for i, v in enumerate(_bits(s)):
            rows.setdefault(row_of[s ^ 1 << v], {})[j] = -1 if i % 2 else 1
    return rows


# ---------------------------------------------------------------------------
# exact linear algebra over Z


def integer_invariant_factors(rows: dict[int, dict[int, int]], nrows: int,
                              ncols: int) -> list[int]:
    """Positive invariant factors d_1 | d_2 | ... of the ``nrows`` x
    ``ncols`` integer matrix with the sparse rows ``rows`` (see
    :func:`_boundary`), which are left as they are: :func:`_smith_diagonal`
    with the absolute value as size, then the divisibility chain.
    Arbitrary-precision throughout."""
    rows = {i: dict(row) for i, row in rows.items() if row}
    return _divisibility_chain([abs(d) for d in _smith_diagonal(rows, abs, divmod)],
                               abs, gcd, divmod)


def _smith_diagonal(rows: dict[int, dict], size, divmod_) -> list:
    """Nonzero diagonal left by a sparse Smith-form elimination over a
    Euclidean ring, in the manner of Dumas, Saunders and Villard (*On
    efficient sparse integer matrix Smith normal forms*, J. Symb. Comput.
    2001).  Serves Z here and F[t, t^-1] in :mod:`artinsigma.laurent`.

    ``rows`` maps each row index to its nonzero entries by column and is
    consumed.  The ring enters only through ``size``, its Euclidean size
    (0 for zero, 1 for units), and ``divmod_``, a division whose remainder
    is smaller than the divisor.  The pivot is an entry of smallest size
    (the first unit found, see :func:`_smallest_entry`, which keeps what it
    found in each row until the row changes).  It clears its column by row
    operations, and while remainders are left the smallest becomes the
    pivot; a unit pivot leaves none, and its column, never read again, is
    dropped without updating the column index.  Then the pivot row is
    cleared by column operations, which touch no other row and are skipped
    for a unit pivot; a nonzero remainder there again becomes the pivot.
    A remainder that becomes the pivot must be smaller than the pivot it
    divided, or RuntimeError is raised, so a size that disagrees with the
    division fails instead of looping.  The cleared pivot row and column
    are dropped.  No divisibility sweep runs between pivots: the
    caller turns the diagonal into the chain d_1 | d_2 | ... .
    """
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    diagonal = []
    known: dict[int, tuple] = {}    # see _smallest_entry; a changed row is dropped
    while rows:
        i0, j0 = _smallest_entry(rows, size, known)
        while True:
            while True:     # column j0: every other row loses a multiple of the pivot row
                pivot_row = rows[i0]
                pivot = pivot_row[j0]
                unit = size(pivot) == 1
                best, best_size = None, 0
                for i in sorted(cols[j0]):
                    if i == i0:
                        continue
                    row = rows[i]
                    q, r = divmod_(row[j0], pivot)
                    s = size(r)
                    if size(q):
                        known.pop(i, None)
                        neg_q = -q
                        for j, a in pivot_row.items():
                            if j == j0:
                                continue
                            cur = row.get(j)
                            if cur is None:
                                row[j] = neg_q * a
                                cols[j].add(i)
                            elif size(v := cur + neg_q * a):
                                row[j] = v
                            else:
                                del row[j]
                                cols[j].discard(i)
                        if s:
                            row[j0] = r
                        else:   # a unit pivot's column j0 is not read again
                            del row[j0]
                            if not unit:
                                cols[j0].discard(i)
                            if not row:
                                del rows[i]
                    if s and (best is None or s < best_size):
                        best, best_size = i, s
                if best is None:
                    break
                _check_falls(best_size, size(pivot))
                i0 = best
            if unit:
                break
            known.pop(i0, None)
            best, best_size = None, 0
            for j in [j for j in pivot_row if j != j0]:     # row i0: keep remainders
                r = divmod_(pivot_row[j], pivot)[1]
                s = size(r)
                if s:
                    pivot_row[j] = r
                    if best is None or s < best_size:
                        best, best_size = j, s
                else:
                    del pivot_row[j]
                    cols[j].discard(i0)
            if best is None:
                break
            _check_falls(best_size, size(pivot))
            j0 = best
        row = rows.pop(i0)
        diagonal.append(row[j0])
        for j in row:
            cols[j].discard(i0)
    return diagonal


def _check_falls(new_size, old_size) -> None:
    """A remainder that becomes the pivot must be strictly smaller than the
    pivot it divided; then every switch lowers the pivot size and the
    elimination ends.  A size that disagrees with the ring's division would
    otherwise loop forever."""
    if not 0 < new_size < old_size:
        raise RuntimeError(f"Smith form: a remainder of size {new_size} does not fall below "
                           f"its divisor's size {old_size}; the size function disagrees "
                           f"with the ring's division")


def _smallest_entry(rows: dict[int, dict], size, known: dict) -> tuple[int, int]:
    """Position of a nonzero entry of smallest size: in row order the first
    unit, or else the first entry of the smallest size.  ``known`` keeps
    the (size, column) of each row's own such entry until the row changes."""
    best, best_size = None, 0
    for i, row in rows.items():
        own = known.get(i)
        if own is None:
            for j, a in row.items():
                s = size(a)
                if s == 1:
                    own = 1, j
                    break
                if own is None or s < own[0]:
                    own = s, j
            known[i] = own
        s, j = own
        if s == 1:
            return i, j
        if best is None or s < best_size:
            best, best_size = (i, j), s
    return best


def _divisibility_chain(diagonal: list, size, gcd_, divmod_) -> list:
    """Invariant factors d_1 | d_2 | ... of a nonsingular diagonal matrix
    whose entries ``diagonal`` are canonical associates (over Z positive,
    over F[t, t^-1] monic of lowest exponent 0).  Serves Z and
    F[t, t^-1] alike: the ring enters through ``size`` (1 for units), a
    ``gcd_`` that returns canonical associates and ``divmod_``.

    Units come first.  The other entries are kept as a multiset; while two
    distinct values a, b do not divide one another, min(mult a, mult b)
    copies of the pair are replaced by (gcd, lcm).  That keeps, for each
    prime, the multiset of its exponents, and it ends because the sum of
    squared sizes grows.  The values left are totally ordered by
    divisibility, which in increasing size is the chain.
    """
    units = [d for d in diagonal if size(d) == 1]
    mult: dict = {}
    for d in diagonal:
        if size(d) > 1:
            mult[d] = mult.get(d, 0) + 1
    while True:
        values = sorted(mult, key=size)
        pair = next(((a, b, g) for i, a in enumerate(values) for b in values[i + 1:]
                     if (g := gcd_(b, a)) != a), None)
        if pair is None:
            return units + [d for d in values for _ in range(mult[d])]
        a, b, g = pair
        k = min(mult[a], mult[b])
        for d in (a, b):
            mult[d] -= k
            if not mult[d]:
                del mult[d]
        for d in (g, divmod_(a * b, g)[0]):
            mult[d] = mult.get(d, 0) + k


def _rank_from_factors(factors: Sequence[int], p: int | None) -> int:
    if not p:
        return len(factors)
    return sum(1 for d in factors if d % p)


# ---------------------------------------------------------------------------
# homology profiles


class HomologyProfile(NamedTuple):
    """Reduced homology per degree: betti numbers and, over Z, torsion.

    ``torsion[d]`` is the elementary-divisor chain of the torsion subgroup
    of reduced H_d; it is always empty over a field.
    """

    betti: dict[int, int]
    torsion: dict[int, tuple[int, ...]]

    def betti_at(self, d: int) -> int:
        return self.betti.get(d, 0)

    def trivial_at(self, d: int) -> bool:
        return self.betti_at(d) == 0 and not self.torsion.get(d, ())


def reduced_homology(c: SimplicialComplex, p: int | None, max_degree: int) -> HomologyProfile:
    """Exact reduced homology of the augmented chain complex.

    Degrees -1 .. max_degree.  Over Z (``p`` None) the profile carries both
    betti numbers and torsion; over Q (0) or F_p (a prime p) only betti
    numbers, derived from the same integer Smith forms, which the complex
    keeps: asking again, in any degree or over other coefficients, reuses
    them.
    """
    coeffs_label(p)
    # every simplex read is built, and counted against the clique budget,
    # before the first Smith form
    c.simplices(max_degree + 1)
    factors = {k: c.invariant_factors(k) for k in range(0, max_degree + 2)}
    betti = {}
    torsion = {}
    for d in range(-1, max_degree + 1):
        rank_in = _rank_from_factors(factors[d + 1], p)
        rank_out = _rank_from_factors(factors[d], p) if d >= 0 else 0
        betti[d] = c.chain_rank(d) - rank_out - rank_in
        torsion[d] = tuple([f for f in factors[d + 1] if f > 1]) if p is None else ()
    return HomologyProfile(betti, torsion)


def sphere_homology(dimension: int | float, p: int | None,
                    max_degree: int) -> HomologyProfile:
    """Exact reduced homology, in degrees -1 .. max_degree, of a sphere of
    the given dimension (see :func:`sphere_dimension`): the coefficient
    ring in that degree and zero elsewhere, without torsion."""
    coeffs_label(p)
    degrees = range(-1, max_degree + 1)
    return HomologyProfile({d: int(d == dimension) for d in degrees}, {d: () for d in degrees})


def has_cone_vertex(g: EvenGraph | MaskGraph) -> bool:
    """A vertex adjacent to every other one cones off the flag complex,
    which is then contractible (hence acyclic over every coefficient ring).
    A :class:`MaskGraph` is read on its own masks, without renumbering."""
    if isinstance(g, MaskGraph):
        nbr, mask = g.adjacency, g.mask
    else:
        nbr, mask = g.neighbor_masks, (1 << len(g.vertices)) - 1
    return any(nbr[v] & mask == mask ^ 1 << v for v in _bits(mask))
