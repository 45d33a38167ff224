"""Twisted chain complex of the cyclic cover, and kernel homology modules.

For an integer-valued character, the homology of its kernel with field
coefficients is the homology of a complex of free F[t, t^-1]-modules with
one generator per clique (the empty clique in degree 0, k-cliques in degree
k).  The differential D_n sends a clique generator to the signed sum of its
facets, each weighted by

    b(v, X) = (t^(m_v) - 1) * prod over edges e = {v, w} inside X of q(l, m_e),
    q(l, m) = 1 + t^m + ... + t^(m (l - 1))      for the label 2l of e,

where m_e = m_v + m_w (q(l, 0) is the constant l).  The weight vanishes
exactly when v is dead or lies on a p-dead edge of X in characteristic p.
Smith normal form over the principal ideal domain F[t, t^-1] then yields
the free rank and the invariant-factor torsion of each homology module.
F is named by its characteristic p, 0 for Q or a prime, which
:func:`_build_salvetti_complex` checks once; the weights, matrices and
factors are then built without checking it again.

Every weight is divisible by t - 1, so the complex is kept reduced: D'_n =
D_n / (t - 1) has the weights c(v, X) = [m_v]_t * prod q(l, m_e), where
[m]_t = (t^m - 1) / (t - 1) is 1 + t + ... + t^(m-1) for m > 0,
-t^m [-m]_t for m < 0 and 0 for m = 0.  F[t, t^-1] is a domain, so D'_n has
the rank of D_n, its invariant factors times t - 1 are those of D_n (each
still canonical), and D'_n D'_{n+1} vanishes exactly when D_n D_{n+1} does.
The Smith forms run on D', where most pivots are units; D_n itself is built
only when read.

This is the independent oracle for the closed-form link formula: the two
routes are compared entry for entry by :func:`cross_check`, and a mismatch
is a hard error naming the instance.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .characters import Character, _check_domain
from .graphs import EvenGraph, _bits, describe_graph
from .homology import _levels, _require_field
from .laurent import LaurentMatrix, LaurentPoly, _f2, _of_elements, smith_normal_form


# The oracle's cost grows with the span of the differential weights.  On one
# label-4 edge at degree 1 (2-vCPU Xeon VM), chi = (1, 1000) (largest span
# 2,001) takes 3 ms over F_2, whose polynomials are packed into ints, and
# chi = (1, 2500) (span 5,001) 7 ms.  Over Q, whose coefficients are dense
# Fractions, the same two took 3.6 s (6.3 s on a busier run) and 28 s, and
# the budget is set by Q.  Larger spans are refused before anything is built.
MAX_ORACLE_SPAN = 2_048


# The oracle's work grows with the number of cliques times the span.  At
# `homology --n 3 --oracle` (same machine) that product is at most 1,210 on
# the 4,800 11-vertex graphs of the benchmark's oracle_f2 workload (seeds 1,
# 5, 23, 37, 71, 97).  On its generator's density-0.6 graphs (seed 1), 30
# vertices (25,410) took 0.4 s over F_2 and 1.6 s over Q, and 35 vertices
# (44,790) 1.5 s and 6.3 s; 60 vertices (309,500) took 127 s over F_2.
MAX_ORACLE_WORK = 32_768


class OracleTooLarge(ValueError):
    """The twisted complex would carry a weight beyond :data:`MAX_ORACLE_SPAN`,
    or cliques times span beyond :data:`MAX_ORACLE_WORK`."""


def _half_labels(g: EvenGraph, max_n: int) -> list[dict[int, int]]:
    """Per vertex index v, half the label of each label > 2 edge {v, w} by
    the index w, or nothing when max_n < 2 (no smaller clique holds an
    edge).  Every label is even: :func:`_check_domain` has refused the
    graph otherwise."""
    vs = g.vertices
    halves: list[dict[int, int]] = [{} for _ in vs]
    if max_n >= 2:
        for v, partners in enumerate(g.big_partner_masks):
            for w in _bits(partners >> v << v):
                halves[v][w] = halves[w][v] = g.half_label(vs[v], vs[w])
    return halves


def _max_weight_span(exps: list[int], halves: list[dict[int, int]], max_n: int) -> int:
    """Largest span of a weight b(v, X) over the cliques X of size <= max_n,
    for the primitive integer values ``exps`` and the half labels
    ``halves`` (see :func:`_half_labels`) in the vertex order.

    t^m - 1 has span |m| and q(l, m) has span (l - 1) |m|; the graph is
    FC (:func:`_check_domain` has refused it otherwise), so a clique holds
    at most one label > 2 partner w of v, and only cliques of size >= 2
    hold one.
    """
    if max_n < 1:
        return 0
    return max((abs(m) + max([(half - 1) * abs(m + exps[w]) for w, half in halves[v].items()],
                             default=0)
                for v, m in enumerate(exps) if m), default=0)   # b(v, X) = 0 when m = 0


def _weight(exps: list[int], halves: list[dict[int, int]], v: int, partners: int,
            p: int) -> LaurentPoly:
    """c(v, X) = b(v, X) / (t - 1) for the vertex index v and the mask
    ``partners`` of its label > 2 partners in X (a label-2 factor is 1).
    With s = m_v + m_w for a partner w: over F_2, c is built as packed
    bits, [m_v]_t as |m_v| ones at offset 0 or m_v, times q(l, s) as l
    copies shifted by multiples of |s| and XORed (l mod 2 when s = 0);
    otherwise from its integer coefficients, [m_v]_t, then one convolution
    with q(l, s) per partner, the constant l when s = 0, reduced mod p when
    stored."""
    m = exps[v]
    if not m:
        return _of_elements(p, 0, [])
    half_of = halves[v]
    if p == 2:
        offset, bits = min(m, 0), (1 << abs(m)) - 1
        for w in _bits(partners):
            half, s = half_of[w], m + exps[w]
            offset += min(s, 0) * (half - 1)
            copies = bits
            for _ in range(half - 1):
                copies = copies << abs(s) ^ bits
            bits = copies
        return _f2(offset, bits)
    offset, cs = (0, [1] * m) if m > 0 else (m, [-1] * -m)
    for w in _bits(partners):
        half, s = half_of[w], m + exps[w]
        if not s:
            cs = [half * c for c in cs]
            continue
        step = abs(s)
        if s < 0:
            offset += s * (half - 1)
        out = [0] * (len(cs) + step * (half - 1))
        for i in range(0, len(out) - len(cs) + 1, step):
            for k, c in enumerate(cs, i):
                out[k] += c
        cs = out
    return _of_elements(p, offset, cs)


class TwistedComplex:
    """Chain complex of free F[t, t^-1]-modules indexed by cliques.

    Degree n has one basis element per n-clique (degree 0: the empty
    clique), kept as the vertex masks ``levels[n]`` over the names
    ``vertices``, in the order of the rows and columns.  The reduced
    differentials D'_n = D_n / (t - 1) are built once as sparse rows and
    their composites are verified to vanish; D_n is rebuilt from D'_n when
    :meth:`differential` reads it.  Each D'_n keeps its Smith diagonal, so a
    rank is read without the divisibility chain, which runs only for the
    degrees whose invariant factors are asked for (memoized).
    """

    def __init__(self, p: int, vertices: tuple[str, ...], levels: list[list[int]],
                 reduced: list[LaurentMatrix]):
        self.p = p
        self.vertices = vertices
        self.levels = levels
        self._reduced = reduced  # _reduced[n] is D'_n; _reduced[0] is the zero map
        self._t_minus_one = _of_elements(p, 0, [-1, 1])
        self._snf_memo: dict[int, tuple[tuple[LaurentPoly, ...], int]] = {}

    @property
    def max_degree(self) -> int:
        return len(self.levels) - 1

    def _degree(self, n: int) -> int:
        """n, once checked to be a degree of the complex."""
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} out of range 0..{self.max_degree}")
        return n

    def differential(self, n: int) -> LaurentMatrix:
        """D_n: degree n -> degree n-1 (the zero map for n = 0), built anew
        from D'_n on each read."""
        reduced = self._reduced[self._degree(n)]
        t_minus_one = self._t_minus_one
        rows = {i: {j: t_minus_one * e for j, e in row.items()}
                for i, row in reduced._rows.items()}
        return LaurentMatrix(self.p, reduced.nrows, reduced.ncols, rows)

    def snf(self, n: int) -> tuple[tuple[LaurentPoly, ...], int]:
        """Invariant factors and rank of D_n: those of D'_n, each factor
        times t - 1."""
        if n not in self._snf_memo:
            factors, rank = smith_normal_form(self._reduced[self._degree(n)])
            t_minus_one = self._t_minus_one
            self._snf_memo[n] = tuple([t_minus_one if f.size == 1 else t_minus_one * f
                                       for f in factors]), rank
        return self._snf_memo[n]

    def rank(self, n: int) -> int:
        return len(self._reduced[self._degree(n)]._diagonal())


def build_salvetti_complex(g: EvenGraph, chi: Character, p: int,
                           max_n: int | None = None) -> TwistedComplex:
    """The twisted complex of (g, chi) of :func:`_build_salvetti_complex`,
    once the instance has passed the domain check of
    :func:`artinsigma.characters._check_domain`."""
    _check_domain(g, chi)
    return _build_salvetti_complex(g, chi, p, max_n)


def _build_salvetti_complex(g: EvenGraph, chi: Character, p: int,
                            max_n: int | None) -> TwistedComplex:
    """Assemble the twisted complex of an instance that has passed the
    domain check over the field of characteristic ``p`` (0 for Q or a prime,
    the complex's one check of it) through degree ``max_n``.

    Character values are first rescaled to a primitive integer vector (the
    exponents of the deck transformation).  A clique is a vertex mask of a
    level of :func:`homology._levels`; the facet x ^ 1 << v dropping the
    i-th vertex v of x, peeled off x lowest first, has the sign (-1)^i.
    Composites of consecutive differentials are checked to vanish.  A
    weight span above :data:`MAX_ORACLE_SPAN`, or cliques times span above
    :data:`MAX_ORACLE_WORK`, raises :class:`OracleTooLarge` before any
    weight is built; both measure the span of b, one more than that of c.

    A label-2 factor of b(v, X) is q(1, m) = 1, so c(v, X) depends only
    on v and its label > 2 partners x & g.big_partner_masks[v]; each
    distinct weight is computed once per build, found in a table per vertex
    by that partner mask, from the half labels of :func:`_half_labels`
    (over F_2 as packed bits, see :func:`_weight`).  Each reduced differential
    is handed on as sparse rows in row order: on 11-vertex graphs its Smith
    form then takes about 5% fewer divisions than with the rows in the order
    in which the columns first reach them, the order of the integer
    boundaries.  The composite check reads the differentials as columns of
    (row, weight index, sign parity), one entry per vertex of the clique in
    the vertex order, zero weights included.
    """
    _require_field(p)
    if max_n is None:
        max_n = len(g.vertices)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    ints = chi.primitive_integer_values()
    exps = [ints[v] for v in g.vertices]
    halves = _half_labels(g, max_n)
    span = _max_weight_span(exps, halves, max_n)
    if span > MAX_ORACLE_SPAN:
        raise OracleTooLarge(f"the oracle is refused: a differential weight would have span "
                             f"{span}, above the budget of {MAX_ORACLE_SPAN}")
    levels = [[0]] + [[x for x, _ in level] for level in islice(_levels(g.neighbor_masks), max_n)]
    levels += [[] for _ in range(max_n + 1 - len(levels))]
    cliques = sum(map(len, levels))
    if cliques * span > MAX_ORACLE_WORK:
        raise OracleTooLarge(f"the oracle is refused: {cliques} cliques of size at most "
                             f"{max_n} times the weight span {span} is "
                             f"{cliques * span}, above the budget of {MAX_ORACLE_WORK}")
    big = g.big_partner_masks
    weights: list[tuple[LaurentPoly, LaurentPoly]] = []  # (c, -c) in order of first use
    index: list[dict[int, int]] = [{} for _ in exps]    # per vertex, by partner mask
    columns: list[list[list[tuple[int, int, int]]]] = [[]]
    reduced = [LaurentMatrix(p, 0, 1, {})]
    for n in range(1, max_n + 1):
        row_of = {x: i for i, x in enumerate(levels[n - 1])}
        sparse: list[dict[int, LaurentPoly]] = [{} for _ in row_of]
        degree = []
        for j, x in enumerate(levels[n]):
            column = []
            rest, odd = x, 0
            while rest:     # the vertices v of x in order, and the parities of their places
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                partners = x & big[v]
                k = index[v].get(partners)
                if k is None:
                    k = index[v][partners] = len(weights)
                    c = _weight(exps, halves, v, partners, p)
                    weights.append((c, -c))
                row = row_of[x ^ low]
                column.append((row, k, odd))
                c = weights[k][odd]
                if c.size:
                    sparse[row][j] = c
                odd ^= 1
            degree.append(column)
        columns.append(degree)
        reduced.append(LaurentMatrix(p, len(row_of), len(degree),
                                     {i: row for i, row in enumerate(sparse) if row}))

    _check_composites(weights, columns)
    return TwistedComplex(p, g.vertices, levels, reduced)


def _check_composites(weights: list[tuple[LaurentPoly, LaurentPoly]],
                      columns: list[list[list[tuple[int, int, int]]]]) -> None:
    """Raise unless every entry of every D_n D_{n+1} vanishes.

    ``columns[n][j]`` holds one (row, weight index, sign parity) per vertex
    of the j-th clique Y of degree n, in the vertex order.  The entry at F =
    Y - u_i - u_j (i < j) is the sum of exactly two paths, through Y - u_i,
    which reaches F by dropping its (j-1)-th vertex, and through Y - u_j,
    which drops its i-th.  Both must reach the same row, and their products
    of weights must cancel under the signs the parities give.  Each distinct
    pair of weights is multiplied once.
    """
    nonzero = [bool(w[0].size) for w in weights]
    products: dict[tuple[int, int], LaurentPoly] = {}

    def product(a: int, b: int) -> LaurentPoly:
        pair = (a, b) if a < b else (b, a)
        prod = products.get(pair)
        if prod is None:
            prod = products[pair] = weights[a][0] * weights[b][0]
        return prod

    for n in range(1, len(columns) - 1):
        lower = columns[n]
        for column in columns[n + 1]:
            for i, (row_a, a, a_odd) in enumerate(column):
                lower_a = lower[row_a]
                for j in range(i + 1, len(column)):
                    row_b, b, b_odd = column[j]
                    f_a, fa, fa_odd = lower_a[j - 1]
                    f_b, fb, fb_odd = lower[row_b][i]
                    if f_a == f_b:
                        if not (nonzero[a] and nonzero[fa]) and not (nonzero[b] and nonzero[fb]):
                            continue
                        if a_odd ^ fa_odd != b_odd ^ fb_odd:
                            # through a label-2 edge both paths multiply the
                            # same two weights, which then need no product
                            if a == fb and b == fa or product(a, fa) == product(b, fb):
                                continue
                        elif not (product(a, fa) + product(b, fb)).size:
                            continue
                    raise RuntimeError(f"differential composite D_{n} D_{n + 1} is nonzero")


class ModulePresentation(NamedTuple):
    """Finitely generated module over F[t, t^-1]: free rank plus the
    divisibility chain of non-unit invariant factors."""

    free_rank: int
    torsion: tuple[LaurentPoly, ...]

    def describe(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"R^{self.free_rank}" if self.free_rank > 1 else "R")
        parts.extend(f"R/({f})" for f in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology_module(twisted: TwistedComplex, n: int) -> ModulePresentation:
    """Homology of the twisted complex in degree n, as a module presentation.

    Requires degrees n and n+1 to be built: the free rank is
    dim C_n - rank D_n - rank D_{n+1} and the torsion is the chain of
    non-unit invariant factors of D_{n+1}.
    """
    if not 0 <= n <= twisted.max_degree - 1:
        raise ValueError(
            f"degree {n} out of range: homology needs degrees n and n+1 "
            f"(complex built through {twisted.max_degree})")
    dim = len(twisted.levels[n])
    rank_out = twisted.rank(n) if n >= 1 else 0
    factors, rank_in = twisted.snf(n + 1)
    free_rank = dim - rank_out - rank_in
    torsion = tuple([f for f in factors if not f.is_unit()])
    return ModulePresentation(free_rank, torsion)


class CrossCheckError(AssertionError):
    """The closed-form free rank and the chain-complex free rank disagree."""


def cross_check(g: EvenGraph, chi: Character, n: int, twisted: TwistedComplex,
                formula: int) -> None:
    """Compare the link-formula free rank ``formula`` in degree n (see
    ``Analysis.free_ranks``) with the free rank of the twisted complex of
    (g, chi), built through degree n + 1; the characteristic p is the
    complex's own, ``twisted.p``.

    Torsion factors have no closed form and the library does not gate them;
    ``test_torsion_audit_at_points_of_the_field`` in the test suite audits
    them.  A free-rank mismatch raises :class:`CrossCheckError` naming the
    instance; this is the central correctness gate of the library.
    """
    oracle = homology_module(twisted, n).free_rank
    if formula != oracle:
        instance = f"{describe_graph(g)}; chi={chi!r}; p={twisted.p}; n={n}"
        raise CrossCheckError(
            f"free-rank mismatch: link formula gives {formula}, "
            f"chain complex gives {oracle} on [{instance}]")
