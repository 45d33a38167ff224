"""Link conditions on living subgraphs, and the kernel free-rank formula.

The strong n-link condition asks, for every dead-supported clique D of size
at most n, that the flag complex of the link of D in the living subgraph be
(n - 1 - |D|)-acyclic over Z.  Its p-local variant uses p-dead cliques, the
p-living subgraph and field coefficients of characteristic p.  Both are
decided exactly.

The homotopic variant needs connectivity rather than acyclicity, which is
undecidable by homology alone in degrees >= 1; it is therefore three-valued,
with cone detection upgrading a witness to an exact "contractible" and a
homological failure downgrading it to an exact "fails".

All of them, and the free-rank formula, read the same object: the links of
the dead cliques and the reduced homology of their flag complexes.
:class:`Analysis` builds it once per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .characters import Character, _center_generators, classify
from .graphs import EvenGraph, _bits, describe_graph, induced_subgraph, is_connected, is_subgraph
from .homology import (HomologyProfile, SimplicialComplex, _link_mask, coeffs_label,
                       enumerate_cliques, flag_complex, has_cone_vertex, is_prime,
                       reduced_homology)


class ZeroCharacterError(ValueError):
    """Link conditions are undefined for the zero character."""


@dataclass(frozen=True)
class LinkWitness:
    """One evaluated clique: what was required of its link and what happened."""

    clique: tuple[str, ...]
    required_degree: int
    link: str
    status: str               # "ok" | "fail" | "unknown"
    failing_degree: int | None
    via: str                  # "vacuous" | "cone" | "homology" | "nonempty" | "connectivity"


@dataclass(frozen=True)
class ConditionReport:
    holds: bool | None        # None encodes "unknown" (homotopic variant only)
    n: int
    coefficients: str
    mode: str
    variant: str
    witnesses: tuple[LinkWitness, ...]


def _require_nonzero(chi: Character) -> None:
    if chi.is_zero:
        raise ZeroCharacterError("the zero character has no sphere class")


def _first_nonvanishing(profile: HomologyProfile, d: int) -> int | None:
    for j in range(-1, d + 1):
        if not profile.trivial_at(j):
            return j
    return None


def _acyclicity_witness(clique, d: int, lk: EvenGraph, homology) -> LinkWitness:
    desc = describe_graph(lk)
    if d <= -2:
        return LinkWitness(clique, d, desc, "ok", None, "vacuous")
    if has_cone_vertex(lk):
        return LinkWitness(clique, d, desc, "ok", None, "cone")
    bad = _first_nonvanishing(homology(), d)
    if bad is None:
        return LinkWitness(clique, d, desc, "ok", None, "homology")
    return LinkWitness(clique, d, desc, "fail", bad, "homology")


class Analysis:
    """One instance (g, chi) and everything the link conditions read from it.

    A *mode* is ``None`` (all dead edges), ``0`` (none) or a prime p (the
    p-dead edges).  The classification is made on construction; the clique
    enumeration, each mode's living subgraph and dead cliques, each distinct
    link (one graph per vertex mask) and each link's flag complex, which
    keeps the integer Smith forms that serve Z, Q and every F_p, are built
    on first use and kept.
    """

    def __init__(self, g: EvenGraph, chi: Character):
        self.g = g
        self.chi = chi
        self.classification = classify(g, chi)   # checks the domain
        # the center re-check reads the values on their own (see _center_killed)
        ints = chi.primitive_integer_values()
        self._values = [ints[v] for v in g.vertices]
        self._zero_values = g.vertex_mask(v for v in g.vertices if not ints[v])
        self._cliques: dict[int, tuple[tuple[str, ...], ...]] = {}
        # keyed by the dead edges a mode removes, so modes that agree share them
        self._living: dict[frozenset, EvenGraph] = {}
        self._dead: dict[tuple[frozenset, int], list[tuple[tuple[str, ...], EvenGraph]]] = {}
        self._links: dict[frozenset, dict[int, EvenGraph]] = {}
        self._complexes: dict[EvenGraph, SimplicialComplex] = {}

    def _edges(self, p: int | None) -> frozenset[tuple[str, str]]:
        if p is None:
            return self.classification.dead_edges
        if p != 0 and not is_prime(p):
            raise ValueError(f"p must be None, 0 or a prime, got {p}")
        return self.classification.p_dead_edges.get(p, frozenset())

    def living(self, p: int | None = None) -> EvenGraph:
        """Living subgraph of mode ``p``: the dead vertices and the open dead
        edges of the mode removed; removed edges keep their living endpoints."""
        edges = self._edges(p)
        if edges not in self._living:
            dead = self.classification.dead_vertices
            keep = [v for v in self.g.vertices if v not in dead]
            drop = [e for e in edges if e[0] not in dead and e[1] not in dead]
            living = induced_subgraph(self.g, keep, drop)
            # every link of the mode is taken in it (see _select)
            if not is_subgraph(living, self.g):
                raise RuntimeError("living subgraph is not a subgraph of the graph")
            self._living[edges] = living
        return self._living[edges]

    def links(self, n: int, p: int | None = None, coeffs="Z"):
        """Each dead clique D of mode ``p`` with |D| <= n, as a tuple (D,
        required degree n - 1 - |D|, link of D in the living subgraph,
        homology), where ``homology()`` is the reduced homology of the link's
        flag complex over ``coeffs`` through the required degree."""
        living, edges = self.living(p), self._edges(p)
        if (edges, n) not in self._dead:
            if n not in self._cliques:
                self._cliques[n] = enumerate_cliques(self.g, n)
            self._dead[edges, n] = list(self._select(edges, living, self._cliques[n]))
        for clique, lk in self._dead[edges, n]:
            d = n - 1 - len(clique)
            yield clique, d, lk, partial(self._homology, lk, coeffs, d)

    def _select(self, edges: frozenset, living: EvenGraph, cliques):
        """(clique, link) for each of ``cliques`` whose every vertex is dead
        or on an edge of ``edges`` inside it (see :func:`dead_cliques`)."""
        g = self.g
        dead = g.vertex_mask(self.classification.dead_vertices)
        partners = [0] * len(g.vertices)   # bit j of partners[i]: edge {i, j} in edges
        for u, v in edges:
            i, j = g.index(u), g.index(v)
            partners[i] |= 1 << j
            partners[j] |= 1 << i
        living_mask = g.vertex_mask(living.vertices)
        links = self._links.setdefault(edges, {})
        check_center = edges == self.classification.dead_edges
        for clique in cliques:
            members = g.vertex_mask(clique)
            selected = all(partners[i] & members for i in _bits(members & ~dead))
            if check_center and selected != self._center_killed(members):
                raise RuntimeError(
                    f"dead-clique/center mismatch on {clique}: "
                    f"combinatorial={selected}, center-kill={not selected}")
            if selected:
                mask = _link_mask(g, living_mask, clique)
                if mask not in links:
                    links[mask] = induced_subgraph(living, [g.vertices[i] for i in _bits(mask)])
                yield clique, links[mask]

    def _center_killed(self, members: int) -> bool:
        """Whether chi kills the center of the clique subgroup on the vertex
        mask ``members``: read from the values and labels, independently of
        the classification, on the primitive integer values (a positive
        rescaling keeps every zero)."""
        pairs, leftover = _center_generators(self.g, members)
        m = self._values
        return not leftover & ~self._zero_values and all(m[i] + m[j] == 0 for i, j, _ in pairs)

    def _homology(self, lk: EvenGraph, coeffs, d: int) -> HomologyProfile:
        if lk not in self._complexes:
            self._complexes[lk] = flag_complex(lk)
        return reduced_homology(self._complexes[lk], coeffs, d)

    # -- conditions -------------------------------------------------------

    def _link_condition(self, n: int, p: int | None, coeffs) -> ConditionReport:
        _require_nonzero(self.chi)
        witnesses = tuple(_acyclicity_witness(*entry) for entry in self.links(n, p, coeffs))
        holds = all(w.status == "ok" for w in witnesses)
        mode = "dead" if p is None else f"{p}-dead"
        return ConditionReport(holds, n, coeffs_label(coeffs), mode, "homological", witnesses)

    def strong_n_link(self, n: int) -> ConditionReport:
        return self._link_condition(n, None, "Z")

    def strong_p_n_link(self, n: int, p: int) -> ConditionReport:
        return self._link_condition(n, p, p)

    def strong_homotopic_n_link(self, n: int) -> ConditionReport:
        _require_nonzero(self.chi)
        witnesses = []
        for clique, d, lk, homology in self.links(n):
            if d not in (-1, 0) or has_cone_vertex(lk):
                w = _acyclicity_witness(clique, d, lk, homology)
                if w.via == "homology" and w.status == "ok":
                    # acyclic, but connectivity needs more than homology
                    w = replace(w, status="unknown")
            elif d == -1:
                ok = bool(lk.vertices)
                w = LinkWitness(clique, d, describe_graph(lk), "ok" if ok else "fail",
                                None if ok else -1, "nonempty")
            else:
                ok = is_connected(lk)
                w = LinkWitness(clique, d, describe_graph(lk), "ok" if ok else "fail",
                                None if ok else (0 if lk.vertices else -1), "connectivity")
            witnesses.append(w)
        if any(w.status == "fail" for w in witnesses):
            holds = False
        elif all(w.status == "ok" for w in witnesses):
            holds = True
        else:
            holds = None
        return ConditionReport(holds, n, "Z", "dead", "homotopic", tuple(witnesses))

    def raag_n_link(self, n: int) -> ConditionReport:
        if any(label != 2 for _, label in self.g.edge_items()):
            raise ValueError("the n-link condition in this form needs all labels equal to 2")
        report = replace(self._link_condition(n, 0, "Z"), mode="dead-vertices")
        strong = self.strong_n_link(n)
        if strong.holds is not report.holds:
            raise RuntimeError(
                f"n-link condition ({report.holds}) disagrees with the strong condition "
                f"({strong.holds}) on an all-labels-2 graph")
        return report

    def free_ranks(self, p: int, n: int) -> list[int]:
        """Free ranks of kernel homology over characteristic p in degrees 0..n
        (see :func:`kernel_free_rank`), from one pass over the links."""
        ranks = [0] * (n + 1)
        for clique, _, _, homology in self.links(n, p, p):
            profile = homology()
            for k in range(len(clique), n + 1):
                ranks[k] += profile.betti_at(k - 1 - len(clique))
        return ranks


def living_subgraph(g: EvenGraph, chi: Character, p: int | None = None) -> EvenGraph:
    """Living subgraph for a vanishing mode.

    ``p=None`` removes dead vertices and all open dead edges; ``p=0`` removes
    dead vertices only (no edge is 0-dead); a prime ``p`` removes dead
    vertices and the open p-dead edges.  Removed edges keep any endpoints
    that are themselves alive.
    """
    return Analysis(g, chi).living(p)


def dead_cliques(g: EvenGraph, chi: Character, max_size: int,
                 p: int | None = None) -> tuple[tuple[str, ...], ...]:
    """Cliques (including the empty one) supported entirely on dead material.

    A clique qualifies when each of its vertices is dead or lies on a dead
    edge of the clique; with ``p`` given, "dead edge" means p-dead (for
    ``p=0`` there are none, so only cliques of dead vertices qualify).

    In the global mode the result provably equals the set of cliques whose
    clique subgroup has its center killed by the character; this equality is
    re-checked for every clique and a mismatch raises.
    """
    return tuple(clique for clique, *_ in Analysis(g, chi).links(max_size, p))


def strong_n_link(g: EvenGraph, chi: Character, n: int) -> ConditionReport:
    """Strong n-link condition over Z (sufficient for membership in degree n)."""
    return Analysis(g, chi).strong_n_link(n)


def strong_p_n_link(g: EvenGraph, chi: Character, n: int, p: int) -> ConditionReport:
    """Strong p-n-link condition with field coefficients of characteristic p
    (p = 0 means the rationals)."""
    return Analysis(g, chi).strong_p_n_link(n, p)


def strong_homotopic_n_link(g: EvenGraph, chi: Character, n: int) -> ConditionReport:
    """Three-valued homotopic variant: links must be (n-1-|D|)-connected.

    Degrees -1 (nonempty) and 0 (connected) are decided exactly, as are
    coned links (contractible) and homological failures (connectivity
    implies acyclicity).  Anything else stays unknown.
    """
    return Analysis(g, chi).strong_homotopic_n_link(n)


def raag_n_link(g: EvenGraph, chi: Character, n: int) -> ConditionReport:
    """n-link condition for the all-labels-2 case.

    For these groups the condition ranges over cliques of dead vertices and
    links in the vertex-living subgraph; it must coincide with the strong
    n-link condition, which is re-verified on every call.
    """
    return Analysis(g, chi).raag_n_link(n)


def kernel_free_rank(g: EvenGraph, chi: Character, p: int, n: int) -> int:
    """Free rank of the degree-n kernel homology over F[t, t^-1].

    Closed form: the sum over p-dead-supported cliques D of size <= n of the
    reduced betti number in degree n - 1 - |D| of the flag complex of the
    link of D in the p-living subgraph, with coefficients of characteristic
    p.  Invariant under positive rescaling of the character.  Zero in
    negative degrees.
    """
    return Analysis(g, chi).free_ranks(p, n)[n] if n >= 0 else 0


def finite_dimensional_through(g: EvenGraph, chi: Character, p: int, n: int) -> bool:
    """Whether kernel homology is finite dimensional in all degrees 0..n.

    Equivalent to the strong p-n-link condition: a degree has infinite
    dimension exactly when its module has positive free rank.
    """
    return not any(Analysis(g, chi).free_ranks(p, n))
