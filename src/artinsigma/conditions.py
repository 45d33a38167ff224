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

from .characters import Character, _center_states, _check_center_faults, classify
from .graphs import EvenGraph, MaskGraph, _bits, is_connected, mask_subgraph
from .homology import (HomologyProfile, SimplicialComplex, _check_clique_budget, _cliques,
                       _link_mask, _require_field, coeffs_label, flag_complex, has_cone_vertex,
                       reduced_homology, strong_core)


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


def _acyclicity_witness(clique, d: int, lk: MaskGraph, homology) -> LinkWitness:
    desc = lk.description
    if d <= -2:
        return LinkWitness(clique, d, desc, "ok", None, "vacuous")
    if has_cone_vertex(lk):
        return LinkWitness(clique, d, desc, "ok", None, "cone")
    bad = _first_nonvanishing(homology(), d)
    if bad is None:
        return LinkWitness(clique, d, desc, "ok", None, "homology")
    return LinkWitness(clique, d, desc, "fail", bad, "homology")


class Analysis:
    """One instance (g, chi) and everything the link conditions read from it:
    the library's one way to ask a question of an instance.

    A *mode* is a coefficient value (:func:`coeffs_label`): ``None`` (all
    dead edges), ``0`` (none) or a prime p (the p-dead edges).  The
    classification is made on construction; each mode's dead cliques (per
    degree, from a walk over the cliques of the vertices that can lie on
    one, see :meth:`links`), each distinct link (one :class:`MaskGraph` per
    vertex mask, with its description; the living subgraph is the link of
    the empty clique), its strong-collapse core and the core's flag complex,
    which keeps the integer Smith forms that serve Z, Q and every F_p, are
    built on first use and kept.  Links whose cores are one graph share one
    complex, built as deep as the questions read.  No enumeration of all
    cliques is kept: they are counted against the clique budget
    (:data:`artinsigma.homology.MAX_CLIQUES`) only when a bound on their
    number is above it.
    """

    def __init__(self, g: EvenGraph, chi: Character):
        self.g = g
        self.chi = chi
        self.classification = classify(g, chi)   # checks the domain
        # the center re-check reads the values on their own, made primitive
        # integers (a positive rescaling keeps every zero)
        ints = chi.primitive_integer_values()
        self._values = [ints[v] for v in g.vertices]
        self._nonzero_values = g.vertex_mask(v for v in g.vertices if ints[v])
        self._dead_vertices = g.vertex_mask(self.classification.dead_vertices)
        self._budgeted = 0    # the largest degree whose cliques are within the budget
        # keyed by the edges a mode removes (see _edges), so modes that agree share them
        self._dead: dict[tuple[frozenset, int], list[tuple[tuple[str, ...], MaskGraph, int]]] = {}
        self._links: dict[frozenset, dict[int, MaskGraph]] = {}
        self._cores: dict[tuple[frozenset, int], tuple[int, ...]] = {}
        self._complexes: dict[tuple[int, ...], SimplicialComplex] = {}

    def _edges(self, p: int | None) -> frozenset[tuple[str, str]]:
        """The key of mode ``p``: the dead edges its living subgraph removes.
        A dead edge has both endpoints dead or both alive, so the living
        subgraph and dead cliques of a mode depend on its key alone, and two
        modes have one living subgraph exactly when their keys agree."""
        coeffs_label(p)
        cls = self.classification
        edges = cls.dead_edges if p is None else cls.p_dead_edges.get(p, frozenset())
        dead = cls.dead_vertices
        return frozenset([e for e in edges if e[0] not in dead and e[1] not in dead])

    def living(self, p: int | None = None) -> MaskGraph:
        """Living subgraph of mode ``p``: the link of the empty clique, the
        object that :meth:`links` yields for it.

        ``p=None`` removes dead vertices and all open dead edges; ``p=0``
        removes dead vertices only (no edge is 0-dead); a prime ``p`` removes
        dead vertices and the open p-dead edges.  Removed edges keep any
        endpoints that are themselves alive.
        """
        (_, _, living, _), = self.links(0, p)
        return living

    def links(self, n: int, p: int | None = None, coeffs: int | None = None):
        """Each dead clique D of mode ``p`` with |D| <= n, as a tuple (D,
        required degree n - 1 - |D|, link of D in the living subgraph as a
        :class:`MaskGraph`, homology), where ``homology()`` is the reduced
        homology of the link's flag complex over ``coeffs`` through the
        required degree.  Both ``p`` and ``coeffs`` are checked by
        :func:`coeffs_label` at the first step.

        A clique, the empty one included, is dead when each of its vertices
        is dead or lies on a dead edge of the clique; with ``p`` given, "dead
        edge" means p-dead (for ``p=0`` there are none, so only cliques of
        dead vertices qualify).  In the global mode the dead cliques provably
        are the cliques whose clique subgroup has its center killed by the
        character; this equality is re-checked for every clique that could
        break it and a mismatch raises.

        Only the cliques on the dead vertices and the endpoints of the
        mode's dead edges, and in the global mode also on the vertices of
        value 0 and the endpoints of the label > 2 edges of value 0, are
        walked: a clique with another vertex is neither dead nor has its
        center killed.  The refusals of the clique budget and the faults
        that kill no center (an odd label, a vertex on two labels > 2) are
        raised as a walk over every clique would raise them.
        """
        coeffs_label(coeffs)
        edges = self._edges(p)
        if (edges, n) not in self._dead:
            g = self.g
            if n > self._budgeted:
                _check_clique_budget(g.neighbor_masks, n)
                self._budgeted = n
            # only cliques on ``walked`` can be selected: their vertices are
            # dead or on an edge of ``edges``
            walked = self._dead_vertices | g.vertex_mask([v for e in edges for v in e])
            if edges == self._edges(None):
                # the walk skips cliques that may hold a fault, so they are
                # looked for first; and the re-check needs every clique whose
                # center it finds killed: each vertex is off the nonzero mask
                # or on a label > 2 edge inside it whose values sum to 0
                _check_center_faults(g, n)
                walked |= (1 << len(g.vertices)) - 1 & ~self._nonzero_values
                values = self._values
                for i, partners in enumerate(g.big_partner_masks):
                    for j in _bits(partners):
                        if values[i] + values[j] == 0:
                            walked |= 1 << i
            self._dead[edges, n] = list(self._select(edges, _cliques(g.neighbor_masks, n, walked)))
        for clique, lk, mask in self._dead[edges, n]:
            d = n - 1 - len(clique)
            yield clique, d, lk, partial(self._homology, edges, mask, coeffs, d)

    def _select(self, edges: frozenset, cliques: list[int]):
        """(clique, link, link mask) for each clique, given by its vertex
        mask, whose every vertex is dead or on an edge of ``edges`` inside it
        (the dead cliques of :meth:`links`).  In the global mode each
        clique's selection is checked against its center (see
        :func:`_center_states`), carried along the walk."""
        g = self.g
        vs, dead = g.vertices, self._dead_vertices
        partners = [0] * len(vs)   # bit j of partners[i]: edge {i, j} in edges
        on_edges = 0
        for u, v in edges:
            i, j = g.index(u), g.index(v)
            partners[i] |= 1 << j
            partners[j] |= 1 << i
            on_edges |= 1 << i | 1 << j
        # the living subgraph's neighbour masks, in the vertex positions of g:
        # those of g minus ``edges``, read on living vertex masks only
        adjacency = [m & ~r for m, r in zip(g.neighbor_masks, partners)]
        living_mask = (1 << len(vs)) - 1 & ~dead
        links = self._links.setdefault(edges, {})
        states = _center_states(g, self._values, cliques) if edges == self._edges(None) else None
        for members in cliques:
            alive = members & ~dead
            # a living vertex on no edge of ``edges`` rules the clique out at once
            selected = not alive & ~on_edges and all(partners[i] & members for i in _bits(alive))
            if states is not None:
                on_big, vanish = next(states)
                if selected != (vanish and not members & ~on_big & self._nonzero_values):
                    clique = tuple([vs[i] for i in _bits(members)])
                    raise RuntimeError(
                        f"dead-clique/center mismatch on {clique}: "
                        f"combinatorial={selected}, center-kill={not selected}")
            if selected:
                mask = _link_mask(g, living_mask, members)
                if mask not in links:
                    links[mask] = mask_subgraph(g, adjacency, mask)
                yield tuple([vs[i] for i in _bits(members)]), links[mask], mask

    def _homology(self, edges: frozenset, mask: int, coeffs, d: int) -> HomologyProfile:
        """Reduced homology of the flag complex of the link on ``mask`` in
        the living subgraph of ``edges``, read on its strong-collapse core,
        which is homotopy equivalent."""
        key = self._cores.get((edges, mask))
        if key is None:
            lk = self._links[edges][mask]
            core = strong_core(lk.vertices, lk.neighbor_masks, (1 << len(lk.vertices)) - 1)
            key = self._cores[edges, mask] = core.neighbor_masks
            if key not in self._complexes:
                self._complexes[key] = flag_complex(core)
        return reduced_homology(self._complexes[key], coeffs, d)

    # -- conditions -------------------------------------------------------

    def _link_condition(self, n: int, p: int | None, coeffs) -> ConditionReport:
        _require_nonzero(self.chi)
        witnesses = tuple([_acyclicity_witness(*entry) for entry in self.links(n, p, coeffs)])
        holds = all(w.status == "ok" for w in witnesses)
        mode = "dead" if p is None else f"{p}-dead"
        return ConditionReport(holds, n, coeffs_label(coeffs), mode, "homological", witnesses)

    def strong_n_link(self, n: int) -> ConditionReport:
        """Strong n-link condition over Z (sufficient for membership in degree n)."""
        return self._link_condition(n, None, None)

    def strong_p_n_link(self, n: int, p: int) -> ConditionReport:
        """Strong p-n-link condition with field coefficients of characteristic p
        (0 for the rationals); None (Z) raises ValueError."""
        _require_field(p)
        return self._link_condition(n, p, p)

    def strong_homotopic_n_link(self, n: int) -> ConditionReport:
        """Three-valued homotopic variant: links must be (n-1-|D|)-connected.

        Degrees -1 (nonempty) and 0 (connected) are decided exactly, as are
        coned links (contractible) and homological failures (connectivity
        implies acyclicity).  Anything else stays unknown.
        """
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
                w = LinkWitness(clique, d, lk.description, "ok" if ok else "fail",
                                None if ok else -1, "nonempty")
            else:
                ok = is_connected(lk)
                w = LinkWitness(clique, d, lk.description, "ok" if ok else "fail",
                                None if ok else (0 if lk.vertices else -1), "connectivity")
            witnesses.append(w)
        statuses = {w.status for w in witnesses}
        holds = False if "fail" in statuses else None if "unknown" in statuses else True
        return ConditionReport(holds, n, "Z", "dead", "homotopic", tuple(witnesses))

    def free_ranks(self, p: int, n: int) -> list[int]:
        """Free ranks of the kernel homology over F[t, t^-1], F of
        characteristic p, in degrees 0..n, from one pass over the links.

        Closed form: the rank in degree k is the sum over p-dead cliques D of
        size <= k of the reduced betti number in degree k - 1 - |D| of the
        flag complex of the link of D in the p-living subgraph, with
        coefficients of characteristic p (None, which is Z, raises
        ValueError).  Invariant under positive rescaling of the character.
        """
        _require_field(p)
        ranks = [0] * (n + 1)
        for clique, _, _, homology in self.links(n, p, p):
            profile = homology()
            for k in range(len(clique), n + 1):
                ranks[k] += profile.betti_at(k - 1 - len(clique))
        return ranks
