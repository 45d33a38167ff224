"""Link conditions on living subgraphs, and the kernel free-rank formula.

The strong n-link condition asks, for every dead-supported clique D of size
at most n, that the flag complex of the link of D in the living subgraph be
(n - 1 - |D|)-acyclic over Z.  Its p-local variant uses p-dead cliques, the
p-living subgraph and field coefficients of characteristic p.  Both are
decided exactly.

The homotopic variant needs connectivity rather than acyclicity.  In
degrees -1 and 0 the two agree (nonempty, connected); in degrees >= 1
homology alone cannot decide it, so the variant is three-valued, with cone
detection upgrading a witness to an exact "contractible" and a homological
failure downgrading it to an exact "fails".  It is read off the outcomes of
the strong n-link condition over Z.

All of them, and the free-rank formula, read the same object: the links of
the dead cliques and the reduced homology of their flag complexes.
:class:`Analysis` builds it once per instance, and keeps per link one cone
test and one witness outcome per coefficients and degree, so a link shared
by several cliques or questions is tested once.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, NamedTuple

from .characters import Character, _center_states, classify
from .graphs import EvenGraph, MaskGraph, _bits
from .homology import (HomologyProfile, SimplicialComplex, _check_clique_budget, _cliques,
                       _require_field, coeffs_label, flag_complex, has_cone_vertex,
                       reduce_core, reduced_homology, suspended_homology)


class ZeroCharacterError(ValueError):
    """Link conditions are undefined for the zero character."""


class LinkWitness(NamedTuple):
    """One evaluated clique: what was required of its link and what happened."""

    clique: tuple[str, ...]
    required_degree: int
    link_graph: MaskGraph
    status: str               # "ok" | "fail" | "unknown"
    failing_degree: int | None
    via: str                  # "vacuous" | "cone" | "homology" | "nonempty" | "connectivity"

    @property
    def link(self) -> str:
        """The description of the link, derived when first read."""
        return self.link_graph.description


class ConditionReport(NamedTuple):
    holds: bool | None        # None encodes "unknown" (homotopic variant only)
    n: int
    coefficients: str
    mode: str
    variant: str
    witnesses: tuple[LinkWitness, ...]


def _require_nonzero(chi: Character) -> None:
    if chi.is_zero:
        raise ZeroCharacterError("the zero character has no sphere class")


class Analysis:
    """One instance (g, chi) and everything the link conditions read from it:
    the library's one way to ask a question of an instance.  Construction
    refuses what :func:`artinsigma.characters._check_domain` refuses.

    A *mode* is a coefficient value (:func:`coeffs_label`): ``None`` (all
    dead edges), ``0`` (none) or a prime p (the p-dead edges).  The
    classification is made on construction; each mode's dead cliques (per
    degree, from a walk over the cliques of the vertices that can lie on
    one, see :meth:`links`), each distinct link (one :class:`MaskGraph` per
    vertex mask, the living vertices adjacent to the whole clique, described
    only when read; the living subgraph is the link of the empty clique),
    its reduced core (:func:`reduce_core`: an s-fold suspension of a
    remainder), the remainder's flag complex, which keeps the integer Smith
    forms that serve Z, Q and every F_p, and one homology profile per core,
    coefficients (one for all, on a closed form) and degree are built on
    first use and kept, and so are one cone test per mode key and link mask
    and one witness outcome (see :meth:`_outcome`) per mode key, link mask,
    coefficients and degree, from which the homotopic variant is read.  A
    remainder with no triangle (points, spheres and suspended graphs among
    them) gets no complex: its homology is read in closed form.  Links whose
    remainders are one graph share one complex, built as deep as the
    questions read.
    No enumeration of all cliques is kept: they are counted against the
    clique budget (:data:`artinsigma.homology.MAX_CLIQUES`) only when a
    bound on their number is above it.  A core's flag complex is built
    through the degree read, within the budget, before its first Smith form
    (see :func:`reduced_homology`); a core read in closed form builds no
    simplices, so the budget never refuses it.
    """

    def __init__(self, g: EvenGraph, chi: Character):
        self.g = g
        self.chi = chi
        self.classification = classify(g, chi)   # checks the domain and the graph
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
        # a link's key: (s, the remainder's betti numbers or flag complex), see _homology
        self._cores: dict[tuple[frozenset, int], tuple[int, tuple | SimplicialComplex]] = {}
        self._complexes: dict[tuple[int, ...], SimplicialComplex] = {}
        self._profiles: dict[tuple, HomologyProfile] = {}
        self._cones: dict[tuple[frozenset, int], bool] = {}
        self._outcomes: dict[tuple, tuple[str, int | None, str]] = {}

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
        center killed.  The refusals of the clique budget are raised as a
        walk over every clique would raise them.
        """
        coeffs_label(coeffs)
        edges, dead = self._dead_cliques(n, p)
        for clique, lk, mask in dead:
            d = n - 1 - len(clique)
            yield clique, d, lk, partial(self._homology, edges, mask, coeffs, d)

    def _dead_cliques(self, n: int, p: int | None):
        """The key of mode ``p`` and its dead cliques of size <= n, each as
        (clique, link, link mask): what :meth:`links` yields, walked once."""
        edges = self._edges(p)
        if (edges, n) not in self._dead:
            g = self.g
            if n > self._budgeted:
                _check_clique_budget(g.neighbor_masks, n)
                self._budgeted = n
            # only cliques on ``walked`` can be selected: their vertices are
            # dead or on an edge of ``edges``
            walked = self._dead_vertices | g.vertex_mask([v for e in edges for v in e])
            global_mode = edges == self._edges(None)
            if global_mode:
                # the re-check needs every clique whose center it finds
                # killed: each vertex is off the nonzero mask or on a label
                # > 2 edge inside it whose values sum to 0
                walked |= (1 << len(g.vertices)) - 1 & ~self._nonzero_values
                values = self._values
                for i, partners in enumerate(g.big_partner_masks):
                    for j in _bits(partners):
                        if values[i] + values[j] == 0:
                            walked |= 1 << i
            cliques = _cliques(g.neighbor_masks, n, walked)
            states = _center_states(g, self._values, cliques) if global_mode else None
            self._dead[edges, n] = list(self._select(edges, cliques, states))
        return edges, self._dead[edges, n]

    def _select(self, edges: frozenset, cliques: list[int], states: Iterator | None):
        """(clique, link, link mask) for each clique, given by its vertex
        mask, whose every vertex is dead or on an edge of ``edges`` inside it
        (the dead cliques of :meth:`links`).  In the global mode ``states``
        carries each clique's center along the walk (see
        :func:`_center_states`), against which its selection is checked;
        otherwise it is None."""
        g = self.g
        vs, dead, nbr = g.vertices, self._dead_vertices, g.neighbor_masks
        partners = [0] * len(vs)   # bit j of partners[i]: edge {i, j} in edges
        on_edges = 0
        for u, v in edges:
            i, j = g.index(u), g.index(v)
            partners[i] |= 1 << j
            partners[j] |= 1 << i
            on_edges |= 1 << i | 1 << j
        # the living subgraph's neighbour masks, in the vertex positions of g:
        # those of g minus ``edges``, read on living vertex masks only
        adjacency = [m & ~r for m, r in zip(nbr, partners)]
        living_mask = (1 << len(vs)) - 1 & ~dead
        links = self._links.setdefault(edges, {})
        for members in cliques:
            alive = members & ~dead
            # a living vertex on no edge of ``edges`` rules the clique out at once
            selected = not alive & ~on_edges
            while selected and alive:
                low = alive & -alive
                selected = partners[low.bit_length() - 1] & members != 0
                alive ^= low
            if states is not None:
                on_big, vanish = next(states)
                if selected != (vanish and not members & ~on_big & self._nonzero_values):
                    clique = tuple([vs[i] for i in _bits(members)])
                    raise RuntimeError(
                        f"dead-clique/center mismatch on {clique}: "
                        f"combinatorial={selected}, center-kill={not selected}")
            if selected:
                positions = _bits(members)
                # the link: the living vertices adjacent to the whole clique
                mask = living_mask
                for i in positions:
                    mask &= nbr[i]
                if mask not in links:
                    links[mask] = MaskGraph(g, adjacency, mask)
                yield tuple([vs[i] for i in positions]), links[mask], mask

    def _homology(self, edges: frozenset, mask: int, coeffs, d: int) -> HomologyProfile:
        """Reduced homology of the flag complex of the link on ``mask`` in
        the living subgraph of ``edges``, read as the s-fold suspension of
        the remainder of :func:`reduce_core`, taken on the mode's neighbour
        masks in the vertex positions of g.  A remainder with no triangle is
        keyed and answered by its betti numbers; any other is keyed by the
        flag complex of its renumbered neighbour masks, built within the
        clique budget and read through degree d - s, that is its cliques
        of size at most d - s + 2.  A clique of the remainder below size
        d + 2 is, with the dead clique, a clique of g within the size the
        dead cliques were walked to, which that walk's budget counted, so
        the budget can refuse only at size d + 2, with no pair peeled."""
        key = self._cores.get((edges, mask))
        if key is None:
            adjacency = self._links[edges][mask].adjacency
            s, core, rest = reduce_core(adjacency, mask)
            if rest is None:
                graph = MaskGraph(self.g, adjacency, core)
                rest = self._complexes.get(graph.neighbor_masks)
                if rest is None:
                    rest = self._complexes[graph.neighbor_masks] = flag_complex(graph)
            key = self._cores[edges, mask] = s, rest
        s, rest = key
        complex_ = isinstance(rest, SimplicialComplex)
        # a graph's homology is free, so one profile serves every coefficient ring
        profile_key = key, coeffs if complex_ else None, d
        profile = self._profiles.get(profile_key)
        if profile is None:
            if complex_:
                rest = reduced_homology(rest, coeffs, d - s)
            profile = self._profiles[profile_key] = suspended_homology(rest, s, coeffs, d)
        return profile

    def _outcome(self, edges: frozenset, mask: int, coeffs, d: int) -> tuple[str, int | None, str]:
        """(status, failing degree, via) of the requirement that the link on
        ``mask`` in the living subgraph of ``edges`` be d-acyclic over
        ``coeffs``: vacuous below degree -1, else by a cone vertex (tested
        once per link), else by the first degree through d in which its
        reduced homology does not vanish."""
        if d <= -2:
            return "ok", None, "vacuous"
        outcome = self._outcomes.get((edges, mask, coeffs, d))
        if outcome is None:
            coned = self._cones.get((edges, mask))
            if coned is None:
                coned = self._cones[edges, mask] = has_cone_vertex(self._links[edges][mask])
            if coned:
                outcome = "ok", None, "cone"
            else:
                profile = self._homology(edges, mask, coeffs, d)
                bad = next((j for j in range(-1, d + 1) if not profile.trivial_at(j)), None)
                outcome = ("ok", None, "homology") if bad is None else ("fail", bad, "homology")
            self._outcomes[edges, mask, coeffs, d] = outcome
        return outcome

    # -- conditions -------------------------------------------------------

    def _link_condition(self, n: int, p: int | None, coeffs) -> ConditionReport:
        _require_nonzero(self.chi)
        edges, dead = self._dead_cliques(n, p)
        witnesses = []
        for clique, lk, mask in dead:
            d = n - 1 - len(clique)
            witnesses.append(LinkWitness(clique, d, lk, *self._outcome(edges, mask, coeffs, d)))
        holds = all(w.status == "ok" for w in witnesses)
        mode = "dead" if p is None else f"{p}-dead"
        return ConditionReport(holds, n, coeffs_label(coeffs), mode, "homological",
                               tuple(witnesses))

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

        Read off the Z outcomes of the strong n-link condition.  In degrees
        -1 and 0 connectivity is acyclicity (nonempty, connected), so those
        are exact; coned links are contractible, and a homological failure
        is exact too (connectivity implies acyclicity).  An acyclic link in
        a higher degree stays unknown.
        """
        _require_nonzero(self.chi)
        edges, dead = self._dead_cliques(n, None)
        witnesses = []
        for clique, lk, mask in dead:
            d = n - 1 - len(clique)
            status, bad, via = self._outcome(edges, mask, None, d)
            if via == "homology":
                if d <= 0:
                    via = "nonempty" if d == -1 else "connectivity"
                elif status == "ok":
                    # acyclic, but connectivity needs more than homology
                    status = "unknown"
            witnesses.append(LinkWitness(clique, d, lk, status, bad, via))
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
        _require_nonzero(self.chi)
        ranks = [0] * (n + 1)
        for clique, _, _, homology in self.links(n, p, p):
            profile = homology()
            for k in range(len(clique), n + 1):
                ranks[k] += profile.betti_at(k - 1 - len(clique))
        return ranks
