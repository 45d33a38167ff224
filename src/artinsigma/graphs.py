"""Labeled defining graphs of even Artin groups.

An even Artin group is presented by a finite simple graph: one generator per
vertex, and for each edge {u, v} with even label 2*l the relation
(uv)^l = (vu)^l.  A missing edge means no relation (label "infinity").

The vertex order fixed at construction is global and never changes: it
orients every simplex, boundary matrix and twisted differential built
downstream, so all outputs are reproducible byte for byte.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from typing import NamedTuple


class GraphFormatError(ValueError):
    """Raised when a graph input document cannot be parsed."""


# Classifying a character factors half of each dead edge's label by trial
# division; up to this bound that takes a few milliseconds.
MAX_LABEL = 2 ** 32


class EvenGraph:
    """Finite simple graph with integer edge labels.

    Structural well-formedness (no loops, no duplicate edges, labels are
    integers >= 1) is enforced at construction.  Evenness of labels and the
    FC condition are checked by :func:`validate_even` and :func:`validate_fc`,
    which report findings; the library's entry points refuse a graph with one.

    Instances are immutable by convention: all state is built here and never
    mutated afterwards, so values can be shared freely across threads.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, int]] = ()):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        index = self._index = {v: i for i, v in enumerate(self.vertices)}
        labels: dict[tuple[str, str], int] = {}
        # bit j of nbr[i] (big[i]) is set when vertex j is a neighbour (a
        # label > 2 partner) of vertex i, in the vertex order
        nbr = [0] * len(self.vertices)
        big = [0] * len(self.vertices)
        odd = False         # some label is odd (label 1 included)
        for u, v, label in edges:
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                raise ValueError(f"edge {u!r}-{v!r} mentions an unknown vertex")
            if i == j:
                raise ValueError(f"loop at vertex {u!r}")
            if not isinstance(label, int) or label < 1:
                raise ValueError(f"edge {u!r}-{v!r}: label must be an integer >= 1")
            if nbr[i] >> j & 1:
                raise ValueError(f"duplicate edge {u!r}-{v!r}")
            labels[(u, v) if i < j else (v, u)] = label
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
            odd = odd or label % 2 == 1
            if label > 2:
                big[i] |= 1 << j
                big[j] |= 1 << i
        self._labels = labels
        self._odd_label = odd
        # the canonical pairs in vertex order, read off the masks
        vs, pairs = self.vertices, []
        for i, m in enumerate(nbr):
            m >>= i + 1
            while m:
                low = m & -m
                pairs.append((vs[i], vs[i + low.bit_length()]))
                m ^= low
        self._edges = tuple(pairs)
        self.neighbor_masks: tuple[int, ...] = tuple(nbr)
        self.big_partner_masks: tuple[int, ...] = tuple(big)

    # -- basic queries ----------------------------------------------------

    def index(self, v: str) -> int:
        return self._index[v]

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def edge_key(self, u: str, v: str) -> tuple[str, str]:
        """Canonical (u, v) ordering of an unordered pair, by vertex order."""
        if self._index[u] <= self._index[v]:
            return (u, v)
        return (v, u)

    def label(self, u: str, v: str) -> int:
        return self._labels[self.edge_key(u, v)]

    def half_label(self, u: str, v: str) -> int:
        """Half of an even edge label (the exponent in the Artin relation)."""
        label = self.label(u, v)
        if label % 2:
            raise ValueError(f"edge {u!r}-{v!r} has odd label {label}")
        return label // 2

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges as canonical pairs, sorted by vertex order."""
        return self._edges

    def edge_items(self) -> tuple[tuple[tuple[str, str], int], ...]:
        return tuple([(e, self._labels[e]) for e in self.edges()])

    def vertex_mask(self, vs: Iterable[str]) -> int:
        """Bit mask of the given vertices in the vertex order."""
        mask = 0
        for v in vs:
            mask |= 1 << self._index[v]
        return mask

    def is_clique(self, vs: Iterable[str]) -> bool:
        """Distinct vertices of the graph, pairwise adjacent."""
        index = self._index
        positions = []
        mask = 0
        for v in vs:
            if v not in index:
                return False
            positions.append(index[v])
            mask |= 1 << index[v]
        if mask.bit_count() != len(positions):
            return False
        nbr = self.neighbor_masks
        return all(mask & ~nbr[i] == 1 << i for i in positions)

    def sort_vertices(self, vs: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(vs, key=self._index.__getitem__))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvenGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(sorted(self._labels.items()))))

    def __repr__(self) -> str:
        es = ", ".join(f"{u}-{v}:{l}" for (u, v), l in self.edge_items())
        return f"EvenGraph([{', '.join(self.vertices)}]; {es})"


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Finding(NamedTuple):
    """One human-readable validation finding with the offending items."""

    message: str
    vertices: tuple[str, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Finding, ...]


def _report(violations: list[Finding]) -> ValidationReport:
    return ValidationReport(ok=not violations, violations=tuple(violations))


def validate_even(g: EvenGraph) -> ValidationReport:
    """Check that every edge label is even (labels are integers >= 1, so
    an even label is at least 2).  The edges are scanned only when the
    constructor has noted an odd label."""
    if not g._odd_label:
        return _report([])
    return _report([Finding(f"odd label {label} on edge {u}-{v}", edges=((u, v),))
                    for (u, v), label in g.edge_items() if label % 2])


def validate_fc(g: EvenGraph) -> ValidationReport:
    """Check the FC condition: no triangle carries two labels bigger than 2.

    Every clique then generates a direct product of dihedral Artin groups
    (one per label > 2 edge, which necessarily form a matching inside the
    clique) and infinite cyclic factors, hence a finite-type subgroup.
    The check is local to triangles, which suffices: a clique violates the
    matching property iff two of its label > 2 edges share a triangle, that
    is, iff some vertex has two adjacent label > 2 partners.  Only when
    this screen finds one are the triangles walked, from the edges (u, v)
    and their common neighbours w after v, so findings are in the
    lexicographic order of their vertex triples.
    """
    nbr, big = g.neighbor_masks, g.big_partner_masks
    suspect = False
    for partners in big:
        rest = partners & partners - 1 and partners     # two partners or more
        while rest and not suspect:
            low = rest & -rest
            suspect = partners & nbr[low.bit_length() - 1] != 0
            rest ^= low
    if not suspect:
        return _report([])
    violations = []
    for u, v in g.edges():
        i, j = g.index(u), g.index(v)
        for k in _bits(nbr[i] & nbr[j] >> (j + 1) << (j + 1)):
            if (big[i] >> j & 1) + (big[i] >> k & 1) + (big[j] >> k & 1) < 2:
                continue
            w = g.vertices[k]
            edges = tuple([e for e in ((u, v), (u, w), (v, w)) if g.label(*e) > 2])
            violations.append(Finding(f"triangle {u},{v},{w} carries {len(edges)} labels > 2",
                                      vertices=(u, v, w), edges=edges))
    return _report(violations)


class MaskGraph:
    """The subgraph on the vertex mask ``mask`` of the subgraph of ``g``
    with neighbour masks ``adjacency`` (in the vertex positions of g): the
    form in which living subgraphs, links and their cores are kept.  Its
    vertex names, its neighbour masks renumbered 0, 1, ... in vertex order
    (bit t standing for the t-th name) and its description, as
    :func:`describe_graph` describes an :class:`EvenGraph`, are derived
    when first read; it is then read as an EvenGraph is, by the functions
    that read masks.  Two are equal when all three agree."""

    def __init__(self, g: EvenGraph, adjacency: Sequence[int], mask: int):
        self.g = g
        self.adjacency = adjacency
        self.mask = mask

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        vs = self.g.vertices
        return tuple([vs[i] for i in _bits(self.mask)])

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        positions = _bits(self.mask)
        rank = {i: t for t, i in enumerate(positions)}
        return tuple([sum(1 << rank[j] for j in _bits(self.adjacency[i] & self.mask))
                      for i in positions])

    @cached_property
    def description(self) -> str:
        vs, labels, adjacency, mask = self.g.vertices, self.g._labels, self.adjacency, self.mask
        edges = []
        for i in _bits(mask):
            for j in _bits(adjacency[i] & mask >> (i + 1) << (i + 1)):
                edges.append(f"{vs[i]}-{vs[j]}:{labels[vs[i], vs[j]]}")
        return _describe(self.vertices, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskGraph):
            return NotImplemented
        return ((self.vertices, self.neighbor_masks, self.description)
                == (other.vertices, other.neighbor_masks, other.description))

    def __hash__(self) -> int:
        return hash((self.vertices, self.neighbor_masks))


def is_connected(g: EvenGraph | MaskGraph) -> bool:
    """Graph connectivity; the empty graph counts as disconnected."""
    if not g.vertices:
        return False
    seen, stack = 1, [0]
    while stack:
        new = g.neighbor_masks[stack.pop()] & ~seen
        seen |= new
        stack.extend(_bits(new))
    return seen == (1 << len(g.vertices)) - 1


def describe_graph(g: EvenGraph | MaskGraph) -> str:
    """One-line deterministic rendering used in reports and witnesses; a
    :class:`MaskGraph` carries its own."""
    if isinstance(g, MaskGraph):
        return g.description
    return _describe(g.vertices, [f"{u}-{v}:{l}" for (u, v), l in g.edge_items()])


def _describe(vertices: Sequence[str], edges: list[str]) -> str:
    if not vertices:
        return "empty graph"
    vs = ",".join(vertices)
    if not edges:
        return f"vertices {vs}; no edges"
    return f"vertices {vs}; edges {' '.join(edges)}"


def graph_from_dict(doc: Mapping) -> EvenGraph:
    """Parse the JSON graph document ``{"vertices": [...], "edges": [...]}``.

    Unlike the permissive constructor, parsing rejects odd or sub-2 labels
    outright: input files must already describe an even graph.  Labels
    above :data:`MAX_LABEL` are refused as well.
    """
    if not isinstance(doc, Mapping):
        raise GraphFormatError("graph document must be an object")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphFormatError('"vertices" must be a list of strings')
    entries = doc.get("edges", [])
    if not isinstance(entries, list):
        raise GraphFormatError('"edges" must be a list of edge objects')
    edges = []
    for entry in entries:
        # JSON gives plain dicts, which pass the exact-type test without the ABC's
        if not ((type(entry) is dict or isinstance(entry, Mapping))
                and "u" in entry and "v" in entry and "label" in entry):
            raise GraphFormatError('each edge needs fields "u", "v", "label"')
        u, v, label = entry["u"], entry["v"], entry["label"]
        if not (isinstance(u, str) and isinstance(v, str)):
            raise GraphFormatError(f"edge endpoints must be vertex ids (strings), got {u!r}-{v!r}")
        if not isinstance(label, int) or label < 2 or label % 2:
            raise GraphFormatError(f"edge {u}-{v}: label must be an even integer >= 2, got {label!r}")
        if label > MAX_LABEL:
            raise GraphFormatError(f"edge {u}-{v}: label {label} exceeds the largest supported "
                                   f"label {MAX_LABEL}")
        edges.append((u, v, label))
    try:
        return EvenGraph(vertices, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def graph_to_dict(g: EvenGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"u": u, "v": v, "label": label} for (u, v), label in g.edge_items()],
    }
