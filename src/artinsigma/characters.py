"""Characters of even Artin groups and the combinatorics they induce.

A character assigns a rational value to every generator; the value of an
edge is the sum of its endpoint values.  Everything downstream depends only
on which of these values vanish, so exact rationals capture every case and
positive rescaling never changes an answer.  The zeros are therefore read
on the primitive integer values (:meth:`Character.primitive_integer_values`),
a positive rescaling: a vertex or edge value vanishes exactly when its
rescaled integer does, and the test needs no rational arithmetic.

A vertex is *dead* when its value is zero; an edge is *dead* when its label
exceeds 2 and its value is zero; a dead edge is *p-dead* for the primes p
dividing half its label.  Removing dead vertices and the interiors of dead
(or p-dead) edges yields the living subgraphs that all link conditions are
evaluated in; :class:`artinsigma.conditions.Analysis` builds them, as the
neighbour masks of g restricted to the living vertices minus the dead edges,
and the dead cliques, from the classification made here.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .graphs import EvenGraph, Finding, MaskGraph, validate_even, validate_fc
from .homology import prime_factors


class CharacterError(ValueError):
    """Raised when a character document or domain is invalid."""


class GraphDomainError(ValueError):
    """Raised on a graph that is not even FC: ``findings`` holds every
    finding of :func:`validate_even`, then of :func:`validate_fc`, and the
    message names the first."""

    def __init__(self, findings: tuple[Finding, ...]):
        super().__init__(f"not an even FC graph: {findings[0].message}")
        self.findings = findings


class Character:
    """Map from vertex ids to exact rational values; immutable by convention,
    as an :class:`EvenGraph` is, so its primitive integer values are kept."""

    def __init__(self, values: Mapping[str, Fraction | int | str]):
        parsed = {}
        for v, x in values.items():
            try:
                parsed[v] = Fraction(x)
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise CharacterError(f"value for {v!r} is not a rational: {x!r}") from exc
        self.values: dict[str, Fraction] = parsed
        self._ints: dict[str, int] | None = None

    def value(self, v: str) -> Fraction:
        return self.values[v]

    def edge_value(self, u: str, v: str) -> Fraction:
        return self.values[u] + self.values[v]

    @property
    def is_zero(self) -> bool:
        """The zero character is flagged: it has no sphere class."""
        return all(x == 0 for x in self.values.values())

    def primitive_integer_values(self) -> dict[str, int]:
        """The unique positive rescaling with coprime integer values.

        This is the vector of exponents for the cyclic-cover module
        structure: an integer-valued character acts through the generator
        of its image, so values are cleared of denominators and divided by
        their gcd.  The zero character maps to all zeros.  One dict is
        computed, on the first call, and returned by every call.
        """
        if self._ints is None:
            denom = lcm(*[x.denominator for x in self.values.values()]) if self.values else 1
            ints = {v: x.numerator * (denom // x.denominator) for v, x in self.values.items()}
            g = gcd(*ints.values()) if ints else 0
            self._ints = {v: n // g for v, n in ints.items()} if g else ints
        return self._ints

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {x}" for v, x in sorted(self.values.items()))
        return f"Character({{{inner}}})"


def character_from_dict(doc: Mapping) -> Character:
    """Parse the JSON character document ``{"character": {"a": 1, "b": "-1/2"}}``."""
    if not isinstance(doc, Mapping) or "character" not in doc:
        raise CharacterError('character document must contain a "character" object')
    values = doc["character"]
    if not isinstance(values, Mapping):
        raise CharacterError('"character" must map vertex ids to rationals')
    for v, x in values.items():
        # bool is a subclass of int, but a JSON true is not the number 1
        if isinstance(x, bool) or not isinstance(x, (int, str)) or (
                isinstance(x, str) and not _RATIONAL.fullmatch(x)):
            raise CharacterError(f"value for {v!r} must be an integer or a 'p/q' string")
    return Character(values)


# an optional minus sign, digits, and optionally a slash and a nonzero
# denominator; each part stays within the interpreter's default limit for
# integer strings
_RATIONAL = re.compile(r"-?[0-9]{1,4300}(?:/(?=0*[1-9])[0-9]{1,4300})?")


def character_to_dict(chi: Character) -> dict:
    return {"character": {v: str(x) for v, x in sorted(chi.values.items())}}


def _check_domain(g: EvenGraph, chi: Character) -> None:
    """The door of every instance-level entry point: a character not defined
    on exactly the vertices of g raises :class:`CharacterError`, and a graph
    that is not even FC, the one class the clique complex models,
    :class:`GraphDomainError`."""
    if set(chi.values) != set(g.vertices):
        missing = set(g.vertices) - set(chi.values)
        extra = set(chi.values) - set(g.vertices)
        raise CharacterError(
            f"character domain mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    findings = validate_even(g).violations + validate_fc(g).violations
    if findings:
        raise GraphDomainError(findings)


class Classification(NamedTuple):
    """Vanishing pattern of a character on a graph.

    ``p_dead_edges`` is supported exactly on ``relevant_primes``, the primes
    dividing half the label of some dead edge; the union over all primes of
    the p-dead edges is the set of dead edges.
    """

    dead_vertices: frozenset[str]
    dead_edges: frozenset[tuple[str, str]]
    p_dead_edges: dict[int, frozenset[tuple[str, str]]]
    relevant_primes: frozenset[int]


def classify(g: EvenGraph, chi: Character) -> Classification:
    _check_domain(g, chi)
    ints = chi.primitive_integer_values()
    dead_vertices = frozenset(v for v in g.vertices if not ints[v])
    dead_edges = frozenset(
        e for e, label in g.edge_items() if label > 2 and ints[e[0]] + ints[e[1]] == 0)
    p_dead: dict[int, set[tuple[str, str]]] = {}
    for e in dead_edges:
        for p in prime_factors(g.half_label(*e)):
            p_dead.setdefault(p, set()).add(e)
    return Classification(
        dead_vertices=dead_vertices,
        dead_edges=dead_edges,
        p_dead_edges={p: frozenset(es) for p, es in sorted(p_dead.items())},
        relevant_primes=frozenset(p_dead),
    )


def _center_states(g: EvenGraph, values: Sequence[int], cliques: Iterable[int]):
    """The center of the clique subgroup on each vertex mask of ``cliques``,
    in turn, as (the mask of the clique's vertices on label > 2 edges, whether
    m_u + m_v = 0 on each of those edges), m being the integer ``values``.
    A clique of an even FC graph (:func:`_check_domain` refuses any other)
    generates a direct product of one dihedral group per label > 2 edge and
    one infinite cyclic group per leftover vertex, so its center is generated
    by (uv)^l per such edge (value l * (m_u + m_v)) and by the leftover
    vertices (value m_v).

    A clique's state is its parent's (the clique without its highest vertex,
    which comes earlier, as in :func:`artinsigma.homology._cliques`) plus the
    edges of the highest vertex.
    """
    big = g.big_partner_masks
    plain = (0, True)
    states = {}     # kept for the cliques with a label > 2 edge; the rest are plain
    for members in cliques:
        state = plain
        if members:
            top = members.bit_length() - 1
            parent = members ^ 1 << top
            on_big, vanish = states.get(parent, plain)
            pairs = big[top] & parent
            while pairs:
                low = pairs & -pairs
                pairs ^= low
                j = low.bit_length() - 1
                on_big |= 1 << j | 1 << top
                vanish = vanish and values[j] + values[top] == 0
            if on_big:
                state = states[members] = on_big, vanish
        yield state


def is_dominating(g: EvenGraph, sub: EvenGraph | MaskGraph) -> bool:
    """True when every vertex of g outside ``sub`` has a g-neighbor in ``sub``:
    when ``sub`` and its neighbours in g cover g."""
    reached = 0
    for v in sub.vertices:
        if not g.has_vertex(v):
            raise ValueError(f"vertex {v!r} of the subgraph is not in the graph")
        i = g.index(v)
        reached |= 1 << i | g.neighbor_masks[i]
    return reached == (1 << len(g.vertices)) - 1
