"""Membership verdicts for homological Sigma invariants, with audit trails.

Four rules are evaluated in a fixed priority order:

* ``strong_link``        — the strong n-link condition is sufficient for
                           membership;
* ``p_local_obstruction``— if some characteristic p (zero or a relevant
                           prime) has p-living subgraph equal to the living
                           subgraph and its p-n-link condition fails, the
                           class is not a member (the kernel homology is
                           infinite dimensional over that field);
* ``sigma1_connectivity``— in degree 1, when every cycle of the label > 2
                           subgraph is odd, membership is decided exactly by
                           the living subgraph being connected and
                           dominating;
* ``dihedral_product``   — on complete graphs the group is a product of
                           dihedral and infinite cyclic factors and
                           membership has a closed form.

Sufficient rules that do not fire leave the verdict UNKNOWN rather than
overclaiming; fired rules can never disagree (that would be an
implementation bug, and is checked).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .characters import Character, _check_domain, is_dominating
from .conditions import Analysis, ConditionReport
from .graphs import EvenGraph, _bits, is_connected
from .homology import coeffs_label

IN = "IN"
NOT_IN = "NOT_IN"
UNKNOWN = "UNKNOWN"


class RuleConflictError(RuntimeError):
    """Two decision rules produced opposite verdicts on one instance."""


class Justification(NamedTuple):
    rule: str
    fired: bool
    status: str | None        # IN / NOT_IN when fired, else None
    detail: str


class Verdict(NamedTuple):
    question: str             # what is being decided
    status: str               # IN / NOT_IN / UNKNOWN
    degree: int
    justifications: tuple[Justification, ...]


def _witness_line(report: ConditionReport) -> str:
    for w in report.witnesses:
        if w.status == "fail":
            return (f"clique {'{' + ','.join(w.clique) + '}'} needs a "
                    f"{w.required_degree}-acyclic link but homology is nonzero "
                    f"in degree {w.failing_degree} (link: {w.link})")
    return "all link witnesses passed"


def sigma_verdict(ctx: Analysis, n: int) -> Verdict:
    """Decide membership of the class of the context's character in the
    degree-n homological Sigma invariant, or return UNKNOWN with the reasons
    no rule applied.  The link conditions refuse the zero character."""
    g, chi = ctx.g, ctx.chi
    justifications: list[Justification] = []

    strong = ctx.strong_n_link(n)
    if strong.holds:
        justifications.append(Justification(
            "strong_link", True, IN,
            f"strong {n}-link condition holds over Z "
            f"({len(strong.witnesses)} link(s) checked)"))
    else:
        justifications.append(Justification(
            "strong_link", False, None,
            f"strong {n}-link condition fails ({_witness_line(strong)}); "
            "the condition is only sufficient, so nothing follows"))

    # modes whose keys agree have one living subgraph (see Analysis._edges)
    living_key = ctx._edges(None)
    fired_p = None
    held = []
    unequal = []
    for p in [0, *sorted(ctx.classification.relevant_primes)]:
        if ctx._edges(p) == living_key:
            report = ctx.strong_p_n_link(n, p)
            if not report.holds:
                fired_p = (p, report)
                break
            held.append(p)
        else:
            unequal.append(p)
    if fired_p is not None:
        p, report = fired_p
        justifications.append(Justification(
            "p_local_obstruction", True, NOT_IN,
            f"the {p}-living subgraph equals the living subgraph and the strong "
            f"{p}-{n}-link condition fails ({_witness_line(report)}); kernel "
            f"homology over {coeffs_label(p)} is infinite dimensional in some degree <= {n}"))
    else:
        reasons = []
        if held:
            reasons.append(f"characteristic(s) {held} match the living subgraph "
                           "but their p-n-link conditions hold")
        if unequal:
            reasons.append(f"characteristic(s) {unequal} have a strictly larger living subgraph")
        justifications.append(Justification(
            "p_local_obstruction", False, None,
            "; ".join(reasons) if reasons else "no characteristic applies"))

    if n == 1 and odd_cycle_condition(g):
        living = ctx.living()
        connected, dominating = is_connected(living), is_dominating(g, living)
        justifications.append(Justification(
            "sigma1_connectivity", True, IN if connected and dominating else NOT_IN,
            "every cycle of the label > 2 subgraph is odd, so degree-1 "
            "membership holds if and only if the living subgraph is connected "
            f"and dominating (connected={connected}, dominating={dominating})"))
    else:
        why = ("degree is not 1" if n != 1
               else "the label > 2 subgraph contains an even cycle")
        justifications.append(Justification("sigma1_connectivity", False, None, why))

    if g.is_clique(g.vertices) and g.vertices:
        member = product_sigma_member(g, g.vertices, chi, n)
        t = sum(1 for _, label in g.edge_items() if label > 2)
        justifications.append(Justification(
            "dihedral_product", True, IN if member else NOT_IN,
            f"the graph is complete, so the group is a product of {t} even "
            f"dihedral factor(s) and infinite cyclic factors with a closed-form "
            f"answer in degree {n}"))
    else:
        justifications.append(Justification(
            "dihedral_product", False, None, "the graph is not complete"))

    fired = [j for j in justifications if j.fired]
    statuses = {j.status for j in fired}
    if IN in statuses and NOT_IN in statuses:
        raise RuleConflictError(
            f"conflicting rules on {g!r}, {chi!r}, n={n}: " +
            "; ".join(f"{j.rule}={j.status}" for j in fired))
    if fired:
        return Verdict("sigma-membership(Z)", fired[0].status, n, tuple(justifications))
    return Verdict("sigma-membership(Z)", UNKNOWN, n, tuple(justifications))


def fp_verdict(base: Verdict) -> Verdict:
    """Is the kernel of the character of finiteness type FP_n, n the degree
    of the membership verdict ``base`` (from :func:`sigma_verdict`)?

    Membership of a class and of its antipode coincide for these groups, so
    the kernel property is equivalent to plain membership in degree n.
    """
    n = base.degree
    if base.status == UNKNOWN:
        symmetry = Justification(
            "kernel_symmetry", False, None,
            "the underlying membership status is unknown, so nothing transfers "
            "to the kernel")
    else:
        symmetry = Justification(
            "kernel_symmetry", True, base.status,
            "the kernel is FP_n exactly when both the class and its negative are "
            "members, and membership is invariant under negation here")
    return Verdict(f"kernel-FP_{n}", base.status, n, base.justifications + (symmetry,))


def homotopic_sigma_verdict(ctx: Analysis, n: int) -> Verdict:
    """Homotopic membership: IN only on an exact homotopic link certificate,
    otherwise UNKNOWN (the implication only runs one way)."""
    report = ctx.strong_homotopic_n_link(n)
    if report.holds is True:
        j = Justification("homotopic_link", True, IN,
                          f"strong homotopic {n}-link condition holds exactly "
                          f"({len(report.witnesses)} link(s) checked)")
        return Verdict("sigma-membership(homotopy)", IN, n, (j,))
    why = ("some witness failed exactly" if report.holds is False
           else "some witness could not be decided beyond homology")
    j = Justification("homotopic_link", False, None,
                      f"strong homotopic {n}-link condition is not certified ({why})")
    return Verdict("sigma-membership(homotopy)", UNKNOWN, n, (j,))


def product_sigma_member(g: EvenGraph, delta: Sequence[str], chi: Character, m: int) -> bool:
    """Closed-form membership on a clique (a product of dihedral and infinite
    cyclic factors).

    With t the number of label > 2 edges inside the clique, non-membership in
    degree m requires m >= t and the character to vanish on the center of
    every factor: zero on each label > 2 edge and zero on each vertex not on
    such an edge.  Membership is the complement of that.  The instance is
    refused as :func:`artinsigma.characters._check_domain` refuses it.
    """
    _check_domain(g, chi)
    delta = g.sort_vertices(delta)
    if not g.is_clique(delta):
        raise ValueError(f"{tuple(delta)} is not a clique")
    values = {v: chi.value(v) for v in delta}
    if all(x == 0 for x in values.values()):
        raise ValueError("the restriction of the character to the clique is zero")
    big_edges = [(u, v) for i, u in enumerate(delta) for v in delta[i + 1:]
                 if g.label(u, v) > 2]
    t = len(big_edges)
    if m < t:
        return True
    if any(chi.edge_value(u, v) != 0 for u, v in big_edges):
        return True
    covered = {v for e in big_edges for v in e}
    return any(values[v] != 0 for v in delta if v not in covered)


def odd_cycle_condition(g: EvenGraph) -> bool:
    """No even cycle among the label > 2 edges.

    Decided on the fundamental cycles of a breadth-first spanning forest of
    the label > 2 subgraph, one per edge off the forest, each closed by
    walking both ends of that edge up to their common ancestor.  The
    condition fails when a cycle is even, or when two cycles share a forest
    edge: together they form a theta graph, three paths between two
    vertices, and if two of its three cycles are odd the third is even.
    When no two share an edge, they are the only cycles of the subgraph.
    """
    big = g.big_partner_masks
    parent, depth = [-1] * len(big), [0] * len(big)
    seen = 0
    for root in range(len(big)):
        if not seen >> root & 1:
            seen |= 1 << root
            queue = [root]
            for v in queue:
                new = big[v] & ~seen
                seen |= new
                for w in _bits(new):
                    parent[w], depth[w] = v, depth[v] + 1
                    queue.append(w)
    marked = 0      # bit v: the forest edge from v to its parent is on a cycle
    for i, partners in enumerate(big):
        for j in _bits(partners >> (i + 1) << (i + 1)):
            if parent[j] == i or parent[i] == j:
                continue
            u, w, length = i, j, 1
            while u != w:
                if depth[u] < depth[w]:
                    u, w = w, u
                if marked >> u & 1:
                    return False
                marked |= 1 << u
                u = parent[u]
                length += 1
            if length % 2 == 0:
                return False
    return True
