"""The mixed-prime residue: verdicts that no field of coefficients can decide.

The instances are kept in ``tests/data/mixed_prime_residue.json``:

* five verdict_dense instances of ``bench/instances.py`` at seed 17 (numbers
  76, 168, 190 and 193 at n = 2, and 89 at n = 3).  Their living dead edges
  carry labels 4 and 6, so no characteristic sees all of them.  The strong
  n-link condition over Z fails at the living subgraph itself (the link of
  the empty clique), while the free ranks of kernel homology, by the link
  formula and by the twisted-complex oracle, are 0 over Q, F_2 and F_3.
  No rule applies, and the verdict is UNKNOWN.
* the complete graph K4 with a-d:4, b-c:6 and the other edges 2, and
  chi = (2, 2, -2, -2).  Its free ranks are 0 over every field tried too,
  yet the closed form on complete graphs answers NOT_IN at n = 2, 3 and 4.

These are today's outcomes.  A sound rule for the residue may move the five
UNKNOWNs to NOT_IN and nothing else; it changes this test on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from artinsigma import (NOT_IN, UNKNOWN, Analysis, build_salvetti_complex, character_from_dict,
                        graph_from_dict, homology_module, sigma_verdict)

DATA = Path(__file__).resolve().parent / "data" / "mixed_prime_residue.json"
ENTRIES = json.loads(DATA.read_text(encoding="utf-8"))
DENSE = [e for e in ENTRIES if e["document"]["name"].startswith("verdict_dense-17-")]
K4 = next(e for e in ENTRIES if e["document"]["name"] == "k4-mixed-primes")


def load(entry):
    doc = entry["document"]
    return graph_from_dict(doc["graph"]), character_from_dict(doc)


def test_corpus_is_the_five_dense_instances_and_k4():
    assert [(e["document"]["name"], e["degrees"]) for e in DENSE] == [
        ("verdict_dense-17-76", [2]), ("verdict_dense-17-168", [2]),
        ("verdict_dense-17-190", [2]), ("verdict_dense-17-193", [2]),
        ("verdict_dense-17-89", [3])]
    assert K4["degrees"] == [2, 3, 4]


def free_ranks_everywhere(g, chi, ctx, n):
    """The free ranks through degree n over Q, F_2 and F_3, by the link
    formula and by the oracle."""
    ranks = []
    for p in (0, 2, 3):
        twisted = build_salvetti_complex(g, chi, p, max_n=n + 1)
        ranks.append(ctx.free_ranks(p, n))
        ranks.append([homology_module(twisted, k).free_rank for k in range(n + 1)])
    return ranks


@pytest.mark.parametrize("entry", DENSE, ids=lambda e: e["document"]["name"])
def test_dense_residue_is_unknown_and_invisible_to_every_field(entry):
    g, chi = load(entry)
    ctx = Analysis(g, chi)
    (n,) = entry["degrees"]
    cls = ctx.classification
    assert sorted(cls.relevant_primes) == [2, 3]
    assert {g.label(*e) for e in cls.dead_edges if not set(e) & cls.dead_vertices} == {4, 6}
    strong = ctx.strong_n_link(n)
    assert strong.holds is False
    assert [(w.clique, w.failing_degree) for w in strong.witnesses if w.status == "fail"] \
        == [((), n - 1)]
    assert free_ranks_everywhere(g, chi, ctx, n) == [[0] * (n + 1)] * 6
    verdict = sigma_verdict(ctx, n)
    assert verdict.status == UNKNOWN
    assert not any(j.fired for j in verdict.justifications)


def test_k4_is_not_in_by_the_product_rule_alone():
    g, chi = load(K4)
    ctx = Analysis(g, chi)
    for n in K4["degrees"]:
        assert ctx.strong_n_link(n).holds is False
        assert free_ranks_everywhere(g, chi, ctx, n) == [[0] * (n + 1)] * 6
        verdict = sigma_verdict(ctx, n)
        assert verdict.status == NOT_IN
        assert [(j.rule, j.status) for j in verdict.justifications if j.fired] \
            == [("dihedral_product", NOT_IN)]
