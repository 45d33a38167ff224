"""Acceptance criteria, one test per criterion.

Every test prints a single PASS line on success; a failed assertion marks
the criterion red.  Desk scale throughout, exact arithmetic, zero
tolerances.
"""

import json
import random

from artinsigma import (IN, NOT_IN, UNKNOWN, Analysis, build_salvetti_complex, cross_check,
                        fp_verdict, homology_module, is_connected, is_dominating, sigma_verdict)
from artinsigma.cli import run as cli_run
from artinsigma.graphs import graph_to_dict

from genutil import (dead_cliques, dihedral, raag_n_link, random_character, random_even_fc_graph,
                     random_raag, t_power_minus_one)

EXAMPLE1 = ("example-1", [("a", "b", 4), ("c", "d", 4), ("a", "c", 2), ("b", "d", 2),
                          ("a", "d", 2)], {"a": 1, "b": -1, "c": 0, "d": 1})
EXAMPLE2 = ("example-2", [("a", "b", 4), ("c", "d", 4), ("a", "c", 2), ("b", "d", 2)],
            {"a": 1, "b": -1, "c": 0, "d": 1})


def _instance_file(tmp_path, name, g, chi):
    doc = {"name": name, "graph": graph_to_dict(g),
           "character": {v: str(x) for v, x in chi.values.items()}}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _verdict_via_cli(tmp_path, name, g, chi, n):
    import io

    code, report = cli_run(["verdict", "--n", str(n), _instance_file(tmp_path, name, g, chi)],
                           out=io.StringIO())
    assert code == 0
    return report["results"]["sigma_z"]


def test_criterion_1_example1_membership(tmp_path, example1):
    g, chi = example1
    assert dead_cliques(g, chi, 3) == ((), ("c",), ("a", "b"))
    report = Analysis(g, chi).strong_n_link(3)
    assert report.holds is True
    assert len(report.witnesses) == 3
    assert all(w.via == "cone" for w in report.witnesses)
    sigma = _verdict_via_cli(tmp_path, "example-1", g, chi, 3)
    assert sigma["status"] == IN
    print("ACCEPTANCE 1 PASS: example-1 dead cliques, coned links, verdict IN at n=3")


def test_criterion_2_example2_obstruction(tmp_path, example2):
    g, chi = example2
    report = Analysis(g, chi).strong_n_link(1)
    assert report.holds is False
    assert [w.clique for w in report.witnesses if w.status == "fail"] == [()]
    assert Analysis(g, chi).living(2) == Analysis(g, chi).living()
    sigma = _verdict_via_cli(tmp_path, "example-2", g, chi, 1)
    assert sigma["status"] == NOT_IN
    fired = [j["rule"] for j in sigma["justifications"] if j["fired"]]
    assert "p_local_obstruction" in fired
    print("ACCEPTANCE 2 PASS: example-2 fails strong 1-link at the empty clique, "
          "2-living graph matches, verdict NOT_IN")


def test_criterion_3_dihedral_family():
    for half in (2, 3, 4, 6):
        for p in (0, 2, 3, 5):
            g, chi = dihedral(half)
            complex_ = build_salvetti_complex(g, chi, p, max_n=2)
            module = homology_module(complex_, 1)
            rank = Analysis(g, chi).free_ranks(p, 1)[1]
            if p != 0 and half % p == 0:
                assert module.free_rank == 1 and module.torsion == (), (half, p)
                assert rank == 1
            else:
                assert module.free_rank == 0, (half, p)
                assert module.torsion == (t_power_minus_one(p, 1).monic_offset0(),)
                assert rank == 0
    print("ACCEPTANCE 3 PASS: dihedral degree-1 modules split free vs (t-1)-torsion "
          "exactly at p | half-label, both routes agreeing")


def test_criterion_4_d4d6(tmp_path, d4d6):
    g, chi = d4d6
    z_report = Analysis(g, chi).strong_n_link(2)
    assert z_report.holds is False
    failing = [w for w in z_report.witnesses if w.status == "fail"]
    assert [w.clique for w in failing] == [()] and failing[0].failing_degree == 1
    for p in (0, 2, 3, 5):
        assert Analysis(g, chi).strong_p_n_link(2, p).holds is True
        assert Analysis(g, chi).free_ranks(p, 2)[2] == 0  # degree 2 stays finite dimensional
    sigma = _verdict_via_cli(tmp_path, "d4xd6", g, chi, 2)
    assert sigma["status"] == NOT_IN
    fired = [j["rule"] for j in sigma["justifications"] if j["fired"]]
    assert fired == ["dihedral_product"]
    print("ACCEPTANCE 4 PASS: d4xd6 fails the Z condition on the living square, "
          "every characteristic passes p-locally, product rule says NOT_IN, "
          "degree-2 homology finite over every field")


def test_criterion_5_d4d4(d4d4):
    g, chi = d4d4
    ctx = Analysis(g, chi)
    assert ctx.strong_p_n_link(2, 2).holds is False
    ranks = ctx.free_ranks(2, 2)
    complex_ = build_salvetti_complex(g, chi, 2, max_n=3)
    oracle = homology_module(complex_, 2)
    assert ranks[2] == 1 == oracle.free_rank
    assert any(ranks)
    cross_check(g, chi, 2, complex_, ranks[2])
    print("ACCEPTANCE 5 PASS: d4xd4 fails the 2-2 condition, free rank 1 from both "
          "routes, degree-2 homology infinite dimensional in characteristic 2")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260810)
    graphs = 0
    checks = 0
    while graphs < 200:
        g = random_even_fc_graph(rng, max_vertices=6)
        chi = random_character(rng, g)
        graphs += 1
        ctx = Analysis(g, chi)
        for p in sorted({0, *ctx.classification.relevant_primes}):
            complex_ = build_salvetti_complex(g, chi, p, max_n=5)
            ranks = ctx.free_ranks(p, 4)
            for n in range(5):
                cross_check(g, chi, n, complex_, ranks[n])
                checks += 1
    assert graphs >= 200 and checks >= 200
    print(f"ACCEPTANCE 6 PASS: link-formula free rank == chain-complex free rank on "
          f"{graphs} random graphs ({checks} cross-checks, zero mismatches)")


def test_criterion_7_raag_reduction():
    rng = random.Random(77)
    graphs = 0
    while graphs < 200:
        g = random_raag(rng, max_vertices=7)
        chi = random_character(rng, g)
        graphs += 1
        for n in (1, 2, 3):
            assert raag_n_link(Analysis(g, chi), n).holds == \
                Analysis(g, chi).strong_n_link(n).holds
        dead = {v for v in g.vertices if chi.value(v) == 0}
        from genutil import enumerate_cliques

        expected = tuple(c for c in enumerate_cliques(g, len(g.vertices)) if set(c) <= dead)
        assert dead_cliques(g, chi, len(g.vertices)) == expected
    print(f"ACCEPTANCE 7 PASS: all-label-2 condition matches the strong condition for "
          f"n <= 3 and dead cliques are the dead-vertex cliques on {graphs} graphs")


def test_criterion_8_property_suite():
    # bundled re-run of the standing invariants at acceptance scale
    from test_properties import (test_boundary_composites_vanish_simplicial,
                                 test_boundary_composites_vanish_twisted,
                                 test_dead_cliques_iff_center_killed,
                                 test_homotopic_true_implies_homological_true,
                                 test_living_subgraph_containment_chain,
                                 test_verdict_symmetry_and_scale_invariance)
    from test_laurent import test_snf_invariant_under_permutations_and_unit_scalings

    test_boundary_composites_vanish_simplicial()
    test_boundary_composites_vanish_twisted()
    test_snf_invariant_under_permutations_and_unit_scalings()
    test_verdict_symmetry_and_scale_invariance()
    test_homotopic_true_implies_homological_true()
    test_living_subgraph_containment_chain()
    test_dead_cliques_iff_center_killed()
    print("ACCEPTANCE 8 PASS: boundary composites vanish, Smith form is basis "
          "independent, verdicts are scale/negation invariant, homotopic implies "
          "homological, living containments and center equivalence hold")


def test_criterion_9_sigma1_exact(tmp_path):
    from artinsigma import odd_cycle_condition

    rng = random.Random(99)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 5000
        g = random_even_fc_graph(rng, max_vertices=6)
        if not odd_cycle_condition(g):
            continue
        chi = random_character(rng, g)
        accepted += 1
        verdict = sigma_verdict(Analysis(g, chi), 1)
        assert verdict.status != UNKNOWN
        living = Analysis(g, chi).living()
        expected = IN if (is_connected(living) and is_dominating(g, living)) else NOT_IN
        assert verdict.status == expected
        assert fp_verdict(sigma_verdict(Analysis(g, chi), 1)).status == expected
        if accepted == 1:
            sigma = _verdict_via_cli(tmp_path, "sigma1-sample", g, chi, 1)
            assert sigma["status"] == expected
    print(f"ACCEPTANCE 9 PASS: degree-1 verdicts decided exactly by connectivity and "
          f"domination on {accepted} odd-cycle-condition graphs (never UNKNOWN)")
