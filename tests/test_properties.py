"""Cross-cutting algebraic invariants, exercised on seeded random instances."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from artinsigma import (Analysis, build_salvetti_complex, center_values, classify, dead_cliques,
                        flag_complex, fp_verdict, homotopic_sigma_verdict, kernel_free_rank,
                        living_subgraph, sigma_verdict, strong_homotopic_n_link, strong_n_link,
                        strong_p_n_link)
from artinsigma.homology import _boundary, enumerate_cliques

from genutil import (matrix_is_zero, matrix_product, negated_character, random_character,
                     random_even_fc_graph, scaled_character)


def test_boundary_composites_vanish_simplicial():
    rng = random.Random(101)
    for _ in range(25):
        g = random_even_fc_graph(rng)
        c = flag_complex(g)
        for d in range(1, c.dimension + 2):
            lower = _boundary(c, d - 1)
            upper = _boundary(c, d)
            for i in range(c.chain_rank(d - 2)):
                for j in range(c.chain_rank(d)):
                    assert sum(lower[i][k] * upper[k][j]
                               for k in range(c.chain_rank(d - 1))) == 0


def test_boundary_composites_vanish_twisted():
    rng = random.Random(102)
    for _ in range(15):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        for p in (0, 2, 3):
            complex_ = build_salvetti_complex(g, chi, p)
            for n in range(1, complex_.max_degree):
                assert matrix_is_zero(matrix_product(complex_.differential(n),
                                                     complex_.differential(n + 1)))


def test_living_subgraph_containment_chain():
    rng = random.Random(103)
    for _ in range(40):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g, nonzero=False)
        cls = classify(g, chi)
        l_dead = living_subgraph(g, chi)
        l_vertices = living_subgraph(g, chi, p=0)
        for p in sorted({0, 2, 3, 5, *cls.relevant_primes}):
            lp = living_subgraph(g, chi, p=p)
            assert set(l_dead.edges()) <= set(lp.edges()) <= set(l_vertices.edges())
        # the living subgraph is the intersection of all p-living ones
        union_of_drops = set()
        for p in cls.relevant_primes:
            union_of_drops |= set(l_vertices.edges()) - set(living_subgraph(g, chi, p=p).edges())
        assert set(l_vertices.edges()) - set(l_dead.edges()) == union_of_drops


def test_dead_cliques_iff_center_killed():
    rng = random.Random(104)
    for _ in range(40):
        g = random_even_fc_graph(rng)
        chi = random_character(rng, g, nonzero=False)
        got = set(dead_cliques(g, chi, 4))
        for clique in enumerate_cliques(g, 4):
            assert (clique in got) == center_values(g, chi, clique).is_zero


def test_homotopic_true_implies_homological_true():
    rng = random.Random(105)
    for _ in range(50):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        if strong_homotopic_n_link(g, chi, n).holds is True:
            assert strong_n_link(g, chi, n).holds is True


def test_verdict_symmetry_and_scale_invariance():
    rng = random.Random(106)
    for _ in range(25):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        status = sigma_verdict(g, chi, n).status
        assert sigma_verdict(g, negated_character(chi), n).status == status
        assert sigma_verdict(g, scaled_character(chi, Fraction(5, 2)), n).status == status


def test_free_rank_bridge_to_p_condition():
    # homology stays finite dimensional through degree n over characteristic p
    # exactly when the p-n-link condition holds
    rng = random.Random(107)
    for _ in range(35):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        cls = classify(g, chi)
        for p in sorted({0, *cls.relevant_primes}):
            for n in (1, 2):
                vanishing = all(kernel_free_rank(g, chi, p, k) == 0 for k in range(n + 1))
                assert vanishing == bool(strong_p_n_link(g, chi, n, p).holds)


def test_membership_implies_finite_dimensional_kernel_homology():
    # an IN verdict means the kernel has finiteness type FP_n, so its
    # homology must be finite dimensional through degree n over every field;
    # this ties the verdict rules, the link formula and the chain complex
    # together across modules
    from artinsigma import finite_dimensional_through

    rng = random.Random(111)
    hits = 0
    for _ in range(60):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        if sigma_verdict(g, chi, n).status == "IN":
            hits += 1
            for p in sorted({0, *classify(g, chi).relevant_primes}):
                assert finite_dimensional_through(g, chi, p, n)
    assert hits > 10


def test_kernel_free_rank_scale_invariant():
    rng = random.Random(109)
    for _ in range(20):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        for p in (0, 2):
            for n in (1, 2):
                base = kernel_free_rank(g, chi, p, n)
                assert kernel_free_rank(g, scaled_character(chi, Fraction(3, 4)), p, n) == base
                assert kernel_free_rank(g, scaled_character(chi, 2), p, n) == base


def test_all_label_2_cross_check_characteristic_zero():
    # on right-angled graphs the characteristic-0 free ranks from the two
    # routes agree, matching the dead-vertex-clique reading of the formula
    from genutil import random_raag

    rng = random.Random(110)
    for _ in range(30):
        g = random_raag(rng, max_vertices=6)
        chi = random_character(rng, g)
        complex_ = build_salvetti_complex(g, chi, 0, max_n=4)
        for n in range(4):
            from artinsigma import cross_check

            assert cross_check(g, chi, 0, n, complex_=complex_).matched


def test_salvetti_specialization_rank_probe():
    # the rank of a differential over the fraction field matches a generic
    # rational evaluation
    rng = random.Random(108)
    for _ in range(10):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        complex_ = build_salvetti_complex(g, chi, 0)
        for n in range(1, min(complex_.max_degree, 3) + 1):
            d = complex_.differential(n)
            if d.nrows == 0 or d.ncols == 0:
                continue
            exact_rank = complex_.rank(n)
            probes = [Fraction(rng.randint(2, 40), rng.randint(1, 5)) for _ in range(4)]
            best = 0
            for x in probes:
                rows = [[e.evaluate(x) for e in row] for row in d.entries]
                best = max(best, _rational_rank(rows))
            assert best == exact_rank


def _rational_rank(rows):
    if not rows:
        return 0
    m = [list(r) for r in rows]
    rank = 0
    for j in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][j]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                c = m[i][j]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_verdicts_monotone_in_degree(seed):
    # Sigma^{n+1} is contained in Sigma^n: NOT_IN at degree n never becomes
    # IN at n + 1.  One context serves every degree, and each verdict must
    # equal the one a fresh context gives.
    rng = random.Random(seed)
    g = random_even_fc_graph(rng, max_vertices=6)
    chi = random_character(rng, g)
    ctx = Analysis(g, chi)
    previous = None
    for n in (1, 2, 3):
        sigma = sigma_verdict(g, chi, n, analysis=ctx)
        assert sigma == sigma_verdict(g, chi, n)
        assert not (previous == "NOT_IN" and sigma.status == "IN")
        assert fp_verdict(g, chi, n).status == sigma.status
        if homotopic_sigma_verdict(g, chi, n, analysis=ctx).status == "IN":
            assert sigma.status == "IN"
        previous = sigma.status
