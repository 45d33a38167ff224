"""Cross-cutting algebraic invariants, exercised on seeded random instances."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from artinsigma import (Analysis, Character, build_salvetti_complex, classify, cross_check,
                        flag_complex, fp_verdict, homotopic_sigma_verdict, sigma_verdict)
from artinsigma.homology import _boundary

from genutil import (center_values, dead_cliques, dense, enumerate_cliques, mask_edges,
                     matrix_is_zero, matrix_product, negated_character, poly_evaluate,
                     random_character, random_even_fc_graph, scaled_character)


def test_boundary_composites_vanish_simplicial():
    rng = random.Random(101)
    for _ in range(25):
        g = random_even_fc_graph(rng)
        c = flag_complex(g)
        for d in range(1, c.dimension + 2):
            lower = dense(_boundary(c, d - 1), c.chain_rank(d - 2), c.chain_rank(d - 1))
            upper = dense(_boundary(c, d), c.chain_rank(d - 1), c.chain_rank(d))
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
        l_dead = Analysis(g, chi).living()
        l_vertices = Analysis(g, chi).living(0)
        for p in sorted({0, 2, 3, 5, *cls.relevant_primes}):
            lp = Analysis(g, chi).living(p)
            assert set(mask_edges(l_dead)) <= set(mask_edges(lp)) <= set(mask_edges(l_vertices))
        # the living subgraph is the intersection of all p-living ones
        union_of_drops = set()
        for p in cls.relevant_primes:
            union_of_drops |= (set(mask_edges(l_vertices))
                               - set(mask_edges(Analysis(g, chi).living(p))))
        assert set(mask_edges(l_vertices)) - set(mask_edges(l_dead)) == union_of_drops


def test_dead_cliques_iff_center_killed():
    # integer and rational characters, degrees 0 to 5 and graphs of up to 9
    # vertices: the dead cliques, which the context finds on a walk restricted
    # to the vertices that can lie on one, are the center-killed cliques of
    # the full walk, in its order
    rng = random.Random(104)
    for trial in range(60):
        g = random_even_fc_graph(rng, max_vertices=9)
        chi = random_character(rng, g, nonzero=False)
        if trial % 2:
            chi = Character({v: Fraction(x, rng.choice((1, 2, 3)))
                             for v, x in chi.values.items()})
        for n in range(6):
            expected = tuple([c for c in enumerate_cliques(g, n)
                              if center_values(g, chi, c).is_zero])
            assert dead_cliques(g, chi, n) == expected, (g, chi, n)


def test_homotopic_true_implies_homological_true():
    rng = random.Random(105)
    for _ in range(50):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        if Analysis(g, chi).strong_homotopic_n_link(n).holds is True:
            assert Analysis(g, chi).strong_n_link(n).holds is True


def test_verdict_symmetry_and_scale_invariance():
    rng = random.Random(106)
    for _ in range(25):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        status = sigma_verdict(Analysis(g, chi), n).status
        assert sigma_verdict(Analysis(g, negated_character(chi)), n).status == status
        assert sigma_verdict(Analysis(g, scaled_character(chi, Fraction(5, 2))), n).status == status


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
                vanishing = all(Analysis(g, chi).free_ranks(p, k)[k] == 0 for k in range(n + 1))
                assert vanishing == bool(Analysis(g, chi).strong_p_n_link(n, p).holds)


def test_membership_implies_finite_dimensional_kernel_homology():
    # an IN verdict means the kernel has finiteness type FP_n, so its
    # homology must be finite dimensional through degree n over every field;
    # this ties the verdict rules, the link formula and the chain complex
    # together across modules
    from genutil import finite_dimensional_through

    rng = random.Random(111)
    hits = 0
    for _ in range(60):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        n = rng.randint(1, 3)
        if sigma_verdict(Analysis(g, chi), n).status == "IN":
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
                base = Analysis(g, chi).free_ranks(p, n)[n]
                for c in (Fraction(3, 4), 2):
                    assert Analysis(g, scaled_character(chi, c)).free_ranks(p, n)[n] == base


def test_all_label_2_cross_check_characteristic_zero():
    # on right-angled graphs the characteristic-0 free ranks from the two
    # routes agree, matching the dead-vertex-clique reading of the formula
    from genutil import random_raag

    rng = random.Random(110)
    for _ in range(30):
        g = random_raag(rng, max_vertices=6)
        chi = random_character(rng, g)
        complex_ = build_salvetti_complex(g, chi, 0, max_n=4)
        ranks = Analysis(g, chi).free_ranks(0, 3)
        for n in range(4):
            cross_check(g, chi, n, complex_, ranks[n])


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
                rows = [[poly_evaluate(e, x) for e in row] for row in d.entries]
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
        sigma = sigma_verdict(ctx, n)
        assert sigma == sigma_verdict(Analysis(g, chi), n)
        assert not (previous == "NOT_IN" and sigma.status == "IN")
        assert fp_verdict(sigma_verdict(Analysis(g, chi), n)).status == sigma.status
        if homotopic_sigma_verdict(ctx, n).status == "IN":
            assert sigma.status == "IN"
        previous = sigma.status
