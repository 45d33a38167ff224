import random

import pytest

from artinsigma import (Character, CrossCheckError, EvenGraph, Field, LaurentMatrix, LaurentPoly,
                        OracleTooLarge, build_salvetti_complex, coefficient_b, cross_check,
                        homology_module, smith_normal_form, t_power_minus_one)
from artinsigma.salvetti import MAX_ORACLE_SPAN, _max_weight_span

from genutil import (dihedral, matrix_entry, matrix_is_zero, matrix_product, permuted,
                     poly_scaled, poly_shifted, product_of_dihedrals, random_character,
                     random_even_fc_graph, scaled_character)


def test_coefficient_b_single_vertex():
    g = EvenGraph(["v"])
    chi = Character({"v": 1})
    assert coefficient_b(g, chi, ["v"], "v") == t_power_minus_one(Field(0), 1)


def test_coefficient_b_dihedral_edge():
    for half in (2, 3):
        g, chi = dihedral(half)
        b = coefficient_b(g, chi, ["v", "w"], "v")
        # value of the edge is zero, so the geometric factor is the constant half
        expected = poly_scaled(t_power_minus_one(Field(0), 1), half)
        assert b == expected
        over_p = coefficient_b(g, chi, ["v", "w"], "v", p=half if half in (2, 3) else 2)
        assert over_p.is_zero()


def test_coefficient_b_vanishing_pattern():
    rng = random.Random(41)
    for _ in range(25):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g, nonzero=False)
        for clique in _cliques(g, 3):
            if not clique:
                continue
            for v in clique:
                for p in (0, 2, 3):
                    b = coefficient_b(g, chi, clique, v, p=p)
                    dead_vertex = chi.value(v) == 0
                    on_p_dead = any(
                        chi.edge_value(v, w) == 0 and p != 0
                        and g.half_label(v, w) % p == 0
                        for w in clique if w != v)
                    assert b.is_zero() == (dead_vertex or on_p_dead)


def _cliques(g, max_size):
    from artinsigma.homology import enumerate_cliques

    return enumerate_cliques(g, max_size)


def test_coefficient_b_rejects_bad_input():
    g, chi = dihedral(2)
    with pytest.raises(ValueError):
        coefficient_b(g, chi, ["v"], "w")


def test_build_single_vertex():
    g = EvenGraph(["v"])
    chi = Character({"v": 1})
    complex_ = build_salvetti_complex(g, chi, 0, max_n=1)
    d1 = complex_.differential(1)
    assert d1.nrows == 1 and d1.ncols == 1
    assert matrix_entry(d1, 0, 0) == t_power_minus_one(Field(0), 1)


def test_build_dihedral_degree_two_vanishes_mod_p():
    g, chi = dihedral(2)
    complex_ = build_salvetti_complex(g, chi, 2, max_n=2)
    assert matrix_is_zero(complex_.differential(2))
    complex3 = build_salvetti_complex(g, chi, 3, max_n=2)
    assert not matrix_is_zero(complex3.differential(2))


def test_differentials_compose_to_zero():
    rng = random.Random(42)
    for _ in range(20):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        for p in (0, 2):
            complex_ = build_salvetti_complex(g, chi, p)
            for n in range(1, complex_.max_degree):
                assert matrix_is_zero(matrix_product(complex_.differential(n),
                                                     complex_.differential(n + 1)))


def test_differential_entries_match_coefficient_b():
    # the build computes each distinct weight once and assembles sparse
    # columns; the reference takes every entry from coefficient_b afresh
    rng = random.Random(46)
    for _ in range(30):
        g = random_even_fc_graph(rng, max_vertices=7)
        chi = random_character(rng, g, nonzero=False)
        for p in (0, 2, 3):
            max_n = rng.randint(1, 4)
            complex_ = build_salvetti_complex(g, chi, p, max_n=max_n)
            zero = LaurentPoly.zero(Field(p))
            for n in range(1, max_n + 1):
                rows, cols = complex_.basis(n - 1), complex_.basis(n)
                expected = {}
                for j, x in enumerate(cols):
                    for i, v in enumerate(x):
                        b = coefficient_b(g, chi, x, v, p=p)
                        expected[rows.index(x[:i] + x[i + 1:]), j] = -b if i % 2 else b
                d = complex_.differential(n)
                assert (d.nrows, d.ncols) == (len(rows), len(cols))
                for r in range(d.nrows):
                    for c in range(d.ncols):
                        assert matrix_entry(d, r, c) == expected.get((r, c), zero)


def test_composite_check_fires_on_each_corrupted_weight(monkeypatch):
    # b(v, X) depends on v and its label > 2 partners in X, and the build
    # memoizes it under that key.  Multiplying b(u, {u, w}) by t for one edge
    # of label > 2 leaves b(w, {u, w}) alone, so the entry of D_1 D_2 at
    # ({u, w}, ()) no longer cancels.  (A change that depends only on v, or
    # only on the number of partners, is a change of basis on FC graphs and
    # keeps D^2 = 0.)
    import artinsigma.salvetti as salvetti

    g, chi = product_of_dihedrals(4, 6)
    honest = salvetti._coefficient_b
    for u, w in (("v", "w"), ("w", "v"), ("x", "y"), ("y", "x")):
        def corrupted(g_, exps, partners, v, field, u=u, w=w):
            b = honest(g_, exps, partners, v, field)
            return poly_shifted(b, 1) if (v, tuple(partners)) == (u, (w,)) else b

        monkeypatch.setattr(salvetti, "_coefficient_b", corrupted)
        for p in (0, 5):
            with pytest.raises(RuntimeError, match=r"differential composite D_1 D_2 is nonzero"):
                build_salvetti_complex(g, chi, p, max_n=3)
    monkeypatch.setattr(salvetti, "_coefficient_b", honest)
    build_salvetti_complex(g, chi, 0, max_n=4)


def test_composite_check_agrees_with_dense_product():
    # one entry of one differential is corrupted; the sparse check must raise
    # exactly when the dense product of some consecutive pair is nonzero
    from artinsigma.salvetti import _check_composites

    rng = random.Random(47)
    fired = 0
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=6)
        chi = random_character(rng, g)
        p = rng.choice([0, 2, 3])
        complex_ = build_salvetti_complex(g, chi, p, max_n=4)
        diffs = [[list(row) for row in complex_.differential(n).entries] for n in range(1, 5)]
        nonzero = [(n, i, j) for n, d in enumerate(diffs) for i, row in enumerate(d)
                   for j, e in enumerate(row) if e.coeffs]
        if not nonzero:
            continue
        n, i, j = rng.choice(nonzero)
        diffs[n][i][j] = poly_shifted(diffs[n][i][j], 1) if rng.random() < 0.5 else \
            diffs[n][i][j] + LaurentPoly.one(complex_.field)
        weights, columns = [], [[]]
        for d in diffs:
            degree = [[] for _ in (d[0] if d else ())]
            for r, row in enumerate(d):
                for c, e in enumerate(row):
                    if e.coeffs:
                        degree[c].append((r, len(weights), 0))
                        weights.append((e, -e))
            columns.append(degree)
        matrices = [LaurentMatrix(complex_.field, len(d), len(complex_.basis(k + 1)), d)
                    for k, d in enumerate(diffs)]
        expected = any(not matrix_is_zero(matrix_product(a, b))
                       for a, b in zip(matrices, matrices[1:]))
        if expected:
            fired += 1
            with pytest.raises(RuntimeError, match=r"differential composite D_\d D_\d is nonzero"):
                _check_composites(complex_.field, weights, columns)
        else:
            _check_composites(complex_.field, weights, columns)
    assert fired >= 20


def test_basis_is_cliques_by_size(d4d6):
    g, chi = d4d6
    complex_ = build_salvetti_complex(g, chi, 0, max_n=4)
    assert complex_.basis(0) == ((),)
    assert [len(complex_.basis(n)) for n in range(5)] == [1, 4, 6, 4, 1]


def test_homology_module_dihedral_case_split():
    for half in (2, 3, 4, 6):
        for p in (0, 2, 3, 5):
            g, chi = dihedral(half)
            complex_ = build_salvetti_complex(g, chi, p, max_n=2)
            module = homology_module(complex_, 1)
            if p != 0 and half % p == 0:
                assert module.free_rank == 1 and module.torsion == ()
            else:
                assert module.free_rank == 0
                assert [f.to_dict() for f in module.torsion] == \
                    [t_power_minus_one(Field(p), 1).monic_offset0().to_dict()]


def test_homology_module_degree_zero_torsion():
    # degree 0 of the cyclic cover: one copy of the coefficients, twisted
    for values in ({"v": 1, "w": -1}, {"v": 2, "w": -2}, {"v": 3, "w": 5}):
        g = EvenGraph(["v", "w"], [("v", "w", 4)])
        chi = Character(values)
        complex_ = build_salvetti_complex(g, chi, 0, max_n=1)
        module = homology_module(complex_, 0)
        assert module.free_rank == 0
        assert module.torsion == (t_power_minus_one(Field(0), 1).monic_offset0(),)


def test_degree_zero_is_always_t_minus_one_torsion():
    # for every nonzero character the primitive exponents are coprime, so the
    # gcd of the degree-1 entries is exactly t - 1
    rng = random.Random(45)
    for _ in range(20):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        for p in (0, 3):
            complex_ = build_salvetti_complex(g, chi, p, max_n=1)
            module = homology_module(complex_, 0)
            assert module.free_rank == 0
            assert module.torsion == (t_power_minus_one(Field(p), 1).monic_offset0(),)


def test_homology_module_degree_out_of_range():
    g, chi = dihedral(2)
    complex_ = build_salvetti_complex(g, chi, 0, max_n=1)
    with pytest.raises(ValueError):
        homology_module(complex_, 1)
    with pytest.raises(ValueError):
        homology_module(complex_, -1)


def test_snf_of_differential_invariant_under_basis_shuffle(d4d4):
    g, chi = d4d4
    complex_ = build_salvetti_complex(g, chi, 2, max_n=3)
    rng = random.Random(43)
    for n in (1, 2, 3):
        d = complex_.differential(n)
        base = smith_normal_form(d)
        rows, cols = list(range(d.nrows)), list(range(d.ncols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        assert smith_normal_form(permuted(d, rows, cols)) == base


def test_cross_check_named_instances(d4d6, d4d4):
    g, chi = dihedral(2)
    report = cross_check(g, chi, 2, 1)
    assert report.matched and report.formula_rank == 1

    g, chi = d4d6
    report = cross_check(g, chi, 2, 2)
    assert report.matched and report.formula_rank == 0

    g, chi = d4d4
    report = cross_check(g, chi, 2, 2)
    assert report.matched and report.formula_rank == 1
    assert homology_module(build_salvetti_complex(g, chi, 2, max_n=3), 2).free_rank == 1


def test_cross_check_error_reporting(monkeypatch, d4d4):
    g, chi = d4d4

    def broken(*args, **kwargs):
        return 99

    monkeypatch.setattr("artinsigma.conditions.kernel_free_rank", broken)
    with pytest.raises(CrossCheckError, match="99"):
        cross_check(g, chi, 2, 2)


def test_scale_invariance_of_free_rank():
    rng = random.Random(44)
    for _ in range(10):
        g = random_even_fc_graph(rng, max_vertices=5)
        chi = random_character(rng, g)
        doubled = scaled_character(chi, 2)
        for p in (0, 2):
            complex_a = build_salvetti_complex(g, chi, p, max_n=3)
            complex_b = build_salvetti_complex(g, doubled, p, max_n=3)
            for n in range(3):
                assert homology_module(complex_a, n).free_rank == \
                    homology_module(complex_b, n).free_rank


def test_complex_json_dump(d4d6):
    g, chi = d4d6
    complex_ = build_salvetti_complex(g, chi, 2, max_n=2)
    dump = complex_.to_dict()
    assert dump["characteristic"] == 2
    assert dump["bases"]["1"] == [["v"], ["w"], ["x"], ["y"]]
    entry = dump["differentials"]["1"]["entries"][0][0]
    assert set(entry) == {"offset", "coeffs"}


def test_max_weight_span_is_the_largest_entry_span():
    # over Q a product of weights has the sum of their spans, and every
    # weight b(v, X) with |X| <= max_n is an entry of some differential
    rng = random.Random(77)
    for _ in range(40):
        g = random_even_fc_graph(rng, max_vertices=6)
        chi = random_character(rng, g, lo=-3, hi=3)
        for max_n in range(4):
            complex_ = build_salvetti_complex(g, chi, 0, max_n=max_n)
            spans = [e.span for n in range(1, max_n + 1)
                     for row in complex_.differential(n).entries for e in row if e.coeffs]
            assert _max_weight_span(g, chi, max_n) == max(spans, default=0)


def test_build_refuses_spans_above_the_budget():
    g = EvenGraph(["v", "w"], [("v", "w", 4)])
    chi = Character({"v": 1, "w": 100000})
    assert _max_weight_span(g, chi, 1) == 100000
    assert _max_weight_span(g, chi, 2) == 200001 > MAX_ORACLE_SPAN
    build_salvetti_complex(g, Character({"v": 1, "w": 1023}), 2)   # span 2047
    with pytest.raises(OracleTooLarge, match="span 200001, above the budget of 2048"):
        build_salvetti_complex(g, chi, 2)
    with pytest.raises(OracleTooLarge):
        cross_check(g, chi, 2, 1)
