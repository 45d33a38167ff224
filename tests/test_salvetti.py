import random
from fractions import Fraction

import pytest

from artinsigma import (Analysis, Character, CrossCheckError, EvenGraph, Field, LaurentMatrix,
                        LaurentPoly, OracleTooLarge, build_salvetti_complex, cross_check,
                        homology_module, smith_normal_form)
from artinsigma.salvetti import MAX_ORACLE_SPAN, _half_labels, _max_weight_span, _weight

from genutil import (basis, coefficient_b, complex_to_dict, dense_matrix, dihedral,
                     enumerate_cliques_scan, matrix_entry, matrix_is_zero, matrix_product,
                     permuted, poly_evaluate, poly_scaled, poly_shifted, product_of_dihedrals,
                     random_character, random_even_fc_graph, scaled_character,
                     t_power_minus_one)


def exponents(g, chi):
    """The primitive integer values of chi in the vertex order of g."""
    ints = chi.primitive_integer_values()
    return [ints[v] for v in g.vertices]


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
    from genutil import enumerate_cliques

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
                rows, cols = basis(complex_, n - 1), basis(complex_, n)
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


def test_weights_times_t_minus_one_are_the_reference_weights():
    # the build keeps c(v, X) = b(v, X) / (t - 1); the reference b is built
    # from t^m - 1 and the geometric sums on their own.  Labels 4, 6 and 8,
    # negative and zero exponents, and p dividing label/2 (a zero weight)
    rng = random.Random(50)
    cases = [(dihedral(half)[0], Character({"v": a, "w": b})) for half in (2, 3, 4)
             for a, b in ((1, -1), (-2, 1), (0, 3), (-3, -1), (2, 5), (1, -3))]
    for labels in ((2, 4, 6), (2, 8, 4), (2, 6, 8)):
        for _ in range(10):
            g = random_even_fc_graph(rng, max_vertices=6, labels=labels)
            cases.append((g, random_character(rng, g, lo=-3, hi=3, nonzero=False)))
    seen = set()
    for g, chi in cases:
        exps, halves = exponents(g, chi), _half_labels(g, 3)
        for p in (0, 2, 3, 5):
            field = Field(p)
            t_minus_one = LaurentPoly(field, 0, [-1, 1])
            for x in _cliques(g, 3):
                for v in x:
                    i = g.index(v)
                    b = coefficient_b(g, chi, x, v, p=p)
                    partners = g.vertex_mask(x) & g.big_partner_masks[i]
                    assert _weight(exps, halves, i, partners, field) * t_minus_one \
                        == b, (g, chi, x, v, p)
                    seen.add(("negative", exps[i] < 0))
                    seen.add(("zero", b.is_zero()))
                    for w in x:
                        if w != v:
                            half = g.half_label(v, w)
                            seen.add(("label", 2 * half))
                            seen.add(("p | label/2", p != 0 and half % p == 0
                                      and exps[i] + exps[g.index(w)] == 0))
    assert {("negative", True), ("zero", True), ("zero", False), ("p | label/2", True),
            ("label", 4), ("label", 6), ("label", 8)} <= seen


def test_packed_weights_are_the_integer_weights_mod_2():
    # over F_2 each weight is built as bits; the integer-coefficient
    # construction over Q, reduced mod 2, must give the same polynomial.
    # Negative values (s < 0 shifts the offset), s = 0 partners with even
    # half labels (the weight vanishes) and odd ones, and v before or after
    # its partner in the vertex order
    rng = random.Random(53)
    f2, q = Field(2), Field(0)
    seen = set()
    for labels in ((2, 4, 6), (2, 8, 10), (2, 6, 4)):
        for _ in range(25):
            g = random_even_fc_graph(rng, max_vertices=7, labels=labels)
            chi = random_character(rng, g, lo=-3, hi=3, nonzero=False)
            exps, halves = exponents(g, chi), _half_labels(g, 3)
            for x in _cliques(g, 3):
                for v in x:
                    i = g.index(v)
                    partners = g.vertex_mask(x) & g.big_partner_masks[i]
                    over_q = _weight(exps, halves, i, partners, q)
                    reduced = LaurentPoly(f2, over_q.offset, [int(c) for c in over_q.coeffs])
                    assert _weight(exps, halves, i, partners, f2) == reduced, (g, chi, x, v)
                    seen.add(("negative", exps[i] < 0))
                    for w in x:
                        j = g.index(w)
                        if partners >> j & 1:
                            s = exps[i] + exps[j]
                            seen.add(("s", (s > 0) - (s < 0), halves[i][j] % 2))
                            seen.add(("v first", i < j))
    assert {("negative", True), ("s", -1, 0), ("s", -1, 1), ("s", 0, 0), ("s", 0, 1),
            ("s", 1, 0), ("v first", True), ("v first", False)} <= seen


def _rank_over(field, grid) -> int:
    """Rank of a dense matrix over the field, by Gaussian elimination."""
    rows = [list(row) for row in grid]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][j])
        rows[rank] = [field.mul(a, inv) for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                c = rows[i][j]
                rows[i] = [field.sub(a, field.mul(c, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_torsion_audit_at_points_of_the_field():
    # universal coefficients for F[t, t^-1] -> F, t -> a: with tau_k(a) the
    # number of torsion factors of H_k vanishing at a,
    # dim H_n(C|_{t=a}) = free rank_n + tau_n(a) + tau_{n-1}(a)
    rng = random.Random(52)
    points = {0: (-1, 2, Fraction(1, 3)), 3: (1, 2), 5: (1, 2, 3, 4)}
    checked = 0
    for p, xs in points.items():
        for _ in range(15):
            g = random_even_fc_graph(rng, max_vertices=6)
            chi = random_character(rng, g)
            complex_ = build_salvetti_complex(g, chi, p, max_n=4)
            field, top = complex_.field, complex_.max_degree
            modules = [homology_module(complex_, n) for n in range(top)]
            for a in xs:
                ranks = [_rank_over(field, [[poly_evaluate(e, a) for e in row]
                                            for row in complex_.differential(n).entries])
                         for n in range(top + 1)]
                tau = [sum(1 for f in m.torsion if not poly_evaluate(f, a)) for m in modules]
                for n, module in enumerate(modules):
                    dim = len(basis(complex_, n)) - ranks[n] - ranks[n + 1]
                    assert dim == module.free_rank + tau[n] + (tau[n - 1] if n else 0), \
                        (g, chi, p, a, n)
                    checked += 1
    assert checked > 300


def test_bases_are_the_scanned_cliques_by_size():
    # max_n 0, one in between, and one above the clique number (empty bases)
    rng = random.Random(49)
    for _ in range(50):
        g = random_even_fc_graph(rng, max_vertices=7)
        chi = random_character(rng, g)
        top = len(enumerate_cliques_scan(g, len(g.vertices))[-1])
        for max_n in (0, rng.randint(1, top), top + 1):
            complex_ = build_salvetti_complex(g, chi, 2, max_n=max_n)
            scan = enumerate_cliques_scan(g, max_n)
            assert [basis(complex_, n) for n in range(max_n + 1)] \
                == [tuple(c for c in scan if len(c) == n) for n in range(max_n + 1)]


def test_composite_check_fires_on_each_corrupted_weight(monkeypatch):
    # c(v, X) depends on v and its label > 2 partners in X, and the build
    # memoizes it under that key.  Multiplying c(u, {u, w}) by t for one edge
    # of label > 2 leaves c(w, {u, w}) alone, so the entry of D_1 D_2 at
    # ({u, w}, ()) no longer cancels.  (A change that depends only on v, or
    # only on the number of partners, is a change of basis on FC graphs and
    # keeps D^2 = 0.)
    import artinsigma.salvetti as salvetti

    g, chi = product_of_dihedrals(4, 6)
    honest = salvetti._weight
    for u, w in (("v", "w"), ("w", "v"), ("x", "y"), ("y", "x")):
        def corrupted(exps, halves, v, partners, field, u=u, w=w):
            c = honest(exps, halves, v, partners, field)
            hit = (g.vertices[v], partners) == (u, g.vertex_mask([w]))
            return poly_shifted(c, 1) if hit else c

        monkeypatch.setattr(salvetti, "_weight", corrupted)
        for p in (0, 5):
            with pytest.raises(RuntimeError, match=r"differential composite D_1 D_2 is nonzero"):
                build_salvetti_complex(g, chi, p, max_n=3)
    monkeypatch.setattr(salvetti, "_weight", honest)
    build_salvetti_complex(g, chi, 0, max_n=4)


def test_composite_check_agrees_with_dense_product():
    # one entry of one differential is corrupted; the check must raise
    # exactly when the dense product of some consecutive pair is nonzero.
    # Each column lists one signed entry per vertex of its clique, in the
    # vertex order, each with its own weight index and sign parity 0.
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
        for k, d in enumerate(diffs, 1):
            rows = basis(complex_, k - 1)
            degree = []
            for c, x in enumerate(basis(complex_, k)):
                column = []
                for pos in range(len(x)):
                    r = rows.index(x[:pos] + x[pos + 1:])
                    column.append((r, len(weights), 0))
                    weights.append((d[r][c], -d[r][c]))
                degree.append(column)
            columns.append(degree)
        matrices = [dense_matrix(complex_.field, len(d), len(basis(complex_, k + 1)), d)
                    for k, d in enumerate(diffs)]
        expected = any(not matrix_is_zero(matrix_product(a, b))
                       for a, b in zip(matrices, matrices[1:]))
        if expected:
            fired += 1
            with pytest.raises(RuntimeError, match=r"differential composite D_\d D_\d is nonzero"):
                _check_composites(weights, columns)
        else:
            _check_composites(weights, columns)
    assert fired >= 20


def test_composite_check_reads_the_rows_and_signs_of_each_path_pair():
    # the check pairs the two paths of an entry; it must see a path that
    # reaches another row, and a path whose sign is flipped
    from artinsigma.salvetti import _check_composites

    g, chi = product_of_dihedrals(4, 6)
    for p in (0, 2, 3):
        complex_ = build_salvetti_complex(g, chi, p, max_n=3)
        field = complex_.field
        weights, columns = [], [[]]
        one = LaurentPoly.one(field)
        for k in range(1, 4):
            rows = basis(complex_, k - 1)
            degree = []
            for x in basis(complex_, k):
                degree.append([(rows.index(x[:pos] + x[pos + 1:]), 0, pos % 2)
                               for pos in range(len(x))])
            columns.append(degree)
        weights.append((one, -one))
        _check_composites(weights, columns)   # the integer boundaries compose to 0
        flipped = [list(col) for col in columns[2]]
        row, w, odd = flipped[0][0]
        flipped[0][0] = (row, w, 1 - odd)
        if p != 2:   # over F_2 a sign is no change
            with pytest.raises(RuntimeError, match=r"differential composite D_1 D_2 is nonzero"):
                _check_composites(weights, [columns[0], columns[1], flipped, columns[3]])
        moved = [list(col) for col in columns[3]]
        row, w, odd = moved[0][0]
        moved[0][0] = ((row + 1) % len(columns[2]), w, odd)
        with pytest.raises(RuntimeError, match=r"differential composite D_2 D_3 is nonzero"):
            _check_composites(weights, [*columns[:3], moved])


def test_basis_is_cliques_by_size(d4d6):
    g, chi = d4d6
    complex_ = build_salvetti_complex(g, chi, 0, max_n=4)
    assert basis(complex_, 0) == ((),)
    assert [len(basis(complex_, n)) for n in range(5)] == [1, 4, 6, 4, 1]


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
    for (g, chi), n, rank in ((dihedral(2), 1, 1), (d4d6, 2, 0), (d4d4, 2, 1)):
        formula = Analysis(g, chi).free_ranks(2, n)[n]
        twisted = build_salvetti_complex(g, chi, 2, max_n=n + 1)
        assert formula == rank == homology_module(twisted, n).free_rank
        cross_check(g, chi, n, twisted, formula)


def test_cross_check_error_reporting(d4d4):
    g, chi = d4d4
    twisted = build_salvetti_complex(g, chi, 2, max_n=3)
    with pytest.raises(CrossCheckError,
                       match=r"link formula gives 99, chain complex gives 1 on \[.*; p=2; n=2\]"):
        cross_check(g, chi, 2, twisted, 99)


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
    dump = complex_to_dict(complex_)
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
            assert _max_weight_span(exponents(g, chi), _half_labels(g, max_n), max_n) \
                == max(spans, default=0)


def test_build_refuses_spans_above_the_budget():
    g = EvenGraph(["v", "w"], [("v", "w", 4)])
    chi = Character({"v": 1, "w": 100000})
    assert _max_weight_span(exponents(g, chi), _half_labels(g, 1), 1) == 100000
    assert _max_weight_span(exponents(g, chi), _half_labels(g, 2), 2) == 200001 > MAX_ORACLE_SPAN
    build_salvetti_complex(g, Character({"v": 1, "w": 1023}), 2)   # span 2047
    with pytest.raises(OracleTooLarge, match="span 200001, above the budget of 2048"):
        build_salvetti_complex(g, chi, 2)
    with pytest.raises(OracleTooLarge):
        build_salvetti_complex(g, chi, 2, max_n=2)


def test_rank_alone_agrees_with_the_smith_form():
    # rank(n) reads only the length of the Smith diagonal, and snf(n) and
    # rank(n) run on D' = D / (t - 1); the full Smith form of a fresh copy of
    # each unreduced differential must count the same rank and give the
    # same invariant factors
    rng = random.Random(48)
    for p in (0, 2, 3, 5):
        for _ in range(12):
            g = random_even_fc_graph(rng, max_vertices=7)
            chi = random_character(rng, g, lo=-3, hi=3)
            complex_ = build_salvetti_complex(g, chi, p, max_n=4)
            for n in range(complex_.max_degree + 1):
                d = complex_.differential(n)
                fresh = smith_normal_form(dense_matrix(d.field, d.nrows, d.ncols, d.entries))
                assert complex_.rank(n) == len(fresh[0]) == smith_normal_form(d)[1], (p, n)
                assert complex_.snf(n) == fresh, (p, n)


def test_untraced_oracle_command_chains_one_matrix_and_builds_no_grid(monkeypatch, tmp_path):
    # homology --oracle reads D_n for its rank and D_{n+1} for its torsion:
    # one divisibility chain, and no dense grid anywhere
    import io
    import json

    from artinsigma import character_to_dict, graph_to_dict, laurent
    from artinsigma.cli import run

    rng = random.Random(49)
    g = random_even_fc_graph(rng, max_vertices=1)
    while len(g.vertices) < 10:
        g = random_even_fc_graph(rng, max_vertices=11, edge_p=0.6)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"graph": graph_to_dict(g),
                                **character_to_dict(random_character(rng, g))}))

    chained = []
    honest = laurent._divisibility_chain

    def counting_chain(diagonal, size, gcd_, divmod_):
        chained.append(len(diagonal))
        return honest(diagonal, size, gcd_, divmod_)

    def no_grid(self):
        raise AssertionError("a dense grid was built")

    monkeypatch.setattr(laurent, "_divisibility_chain", counting_chain)
    monkeypatch.setattr(LaurentMatrix, "entries", property(no_grid))
    code, report = run(["homology", "--p", "2", "--n", "3", "--oracle", str(path)],
                       out=io.StringIO())
    assert code == 0 and report["results"]["cross_check"] == {"ok": True}
    assert len(chained) == 1 and chained[0] > 0
