import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsigma import (Field, LaurentMatrix, LaurentPoly, laurent_divmod, laurent_gcd,
                        q_poly, smith_normal_form, t_power_minus_one)

from genutil import matrix_entry, matrix_product, permuted, poly_shifted, poly_term

F0 = Field(0)
F2 = Field(2)
F3 = Field(3)
FIELDS = (F0, F2, F3, Field(5))


def rand_poly(rng: random.Random, field: Field, max_span: int = 4) -> LaurentPoly:
    span = rng.randint(0, max_span)
    offset = rng.randint(-3, 3)
    coeffs = [rng.randint(-4, 4) for _ in range(span + 1)]
    return LaurentPoly(field, offset, coeffs)


# --- construction and normalization ------------------------------------------

def test_normalization_strips_zero_ends():
    p = LaurentPoly(F0, -2, [0, 1, 2, 0, 0])
    assert p.offset == -1 and p.coeffs == (Fraction(1), Fraction(2))
    z = LaurentPoly(F0, 5, [0, 0])
    assert z.is_zero() and z.offset == 0 and z.coeffs == ()


def test_units_are_single_terms():
    assert poly_term(F0, 3, -2).is_unit()
    assert not t_power_minus_one(F0, 1).is_unit()
    assert not LaurentPoly.zero(F0).is_unit()


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(-1)


# --- q polynomials -------------------------------------------------------------

def test_q_poly_base_cases():
    assert q_poly(1, 5, F0) == LaurentPoly.one(F0)
    assert q_poly(3, 0, F0) == LaurentPoly.constant(F0, 3)
    assert q_poly(3, 0, F3).is_zero()
    assert q_poly(2, -1, F0) == LaurentPoly.from_terms(F0, {0: 1, -1: 1})
    with pytest.raises(ValueError):
        q_poly(0, 1, F0)


def test_q_poly_geometric_identity():
    # (x^k - 1) = q_k(x) * (x - 1) at x = t^m, for every field
    for field in FIELDS:
        for k in range(1, 7):
            for m in range(-4, 5):
                lhs = t_power_minus_one(field, k * m)
                rhs = q_poly(k, m, field) * t_power_minus_one(field, m)
                assert lhs == rhs, (field, k, m)


# --- ring laws (hypothesis) ----------------------------------------------------

coeff_lists = st.lists(st.integers(-5, 5), min_size=0, max_size=5)
offsets = st.integers(-4, 4)
chars = st.sampled_from([0, 2, 3, 5])


@st.composite
def polys(draw):
    field = Field(draw(chars))
    return LaurentPoly(field, draw(offsets), draw(coeff_lists)), field


@settings(max_examples=60, deadline=None)
@given(polys(), coeff_lists, offsets)
def test_ring_laws(pf, cs, off):
    a, field = pf
    b = LaurentPoly(field, off, cs)
    c = LaurentPoly(field, -off, list(reversed(cs)))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == LaurentPoly.zero(field)
    assert a * LaurentPoly.one(field) == a
    if not a.is_zero():
        assert a.coeffs[0] != field.zero and a.coeffs[-1] != field.zero


@settings(max_examples=60, deadline=None)
@given(polys(), coeff_lists, offsets)
def test_divmod_contract(pf, cs, off):
    a, field = pf
    b = LaurentPoly(field, off, cs)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            laurent_divmod(a, b)
        return
    q, r = laurent_divmod(a, b)
    assert a == q * b + r
    assert r.is_zero() or r.span < b.span


def test_gcd_power_identity():
    # gcd(t^a - 1, t^b - 1) is t^gcd(a, b) - 1 up to the canonical associate
    import math

    for field in FIELDS:
        for a in range(1, 7):
            for b in range(1, 7):
                g = laurent_gcd(t_power_minus_one(field, a), t_power_minus_one(field, b))
                expected = t_power_minus_one(field, math.gcd(a, b)).monic_offset0()
                assert g == expected, (field, a, b)


def test_monic_offset0_canonical():
    p = LaurentPoly(F0, -3, [2, 0, 4])
    canon = p.monic_offset0()
    assert canon.offset == 0 and canon.coeffs == (Fraction(1, 2), Fraction(0), Fraction(1))


def test_evaluate():
    p = LaurentPoly.from_terms(F0, {-1: 1, 2: 3})
    x = Fraction(2)
    assert p.evaluate(x) == Fraction(1, 2) + 3 * 4
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0)


# --- Smith normal form -----------------------------------------------------------

def mat(field, rows):
    return LaurentMatrix(field, len(rows), len(rows[0]) if rows else 0, rows)


def test_snf_single_entry():
    m = mat(F0, [[t_power_minus_one(F0, 1)]])
    factors, rank = smith_normal_form(m)
    assert rank == 1
    assert factors == (t_power_minus_one(F0, 1).monic_offset0(),)


def test_snf_zero_matrix():
    factors, rank = smith_normal_form(LaurentMatrix.zeros(F0, 3, 2))
    assert factors == () and rank == 0


def test_snf_two_by_two_against_gcd_determinant():
    # [[t-1, t^2-1], [0, t+1]]: d1 = gcd of the entries, d1*d2 = det up to units
    t1 = t_power_minus_one(F0, 1)
    t2 = t_power_minus_one(F0, 2)
    tp1 = LaurentPoly.from_terms(F0, {0: 1, 1: 1})
    m = mat(F0, [[t1, t2], [LaurentPoly.zero(F0), tp1]])
    factors, rank = smith_normal_form(m)
    assert rank == 2
    d1 = laurent_gcd(laurent_gcd(t1, t2), tp1)
    det = t1 * tp1
    assert factors[0] == d1 == LaurentPoly.one(F0)
    assert (factors[0] * factors[1]) == det.monic_offset0() == t2.monic_offset0()


def laurent_det(m: LaurentMatrix) -> LaurentPoly:
    n = m.nrows
    if n == 0:
        return LaurentPoly.one(m.field)
    if n == 1:
        return matrix_entry(m, 0, 0)
    total = LaurentPoly.zero(m.field)
    for j in range(n):
        sub = LaurentMatrix(m.field, n - 1, n - 1,
                            [[matrix_entry(m, i, k) for k in range(n) if k != j]
                             for i in range(1, n)])
        term = matrix_entry(m, 0, j) * laurent_det(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


def minor_gcd(m: LaurentMatrix, k: int) -> LaurentPoly:
    """gcd of all k x k minors: the k-th determinantal divisor."""
    acc = LaurentPoly.zero(m.field)
    for rows in combinations(range(m.nrows), k):
        for cols in combinations(range(m.ncols), k):
            sub = LaurentMatrix(m.field, k, k,
                                [[matrix_entry(m, i, j) for j in cols] for i in rows])
            acc = laurent_gcd(acc, laurent_det(sub))
    return acc


def test_snf_matches_determinantal_divisors():
    rng = random.Random(31)
    for _ in range(20):
        field = Field(rng.choice([0, 2, 3]))
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        m = LaurentMatrix(field, nr, nc,
                          [[rand_poly(rng, field, max_span=2) for _ in range(nc)]
                           for _ in range(nr)])
        factors, rank = smith_normal_form(m)
        assert all(laurent_divmod(b, a)[1].is_zero() for a, b in zip(factors, factors[1:]))
        prod = LaurentPoly.one(field)
        for k, f in enumerate(factors, start=1):
            prod = prod * f
            assert prod.monic_offset0() == minor_gcd(m, k), (m.to_dict(), k)
        if rank < min(nr, nc):
            assert minor_gcd(m, rank + 1).is_zero()


def factored_poly(rng: random.Random, field: Field) -> LaurentPoly:
    """A unit times up to three factors t^m - 1 and q_k(t^m)."""
    p = poly_term(field, rng.choice([1, 2, -1]) if field.char != 2 else 1, rng.randint(-2, 2))
    for _ in range(rng.randint(0, 3)):
        m = rng.choice([-3, -2, -1, 1, 2, 3])
        if rng.random() < 0.5:
            p = p * t_power_minus_one(field, m)
        else:
            p = p * q_poly(rng.randint(2, 3), m, field)
    return p


def sparse_diagonal_heavy(rng: random.Random, field: Field) -> LaurentMatrix:
    """At most half the entries nonzero, the diagonal filled first."""
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    budget = rng.randint(1, nr * nc // 2 or 1)
    diagonal = [(k, k) for k in range(min(nr, nc))]
    others = [(i, j) for i in range(nr) for j in range(nc) if i != j]
    rng.shuffle(others)
    cells = (diagonal + others)[:budget]
    rows = [[LaurentPoly.zero(field)] * nc for _ in range(nr)]
    for i, j in cells:
        rows[i][j] = factored_poly(rng, field)
    return LaurentMatrix(field, nr, nc, rows)


def test_snf_matches_determinantal_divisors_on_sparse_diagonal_heavy_matrices():
    # the diagonal left by the elimination is rarely a divisibility chain
    # here, so the gcd/lcm pass does the work
    rng = random.Random(34)
    for field in (F0, F2, F3):
        for _ in range(25):
            m = sparse_diagonal_heavy(rng, field)
            zeros = sum(matrix_entry(m, i, j).is_zero()
                        for i in range(m.nrows) for j in range(m.ncols))
            assert 2 * zeros >= m.nrows * m.ncols or m.nrows * m.ncols == 1
            factors, rank = smith_normal_form(m)
            assert all(f == f.monic_offset0() for f in factors)
            assert all(laurent_divmod(b, a)[1].is_zero() for a, b in zip(factors, factors[1:]))
            prod = LaurentPoly.one(field)
            for k, f in enumerate(factors, start=1):
                prod = prod * f
                assert prod.monic_offset0() == minor_gcd(m, k), (m.to_dict(), k)
            if rank < min(m.nrows, m.ncols):
                assert minor_gcd(m, rank + 1).is_zero()


def test_snf_of_a_diagonal_is_its_divisibility_chain():
    z = LaurentPoly.zero(F0)
    m = mat(F0, [[t_power_minus_one(F0, 1), z], [z, q_poly(2, 1, F0)]])
    assert smith_normal_form(m) == ((LaurentPoly.one(F0),
                                     t_power_minus_one(F0, 2).monic_offset0()), 2)
    # over F_2, t - 1 = 1 + t, so nothing merges
    z2 = LaurentPoly.zero(F2)
    m2 = mat(F2, [[t_power_minus_one(F2, 1), z2], [z2, q_poly(2, 1, F2)]])
    assert smith_normal_form(m2) == ((t_power_minus_one(F2, 1),) * 2, 2)


def test_sparse_product_matches_entrywise_definition():
    rng = random.Random(35)
    for field in (F0, F2, F3):
        for _ in range(20):
            nr, nk, nc = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            zero_row, zero_col = rng.randrange(nr), rng.randrange(nc)

            def grid(r, c, skip_row=-1, skip_col=-1):
                return [[LaurentPoly.zero(field) if i == skip_row or j == skip_col
                         or rng.random() < 0.5 else rand_poly(rng, field, max_span=2)
                         for j in range(c)] for i in range(r)]

            a = LaurentMatrix(field, nr, nk, grid(nr, nk, skip_row=zero_row))
            b = LaurentMatrix(field, nk, nc, grid(nk, nc, skip_col=zero_col))
            prod = matrix_product(a, b)
            assert (prod.nrows, prod.ncols) == (nr, nc)
            for i in range(nr):
                for j in range(nc):
                    expected = LaurentPoly.zero(field)
                    for k in range(nk):
                        expected = expected + matrix_entry(a, i, k) * matrix_entry(b, k, j)
                    assert matrix_entry(prod, i, j) == expected
            assert all(matrix_entry(prod, zero_row, j).is_zero() for j in range(nc))
            assert all(matrix_entry(prod, i, zero_col).is_zero() for i in range(nr))
    with pytest.raises(ValueError):
        matrix_product(LaurentMatrix.zeros(F0, 2, 3), LaurentMatrix.zeros(F0, 2, 3))


def test_snf_invariant_under_permutations_and_unit_scalings():
    rng = random.Random(32)
    for _ in range(15):
        field = Field(rng.choice([0, 2, 5]))
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = LaurentMatrix(field, nr, nc,
                          [[rand_poly(rng, field, max_span=3) for _ in range(nc)]
                           for _ in range(nr)])
        base = smith_normal_form(m)
        rows = list(range(nr))
        cols = list(range(nc))
        rng.shuffle(rows)
        rng.shuffle(cols)
        assert smith_normal_form(permuted(m, rows, cols)) == base
        # multiplying a whole row by a unit t^k is an allowed basis change
        shifts = [rng.randint(-2, 2) for _ in range(nr)]
        scaled_rows = [[poly_shifted(e, k) for e in row] for k, row in zip(shifts, m.entries)]
        scaled = LaurentMatrix(field, nr, nc, scaled_rows)
        assert smith_normal_form(scaled) == base


def test_snf_rank_matches_random_evaluation_probe():
    # rank over the fraction field equals the rank of a generic evaluation;
    # several probe points guard against unlucky specializations
    rng = random.Random(33)

    def eval_rank(m: LaurentMatrix, x: Fraction) -> int:
        rows = [[e.evaluate(x) for e in row] for row in m.entries]
        rank = 0
        for j in range(m.ncols):
            piv = next((i for i in range(rank, m.nrows) if rows[i][j]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = 1 / rows[rank][j]
            rows[rank] = [v * inv for v in rows[rank]]
            for i in range(m.nrows):
                if i != rank and rows[i][j]:
                    c = rows[i][j]
                    rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    for _ in range(15):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = LaurentMatrix(F0, nr, nc,
                          [[rand_poly(rng, F0, max_span=3) for _ in range(nc)]
                           for _ in range(nr)])
        _, rank = smith_normal_form(m)
        probes = [Fraction(rng.randint(2, 50), rng.randint(1, 7)) for _ in range(4)]
        assert max(eval_rank(m, x) for x in probes) == rank


def test_matrix_serialization_round_trip():
    m = mat(F0, [[t_power_minus_one(F0, -2), LaurentPoly.constant(F0, Fraction(1, 2))]])
    d = m.to_dict()
    assert d["rows"] == 1 and d["cols"] == 2
    assert d["entries"][0][0] == {"offset": -2, "coeffs": ["1", "0", "-1"]}
    assert d["entries"][0][1] == {"offset": 0, "coeffs": ["1/2"]}
    f2 = mat(F2, [[t_power_minus_one(F2, 1)]]).to_dict()
    assert f2["entries"][0][0] == {"offset": 0, "coeffs": [1, 1]}
