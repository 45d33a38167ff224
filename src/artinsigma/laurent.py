"""Exact Laurent polynomials over Q or F_p, and Smith normal form.

The ring F[t, t^-1] is Euclidean once units t^k are factored out: measure a
nonzero element by the exponent span of its support.  Division with
remainder shifts both operands to honest polynomials, divides there, and
shifts back, so remainders have strictly smaller span.

The Smith normal form is a sparse elimination in the manner of Dumas,
Saunders and Villard (*On efficient sparse integer matrix Smith normal
forms*, J. Symb. Comput. 2001): rows store only their nonzero entries, a
minimal-span pivot clears its column and then its row, and the pivot row and
column are dropped.  No divisibility sweep runs between pivots; the diagonal
left at the end is turned into the chain d_1 | d_2 | ... by replacing pairs
(a, b) with (gcd, lcm).  Invariant factors are canonicalized to lowest
exponent 0 with leading coefficient 1.

Coefficients are exact: Fraction for characteristic 0, integers mod p for a
prime p.  No floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .homology import is_prime


class Field:
    """Coefficient field: the rationals (characteristic 0) or F_p."""

    def __init__(self, char: int = 0):
        if char != 0 and not is_prime(char):
            raise ValueError(f"field characteristic must be 0 or a prime, got {char}")
        self.char = char

    def coerce(self, x):
        if self.char == 0:
            return Fraction(x)
        return int(x) % self.char

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        return Fraction(1) / a if self.char == 0 else pow(a, -1, self.char)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    def __repr__(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"


class LaurentPoly:
    """Normalized Laurent polynomial: lowest exponent + dense coefficients.

    The first and last stored coefficients are nonzero; the zero polynomial
    is the empty coefficient tuple at offset 0.  Units are exactly the
    single-term elements c * t^k.
    """

    __slots__ = ("field", "offset", "coeffs")

    def __init__(self, field: Field, offset: int, coeffs: Iterable):
        self._store(field, offset, [field.coerce(c) for c in coeffs])

    @classmethod
    def _of_elements(cls, field: Field, offset: int, cs: list) -> "LaurentPoly":
        """The constructor for coefficients that are already field elements."""
        p = cls.__new__(cls)
        p._store(field, offset, cs)
        return p

    def _store(self, field: Field, offset: int, cs: list) -> None:
        lo = 0
        while lo < len(cs) and not cs[lo]:
            lo += 1
        hi = len(cs)
        while hi > lo and not cs[hi - 1]:
            hi -= 1
        if lo == hi:
            offset, cs = 0, []
        else:
            offset, cs = offset + lo, cs[lo:hi]
        self.field = field
        self.offset = offset
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "LaurentPoly":
        return cls(field, 0, [])

    @classmethod
    def one(cls, field: Field) -> "LaurentPoly":
        return cls(field, 0, [1])

    @classmethod
    def constant(cls, field: Field, c) -> "LaurentPoly":
        return cls(field, 0, [c])

    @classmethod
    def from_terms(cls, field: Field, terms: dict[int, object]) -> "LaurentPoly":
        if not terms:
            return cls.zero(field)
        lo, hi = min(terms), max(terms)
        cs = [terms.get(k, 0) for k in range(lo, hi + 1)]
        return cls(field, lo, cs)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    @property
    def span(self) -> int:
        """Euclidean size: top exponent minus bottom exponent (0 for units)."""
        return len(self.coeffs) - 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        f = self.field
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        cs = [f.zero] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            cs[self.offset - lo + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.offset - lo + i
            cs[j] = f.add(cs[j], c)
        return LaurentPoly._of_elements(f, lo, cs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of_elements(self.field, self.offset,
                                        [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        f = self.field
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero(f)
        cs = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    cs[i + j] = f.add(cs[i + j], f.mul(a, b))
        return LaurentPoly._of_elements(f, self.offset + other.offset, cs)

    def monic_offset0(self) -> "LaurentPoly":
        """Canonical associate: lowest exponent 0, top coefficient 1."""
        if self.is_zero():
            return self
        lead_inv = self.field.inv(self.coeffs[-1])
        return LaurentPoly._of_elements(self.field, 0,
                                        [self.field.mul(c, lead_inv) for c in self.coeffs])

    def evaluate(self, x):
        """Value at a nonzero point of the coefficient field."""
        f = self.field
        x = f.coerce(x)
        if not x:
            raise ZeroDivisionError("Laurent polynomials are evaluated at nonzero points")
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        if self.offset >= 0:
            for _ in range(self.offset):
                acc = f.mul(acc, x)
        else:
            xinv = f.inv(x)
            for _ in range(-self.offset):
                acc = f.mul(acc, xinv)
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.field == other.field and self.offset == other.offset
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.offset, self.coeffs))

    def to_dict(self) -> dict:
        """Wire format: {"offset": k, "coeffs": [...]}, rationals as strings."""
        if self.field.char == 0:
            return {"offset": self.offset, "coeffs": [str(c) for c in self.coeffs]}
        return {"offset": self.offset, "coeffs": [int(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            k = self.offset + i
            if k == 0:
                parts.append(str(c))
            elif c == self.field.one:
                parts.append("t" if k == 1 else f"t^{k}")
            else:
                parts.append(f"{c}*t" if k == 1 else f"{c}*t^{k}")
        return " + ".join(parts)


def q_poly(k: int, m: int, field: Field) -> LaurentPoly:
    """The truncated geometric sum 1 + t^m + ... + t^(m(k-1)).

    This is (x^k - 1)/(x - 1) evaluated at x = t^m; for m = 0 it degenerates
    to the constant k, which vanishes exactly in characteristic p | k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m == 0:
        return LaurentPoly.constant(field, k)
    return LaurentPoly.from_terms(field, {m * i: 1 for i in range(k)})


def t_power_minus_one(field: Field, m: int) -> LaurentPoly:
    """t^m - 1 (zero when m = 0)."""
    if m == 0:
        return LaurentPoly.zero(field)
    return LaurentPoly.from_terms(field, {m: 1, 0: -1})


def laurent_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """a = q*b + r with r zero or span(r) < span(b)."""
    if b.is_zero():
        raise ZeroDivisionError("Laurent division by zero")
    f = a.field
    if a.is_zero():
        return LaurentPoly.zero(f), a
    if b.is_unit():
        # b = c t^k divides everything: the quotient is a * c^-1 t^-k
        inv = f.inv(b.coeffs[0])
        quot = LaurentPoly._of_elements(f, a.offset - b.offset, [f.mul(c, inv) for c in a.coeffs])
        return quot, LaurentPoly.zero(f)
    # shift both to offset 0 and run ordinary polynomial division
    rem = list(a.coeffs)
    div = b.coeffs
    if len(rem) < len(div):
        return LaurentPoly.zero(f), a
    q = [f.zero] * (len(rem) - len(div) + 1)
    lead_inv = f.inv(div[-1])
    for i in range(len(rem) - len(div), -1, -1):
        c = f.mul(rem[i + len(div) - 1], lead_inv)
        if not c:
            continue
        q[i] = c
        for j, d in enumerate(div):
            rem[i + j] = f.sub(rem[i + j], f.mul(c, d))
    quot = LaurentPoly._of_elements(f, a.offset - b.offset, q)
    remainder = LaurentPoly._of_elements(f, a.offset, rem)
    return quot, remainder


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Canonical greatest common divisor (monic, lowest exponent 0)."""
    while not b.is_zero():
        _, r = laurent_divmod(a, b)
        a, b = b, r
    return a.monic_offset0()


class LaurentMatrix:
    """Dense matrix over F[t, t^-1]; immutable by convention."""

    def __init__(self, field: Field, nrows: int, ncols: int,
                 entries: Sequence[Sequence[LaurentPoly]]):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != nrows or any(len(row) != ncols for row in entries):
            raise ValueError("entry grid does not match the stated dimensions")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "LaurentMatrix":
        z = LaurentPoly.zero(field)
        return cls(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    def to_dict(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[e.to_dict() for e in row] for row in self.entries],
        }


def smith_normal_form(matrix: LaurentMatrix) -> tuple[tuple[LaurentPoly, ...], int]:
    """Invariant factors d_1 | d_2 | ... and the rank of a Laurent matrix.

    Sparse elimination in the manner of Dumas, Saunders and Villard (J. Symb.
    Comput., 2001): each row holds only its nonzero entries.  A minimal-span
    pivot clears its column by row operations, and a nonzero remainder of
    smaller span becomes the new pivot.  Once the column holds the pivot
    alone, the pivot row is cleared by column operations, which touch no
    other row; a nonzero remainder there again becomes the pivot.  The
    cleared pivot row and column are then dropped.  No divisibility sweep
    runs between pivots: the diagonal left at the end is turned into the
    divisibility chain by gcd/lcm exchanges (:func:`_divisibility_chain`).

    Factors are canonical associates (lowest exponent 0, leading coefficient
    1); the rank is their count.  Unit factors are reported as 1.
    """
    rows: dict[int, dict[int, LaurentPoly]] = {}
    cols: dict[int, set[int]] = {}
    for i, entries in enumerate(matrix.entries):
        row = {j: e for j, e in enumerate(entries) if e.coeffs}
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    diagonal: list[LaurentPoly] = []
    while rows:
        i0, j0 = _min_span_entry(rows)
        while True:
            i0 = _clear_column(rows, cols, i0, j0)
            j = _clear_row(rows[i0], cols, i0, j0)
            if j is None:
                break
            j0 = j
        row = rows.pop(i0)
        diagonal.append(row[j0])
        for j in row:
            cols[j].discard(i0)
    factors = _divisibility_chain(matrix.field, diagonal)
    return factors, len(factors)


def _min_span_entry(rows: dict[int, dict[int, LaurentPoly]]) -> tuple[int, int]:
    """Position of a nonzero entry of minimal span (the first unit found)."""
    best, best_len = None, 0
    for i, row in rows.items():
        for j, e in row.items():
            if best is None or len(e.coeffs) < best_len:
                best, best_len = (i, j), len(e.coeffs)
                if best_len == 1:
                    return best
    return best


def _clear_column(rows: dict[int, dict[int, LaurentPoly]], cols: dict[int, set[int]],
                  i0: int, j0: int) -> int:
    """Reduce column j0 to the single entry in the returned pivot row.

    Every other row loses a multiple of the pivot row; while remainders are
    left, the one of smallest span becomes the pivot and the pass repeats.
    """
    while True:
        pivot_row = rows[i0]
        pivot = pivot_row[j0]
        best = None
        for i in sorted(cols[j0]):
            if i == i0:
                continue
            row = rows[i]
            q, r = laurent_divmod(row[j0], pivot)
            if q.coeffs:
                _subtract_multiple(row, i, -q, pivot_row, j0, r, cols)
                if not row:
                    del rows[i]
            if r.coeffs and (best is None or r.span < rows[best][j0].span):
                best = i
        if best is None:
            return i0
        i0 = best


def _subtract_multiple(row: dict[int, LaurentPoly], i: int, neg_q: LaurentPoly,
                       pivot_row: dict[int, LaurentPoly], j0: int, remainder: LaurentPoly,
                       cols: dict[int, set[int]]) -> None:
    """row += neg_q * pivot_row in place, where column j0 is known to become
    ``remainder``; keeps the column index of row ``i`` in step."""
    for j, e in pivot_row.items():
        if j == j0:
            v = remainder
        else:
            cur = row.get(j)
            v = neg_q * e if cur is None else cur + neg_q * e
        if v.coeffs:
            row[j] = v
            cols[j].add(i)
        elif j in row:
            del row[j]
            cols[j].discard(i)


def _clear_row(pivot_row: dict[int, LaurentPoly], cols: dict[int, set[int]],
               i0: int, j0: int) -> int | None:
    """Clear the pivot row by column operations once column j0 holds only
    the pivot; such an operation changes the pivot row alone, leaving the
    remainder of each entry.  Returns the column of the smallest nonzero
    remainder, the next pivot, or None when every remainder is zero."""
    pivot = pivot_row[j0]
    if pivot.is_unit():
        return None
    best = None
    for j in [j for j in pivot_row if j != j0]:
        r = laurent_divmod(pivot_row[j], pivot)[1]
        if r.coeffs:
            pivot_row[j] = r
            if best is None or r.span < pivot_row[best].span:
                best = j
        else:
            del pivot_row[j]
            cols[j].discard(i0)
    return best


def _divisibility_chain(field: Field, diagonal: list[LaurentPoly]) -> tuple[LaurentPoly, ...]:
    """Invariant factors of a diagonal matrix with nonzero entries ``diagonal``.

    Units become 1 and come first.  The other entries are made canonical and
    kept as a multiset; while two distinct values a, b do not divide one
    another, min(mult a, mult b) copies of the pair are replaced by
    (gcd, lcm).  That keeps, for each irreducible factor, the multiset of
    its multiplicities, and it ends because the sum of squared spans grows.
    The values left are totally ordered by divisibility, which in increasing
    span is the chain d_1 | d_2 | ... .
    """
    mult = Counter(d.monic_offset0() for d in diagonal if not d.is_unit())
    while True:
        values = sorted(mult, key=lambda d: d.span)
        pair = next(((a, b, g) for i, a in enumerate(values) for b in values[i + 1:]
                     if (g := laurent_gcd(b, a)) != a), None)
        if pair is None:
            break
        a, b, g = pair
        k = min(mult[a], mult[b])
        for d in (a, b):
            mult[d] -= k
            if not mult[d]:
                del mult[d]
        mult[g] += k
        mult[laurent_divmod(a * b, g)[0].monic_offset0()] += k
    one = LaurentPoly.one(field)
    units = len(diagonal) - sum(mult.values())
    return (one,) * units + tuple(d for d in values for _ in range(mult[d]))
