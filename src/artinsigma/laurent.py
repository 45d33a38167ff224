"""Exact Laurent polynomials over Q or F_p, and Smith normal form.

The ring F[t, t^-1] is Euclidean once units t^k are factored out: measure a
nonzero element by the exponent span of its support.  Division with
remainder shifts both operands to honest polynomials, divides there, and
shifts back, so remainders have strictly smaller span.

The field is named by its characteristic ``p``, as everywhere in the
library: 0 for Q, a prime p for F_p.  The public constructor checks p and
coerces each coefficient; arithmetic builds its results through
:func:`_of_elements`, which takes p as already checked and reduces mod p
once, when it stores a result.

Over Q and F_p for odd p a polynomial is a lowest exponent and a tuple of
coefficients: ints and Fractions over Q, ints in [0, p) over F_p.  Over F_2
it is a lowest exponent and an int whose bit i is the coefficient of
t^(offset + i), as in Brent, Gaudry, Thome and Zimmermann (*Faster
multiplication in GF(2)[x]*, ANTS 2008): addition is an aligned XOR,
multiplication shifts and XORs, and division is long division on the bits.
p picks the representation whenever a polynomial is built; both behave
alike, down to ``coeffs``, ``==`` and ``repr``.

Matrices are built from sparse rows only.  The Smith normal form is the
sparse elimination and the divisibility chain that the integer Smith form
also uses (:func:`artinsigma.homology._smith_diagonal` and
:func:`artinsigma.homology._divisibility_chain`), with the number of stored
coefficients as the Euclidean size; each matrix keeps the diagonal it
leaves, whose length is the rank.  Invariant factors are canonicalized to
lowest exponent 0 with leading coefficient 1.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable

from .homology import _divisibility_chain, _require_field, _smith_diagonal


def _coerce(p: int, x):
    """The element of the field of characteristic p that the int or Fraction
    ``x`` names; a/b in F_p is a * b^-1, and ValueError is raised when p
    divides b."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"a field element is an int or a Fraction, not {type(x).__name__}")
    if p == 0:
        return Fraction(x)
    if isinstance(x, int):
        return x % p
    if not x.denominator % p:
        raise ValueError(f"{x} has no value in F{p}: its denominator is divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def _inverse(p: int, a):
    """a^-1 for a nonzero element a of the field of characteristic p."""
    return Fraction(1, a) if p == 0 else pow(a, -1, p)


class LaurentPoly:
    """Normalized Laurent polynomial: lowest exponent + dense coefficients.

    ``LaurentPoly(p, offset, coeffs)`` is the sum of coeffs[i] t^(offset + i)
    over the field of characteristic p, each coefficient an int or a
    Fraction.  The first and last stored coefficients are nonzero; the zero
    polynomial is the empty coefficient tuple at offset 0.  Units are
    exactly the single-term elements c * t^k.  ``size``, the number of
    stored coefficients, is the Euclidean size: 0 for zero, 1 for units.
    Over F_2 the constructor returns the packed form, :class:`_F2Poly`.
    """

    __slots__ = ("p", "offset", "coeffs", "size")

    def __new__(cls, p: int, offset: int, coeffs: Iterable):
        _require_field(p)
        return _of_elements(p, offset, [_coerce(p, c) for c in coeffs])

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which picks the form
        return LaurentPoly, (self.p, self.offset, self.coeffs)

    @classmethod
    def zero(cls, p: int) -> "LaurentPoly":
        return cls(p, 0, [])

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.size

    def is_unit(self) -> bool:
        return self.size == 1

    @property
    def span(self) -> int:
        """Top exponent minus bottom exponent (0 for units)."""
        return self.size - 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        cs = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            cs[self.offset - lo + i] = c
        for i, c in enumerate(other.coeffs):
            cs[other.offset - lo + i] += c
        return _of_elements(self.p, lo, cs)

    def __neg__(self) -> "LaurentPoly":
        return _of_elements(self.p, self.offset, [-c for c in self.coeffs])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero() or other.is_zero():
            return _of_elements(self.p, 0, [])
        cs = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    cs[i + j] += a * b
        return _of_elements(self.p, self.offset + other.offset, cs)

    def _divmod(self, b: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """:func:`laurent_divmod` for nonzero operands."""
        p = self.p
        if b.is_unit():
            # b = c t^k divides everything: the quotient is a * c^-1 t^-k
            inv = _inverse(p, b.coeffs[0])
            quot = _of_elements(p, self.offset - b.offset, [c * inv for c in self.coeffs])
            return quot, _of_elements(p, 0, [])
        # shift both to offset 0 and run ordinary polynomial division; the
        # remainder's coefficients are reduced mod p only when it is stored
        rem = list(self.coeffs)
        div = b.coeffs
        if len(rem) < len(div):
            return _of_elements(p, 0, []), self
        q = [0] * (len(rem) - len(div) + 1)
        lead_inv = _inverse(p, div[-1])
        for i in range(len(rem) - len(div), -1, -1):
            c = rem[i + len(div) - 1] * lead_inv
            if p:
                c %= p
            if not c:
                continue
            q[i] = c
            for j, d in enumerate(div):
                rem[i + j] -= c * d
        quot = _of_elements(p, self.offset - b.offset, q)
        remainder = _of_elements(p, self.offset, rem)
        return quot, remainder

    def monic_offset0(self) -> "LaurentPoly":
        """Canonical associate: lowest exponent 0, top coefficient 1."""
        if self.is_zero():
            return self
        lead_inv = _inverse(self.p, self.coeffs[-1])
        return _of_elements(self.p, 0, [c * lead_inv for c in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.p == other.p and self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.offset, self.coeffs))

    def to_dict(self) -> dict:
        """Wire format: {"offset": k, "coeffs": [...]}, rationals as strings."""
        if self.p == 0:
            return {"offset": self.offset, "coeffs": [str(c) for c in self.coeffs]}
        return {"offset": self.offset, "coeffs": list(self.coeffs)}

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
            elif c == 1:
                parts.append("t" if k == 1 else f"t^{k}")
            else:
                parts.append(f"{c}*t" if k == 1 else f"{c}*t^{k}")
        return " + ".join(parts)


class _F2Poly(LaurentPoly):
    """A Laurent polynomial over F_2 packed into an int: bit i of ``bits`` is
    the coefficient of t^(offset + i).  Bit 0 is set unless the polynomial
    is zero (bits 0 at offset 0), so units are bits == 1 and ``size`` is
    the bit length.  ``coeffs`` is derived on each read."""

    __slots__ = ("bits",)

    @property
    def coeffs(self) -> tuple[int, ...]:
        bits = self.bits
        return tuple([bits >> i & 1 for i in range(bits.bit_length())])

    def __add__(self, other: "_F2Poly") -> "_F2Poly":
        if not self.bits:
            return other
        if not other.bits:
            return self
        shift = other.offset - self.offset
        if shift > 0:
            return _f2(self.offset, self.bits ^ (other.bits << shift))
        if shift < 0:
            return _f2(other.offset, other.bits ^ (self.bits << -shift))
        return _f2(self.offset, self.bits ^ other.bits)

    def __neg__(self) -> "_F2Poly":
        return self

    def __mul__(self, other: "_F2Poly") -> "_F2Poly":
        a, b = self.bits, other.bits
        if a < 2 or b < 2:     # zero or a unit
            return _f2(self.offset + other.offset, a * b)
        if a.bit_count() > b.bit_count():
            a, b = b, a
        product = 0
        while a:    # one shifted copy of b per set bit of the sparser factor
            low = a & -a
            product ^= b << (low.bit_length() - 1)
            a ^= low
        return _f2(self.offset + other.offset, product)

    def _divmod(self, b: "_F2Poly") -> tuple["_F2Poly", "_F2Poly"]:
        rem, div = self.bits, b.bits
        if div == 1:
            return _f2(self.offset - b.offset, rem), _ZERO2
        width = div.bit_length()
        shift = rem.bit_length() - width
        if shift < 0:
            return _ZERO2, self
        quot = 0
        while shift >= 0:   # cancel the top bit of the remainder
            quot |= 1 << shift
            rem ^= div << shift
            shift = rem.bit_length() - width
        return _f2(self.offset - b.offset, quot), _f2(self.offset, rem)

    def monic_offset0(self) -> "_F2Poly":
        return _f2(0, self.bits) if self.offset else self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return isinstance(other, _F2Poly) and self.offset == other.offset \
            and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((2, self.offset, self.bits))


def _of_elements(p: int, offset: int, cs: list) -> LaurentPoly:
    """The polynomial sum of cs[i] t^(offset + i) over the field of the
    checked characteristic p: the constructor of the library's own
    polynomials.  ``cs`` holds ints, or over Q ints and Fractions; they are
    reduced mod p here, and over F_2 packed by :func:`_f2`."""
    if p == 2:
        return _f2(offset, sum([1 << i for i, c in enumerate(cs) if c % 2]))
    if p:
        cs = [c % p for c in cs]
    lo, hi = 0, len(cs)
    while lo < hi and not cs[lo]:
        lo += 1
    while hi > lo and not cs[hi - 1]:
        hi -= 1
    poly = object.__new__(LaurentPoly)
    poly.p = p
    poly.offset = offset + lo if lo < hi else 0
    poly.coeffs = tuple(cs[lo:hi])
    poly.size = hi - lo
    return poly


def _f2(offset: int, bits: int) -> _F2Poly:
    """The packed polynomial t^offset * bits over F_2, with trailing zero bits
    moved into the offset; every zero is the one :data:`_ZERO2`."""
    if not bits & 1:
        if not bits:
            return _ZERO2
        low = (bits & -bits).bit_length() - 1
        bits >>= low
        offset += low
    poly = object.__new__(_F2Poly)
    poly.p = 2
    poly.offset = offset
    poly.bits = bits
    poly.size = bits.bit_length()
    return poly


_ZERO2 = object.__new__(_F2Poly)     # the zero of F_2[t, t^-1]
_ZERO2.p, _ZERO2.offset, _ZERO2.bits, _ZERO2.size = 2, 0, 0, 0


def laurent_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """a = q*b + r with r zero or span(r) < span(b)."""
    if not b.size:
        raise ZeroDivisionError("Laurent division by zero")
    if not a.size:
        return a, a
    return a._divmod(b)


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Canonical greatest common divisor (monic, lowest exponent 0)."""
    while not b.is_zero():
        _, r = laurent_divmod(a, b)
        a, b = b, r
    return a.monic_offset0()


class LaurentMatrix:
    """Matrix over F[t, t^-1], F of characteristic ``p``, stored as sparse
    rows; immutable by convention.

    ``rows`` maps row indices to their nonzero entries by column; rows left
    out, or empty, are zero.  The matrix keeps it.  The dense grid
    ``entries`` is derived on each read.  The diagonal of the Smith form
    elimination is computed once, when first asked for.
    """

    def __init__(self, p: int, nrows: int, ncols: int,
                 rows: dict[int, dict[int, LaurentPoly]]):
        self.p = p
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows
        self._diag: list[LaurentPoly] | None = None

    @property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The dense grid, zeros included."""
        zero = LaurentPoly.zero(self.p)
        grid = [[zero] * self.ncols for _ in range(self.nrows)]
        for i, row in self._rows.items():
            for j, e in row.items():
                grid[i][j] = e
        return tuple([tuple(row) for row in grid])

    def _diagonal(self) -> list[LaurentPoly]:
        """The nonzero diagonal that :func:`artinsigma.homology._smith_diagonal`
        leaves, with the coefficient count as size; its length is the rank."""
        if self._diag is None:
            rows = {i: dict(row) for i, row in self._rows.items() if row}
            self._diag = _smith_diagonal(rows, _size, laurent_divmod)
        return self._diag


_size = attrgetter("size")


def smith_normal_form(matrix: LaurentMatrix) -> tuple[tuple[LaurentPoly, ...], int]:
    """Invariant factors d_1 | d_2 | ... and the rank of a Laurent matrix:
    the matrix's Smith diagonal, made canonical, turned into the chain by
    :func:`artinsigma.homology._divisibility_chain`, which the integer Smith
    form shares.

    Factors are canonical associates (lowest exponent 0, leading coefficient
    1); the rank is their count.  Unit factors are reported as 1.
    """
    diagonal = matrix._diagonal()
    chain = _divisibility_chain([d.monic_offset0() for d in diagonal if d.size > 1],
                                _size, laurent_gcd, laurent_divmod)
    units = [_of_elements(matrix.p, 0, [1])] * (len(diagonal) - len(chain))
    return tuple(units + chain), len(diagonal)
