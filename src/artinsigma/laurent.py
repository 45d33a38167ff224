"""Exact Laurent polynomials over Q or F_p, and Smith normal form.

The ring F[t, t^-1] is Euclidean once units t^k are factored out: measure a
nonzero element by the exponent span of its support.  Division with
remainder shifts both operands to honest polynomials, divides there, and
shifts back, so remainders have strictly smaller span.

Over Q and F_p for odd p a polynomial is a lowest exponent and a tuple of
coefficients.  Over F_2 it is a lowest exponent and an int whose bit i is
the coefficient of t^(offset + i), as in Brent, Gaudry, Thome and
Zimmermann (*Faster multiplication in GF(2)[x]*, ANTS 2008): addition is an
aligned XOR, multiplication shifts and XORs, and division is long division
on the bits.  The field picks the representation when a polynomial is
constructed; both behave alike, down to ``coeffs``, ``==`` and ``repr``.

Matrices are built from sparse rows only.  The Smith normal form is the
sparse elimination and the divisibility chain that the integer Smith form
also uses (:func:`artinsigma.homology._smith_diagonal` and
:func:`artinsigma.homology._divisibility_chain`), with the number of stored
coefficients as the Euclidean size; each matrix keeps the diagonal it
leaves, whose length is the rank.  Invariant factors are canonicalized to
lowest exponent 0 with leading coefficient 1.

Coefficients are exact: Fraction for characteristic 0, integers mod p for a
prime p.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable

from .homology import _divisibility_chain, _require_field, _smith_diagonal, coeffs_label


class Field:
    """Coefficient field of characteristic ``char``: Q for 0, F_p for a prime p."""

    def __init__(self, char: int):
        _require_field(char)
        self.char = char

    def coerce(self, x):
        """The element of this field that the int or Fraction ``x`` names;
        a/b in F_p is a * b^-1, and ValueError is raised when p divides b."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"a field element is an int or a Fraction, not {type(x).__name__}")
        if self.char == 0:
            return Fraction(x)
        if isinstance(x, int):
            return x % self.char
        if not x.denominator % self.char:
            raise ValueError(f"{x} has no value in {self!r}: its denominator is divisible "
                             f"by {self.char}")
        return x.numerator * pow(x.denominator, -1, self.char) % self.char

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
        return coeffs_label(self.char)


class LaurentPoly:
    """Normalized Laurent polynomial: lowest exponent + dense coefficients.

    The first and last stored coefficients are nonzero; the zero polynomial
    is the empty coefficient tuple at offset 0.  Units are exactly the
    single-term elements c * t^k.  ``size``, the number of stored
    coefficients, is the Euclidean size: 0 for zero, 1 for units.  Over F_2
    the constructor returns the packed form, :class:`_F2Poly`.
    """

    __slots__ = ("field", "offset", "coeffs", "size")

    def __new__(cls, field: Field, offset: int, coeffs: Iterable):
        # the one place where the characteristic picks the representation
        if field.char == 2:
            return _f2(field, offset, sum([1 << i for i, c in enumerate(coeffs)
                                           if field.coerce(c)]))
        return object.__new__(cls)

    def __init__(self, field: Field, offset: int, coeffs: Iterable):
        self._store(field, offset, [field.coerce(c) for c in coeffs])

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which picks the form
        return LaurentPoly, (self.field, self.offset, self.coeffs)

    @classmethod
    def _of_elements(cls, field: Field, offset: int, cs: list) -> "LaurentPoly":
        """The constructor for coefficients that are already field elements."""
        p = object.__new__(cls)
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
        self.size = len(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "LaurentPoly":
        return cls(field, 0, [])

    @classmethod
    def one(cls, field: Field) -> "LaurentPoly":
        return cls(field, 0, [1])

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

    def _divmod(self, b: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """:func:`laurent_divmod` for nonzero operands."""
        f = self.field
        if b.is_unit():
            # b = c t^k divides everything: the quotient is a * c^-1 t^-k
            inv = f.inv(b.coeffs[0])
            quot = LaurentPoly._of_elements(f, self.offset - b.offset,
                                            [f.mul(c, inv) for c in self.coeffs])
            return quot, LaurentPoly.zero(f)
        # shift both to offset 0 and run ordinary polynomial division
        rem = list(self.coeffs)
        div = b.coeffs
        if len(rem) < len(div):
            return LaurentPoly.zero(f), self
        q = [f.zero] * (len(rem) - len(div) + 1)
        lead_inv = f.inv(div[-1])
        for i in range(len(rem) - len(div), -1, -1):
            c = f.mul(rem[i + len(div) - 1], lead_inv)
            if not c:
                continue
            q[i] = c
            for j, d in enumerate(div):
                rem[i + j] = f.sub(rem[i + j], f.mul(c, d))
        quot = LaurentPoly._of_elements(f, self.offset - b.offset, q)
        remainder = LaurentPoly._of_elements(f, self.offset, rem)
        return quot, remainder

    def monic_offset0(self) -> "LaurentPoly":
        """Canonical associate: lowest exponent 0, top coefficient 1."""
        if self.is_zero():
            return self
        lead_inv = self.field.inv(self.coeffs[-1])
        return LaurentPoly._of_elements(self.field, 0,
                                        [self.field.mul(c, lead_inv) for c in self.coeffs])

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


class _F2Poly(LaurentPoly):
    """A Laurent polynomial over F_2 packed into an int: bit i of ``bits`` is
    the coefficient of t^(offset + i).  Bit 0 is set unless the polynomial
    is zero (bits 0 at offset 0), so units are bits == 1 and ``size`` is
    the bit length.  ``coeffs`` is derived on each read."""

    __slots__ = ("bits",)

    def __init__(self, *args):    # built whole by LaurentPoly.__new__
        pass

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
            return _f2(self.field, self.offset, self.bits ^ (other.bits << shift))
        if shift < 0:
            return _f2(self.field, other.offset, other.bits ^ (self.bits << -shift))
        return _f2(self.field, self.offset, self.bits ^ other.bits)

    def __neg__(self) -> "_F2Poly":
        return self

    def __mul__(self, other: "_F2Poly") -> "_F2Poly":
        a, b = self.bits, other.bits
        if a < 2 or b < 2:     # zero or a unit
            return _f2(self.field, self.offset + other.offset, a * b)
        if a.bit_count() > b.bit_count():
            a, b = b, a
        product = 0
        while a:    # one shifted copy of b per set bit of the sparser factor
            low = a & -a
            product ^= b << (low.bit_length() - 1)
            a ^= low
        return _f2(self.field, self.offset + other.offset, product)

    def _divmod(self, b: "_F2Poly") -> tuple["_F2Poly", "_F2Poly"]:
        rem, div = self.bits, b.bits
        if div == 1:
            return _f2(self.field, self.offset - b.offset, rem), _ZERO2
        width = div.bit_length()
        shift = rem.bit_length() - width
        if shift < 0:
            return _ZERO2, self
        quot = 0
        while shift >= 0:   # cancel the top bit of the remainder
            quot |= 1 << shift
            rem ^= div << shift
            shift = rem.bit_length() - width
        return _f2(self.field, self.offset - b.offset, quot), _f2(self.field, self.offset, rem)

    def monic_offset0(self) -> "_F2Poly":
        return _f2(self.field, 0, self.bits) if self.offset else self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return isinstance(other, _F2Poly) and self.offset == other.offset \
            and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.field, self.offset, self.bits))


def _f2(field: Field, offset: int, bits: int) -> _F2Poly:
    """The packed polynomial t^offset * bits, with trailing zero bits moved
    into the offset; every zero is the one :data:`_ZERO2`."""
    if not bits & 1:
        if not bits:
            return _ZERO2
        low = (bits & -bits).bit_length() - 1
        bits >>= low
        offset += low
    p = object.__new__(_F2Poly)
    p.field = field
    p.offset = offset
    p.bits = bits
    p.size = bits.bit_length()
    return p


_ZERO2 = object.__new__(_F2Poly)     # the zero of F_2[t, t^-1]
_ZERO2.field, _ZERO2.offset, _ZERO2.bits, _ZERO2.size = Field(2), 0, 0, 0


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
    """Matrix over F[t, t^-1], stored as sparse rows; immutable by convention.

    ``rows`` maps row indices to their nonzero entries by column; rows left
    out, or empty, are zero.  The matrix keeps it.  The dense grid
    ``entries`` is derived on each read.  The diagonal of the Smith form
    elimination is computed once, when first asked for.
    """

    def __init__(self, field: Field, nrows: int, ncols: int,
                 rows: dict[int, dict[int, LaurentPoly]]):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows
        self._diag: list[LaurentPoly] | None = None

    @property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The dense grid, zeros included."""
        zero = LaurentPoly.zero(self.field)
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
    units = [LaurentPoly.one(matrix.field)] * (len(diagonal) - len(chain))
    return tuple(units + chain), len(diagonal)
