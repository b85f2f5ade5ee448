"""Exact complex-rational arithmetic.

Every coefficient in this package is a Gaussian rational, stored as three
arbitrary-precision ints: (a + b*i) / d with d > 0 and gcd(a, b, d) == 1.
The form is canonical, so equality is a comparison of the three ints, and
each arithmetic result needs at most one gcd (none when its denominator is
1).  No floating point is used anywhere, so equality and vanishing tests are
exact.  The real and imaginary parts are read as ``Fraction`` values, and
printed from the ints by ``_rat_text``, as ``Fraction`` prints them.

The linear algebra is one path: ``rank`` and ``inverse`` by Gauss-Jordan
elimination, and the congruence of a Hermitian matrix to diagonal form,
``hermitian_reduce``, by Schur complements of the Gram matrix of the
vectors it has not yet used as pivots, with hyperbolic pairs as its 2x2
steps; ``hermitian_form`` evaluates a form at two vectors, for the
callers that need one value.
"""

from __future__ import annotations

import itertools
import re as _re
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

Rat = Union[int, Fraction]

# Most decimal digits of a number read or printed: Python's default limit on
# int-string conversion (sys.get_int_max_str_digits()).
MAX_PRINTED_DIGITS = 4300


class CRat:
    """Complex number with exact rational real and imaginary parts.

    Immutable; equal only to another CRat with the same value."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"not an exact rational: {x!r}")
        p, q = re.denominator, im.denominator
        # d = lcm(p, q); gcd(a, b, d) == 1 because both parts are in lowest
        # terms
        d = p if p == q else p // gcd(p, q) * q
        _set_a(self, re.numerator * (d // p))
        _set_b(self, im.numerator * (d // q))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"CRat is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CRat is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return CRat, (self.re, self.im)

    @staticmethod
    def of(x: "CRat | Rat") -> "CRat":
        if type(x) is CRat:
            return x
        if isinstance(x, (int, Fraction)):
            return _crat(x.numerator, 0, x.denominator)
        raise TypeError(f"not an exact rational: {x!r}")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other) -> "CRat":
        if type(other) is not CRat:
            other = CRat.of(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1,
                        self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other) -> "CRat":
        if type(other) is not CRat:
            other = CRat.of(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a - other._a, self._b - other._b, d1)
        return _reduced(self._a * d2 - other._a * d1,
                        self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other) -> "CRat":
        return CRat.of(other) - self

    def __mul__(self, other) -> "CRat":
        if type(other) is not CRat:
            other = CRat.of(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                        self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CRat":
        if type(other) is not CRat:
            other = CRat.of(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n2 = a2 * a2 + b2 * b2
        if n2 == 0:
            raise ZeroDivisionError("division by zero CRat")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        self._d * n2)

    def __rtruediv__(self, other) -> "CRat":
        return CRat.of(other) / self

    def __neg__(self) -> "CRat":
        return _crat(-self._a, -self._b, self._d)

    def __pow__(self, e: int) -> "CRat":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        a, b, d = self._a, self._b, self._d
        if not b:   # a^e and d^e are coprime, as a and d are
            return _crat(a ** e, 0, d ** e)
        # (a + b*i)^e by squaring in the Gaussian integers, over d^e
        re, im, k = 1, 0, e
        while k:
            if k & 1:
                re, im = re * a - im * b, re * b + im * a
            k >>= 1
            if k:
                a, b = a * a - b * b, 2 * a * b
        return _reduced(re, im, d ** e)

    def conj(self) -> "CRat":
        return _crat(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def bit_length(self) -> int:
        """Bits of the largest of |a|, |b| and d, for (a + b*i)/d in
        canonical form: a bound on the size of the number."""
        return max(abs(self._a), abs(self._b), self._d).bit_length()

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is not CRat:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"CRat(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _rat_text(a, d)
        if not a:
            return _rat_text(b, d) + "i"
        sign = "+" if b > 0 else "-"
        return f"{_rat_text(a, d)}{sign}{_rat_text(abs(b), d)}i"

    def part_strs(self) -> Tuple[str, str]:
        """The real and imaginary parts as ``rat_str`` prints them."""
        return _rat_text(self._a, self._d), _rat_text(self._b, self._d)


_set_a = CRat._a.__set__
_set_b = CRat._b.__set__
_set_d = CRat._d.__set__
_new = object.__new__


def _crat(a: int, b: int, d: int) -> CRat:
    """CRat of (a + b*i)/d, which must already be canonical."""
    z = _new(CRat)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> CRat:
    """CRat of (a + b*i)/d for d > 0, divided by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _crat(a, b, d)


CZERO = CRat(0)
CONE = CRat(1)
CI = CRat(0, 1)


def _eliminate(rows: Sequence[Sequence["CRat | Rat"]]
               ) -> Tuple[List[list], List[int]]:
    """Gauss-Jordan elimination without scaling the pivot rows; returns
    (rows, pivot columns).  Pivot row i holds the only nonzero entry of pivot
    column i.  Every entry is taken as a CRat."""
    m = [[CRat.of(x) for x in row] for row in rows]
    pivots: List[int] = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((i for i in range(top, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        for i in range(len(m)):
            if i != top and m[i][col]:
                f = m[i][col] / m[top][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[top])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence["CRat | Rat"]]) -> int:
    """Exact rank of a matrix of int, Fraction or CRat entries."""
    return len(_eliminate(rows)[1])


def inverse(m: Sequence[Sequence["CRat | Rat"]]) -> Optional[List[List[CRat]]]:
    """Exact inverse (CRat entries) of a square matrix of int, Fraction or
    CRat entries, or None when it is singular."""
    k = len(m)
    augmented = [list(row) + [CRat(1 if i == j else 0) for j in range(k)]
                 for i, row in enumerate(m)]
    reduced, pivots = _eliminate(augmented)
    if pivots != list(range(k)):
        return None
    scales = [CRat(1) / row[i] for i, row in enumerate(reduced)]
    return [[x * inv for x in row[k:]] for inv, row in zip(scales, reduced)]


def hermitian_form(h: Sequence[Sequence[CRat]], u: Sequence[CRat],
                   v: Sequence[CRat]) -> CRat:
    """sum_{k,l} h[k][l] u_k conj(v_l) for a square CRat matrix h."""
    if len(u) != len(h) or len(v) != len(h):
        raise ValueError("vector length != matrix size")
    v_bar = [(l, x.conj()) for l, x in enumerate(v) if not x.is_zero()]
    total = CZERO
    for row, uk in zip(h, u):
        if not uk.is_zero():  # the row against conj(v), then times u_k once
            total = total + uk * sum((row[l] * vl for l, vl in v_bar), CZERO)
    return total


def hermitian_reduce(h: Sequence[Sequence[CRat]]
                     ) -> List[Tuple[List[CRat], Fraction]]:
    """Congruence of a Hermitian CRat matrix to diagonal form: exact
    Gram-Schmidt with hyperbolic pairs (the 2x2 steps of Bunch and Parlett's
    symmetric indefinite factorization), by Schur complements of the Gram
    matrix.

    Returns basis vectors q_i with hermitian_form(h, q_i, q_j) = 0 for i != j,
    as (q_i, hermitian_form(h, q_i, q_i)) pairs, nonzero values first.  A
    non-real value (h not Hermitian) raises ValueError.

    The remaining vectors v_a start as the unit vectors, and their Gram
    matrix G[a][b] = hermitian_form(h, v_a, v_b) as h; both are updated in
    place, so no form is evaluated.  The pivot p is the first remaining
    vector of nonzero value G[p][p]; each later v_a with G[a][p] != 0 takes
    c = G[a][p] / G[p][p], v_a -= c * v_p and G[a][b] -= c * G[p][b], the
    Schur complement (the other term of the update, conj(c_b) times
    G[a][p] - c * G[p][p], is zero for any h).  When every remaining value is
    zero, the first pair a < b with G[a][b] != 0 becomes v_a += t * v_b,
    t = 1, or i when that value G[a][b] + G[b][a] is zero: row a gains t
    times row b, then column a gains conj(t) times column b."""
    dim = len(h)
    vecs = [[CONE if i == k else CZERO for k in range(dim)]
            for i in range(dim)]
    gram = [[CRat.of(x) for x in row] for row in h]
    remaining = list(range(dim))
    done: List[Tuple[List[CRat], Fraction]] = []
    while remaining:
        p = next((a for a in remaining if gram[a][a]), None)
        if p is None:
            pair = next(((a, b) for a, b in itertools.combinations(
                remaining, 2) if gram[a][b]), None)
            if pair is None:
                done.extend((vecs[a], Fraction(0)) for a in remaining)
                break
            a, b = pair
            t = CONE if gram[a][b] + gram[b][a] else CI
            va, vb = vecs[a], vecs[b]
            vecs[a] = [x + t * y for x, y in zip(va, vb)]
            row_a, row_b = gram[a], gram[b]
            for x in remaining:
                row_a[x] = row_a[x] + t * row_b[x]
            t = t.conj()
            for x in remaining:
                gram[x][a] = gram[x][a] + t * gram[x][b]
            continue
        val = gram[p][p]
        if not val.is_real():
            raise ValueError("Hermitian form value not real")
        done.append((vecs[p], val.re))
        remaining.remove(p)
        q, row_p = vecs[p], gram[p]
        for a in remaining:
            if gram[a][p]:
                c = gram[a][p] / val
                v, row = vecs[a], gram[a]
                for k in range(dim):
                    v[k] = v[k] - c * q[k]
                for x in remaining:
                    row[x] = row[x] - c * row_p[x]
    done.sort(key=lambda t: t[1] == 0)  # stable: nonzero first
    return done


def _rat_text(a: int, d: int) -> str:
    """a/d for d > 0 in lowest terms, as ``str(Fraction(a, d))`` prints it
    ("3", "-1/2"), by one gcd and without forming a Fraction."""
    if d != 1:
        g = gcd(a, d)
        if g != d:
            return f"{a // g}/{d // g}"
        a //= g
    return str(a)


def rat_str(x: Rat) -> str:
    """Decimal-free string form of a rational ("3", "-1/2")."""
    return _rat_text(x.numerator, x.denominator)


_RATIONAL = _re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ZeroDenominatorError(ValueError):
    """A rational string whose denominator is 0."""


def rat_from_str(s: str) -> Fraction:
    """Rational from "3" or "-1/2": an optional sign, digits and an optional
    "/" and digits (README's ``RATIONAL``), each part of at most
    MAX_PRINTED_DIGITS digits.  ValueError for anything else, so a decimal
    or exponent notation ("1e99999999", which ``Fraction`` would expand) or
    an overlong part is refused before any number is formed."""
    if any(sum(map(str.isdigit, part)) > MAX_PRINTED_DIGITS
           for part in s.split("/")):
        raise ValueError("numerator or denominator has more than "
                         f"{MAX_PRINTED_DIGITS} digits")
    s = s.strip()
    if "." in s:
        raise ValueError(f"decimal rationals are not accepted: {s!r}")
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not a rational such as \"-1/2\": {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ZeroDenominatorError(f"zero denominator: {s!r}") from None
