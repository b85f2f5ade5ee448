"""Exact complex-rational arithmetic.

Every coefficient in this package is a Gaussian rational, stored as three
arbitrary-precision ints: (a + b*i) / d with d > 0 and gcd(a, b, d) == 1.
The form is canonical, so equality is a comparison of the three ints, and
each arithmetic result needs at most one gcd (none when its denominator is
1).  No floating point is used anywhere, so equality and vanishing tests are
exact.  The real and imaginary parts are read as ``Fraction`` values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

Rat = Union[int, Fraction]


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
        out = CRat(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def conj(self) -> "CRat":
        return _crat(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

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
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


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
    Gram-Schmidt with hyperbolic pairs.

    Returns basis vectors q_i with hermitian_form(h, q_i, q_j) = 0 for i != j,
    as (q_i, hermitian_form(h, q_i, q_i)) pairs, nonzero values first.  A
    non-real value (h not Hermitian) raises ValueError."""
    dim = len(h)
    remaining = [[CRat(1 if i == k else 0) for k in range(dim)]
                 for i in range(dim)]
    done: List[Tuple[List[CRat], Fraction]] = []
    while remaining:
        # the remaining vectors are orthogonal to every earlier pivot, so
        # only the newest one is projected out (a zero value ends the loop)
        if done:
            q, d = done[-1]
            for v in remaining:
                coef = hermitian_form(h, v, q) / CRat(d)
                for k in range(dim):
                    v[k] = v[k] - coef * q[k]
        values = ((v, hermitian_form(h, v, v)) for v in remaining)
        pick, val = next(((v, d) for v, d in values if not d.is_zero()),
                         (None, None))
        if pick is None:
            hyper = None
            for v, w in itertools.combinations(remaining, 2):
                if not hermitian_form(h, v, w).is_zero():
                    hyper = (v, w)
                    break
            if hyper is None:
                done.extend((v, Fraction(0)) for v in remaining)
                break
            v, w = hyper
            cand = [v[k] + w[k] for k in range(dim)]
            if hermitian_form(h, cand, cand).is_zero():
                cand = [v[k] + CI * w[k] for k in range(dim)]
            remaining[remaining.index(v)] = cand
            continue
        if not val.is_real():
            raise ValueError("Hermitian form value not real")
        done.append((pick, val.re))
        remaining.remove(pick)
    done.sort(key=lambda t: t[1] == 0)  # stable: nonzero first
    return done


def rat_str(x: Fraction) -> str:
    """Decimal-free string form of a rational ("3", "-1/2")."""
    return str(Fraction(x))


def rat_from_str(s: str) -> Fraction:
    """Rational from "3" or "-1/2"; ValueError for anything else."""
    s = s.strip()
    if "." in s:
        raise ValueError(f"decimal rationals are not accepted: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None
