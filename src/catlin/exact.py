"""Exact complex-rational arithmetic.

Every coefficient in this package is a Gaussian rational: a pair of
arbitrary-precision ``Fraction`` values (real and imaginary part).  No
floating point is used anywhere, so equality and vanishing tests are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class CRat:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    @staticmethod
    def of(x: "CRat | Rat") -> "CRat":
        if isinstance(x, CRat):
            return x
        return CRat(_frac(x))

    def __add__(self, other) -> "CRat":
        o = CRat.of(other)
        return CRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "CRat":
        o = CRat.of(other)
        return CRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "CRat":
        return CRat.of(other) - self

    def __mul__(self, other) -> "CRat":
        o = CRat.of(other)
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CRat":
        o = CRat.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero CRat")
        return CRat((self.re * o.re + self.im * o.im) / d,
                    (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other) -> "CRat":
        return CRat.of(other) / self

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

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
        return CRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


CZERO = CRat(0)
CI = CRat(0, 1)


def _eliminate(rows: Sequence[Sequence["CRat | Rat"]]
               ) -> Tuple[List[list], List[int]]:
    """Gauss-Jordan elimination without scaling the pivot rows; returns
    (rows, pivot columns).  Pivot row i holds the only nonzero entry of pivot
    column i.  Rational entries stay Fractions, which are several times
    faster than CRat; CRat entries mix with them exactly."""
    m = [[x if isinstance(x, CRat) else _frac(x) for x in row] for row in rows]
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


def rat_str(x: Fraction) -> str:
    """Decimal-free string form of a rational ("3", "-1/2")."""
    return str(Fraction(x))


def rat_from_str(s: str) -> Fraction:
    s = s.strip()
    if "." in s:
        raise ValueError(f"decimal rationals are not accepted: {s!r}")
    return Fraction(s)
