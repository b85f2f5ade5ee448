import random
from fractions import Fraction

import pytest

from catlin.exact import CRat, inverse, rank, rat_from_str, rat_str

from helpers import _rational_rank, rand_crat


def test_basic_arithmetic():
    a = CRat(Fraction(1, 2), Fraction(3))
    b = CRat(2, -1)
    assert a + b == CRat(Fraction(5, 2), 2)
    assert a - b == CRat(Fraction(-3, 2), 4)
    assert a * b == CRat(4, Fraction(11, 2))
    assert (a / b) * b == a


def test_conj_and_abs2():
    a = CRat(3, -4)
    assert a.conj() == CRat(3, 4)
    assert a.abs2() == 25
    assert (a * a.conj()).re == a.abs2()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CRat(1) / CRat(0)


def test_pow():
    i = CRat(0, 1)
    assert i ** 2 == CRat(-1)
    assert i ** 0 == CRat(1)
    assert (CRat(2, 1) ** 3) == CRat(2, 1) * CRat(2, 1) * CRat(2, 1)


def test_field_laws_random():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_crat(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a


def test_rat_str_round_trip():
    for s in ("0", "5", "-7/3", "12/7"):
        assert rat_str(rat_from_str(s)) == s
    with pytest.raises(ValueError):
        rat_from_str("0.5")


def _random_matrix(rng, rows, cols, rank_cap):
    """Product of random rows x rank_cap and rank_cap x cols factors, so the
    rank is at most rank_cap (a zero matrix when rank_cap is 0)."""
    left = [[rand_crat(rng) for _ in range(rank_cap)] for _ in range(rows)]
    right = [[rand_crat(rng) for _ in range(cols)] for _ in range(rank_cap)]
    return [[sum((left[i][t] * right[t][j] for t in range(rank_cap)), CRat(0))
             for j in range(cols)] for i in range(rows)]


def _realify(m):
    """The real matrix [[A, -B], [B, A]] of A + iB; its rank is twice the
    complex rank of A + iB."""
    top = [[c.re for c in row] + [-c.im for c in row] for row in m]
    bottom = [[c.im for c in row] + [c.re for c in row] for row in m]
    return top + bottom


def _identity(k):
    return [[CRat(1 if i == j else 0) for j in range(k)] for i in range(k)]


def _matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), CRat(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_rank_matches_rational_reference():
    rng = random.Random(11)
    deficient = 0
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        r = rank(m)
        assert 2 * r == _rational_rank(_realify(m))
        deficient += r < min(rows, cols)
    assert deficient >= 20


def test_inverse_is_two_sided_or_none():
    rng = random.Random(12)
    singular = 0
    for _ in range(120):
        k = rng.randint(1, 4)
        m = _random_matrix(rng, k, k, rng.choice((k, k, k - 1)))
        inv = inverse(m)
        if _rational_rank(_realify(m)) < 2 * k:
            assert inv is None
            singular += 1
        else:
            assert _matmul(inv, m) == _identity(k)
            assert _matmul(m, inv) == _identity(k)
    assert singular >= 20


def test_int_rows_stay_exact():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([]) == 0
    assert inverse([]) == []
    inv = inverse([[2, 1], [1, 1]])
    assert inv == [[CRat(1), CRat(-1)], [CRat(-1), CRat(2)]]
    assert all(isinstance(c.re, Fraction) for row in inv for c in row)
    assert inverse([[1, 2], [2, 4]]) is None
    with pytest.raises(TypeError):
        rank([[0.5, 1]])
