import copy
import operator
import pickle
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from catlin import exact
from catlin.exact import (CRat, hermitian_form, hermitian_reduce, inverse,
                          rank, rat_from_str, rat_str)
from catlin.poly import Poly

from helpers import (FractionPairCRat, _rational_rank, hermitian_reduce_oracle,
                     rand_crat, rand_fraction)


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


def test_negative_power_raises():
    with pytest.raises(ValueError) as exc:
        CRat(2) ** -1
    assert str(exc.value) == "exponent must be a nonnegative integer"


def test_rat_str_round_trip():
    for s in ("0", "5", "-7/3", "12/7"):
        assert rat_str(rat_from_str(s)) == s
    assert rat_from_str("+4/6") == Fraction(2, 3)
    for bad in ("0.5", "1/0", "x", "1e2", "1e99999999", "1_000", "1/-2",
                "/2", "1/", "٣"):
        with pytest.raises(ValueError):
            rat_from_str(bad)


def test_rat_text_prints_as_fraction_does():
    rng = random.Random(50)
    pairs = [(0, 1), (0, 7), (6, 4), (-6, 4), (5, 1), (-5, 5), (12, 3)]
    for _ in range(3000):
        top = rng.choice((10, 10 ** 6, 10 ** 40))
        g = rng.randint(1, 50)   # unreduced
        pairs.append((rng.randint(0, top) * g, rng.randint(1, top) * g))
    long_part = (10 ** (exact.MAX_PRINTED_DIGITS - 1),
                 10 ** exact.MAX_PRINTED_DIGITS)
    for _ in range(60):   # parts of 4,300 digits, reduced or not
        a, d = rng.randrange(*long_part), rng.randrange(*long_part)
        g = rng.choice((1, gcd(a, d)))
        pairs.append((a // g, d // g))
    for a, d in pairs:
        a = rng.choice((-1, 0, 1, 1)) * a   # negative, zero over d > 1
        assert exact._rat_text(a, d) == str(Fraction(a, d)), (a, d)
        assert rat_str(Fraction(a, d)) == str(Fraction(a, d))


def test_printed_crats_keep_their_fraction_forms():
    # CRat.__str__ and the re/im fields of Poly.to_json_dict against the
    # forms printed from Fraction parts
    rng = random.Random(51)
    values = [CRat(_rand_rational(rng), _rand_rational(rng))
              for _ in range(2000)]
    for c in values:
        assert str(c) == str(FractionPairCRat(c.re, c.im))
        assert c.part_strs() == (str(Fraction(c.re)), str(Fraction(c.im)))
    for k in range(0, len(values), 40):
        p = Poly(2, {((i, 0), (0, i)): c
                     for i, c in enumerate(values[k:k + 40]) if c})
        for t, (_, _, c) in zip(p.to_json_dict()["terms"], p.iter_terms()):
            assert (t["re"], t["im"]) == (str(c.re), str(c.im))


# ----------------------------------------------------------------------
# the integer form against the Fraction-pair reference
# ----------------------------------------------------------------------


def _rand_rational(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 3:
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**12))
    return Fraction(rng.choice((-1, 1)) * 6, rng.choice((4, 9, 10)))


def _rand_pair(rng):
    """(CRat, FractionPairCRat) holding the same value."""
    re, im = _rand_rational(rng), _rand_rational(rng)
    return CRat(re, im), FractionPairCRat(re, im)


def _same(x, ref):
    """x is a canonical CRat equal to the reference value ref, and every
    query and printed form agrees."""
    assert type(x) is CRat
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == (ref.re, ref.im)
    assert str(x) == str(ref)
    assert repr(x) == repr(ref).replace("FractionPairCRat", "CRat", 1)
    assert hash(x) == hash(ref)
    assert x.is_zero() == ref.is_zero() and bool(x) == bool(ref)
    assert x.is_real() == ref.is_real()
    assert x.abs2() == ref.abs2() and type(x.abs2()) is Fraction


def test_crat_agrees_with_fraction_pair_reference():
    rng = random.Random(41)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for _ in range(400):
        x, rx = _rand_pair(rng)
        y, ry = (x, rx) if rng.random() < 0.1 else _rand_pair(rng)
        _same(x, rx)
        _same(-x, -rx)
        _same(x.conj(), rx.conj())
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        assert (x == CRat(rx.re, rx.im)) and not (x != CRat(rx.re, rx.im))
        e = rng.randint(0, 6)
        _same(x ** e, rx ** e)
        s = _rand_rational(rng)
        for op in ops:
            for (u, ru), (v, rv) in (((x, rx), (y, ry)), ((x, rx), (s, s)),
                                     ((s, s), (x, rx))):
                if op is operator.truediv and \
                        FractionPairCRat.of(rv).is_zero():
                    with pytest.raises(ZeroDivisionError):
                        op(u, v)
                    continue
                _same(op(u, v), op(ru, rv))
        if not y.is_zero():
            _same(x / y * y, rx)
        _same(x - y + y, rx)


def test_crat_hash_agrees_for_equal_values():
    # equal values hash equal however they were built, and as the pair of
    # their parts, also where the common denominator is a multiple of the
    # hash modulus
    m = sys.hash_info.modulus
    half, third = Fraction(1, 2), Fraction(1, 3)
    groups = [
        [CRat(half, third), CRat(Fraction(3, 6), Fraction(-2, -6)),
         CRat(1) / 2 + CRat(0, third), CRat(Fraction(3, 2), 1) * third,
         CRat(half, -third).conj(), CRat(3, 2) / CRat(6)],
        [CRat(-7), CRat(Fraction(-14, 2)), CRat(0, 7) * CRat(0, 1),
         -CRat(7, 0), CRat(1, 1) * CRat(1, -1) * CRat(Fraction(-7, 2))],
        [CRat(Fraction(1, m)), CRat(Fraction(2, 2 * m)), CRat(1) / m],
        [CRat(half, Fraction(1, m)), CRat(half) + CRat(0, Fraction(1, m))],
        [CRat(Fraction(-m, 3), Fraction(1, m - 1)),
         CRat(Fraction(m, 3)).conj() * CRat(-1)
         + CRat(0, 1) / (m - 1)],
    ]
    for group in groups:
        assert len(set(group)) == 1
        assert {hash(x) for x in group} == {hash((group[0].re, group[0].im))}
    assert len({group[0] for group in groups}) == len(groups)


def test_crat_equals_no_other_type():
    for x in (CRat(0), CRat(1), CRat(Fraction(1, 2)), CRat(0, 1)):
        for other in (x.re, complex(x.re, x.im), FractionPairCRat(x.re, x.im),
                      (x.re, x.im), 0, 1):
            assert x != other and not x == other


def test_crat_rejects_floats():
    for make in (lambda: CRat(0.5), lambda: CRat(1, 0.5),
                 lambda: CRat.of(0.5), lambda: CRat(1) + 0.5,
                 lambda: 0.5 + CRat(1), lambda: CRat(1) - 0.5,
                 lambda: 0.5 - CRat(1), lambda: CRat(1) * 0.5,
                 lambda: 0.5 * CRat(1), lambda: CRat(1) / 0.5,
                 lambda: 0.5 / CRat(1)):
        with pytest.raises(TypeError):
            make()


def test_crat_division_by_zero_every_side():
    for num in (CRat(1, 2), 3, Fraction(1, 2), CRat(0)):
        for zero in (CRat(0), 0, Fraction(0)):
            if isinstance(num, CRat) or isinstance(zero, CRat):
                with pytest.raises(ZeroDivisionError):
                    num / zero


def test_crat_is_immutable():
    x = CRat(Fraction(1, 2), 3)
    for name in ("re", "im", "_a", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == CRat(Fraction(1, 2), 3)
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


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


# ----------------------------------------------------------------------
# Hermitian form and congruence
# ----------------------------------------------------------------------


def _random_hermitian(rng, dim):
    """Either sum_t s_t v_t v_t^* with signs s_t (rank at most the number of
    terms, often indefinite), or a sparse Hermitian matrix whose diagonal is
    often zero (so the congruence needs hyperbolic pairs)."""
    if rng.random() < 0.5:
        terms = [(rng.choice((1, -1)), [rand_crat(rng) for _ in range(dim)])
                 for _ in range(rng.randint(0, dim))]
        return [[sum((v[i] * v[j].conj() * s for s, v in terms), CRat(0))
                 for j in range(dim)] for i in range(dim)]
    h = [[CRat(0)] * dim for _ in range(dim)]
    for i in range(dim):
        if rng.random() < 0.3:
            h[i][i] = CRat(rng.randint(-3, 3))
        for j in range(i + 1, dim):
            if rng.random() < 0.6:
                h[i][j] = rand_crat(rng)
                h[j][i] = h[i][j].conj()
    return h


def _check_congruence(h):
    reduced = hermitian_reduce(h)
    vectors = [q for q, _d in reduced]
    values = [d for _q, d in reduced]
    assert len(vectors) == len(h)
    for i, (q, d) in enumerate(reduced):
        assert isinstance(d, Fraction)
        assert hermitian_form(h, q, q) == CRat(d)
        for q2 in vectors[i + 1:]:
            assert hermitian_form(h, q, q2).is_zero()
            assert hermitian_form(h, q2, q).is_zero()
    nonzero = [d != 0 for d in values]
    assert nonzero == sorted(nonzero, reverse=True)  # nonzero values first
    assert sum(nonzero) == rank(h)
    assert rank(vectors) == len(h)
    return values


def test_hermitian_reduce_random_matrices():
    rng = random.Random(29)
    singular = indefinite = 0
    for _ in range(80):
        dim = rng.randint(1, 4)
        h = _random_hermitian(rng, dim)
        values = _check_congruence(h)
        singular += 0 in values
        indefinite += any(d > 0 for d in values) and any(d < 0 for d in values)
    assert singular >= 10 and indefinite >= 10


def test_hermitian_reduce_hyperbolic_and_singular():
    plus, minus = _check_congruence([[CRat(0), CRat(6)],
                                     [CRat(6), CRat(0)]])
    assert plus > 0 > minus
    assert _check_congruence([[CRat(1), CRat(0, 1), CRat(0)],
                              [CRat(0, -1), CRat(1), CRat(0)],
                              [CRat(0), CRat(0), CRat(0)]]) == [1, 0, 0]
    assert _check_congruence([]) == []


def _non_hermitian(rng, dim):
    """A matrix whose entries are drawn independently: real diagonal entries
    mostly (so the congruence runs before a value turns out non-real),
    zeros often."""
    def entry(i, j):
        if rng.random() < 0.4:
            return CRat(0)
        if i == j and rng.random() < 0.8:
            return CRat(rand_fraction(rng))
        return rand_crat(rng)
    return [[entry(i, j) for j in range(dim)] for i in range(dim)]


def _outcome(reduce, h):
    try:
        return reduce(h)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_hermitian_reduce_matches_oracle():
    # the Gram-matrix kernel against the Gram-Schmidt that evaluates every
    # form afresh: equal (q, d) lists, in order, or the same ValueError
    rng = random.Random(2029)
    counts = {"zero-diagonal": 0, "singular": 0, "raised": 0, "other": 0}
    for case in range(2400):
        dim = case % 7
        kind = rng.random()
        if kind < 0.4:
            h = _random_hermitian(rng, dim)
        elif kind < 0.6:
            # zero diagonal: the congruence starts from a hyperbolic pair
            h = _random_hermitian(rng, dim)
            for i in range(dim):
                h[i][i] = CRat(0)
        else:
            h = _non_hermitian(rng, dim)
        got = _outcome(hermitian_reduce, h)
        want = _outcome(hermitian_reduce_oracle, h)
        assert got == want, h
        if isinstance(want, tuple):
            counts["raised"] += 1
        elif dim and all(h[i][i].is_zero() for i in range(dim)) \
                and any(d for _q, d in want):
            counts["zero-diagonal"] += 1
        elif any(d == 0 for _q, d in want):
            counts["singular"] += 1
        else:
            counts["other"] += 1
    assert min(counts.values()) >= 150, counts


def test_hermitian_reduce_divides_once_per_projection(monkeypatch):
    # a positive definite 6x6 matrix with no zero entry: each pivot is
    # projected out of each vector that remains after it, one division
    # each, 5 + 4 + 3 + 2 + 1 = 15 in all, and no form is evaluated
    h = [[CRat(7 if i == j else 1) for j in range(6)] for i in range(6)]
    divide, calls = CRat.__truediv__, []

    def counting(*args):
        calls.append(None)
        return divide(*args)

    monkeypatch.setattr(CRat, "__truediv__", counting)
    monkeypatch.setattr(exact, "hermitian_form", None)
    values = [d for _q, d in hermitian_reduce(h)]
    assert len(calls) == 15
    monkeypatch.undo()
    assert _check_congruence(h) == values and min(values) > 0


def test_hermitian_form_value_and_errors():
    h = [[CRat(2), CRat(1, 1)], [CRat(1, -1), CRat(-1)]]
    u, v = [CRat(1), CRat(0, 2)], [CRat(3, -1), CRat(1)]
    want = sum((h[k][l] * u[k] * v[l].conj()
                for k in range(2) for l in range(2)), CRat(0))
    assert hermitian_form(h, u, v) == want
    assert hermitian_form(h, v, u) == want.conj()
    with pytest.raises(ValueError):
        hermitian_reduce([[CRat(0, 1)]])
    with pytest.raises(ValueError):
        hermitian_form(h, u, v[:1])
