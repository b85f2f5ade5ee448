import contextlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from catlin.cli import main
from catlin.exact import CRat
from catlin import parser, poly
from catlin.parser import ParseError, parse_poly
from catlin.poly import (CoordChange, DimensionMismatch, NonRealError, Poly,
                         PolyError, _capped_products, _derivative_terms,
                         eliminate_harmonic, require_real,
                         revlex_max_balanced, split_model)

from helpers import (benchmark_models, eliminate_harmonic_oracle,
                     leading_model,
                     linear_change, rand_crat, rand_fraction,
                     rand_holomorphic, rand_real_poly,
                     substitute_maps_oracle, tail, weighted_order,
                     workload_argvs)


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def test_parse_modulus_power():
    p = parse_poly("|z2|^4", 2)
    assert p.terms == {((0, 2), (0, 2)): CRat(1)}


def test_parse_weighted_model():
    p = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    assert len(p.terms) == 4
    assert p.coeff((1, 0, 0), (0, 0, 0)) == CRat(-1)
    assert p.coeff((0, 0, 0), (1, 0, 0)) == CRat(-1)
    assert p.coeff((0, 4, 0), (0, 4, 0)) == CRat(1)
    assert p.coeff((0, 2, 3), (0, 2, 3)) == CRat(1)


def test_parse_non_real_rejected():
    with pytest.raises(NonRealError):
        parse_poly("z2^2", 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("|z2|^3", 2)
    assert "even" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("z2 +* z2", 2)


def test_parse_refuses_oversized_power():
    # the count of monomials within the bidegree of z2^k is k + 1
    limit = parser.MAX_POWER_TERMS
    assert len(parse_poly(f"Re(z2^{limit - 1})", 2).terms) == 2
    with pytest.raises(ParseError, match="more than"):
        parse_poly(f"Re(z2^{limit})", 2)
    # |e|^2k counts both degrees: 101^2 monomials, one term
    assert len(parse_poly("|z2|^200", 2).terms) == 1
    with pytest.raises(ParseError) as err:
        parse_poly("|z2|^2 + |z2+z3+z4|^64", 4)
    assert err.value.pos == 9   # the opening bar of the modulus
    # products are bounded as well: of two factors, and the q * conj(q) of
    # a modulus, whose q = (1+z2+z3+z4)^40 is refused at its last squaring
    for text in ("|1+z2+z3+z4|^12*|1+z2+z3+z4|^12",
                 "|(1+z2+z3+z4)^40|^2"):
        with pytest.raises(ParseError, match="term pairs, more than"):
            parse_poly(text, 4)
    # a complex constant to a 600-digit power is refused before it is
    # formed, by its modulus |3+4i| = 5 and by the denominator 5 of
    # (3+4i)/5, whose modulus is 1; (2+i)^12000, 4,194 digits, prints
    big = "9" * 600
    for text in (f"Re((3+4*i)^{big})", f"Re(((3/5)+(4/5)*i)^{big})"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="power's coefficient") as err:
            parse_poly(text, 2)
        assert time.perf_counter() - start < 0.5
        assert err.value.pos == 3   # the opening parenthesis of the base
    c = CRat(2, 1) ** 12000
    assert parse_poly("Re((2+i)^12000)", 2) == Poly.const(2, c.re)
    assert len(str(c.re)) <= parser.MAX_PRINTED_DIGITS


def test_parse_product_cap_is_exact(monkeypatch):
    # (1+z2+z3) * (z2+z3+z4+z5) forms 12 term pairs
    monkeypatch.setattr(parser, "MAX_PRODUCT_PAIRS", 12)
    assert len(parse_poly("Re((1+z2+z3)*(z2+z3+z4+z5))", 5).terms) == 22
    with pytest.raises(ParseError, match="15 term pairs") as err:
        parse_poly("|z2|^2 + Re((1+z2+z3)*(1+z2+z3+z4+z5))", 5)
    assert err.value.pos == 22   # the second factor


def test_parse_product_budget_is_per_parse(monkeypatch):
    # each product forms 12 term pairs, which the cap admits, but the two
    # together form 24
    monkeypatch.setattr(parser, "MAX_PRODUCT_PAIRS", 12)
    one = "Re((1+z2+z3)*(z2+z3+z4+z5))"
    assert len(parse_poly(one, 5).terms) == 22
    text = f"{one} + {one}"
    with pytest.raises(ParseError, match="12 term pairs, more than") as err:
        parse_poly(text, 5)
    assert err.value.pos == text.rindex("(z2+z3+z4+z5)")   # second product


def test_non_real_error_lists_pairs_in_term_order():
    # the same non-real polynomial built in two term orders
    keys = [((0, k), (0, 0)) for k in range(1, 6)]
    forward = Poly(2, {key: CRat(0, 1) for key in keys})
    backward = Poly(2, {key: CRat(0, 1) for key in reversed(keys)})
    assert forward == backward
    messages = []
    for p in (forward, backward):
        with pytest.raises(NonRealError) as err:
            require_real(p)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert str(keys[:3]) in messages[0]


def _poly_text(p):
    return " + ".join(
        f"({c})" + "".join(f"*z{i + 1}^{e}" for i, e in enumerate(a) if e)
        + "".join(f"*zbar{i + 1}^{e}" for i, e in enumerate(b) if e)
        for (a, b), c in p.terms.items()) or "0"


def test_parse_modulus_power_equals_power_of_product():
    # |e|^2k is expanded as q * conj(q) with q = e^k
    rng = random.Random(5)
    for _ in range(30):
        e = rand_holomorphic(rng, 3, terms=rng.randint(1, 3), max_exp=1)
        k = rng.randint(1, 3)
        if rng.random() < 0.5:
            e = e + rand_holomorphic(rng, 3, terms=1, max_exp=1).conj()
            k = 1
        assert parse_poly(f"|{_poly_text(e)}|^{2 * k}", 3) == \
            (e * e.conj()) ** k


def _grammar_expression(rng, depth, sp, z, zbar):
    """(text, sympy value) of a random expression of the README grammar in
    z1..z3, with z_j and zbar_j as independent real sympy symbols, so that
    conjugation conjugates the numbers and swaps the two."""
    swap = {**dict(zip(z, zbar)), **dict(zip(zbar, z))}

    def conj(v):
        return sp.conjugate(v).xreplace(swap)

    def atom(d):
        pick = rng.randrange(11 if d > 0 else 4)
        if pick == 0:
            num, den = rng.randint(0, 5), rng.choice((1, 1, 2, 3))
            return (f"{num}/{den}" if den > 1 else f"{num}"), \
                sp.Rational(num, den)
        if pick == 1:
            return "i", sp.I
        if pick in (2, 3):
            j = rng.randint(1, 3)
            return (f"z{j}", z[j - 1]) if pick == 2 else \
                (f"zbar{j}", zbar[j - 1])
        if pick == 4:
            text, v = atom(d - 1)
            if text.startswith(("-", "|")):
                return f"({text})", v
            return f"~{text}", conj(v)
        text, v = expression(d - 1)
        if pick == 5:
            return f"conj({text})", conj(v)
        if pick == 6:
            return f"Re({text})", (v + conj(v)) / 2
        if pick == 7:
            return f"Im({text})", (v - conj(v)) / (2 * sp.I)
        if pick == 8:
            k = rng.randint(1, 2 if d == 1 else 1)
            return f"|{text}|^{2 * k}", (v * conj(v)) ** k
        return f"({text})", v

    def factor(d):
        if d > 0 and rng.random() < 0.1:
            text, v = factor(d - 1)
            return f"-{text}", -v
        text, v = atom(d)
        if not text.startswith("|") and rng.random() < 0.25:
            k = rng.randint(0, 2)
            return f"{text}^{k}", v ** k
        return text, v

    def term(d):
        text, v = factor(d)
        for _ in range(rng.randint(0, 1)):
            t2, v2 = factor(d)
            sep = "*" if t2.startswith(("-", "|")) or rng.random() < 0.5 \
                else " "
            text, v = f"{text}{sep}{t2}", v * v2
        return text, v

    def expression(d):
        text, v = term(d)
        for _ in range(rng.randint(0, 2)):
            t2, v2 = term(d)
            if rng.random() < 0.5:
                text, v = f"{text} + {t2}", v + v2
            else:
                text, v = f"{text} - {t2}", v - v2
        return text, v

    # a real-valued whole: Re, Im or a modulus of each piece (a modulus
    # only around a piece without one, which keeps its power well inside
    # MAX_POWER_TERMS)
    pieces = []
    for _ in range(rng.randint(1, 2)):
        text, v = expression(depth)
        wrap = rng.randrange(2 if "|" in text else 3)
        if wrap == 0:
            pieces.append((f"Re({text})", (v + conj(v)) / 2))
        elif wrap == 1:
            pieces.append((f"Im({text})", (v - conj(v)) / (2 * sp.I)))
        else:
            pieces.append((f"|{text}|^2", v * conj(v)))
    return " + ".join(t for t, _v in pieces), sum(v for _t, v in pieces)


def test_parse_matches_sympy_expansion():
    # the parser's term tables against sympy's expansion of the same
    # expression, on seeded random expressions of the README grammar
    sp = pytest.importorskip("sympy")
    z = sp.symbols("z1:4", real=True)
    zbar = sp.symbols("zbar1:4", real=True)
    rng = random.Random(2026)
    nonzero = 0
    for _ in range(320):
        text, value = _grammar_expression(rng, 1, sp, z, zbar)
        want = {}
        expanded = sp.expand(value)
        if expanded != 0:
            for monom, c in sp.Poly(expanded, *z, *zbar).terms():
                re, im = (Fraction(int(x.p), int(x.q))
                          for x in (sp.re(c), sp.im(c)))
                want[(tuple(monom[:3]), tuple(monom[3:]))] = CRat(re, im)
        assert parse_poly(text, 3).terms == want, text
        nonzero += bool(want)
    assert nonzero >= 250


# The term tables of the golden, README and benchmark workload (seeds 5, 7
# and 23) expressions, and of a few sums that meet, cancel and re-add keys,
# each key in the order the parser forms it, recorded from the parser that
# built a Poly at every step.
PARSE_TERMS = Path(__file__).parent / "golden" / "parse_terms.json"


def test_parse_keeps_recorded_term_order():
    cases = json.loads(PARSE_TERMS.read_text(encoding="utf-8"))
    assert len(cases) >= 200
    for case in cases:
        p = parse_poly(case["expr"], case["n"])
        got = [[list(a), list(b), str(c.re), str(c.im)]
               for (a, b), c in p.terms.items()]
        assert got == case["terms"], case["expr"]


def test_parse_dimension_mismatch():
    with pytest.raises(ParseError):
        parse_poly("|z5|^2", 3)


def test_parser_never_crashes_on_junk():
    rng = random.Random(83)
    alphabet = "z123|^*+-() ReImconjbar/~i"
    for _ in range(300):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 18)))
        try:
            parse_poly(text, 3)
        except PolyError:
            pass  # ParseError and NonRealError are both fine


def test_parse_sugar_equivalences():
    assert parse_poly("2*Re(z2*zbar3)", 3) == \
        parse_poly("z2*zbar3 + conj(z2*zbar3)", 3)
    assert parse_poly("Im(i*z2*zbar2)", 2) == parse_poly("|z2|^2", 2)
    assert parse_poly("~z2 * z2", 2) == parse_poly("|z2|^2", 2)


# ----------------------------------------------------------------------
# weighted order and grading
# ----------------------------------------------------------------------

MU_EQQ = (Fraction(1), Fraction(1, 8), Fraction(1, 12))


def test_weighted_order_examples():
    assert weighted_order(((0, 4, 0), (0, 4, 0)), MU_EQQ) == 1
    assert weighted_order(((0, 2, 3), (0, 2, 3)), MU_EQQ) == 1
    assert weighted_order(((0, 0, 0), (0, 0, 0)), MU_EQQ) == 0


def test_weighted_order_zero_weight_slot():
    mu = (Fraction(1), Fraction(0))
    assert weighted_order(((0, 5), (0, 2)), mu) == 0


def test_grade_two_classes():
    p = parse_poly("|z2|^4 + |z2|^6", 2)
    parts = p.grade((Fraction(1), Fraction(1, 4)))
    assert set(parts) == {Fraction(1), Fraction(3, 2)}
    assert parts[Fraction(1)] == parse_poly("|z2|^4", 2)
    total = Poly.zero(2)
    for part in parts.values():
        total = total + part
    assert total == p


def test_grade_weighted_homogeneous_single_class():
    p = parse_poly(
        "|z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2 + |z2|^2*|z3|^4*|z4|^4"
        " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4) + |z3|^8*|z4|^2", 4)
    mu = (Fraction(1), Fraction(1, 6), Fraction(1, 9), Fraction(1, 18))
    parts = p.grade(mu)
    assert set(parts) == {Fraction(1)}


def test_grade_zero_poly():
    assert Poly.zero(3).grade(MU_EQQ) == {}


def test_leading_model_and_tail():
    mu = (Fraction(1), Fraction(1, 4))
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z2|^6", 2)
    assert leading_model(r, mu) == parse_poly("-2*Re(z1) + |z2|^4", 2)
    assert tail(r, mu) == parse_poly("|z2|^6", 2)
    assert leading_model(r, mu) + tail(r, mu) == r


def _rand_weight(rng, n):
    """(1, mu_2, ..., mu_n), entries drawn over mixed denominators, zero
    included."""
    return (Fraction(1),) + tuple(
        Fraction(rng.randint(0, 7), rng.choice((1, 2, 3, 4, 5, 7, 12)))
        for _ in range(n - 1))


def _assert_checked(p, n, oracle_terms):
    """p is the checked constructor's Poly on ``oracle_terms``, key for key
    in the same order, and its own table passes that constructor as is."""
    expected = Poly(n, oracle_terms)
    assert p.n == n
    assert list(p.terms.items()) == list(expected.terms.items())
    assert list(Poly(n, dict(p.terms)).terms.items()) == list(p.terms.items())


def test_grade_matches_fraction_oracle():
    # integer orders over the common denominator bucket each term where
    # its Fraction order does, in ascending order, with the same keys;
    # the weights mix denominators and hold a zero entry
    rng = random.Random(45)
    weights = [(Fraction(1), Fraction(2, 3), Fraction(3, 4), Fraction(0),
                Fraction(5, 7), Fraction(1, 12))]
    weights += [_rand_weight(rng, 6) for _ in range(40)]
    for mu in weights:
        for _ in range(10):
            p = rand_real_poly(rng, 6, terms=rng.randint(0, 6))
            parts = p.grade(mu)
            buckets = {}
            for key, c in p.terms.items():
                buckets.setdefault(weighted_order(key, mu), {})[key] = c
            assert list(parts) == sorted(buckets)
            assert all(type(w) is Fraction for w in parts)
            for w, part in parts.items():
                _assert_checked(part, 6, buckets[w])
    with pytest.raises(DimensionMismatch,
                       match="weight length != exponent length"):
        parse_poly("|z2|^2", 2).grade((Fraction(1),))


def _check_derivations(p, rng):
    """Each derivation of p built without re-validation against its checked
    oracle: the filter over p's table, through the checked constructor
    (``grade``'s parts are checked beside the grading oracle above)."""
    n = p.n
    zero = (0,) * n
    items = p.terms.items()
    _assert_checked(p.pure_part(), n, {k: c for k, c in items
                                       if k[0] == zero or k[1] == zero})
    _assert_checked(p.holomorphic_part(), n, {
        k: c for k, c in items if k[1] == zero and k[0] != zero})
    _assert_checked(p.antiholomorphic_part(), n, {
        k: c for k, c in items if k[0] == zero and k[1] != zero})
    # out-of-range entries of keep select nothing
    keep = [j for j in range(n + 2) if rng.random() < 0.5]
    ks = {j - 1 for j in keep}
    _assert_checked(p.restrict_support(keep), n, {
        (a, b): c for (a, b), c in items
        if all((a[i] == 0 and b[i] == 0) or i in ks for i in range(n))})
    for j in range(1, n + 1):
        d = p.degree_in(j)
        _assert_checked(p.top_degree_part(j), n, {
            k: c for k, c in items if k[0][j - 1] + k[1][j - 1] == d})


def test_derivations_match_their_checked_oracles():
    rng = random.Random(46)
    for _ in range(300):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            p = rand_real_poly(rng, n, terms=rng.randint(0, 5))
        else:
            p = _rand_cancelling_poly(rng, n)
        _check_derivations(p, rng)
        # split_model's p: a model -2 Re z1 + q, q without z1
        q = rand_real_poly(rng, n).restrict_support(range(2, n + 1))
        r = parse_poly("-2*Re(z1)", n) + q
        c1, got = split_model(r)
        assert c1 == CRat(-1)
        _assert_checked(got, n, {(a, b): c for (a, b), c in r.terms.items()
                                 if not (a[0] or b[0])})
    for expr, n in benchmark_models():
        r = parse_poly(expr, n)
        _check_derivations(r, rng)
        _check_derivations(split_model(r)[1], rng)


def test_normalize_builds_only_valid_polys(monkeypatch):
    # Every Poly built without re-validation while `catlin normalize` runs
    # on the benchmark's models equals its checked copy, in the same key
    # order.  The callers seen include each derivation of a valid
    # polynomial that normalize runs, the row extraction's balanced filter
    # among them.
    unchecked = Poly._unchecked
    callers = set()

    def checked(n, terms):
        p = unchecked(n, terms)
        copy = Poly(n, dict(p.terms))
        assert list(copy.terms.items()) == list(p.terms.items())
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return p

    monkeypatch.setattr(Poly, "_unchecked", staticmethod(checked))
    for expr, n in benchmark_models():
        with contextlib.redirect_stdout(io.StringIO()):
            main(["normalize", "--json", "--expr", expr, "--n", str(n)])
    assert {"zero", "const", "variable", "pure_part", "holomorphic_part",
            "restrict_support", "top_degree_part", "grade", "split_model",
            "_extract_row"} <= callers, callers


def test_no_table_reaching_unchecked_holds_a_zero(monkeypatch):
    # Poly._unchecked wraps its table as given, so every table it receives
    # must be free of zeros: over one seeded pass of each benchmark
    # workload's jobs, none holds one.  Only the callers of _mul_terms drop
    # zeros; every other derivation of a valid table forms none.
    unchecked = Poly._unchecked
    calls = 0

    def spy(n, terms):
        nonlocal calls
        calls += 1
        assert all(terms.values()), [k for k, c in terms.items() if not c]
        return unchecked(n, terms)

    monkeypatch.setattr(Poly, "_unchecked", staticmethod(spy))
    commands = set()
    for argv in workload_argvs(5):
        commands.add(argv[0])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    assert commands == {"normalize", "torsion", "boundary-system", "psd"}
    assert calls > 1_000


def test_constructors_keep_their_argument_checks():
    for n in range(1, 5):
        z = (0,) * n
        _assert_checked(Poly.zero(n), n, {})
        for c in (0, 3, Fraction(-1, 2), CRat(1, -1)):
            _assert_checked(Poly.const(n, c), n, {(z, z): CRat.of(c)})
        for j in range(1, n + 1):
            e = tuple(int(i == j - 1) for i in range(n))
            _assert_checked(Poly.variable(n, j), n, {(e, z): CRat(1)})
    above = "dimension 65 is above 64, the largest a polynomial may have"
    for build, error, message in [
            (lambda: Poly.zero(0), PolyError, "dimension must be >= 1"),
            (lambda: Poly.zero(65), PolyError, above),
            (lambda: Poly.const(0, 1), PolyError, "dimension must be >= 1"),
            (lambda: Poly.const(65, 1), PolyError, above),
            (lambda: Poly.const(2, "x"), TypeError,
             "not an exact rational: 'x'"),
            (lambda: Poly.variable(0, 1), DimensionMismatch,
             "variable index 1 out of range 1..0"),
            (lambda: Poly.variable(65, 1), PolyError, above)]:
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message


def test_grading_reconstruction_random():
    rng = random.Random(11)
    for _ in range(100):
        p = rand_real_poly(rng, 3)
        mu = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
        parts = p.grade(mu)
        total = Poly.zero(3)
        for w, part in parts.items():
            assert all(weighted_order(k, mu) == w for k in part.terms)
            total = total + part
        assert total == p


# ----------------------------------------------------------------------
# harmonic elimination
# ----------------------------------------------------------------------


def test_eliminate_harmonic_basic():
    r = parse_poly("-2*Re(z1) + |z2|^2 + 2*Re(z2^3)", 2)
    r2, h = eliminate_harmonic(r)
    assert r2 == parse_poly("-2*Re(z1) + |z2|^2", 2)
    assert h == Poly.monomial(2, (0, 3), (0, 0), 1)


def test_eliminate_harmonic_identity():
    r = parse_poly("-2*Re(z1) + |z2|^4", 2)
    r2, h = eliminate_harmonic(r)
    assert r2 == r and h.is_zero()


def test_eliminate_harmonic_cross_term():
    # Derived: expand the substitution z1 -> z1 + z2*z3 and confirm the
    # cancellation using plain polynomial arithmetic.
    r = parse_poly("-2*Re(z1) + 2*Re(z2*z3) + |z3|^2", 3)
    r2, h = eliminate_harmonic(r)
    assert h == Poly.monomial(3, (0, 1, 1), (0, 0, 0), 1)
    maps = [Poly.variable(3, 1) + h, Poly.variable(3, 2), Poly.variable(3, 3)]
    assert r.substitute_maps(maps) == r2
    assert r2 == parse_poly("-2*Re(z1) + |z3|^2", 3)


def test_eliminate_harmonic_idempotent_random():
    rng = random.Random(3)
    for _ in range(100):
        f = rand_real_poly(rng, 3, terms=3, max_exp=2)
        f = Poly(3, {k: c for k, c in f.terms.items()
                     if k[0][0] == 0 and k[1][0] == 0})
        r = parse_poly("-2*Re(z1)", 3) + f
        r1, _ = eliminate_harmonic(r)
        r2, h2 = eliminate_harmonic(r1)
        assert r1 == r2 and h2.is_zero()
        assert r1.pure_part() == Poly.monomial(3, (1, 0, 0), (0, 0, 0), -1) + \
            Poly.monomial(3, (0, 0, 0), (1, 0, 0), -1)


def test_eliminate_harmonic_matches_substitution():
    # r - pure_part(f) against the substitution z1 -> z1 + h, expanded
    rng = random.Random(47)
    n = 3
    for case in range(300):
        c1 = rand_fraction(rng)
        while c1 == 0:
            c1 = rand_fraction(rng)
        c1 = abs(c1) if case % 2 else -abs(c1)   # both signs
        f = rand_real_poly(rng, n, terms=2, max_exp=2)
        f = Poly(n, {k: c for k, c in f.terms.items()
                     if k[0][0] == 0 and k[1][0] == 0})
        kind = case % 3
        if kind in (0, 2):          # constant
            f = f + Poly.const(n, rand_fraction(rng))
        if kind in (1, 2):          # holomorphic, with its conjugate
            hol = rand_holomorphic(rng, n, terms=2, max_exp=3)
            hol = Poly(n, {k: c for k, c in hol.terms.items()
                           if k[0][0] == 0})
            f = f + hol + hol.conj()
        r = Poly.monomial(n, (1, 0, 0), (0, 0, 0), c1) \
            + Poly.monomial(n, (0, 0, 0), (1, 0, 0), c1) + f
        assert eliminate_harmonic(r) == eliminate_harmonic_oracle(r), str(r)


def test_eliminate_harmonic_rejects_nonlinear_z1():
    with pytest.raises(PolyError):
        eliminate_harmonic(parse_poly("-2*Re(z1) + |z1|^2", 2))


# ----------------------------------------------------------------------
# Wirtinger derivatives
# ----------------------------------------------------------------------


def test_wirtinger_modulus_fourth():
    p = parse_poly("|z2|^4", 2)
    assert p.wirtinger(2).wirtinger(2, conjugate=True) == \
        parse_poly("4*|z2|^2", 2)


def test_wirtinger_constant():
    assert Poly.const(2, 5).wirtinger(1).is_zero()


def test_wirtinger_against_shift_oracle():
    # Independent oracle: expand p(w + z) by substitution and read the
    # coefficient of z_j zbar_k, which equals the mixed derivative at w.
    # The raw tables of _derivative_terms, which the boundary list search
    # reads, are the terms of Poly.wirtinger and meet the same oracle.
    rng = random.Random(5)
    for _ in range(10):
        p = rand_real_poly(rng, 2, terms=3, max_exp=3)
        w = [CRat(Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                  Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
             for _ in range(2)]
        maps = [Poly.variable(2, j + 1) + Poly.const(2, w[j]) for j in range(2)]
        shifted = p.substitute_maps(maps)
        for j in (1, 2):
            for conjugate in (False, True):
                assert _derivative_terms(p.terms, j - 1, conjugate) == \
                    p.wirtinger(j, conjugate).terms
            for k in (1, 2):
                ej = tuple(1 if i == j - 1 else 0 for i in range(2))
                ek = tuple(1 if i == k - 1 else 0 for i in range(2))
                oracle = shifted.coeff(ej, ek)
                direct = p.wirtinger(j).wirtinger(k, conjugate=True).evaluate(w)
                raw = _derivative_terms(_derivative_terms(p.terms, j - 1, False),
                                        k - 1, True)
                assert oracle == direct == Poly(2, raw).evaluate(w)


def test_wirtinger_lowers_weight_by_mu_j():
    rng = random.Random(9)
    mu = (Fraction(1), Fraction(1, 3), Fraction(1, 5))
    for _ in range(50):
        p = rand_real_poly(rng, 3, terms=3, max_exp=2)
        for j in (2, 3):
            d = p.wirtinger(j)
            for key in d.terms:
                orders = {weighted_order(k, mu) for k in p.terms
                          if _is_parent(k, key, j, False)}
                assert weighted_order(key, mu) + mu[j - 1] in orders


def _is_parent(parent, child, j, conjugate):
    a, b = parent
    ca, cb = child
    i = j - 1
    if conjugate:
        return a == ca and b[:i] == cb[:i] and b[i] == cb[i] + 1 \
            and b[i + 1:] == cb[i + 1:]
    return b == cb and a[:i] == ca[:i] and a[i] == ca[i] + 1 \
        and a[i + 1:] == ca[i + 1:]


# ----------------------------------------------------------------------
# substitution
# ----------------------------------------------------------------------


def test_substitute_identity():
    p = parse_poly("|z2|^4 + 2*Re(z2*zbar3)", 3)
    assert p.substitute_maps([Poly.variable(3, j) for j in (1, 2, 3)]) == p


def test_substitute_square_identity():
    # |z2^p + eps z3^q|^2 + (1 - eps^2)|z3|^(2q) equals the mixed expansion.
    for p_exp in (2, 3):
        for q_exp in (2, 3):
            for eps in (Fraction(1, 2), Fraction(9, 10)):
                w = Poly.monomial(3, (0, p_exp, 0), (0, 0, 0), 1) + \
                    Poly.monomial(3, (0, 0, q_exp), (0, 0, 0), eps)
                lhs = w * w.conj() + Poly.monomial(
                    3, (0, 0, q_exp), (0, 0, q_exp), 1 - eps * eps)
                rhs = Poly.monomial(3, (0, p_exp, 0), (0, p_exp, 0)) + \
                    Poly.monomial(3, (0, 0, q_exp), (0, 0, q_exp)) + \
                    Poly.monomial(3, (0, p_exp, 0), (0, 0, q_exp), eps) + \
                    Poly.monomial(3, (0, 0, q_exp), (0, p_exp, 0), eps)
                assert (lhs - rhs).is_zero()


def test_substitute_scaling():
    p = parse_poly("|z2|^2", 2)
    mu = (Fraction(1), Fraction(1, 2))
    c = linear_change(2, {(1, 1): 1, (2, 2): 2}, mu)
    assert c.apply(p) == parse_poly("4*|z2|^2", 2)


def test_substitute_functoriality_random():
    rng = random.Random(13)
    mu = (Fraction(1), Fraction(1, 2), Fraction(1, 2))
    for _ in range(60):
        p = rand_real_poly(rng, 3, terms=3, max_exp=2)
        c1 = _random_change(rng, mu)
        c2 = _random_change(rng, mu)
        lhs = c2.apply(c1.apply(p))
        rhs = c1.compose(c2).apply(p)
        assert lhs == rhs


def _random_change(rng, mu):
    # invertible triangular change within the equal-weight block {2, 3}
    a = Fraction(rng.randint(1, 3))
    b = Fraction(rng.randint(-2, 2))
    d = Fraction(rng.randint(1, 3))
    return linear_change(3, {(1, 1): 1, (2, 2): a, (2, 3): b, (3, 3): d}, mu)


def _one_term_map(rng, n, j):
    """z_j, c z_j with c complex, or (rarely) a monomial or the zero map."""
    roll = rng.random()
    if roll < 0.4:
        return Poly.variable(n, j)
    if roll < 0.8:
        return Poly.variable(n, j) * rand_crat(rng)
    if roll < 0.95:
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        return Poly.monomial(n, alpha, (0,) * n, rand_crat(rng))
    return Poly.zero(n)


def _substitution_cases(rng, n):
    """Permutations, complex-scaled variables, shears and mixed maps."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    yield [Poly.variable(n, j) for j in perm]
    yield [Poly.variable(n, j) * rand_crat(rng) for j in perm]
    shear = [Poly.variable(n, j) for j in range(1, n + 1)]
    i, j = rng.sample(range(1, n + 1), 2)
    shear[i - 1] = shear[i - 1] + Poly.variable(n, j) ** rng.randint(1, 3) \
        * rand_crat(rng)
    yield shear
    yield [_one_term_map(rng, n, j) if rng.random() < 0.5
           else rand_holomorphic(rng, n, terms=rng.randint(2, 3))
           for j in range(1, n + 1)]


def test_substitute_maps_matches_expanding_oracle():
    # same terms, same coefficients and the same term order as expanding
    # every map and summing term by term
    rng = random.Random(2024)
    for trial in range(40):
        n = rng.randint(2, 4)
        p = rand_real_poly(rng, n, terms=rng.randint(1, 4), max_exp=2)
        for maps in _substitution_cases(rng, n):
            got = p.substitute_maps(maps)
            want = substitute_maps_oracle(p, maps)
            assert list(got.terms.items()) == list(want.terms.items()), \
                (trial, str(p), [str(f) for f in maps])


def test_substitute_maps_cancellation_keeps_oracle_order():
    # z2 -> z2 + z3 and z3 -> -z3 make pieces cancel and reappear
    p = parse_poly("|z2|^2 + |z3|^2 + 2*Re(z2*zbar3)", 3)
    maps = [Poly.variable(3, 1), Poly.variable(3, 2) + Poly.variable(3, 3),
            -Poly.variable(3, 3)]
    got = p.substitute_maps(maps)
    want = substitute_maps_oracle(p, maps)
    assert got == parse_poly("|z2|^2", 3)
    assert list(got.terms.items()) == list(want.terms.items())
    # under z1 -> z1 + z2, |z2|^2 appears, cancels against -|z2|^2 and
    # reappears from z1 zbar2 after the terms of |z1|^4: it moves behind them
    one = CRat(1)
    p = Poly(2, {((1, 0), (1, 0)): one, ((0, 1), (0, 1)): -one,
                 ((2, 0), (2, 0)): one, ((1, 0), (0, 1)): one,
                 ((0, 1), (1, 0)): one})
    maps = [Poly.variable(2, 1) + Poly.variable(2, 2), Poly.variable(2, 2)]
    got = p.substitute_maps(maps)
    want = substitute_maps_oracle(p, maps)
    assert list(got.terms.items()) == list(want.terms.items())
    assert list(got.terms)[-1] == ((0, 1), (0, 1))


def test_power_matches_repeated_products():
    # one-term bases are raised in closed form, any other by squaring; both
    # equal the product of e copies, key order included
    rng = random.Random(3808)
    for _ in range(60):
        n = rng.randint(1, 4)
        base = Poly.zero(n)
        for _t in range(rng.choice((1, 1, 2, 3))):
            a, b = (tuple(rng.randint(0, 2) for _ in range(n))
                    for _ in range(2))
            base = base + Poly.monomial(n, a, b, CRat(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        want = Poly.const(n, 1)
        for e in range(6):
            got = base ** e
            assert got == want and list(got.terms) == list(want.terms), \
                (str(base), e)
            want = want * base


def test_one_term_power_forms_no_product(monkeypatch):
    # a one-term power, and so each power of an identity or monomial map in
    # substitute_maps, is formed without the product kernel
    calls = []
    mul = poly._mul_terms

    def counted(*args, **kwargs):
        calls.append(len(args[0]) * len(args[1]))
        return mul(*args, **kwargs)
    monkeypatch.setattr(poly, "_mul_terms", counted)
    z = Poly.monomial(3, (0, 2, 1), (1, 0, 0), CRat(Fraction(2, 3), 1))
    assert z ** 7 == Poly.monomial(3, (0, 14, 7), (7, 0, 0),
                                   CRat(Fraction(2, 3), 1) ** 7)
    assert calls == []
    p = parse_poly("|z2|^4 + |z3|^6 + 2*Re(z2^2*zbar3^3)", 3)
    identity = [Poly.variable(3, v) for v in (1, 2, 3)]
    assert p.substitute_maps(identity) == p
    # one product per variable power of each term, none inside a power
    assert calls == [1] * 8


def test_substitute_maps_rejects_bad_maps():
    p = parse_poly("|z2|^2", 2)
    with pytest.raises(PolyError):
        p.substitute_maps([Poly.variable(2, 1)])
    with pytest.raises(PolyError):
        p.substitute_maps([Poly.variable(2, 1),
                           Poly.monomial(2, (0, 0), (0, 1))])
    with pytest.raises(PolyError):
        p.substitute_maps([Poly.variable(2, 1), Poly.variable(3, 2)])


def _expansion_size(p, maps):
    """Term products a plain expansion of p under maps would form."""
    total = 0
    for (a, b) in p.terms:
        size = 1
        for f, e in zip(maps, map(sum, zip(a, b))):
            size *= len(f.terms) ** e
        total += size
    return total


def test_substitute_maps_composes_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    crats = st.builds(CRat, small, small).filter(lambda c: not c.is_zero())

    def exponents(n, top=2):
        return st.tuples(*[st.integers(0, top)] * n)

    def holomorphic_map(n):
        # one term moves exponents; several are expanded
        term = st.tuples(exponents(n), crats)
        several = st.lists(st.tuples(exponents(n, 1), crats), min_size=2,
                           max_size=3)
        return st.one_of(term.map(lambda t: [t]), several).map(
            lambda ts: sum((Poly.monomial(n, a, (0,) * n, c) for a, c in ts),
                           Poly.zero(n)))

    @st.composite
    def case(draw):
        n, m, k = (draw(st.integers(1, 3)) for _ in range(3))
        terms = draw(st.lists(st.tuples(exponents(n), exponents(n), crats),
                              min_size=1, max_size=3))
        p = sum((Poly.monomial(n, a, b, c) for a, b, c in terms),
                Poly.zero(n))
        f = draw(st.lists(holomorphic_map(m), min_size=n, max_size=n))
        g = draw(st.lists(holomorphic_map(k), min_size=m, max_size=m))
        return p, f, g

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         suppress_health_check=[
                             hypothesis.HealthCheck.filter_too_much,
                             hypothesis.HealthCheck.too_slow])
    @hypothesis.given(case())
    def check(c):
        p, f, g = c
        # skip the draws whose expansions blow up
        hypothesis.assume(_expansion_size(p, f) <= 3000)
        pf = p.substitute_maps(f)
        hypothesis.assume(_expansion_size(pf, g) <= 3000)
        fg = [fi.substitute_maps(g) for fi in f]
        hypothesis.assume(_expansion_size(p, fg) <= 3000)
        assert pf.substitute_maps(g) == p.substitute_maps(fg)

    check()


def test_substitution_preserves_weight_order():
    p = parse_poly("-2*Re(z1) + |z2|^4 + |z2|^2*|z3|^2", 3)
    mu = (Fraction(1), Fraction(1, 4), Fraction(1, 4))
    c = linear_change(3, {(1, 1): 1, (2, 2): 1, (2, 3): 1, (3, 3): 1}, mu)
    q = c.apply(p)
    for key in q.terms:
        assert weighted_order(key, mu) >= 1


def test_coord_change_rejects_singular_block():
    mu = (Fraction(1), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(PolyError):
        linear_change(3, {(1, 1): 1, (2, 2): 1, (3, 2): 1}, mu)


def test_coord_change_weight_bound_is_exact():
    # z3*z4 weighs 1/4 + 1/6 = 5/12, exactly mu_2, and is accepted; z4^2
    # weighs 4/12, the next order below it, and is refused
    mu = (Fraction(1), Fraction(5, 12), Fraction(1, 4), Fraction(1, 6))
    z1, z2, z3, z4 = (Poly.variable(4, j) for j in range(1, 5))
    change = CoordChange(4, [z1, z2 + z3 * z4, z3, z4], mu)
    assert change.maps[1] == z2 + z3 * z4
    with pytest.raises(PolyError) as exc:
        CoordChange(4, [z1, z2 + z4 ** 2, z3, z4], mu)
    assert str(exc.value) == \
        "component map 2 has a monomial of weight below 5/12"


def test_coord_change_rejects_low_weight_monomial():
    mu = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    maps = [Poly.variable(3, 1), Poly.variable(3, 2) + Poly.variable(3, 3),
            Poly.variable(3, 3)]
    # z3 has weight 1/4 < 1/2, so it may not appear in the z2 map
    with pytest.raises(PolyError):
        CoordChange(3, maps, mu)


# ----------------------------------------------------------------------
# ring laws and Hermitian closure
# ----------------------------------------------------------------------


def test_ring_laws_random():
    rng = random.Random(17)
    for _ in range(200):
        a = rand_real_poly(rng, 2)
        b = rand_real_poly(rng, 2)
        c = rand_real_poly(rng, 2)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_hermitian_closure_random():
    rng = random.Random(19)
    for _ in range(100):
        a = rand_real_poly(rng, 3)
        b = rand_real_poly(rng, 3)
        assert (a + b).is_real()
        assert (a * b).is_real()
        assert (-a).is_real()
        assert a.conj() == a


def _rand_cancelling_poly(rng, n):
    """Non-real polynomial with coefficients in {-1, 1, +-i, 1/2}, so sums,
    products and derivatives often cancel terms."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        key = (tuple(rng.randint(0, 2) for _ in range(n)),
               tuple(rng.randint(0, 2) for _ in range(n)))
        terms[key] = rng.choice((CRat(1), CRat(-1), CRat(0, 1), CRat(0, -1),
                                 CRat(Fraction(1, 2))))
    return Poly(n, terms)


def test_ring_op_results_are_valid_polys():
    """Ring operations build their results without re-validation; each
    result must still equal its validated copy and hold no zero term."""
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 3)
        p, q = _rand_cancelling_poly(rng, n), _rand_cancelling_poly(rng, n)
        minus_p = Poly(n, {k: -c for k, c in p.terms.items()})
        results = [p + q, p - q, p - p, p + minus_p, -p, p * q, p * minus_p,
                   p * 0, p * CRat(0, 1), 3 * p, Fraction(1, 2) * p, p ** 2,
                   p.conj(), p.conj() * p,
                   _capped_products(n, [(p, q), (q, minus_p)], None)]
        results += [p.wirtinger(j, conjugate=c) for j in range(1, n + 1)
                    for c in (False, True)]
        results += [_capped_products(n, [(p, q), (q, p)], cap)
                    for cap in range(5)]
        for r in results:
            assert r.n == n
            assert r == Poly(r.n, dict(r.terms))
            assert all(not c.is_zero() for c in r.terms.values())
        assert (p - p).is_zero() and (p + minus_p).is_zero()
        assert (p * 0).is_zero()


# ----------------------------------------------------------------------
# revlex selection
# ----------------------------------------------------------------------


def test_revlex_prefers_last_variable():
    p = parse_poly("|z2|^4 + |z2|^2*|z3|^2 + |z3|^4", 3)
    key = revlex_max_balanced(p, [2, 3])
    assert key == ((0, 0, 2), (0, 0, 2))


def test_revlex_four_variable_selection():
    p = parse_poly("|z2|^4 + |z2|^2*|z3|^2 + |z2|^2*|z4|^2 + |z3|^2*|z4|^2", 4)
    key = revlex_max_balanced(p, [2, 3, 4])
    assert key == ((0, 0, 1, 1), (0, 0, 1, 1))


def test_revlex_no_balanced():
    p = parse_poly("2*Re(z2^2*zbar3^3)", 3)
    assert revlex_max_balanced(p, [2, 3]) is None


def test_revlex_respects_active_set():
    p = parse_poly("|z2|^8 + |z2|^4*|z3|^6", 3)
    assert revlex_max_balanced(p, [2]) == ((0, 4, 0), (0, 4, 0))
    assert revlex_max_balanced(p, [2, 3]) == ((0, 2, 3), (0, 2, 3))


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_json_round_trip_random():
    rng = random.Random(23)
    for _ in range(50):
        p = rand_real_poly(rng, 3)
        blob = json.dumps(p.to_json_dict())
        q = Poly.from_json_dict(json.loads(blob))
        assert p == q
        assert json.dumps(q.to_json_dict()) == blob


def test_json_terms_canonically_ordered():
    p = parse_poly("|z2|^4 + |z3|^2 + 2*Re(z2*zbar3)", 3)
    d = p.to_json_dict()
    keys = [(tuple(t["alpha"]), tuple(t["beta"])) for t in d["terms"]]
    degrees = [sum(a) + sum(b) for a, b in keys]
    assert degrees == sorted(degrees)


def test_split_model_returns_head_and_tangential_part():
    c1, p = split_model(parse_poly("-2*Re(z1) + |z2|^4 + 2*Re(z2*zbar3)", 3))
    assert c1 == CRat(-1)
    assert p == parse_poly("|z2|^4 + 2*Re(z2*zbar3)", 3)
    c1, p = split_model(parse_poly("3*Re(z1) + |z2|^2", 2))
    assert c1 == CRat(Fraction(3, 2))
    assert p == parse_poly("|z2|^2", 2)


@pytest.mark.parametrize("expr", [
    "-2*Re(z1) + 2*Re(z1^2) + |z2|^2",       # nonlinear z1
    "-2*Re(z1^2) + |z2|^2",                  # no linear head: c1 = 0
    "|z2|^2",                                # c1 = 0
    "2*Im(z1) + |z2|^2",                     # c1 not real
    "-2*Re(z1) + 2*Re(z1*zbar2) + |z2|^2",   # z1 inside p
    "-2*Re(z1) + |z1|^2*|z2|^2",             # z1 inside p
], ids=["nonlinear", "no-head", "zero-c1", "imaginary-c1", "mixed-z1",
        "z1-in-p"])
def test_split_model_rejects(expr):
    with pytest.raises(PolyError):
        split_model(parse_poly(expr, 2))


_MU2 = (Fraction(1), Fraction(1, 2))
_Z1, _Z2 = Poly.variable(2, 1), Poly.variable(2, 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Poly(0, {}), PolyError, "dimension must be >= 1"),
    (lambda: Poly(2, {((1,), (0,)): 1}), DimensionMismatch,
     "exponent length != n=2: ((1,), (0,))"),
    (lambda: Poly(2, {((1, -1), (0, 0)): 1}), PolyError,
     "negative exponent in ((1, -1), (0, 0))"),
    (lambda: _Z1 + Poly.variable(3, 1), DimensionMismatch, "n=2 vs n=3"),
    (lambda: _Z1 ** -1, PolyError, "exponent must be a nonnegative integer"),
    (lambda: _Z1.evaluate([1]), DimensionMismatch, "point length != n"),
    (lambda: Poly.from_json_dict({"n": 2, "terms": {}}), PolyError,
     "JSON polynomial: terms must be a list"),
    (lambda: Poly.variable(2, 3), DimensionMismatch,
     "variable index 3 out of range 1..2"),
    (lambda: weighted_order(((1, 0), (0, 0)), (Fraction(1),)),
     DimensionMismatch, "weight length != exponent length"),
    (lambda: CoordChange(2, [_Z1], _MU2), DimensionMismatch,
     "need one map and one weight per variable"),
    (lambda: CoordChange(2, [_Z1, Poly.variable(3, 2)], _MU2),
     DimensionMismatch, "component map dimension mismatch"),
    (lambda: CoordChange(2, [_Z1, Poly.monomial(2, (0, 0), (0, 1))], _MU2),
     PolyError, "component map 2 is not holomorphic"),
    (lambda: CoordChange(2, [_Z1, _Z2 + Poly.const(2, 1)], _MU2), PolyError,
     "component map 2 does not fix the origin"),
    (lambda: CoordChange(2, [_Z1 + _Z2, _Z1 + _Z2], _MU2, graded=False),
     PolyError, "linear part of the change is singular"),
], ids=["dimension", "exponent-length", "negative-exponent", "add-dimension",
        "negative-power", "point-length", "json-terms", "variable-index",
        "weight-length", "change-map-count", "change-map-dimension",
        "change-not-holomorphic", "change-moves-origin",
        "ungraded-change-singular"])
def test_input_checks_raise(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("expr, n, text", [
    ("3", 2, "3"),
    ("|z2|^2 - 1", 2, "-1 + |z2|^2"),
    ("-1/2 + 2*Re(z2)", 2, "-1/2 + 2*Re(z2)"),
    ("-2*Re(z1) + 2 + |z3|^4", 3, "2 - 2*Re(z1) + |z3|^4"),
], ids=["integer", "negative", "fraction", "model"])
def test_constant_term_prints_without_a_factor(expr, n, text):
    p = parse_poly(expr, n)
    assert str(p) == text
    assert parse_poly(text, n) == p
