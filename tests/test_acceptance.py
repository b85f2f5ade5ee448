"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (zero-tolerance rational comparisons); the stated time
budgets are asserted as hard limits.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from catlin.boundary import (audit_boundary_system, build_boundary_system,
                             detect_torsion, normalize_first_block)
from catlin.cli import main as cli_main
from catlin.levi import (KIND_CERTIFIED, KIND_REFUTED, psd_verdict,
                         replay_refutation, verify_psd_certificate)
from catlin.normal_form import normalize, verify_normal_form
from catlin.parser import parse_poly
from catlin.poly import Poly, eliminate_harmonic
from catlin.weights import (InverseWeight, counting_bound, enumerate_multitypes,
                            is_admissible, multitype_search)

from helpers import (_rational_rank, all_satisfied,
                     homogenized_modulus_square, linear_change,
                     one_var_coeff_check, rand_real_poly, weighted_order)

TORSION_EXPR = ("-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
                " + |z2|^2*|z3|^4*|z4|^4"
                " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
                " + |z3|^8*|z4|^2")


class _Timer:
    def __init__(self, name: str, limit: float):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {status} [{elapsed:6.2f}s <= {self.limit:g}s] "
              f"{self.name}")
        if exc_type is None:
            assert elapsed <= self.limit, \
                f"{self.name}: {elapsed:.2f}s over the {self.limit}s budget"
        return False


def test_criterion_1_square_identity():
    with _Timer("1: sum-of-squares identity", 1.0):
        for p in (2, 3):
            for q in (2, 3):
                for eps in (Fraction(1, 2), Fraction(9, 10)):
                    w = Poly.monomial(3, (0, p, 0), (0, 0, 0), 1) + \
                        Poly.monomial(3, (0, 0, q), (0, 0, 0), eps)
                    lhs = w * w.conj() + \
                        Poly.monomial(3, (0, 0, q), (0, 0, q), 1 - eps * eps)
                    rhs = Poly.monomial(3, (0, p, 0), (0, p, 0)) + \
                        Poly.monomial(3, (0, 0, q), (0, 0, q)) + \
                        Poly.monomial(3, (0, p, 0), (0, 0, q), eps) + \
                        Poly.monomial(3, (0, 0, q), (0, p, 0), eps)
                    assert (lhs - rhs).is_zero()


def test_criterion_2_weighted_model():
    with _Timer("2: multitype and normal form of the weighted model", 1.0):
        r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
        mt = multitype_search(r)
        assert mt.value == InverseWeight((Fraction(1), 8, 12))
        mu = mt.value.weight()
        nf = normalize(r, mu, assert_psc=True)
        assert nf.K == [[4], [2, 3]]
        assert nf.A == [Fraction(1), Fraction(1)]
        assert nf.residual.is_zero()
        ok, violations = verify_normal_form(nf, r, mu)
        assert ok, violations


def test_criterion_3_rank_gap():
    with _Timer("3: distinguished weight vs commutator multitype gap", 5.0):
        r = parse_poly("Re(z1) + (Re(z2) + |z3|^2)^2", 3)
        mt = multitype_search(r)
        assert mt.value == InverseWeight((Fraction(1), 2, 4))
        bs = build_boundary_system(r)
        c = bs.commutator_multitype()
        assert c.entries == (Fraction(1), Fraction(2), float("inf"))
        assert mt.value.entries < c.entries  # strict lexicographic gap


def test_criterion_4_torsion_certificate():
    with _Timer("4: pairing certificate and torsion obstruction", 10.0):
        r = parse_poly(TORSION_EXPR, 4)
        p = Poly(4, {k: c for k, c in r.terms.items()
                     if k[0][0] == 0 and k[1][0] == 0})
        verdict = psd_verdict(p)
        assert verdict.kind == KIND_CERTIFIED and verdict.tier == 2
        assert verify_psd_certificate(p, verdict.certificate)
        mixed, = verdict.certificate["mixed"]
        systems = {frozenset(tuple(row) for row in sys_)
                   for sys_ in mixed["kernel_systems"]}
        assert systems == {frozenset({(1, 3, 0), (1, 2, 2)}),
                           frozenset({(2, 1, 1), (0, 4, 1)})}
        # trivial intersection, re-derived by elimination over the rationals
        rows = [list(row) for sys_ in mixed["kernel_systems"] for row in sys_]
        assert _rational_rank(rows) == 3
        bs = normalize_first_block(build_boundary_system(r))
        report = detect_torsion(bs)
        assert report.applicable and report.torsion
        assert not report.linear_coeff.is_zero()
        obstruction = report.obstruction
        assert not obstruction.is_zero()
        c2 = obstruction.coeff((0, 0, 0, 1), (0, 0, 0, 1))
        assert not c2.is_zero()


def test_criterion_5_four_variable_selection():
    with _Timer("5: four-variable square selection", 1.0):
        r = parse_poly("-2*Re(z1) + |z2|^4 + |z2|^2*|z3|^2 + |z2|^2*|z4|^2"
                       " + |z3|^2*|z4|^2", 4)
        mt = multitype_search(r)
        nf = normalize(r, mt.value.weight(), assert_psc=True)
        assert nf.K == [[2], [1, 1], [0, 1, 1]]
        assert nf.rows[2].ks == (0, 1, 1)          # |z3|^2 |z4|^2 ...
        assert nf.rows[2].ks != (1, 0, 1)          # ... and not |z2|^2 |z4|^2
        ok, violations = verify_normal_form(nf, r, mt.value.weight())
        assert ok, violations


def test_criterion_6_counting():
    with _Timer("6: multitype enumeration against the counting bound", 10.0):
        two_four = enumerate_multitypes(2, 4)
        assert two_four == [InverseWeight((Fraction(1), 2)),
                            InverseWeight((Fraction(1), 4))]
        assert counting_bound(2, 4) == 2
        three_six = enumerate_multitypes(3, 6)
        assert counting_bound(3, 6) == 36
        assert len(three_six) <= 36
        for w in two_four + three_six:
            ok, _ = is_admissible(w)
            assert ok


def test_criterion_7_coefficient_bounds_suite():
    with _Timer("7: one-variable coefficient bound suite (200 runs)", 30.0):
        rng = random.Random(2024)
        for _ in range(200):
            m = rng.randint(1, 6)
            p = homogenized_modulus_square(rng, m) + \
                homogenized_modulus_square(rng, m)
            report = one_var_coeff_check(p)
            assert report.C0 > 0
            assert all_satisfied(report)


def test_criterion_8_refutation():
    with _Timer("8: non-pseudoconvex refutation", 5.0):
        p = parse_poly("2*Re(z2^2*zbar3^3)", 3)
        verdict = psd_verdict(p)
        assert verdict.kind == KIND_REFUTED
        value = replay_refutation(p, verdict.witness)
        assert value < 0
        assert str(value) == verdict.witness["value"]
        code = cli_main(["normalize", "--expr",
                         "-2*Re(z1) + 2*Re(z2^2*zbar3^3)", "--n", "3",
                         "--assert-psc"])
        assert code == 3


def test_criterion_9_first_block_fixpoint():
    with _Timer("9: first-block normalization fixpoint", 10.0):
        r = parse_poly("-2*Re(z1) + |z2 + z3^2|^4 + |z3|^8", 3)
        bs = build_boundary_system(r)
        assert bs.slow[2].r_func != parse_poly("Re(z2)", 3)
        bs2 = normalize_first_block(bs)
        assert bs2.slow[2].r_func == parse_poly("Re(z2)", 3)
        transformed = bs2.transform.apply(r)
        rebuilt = build_boundary_system(transformed)
        assert rebuilt.slow[2].r_func == parse_poly("Re(z2)", 3)
        assert rebuilt.commutator_multitype() == bs.commutator_multitype()
        assert audit_boundary_system(rebuilt) == []


def test_criterion_10_algebra_property_suites():
    with _Timer("10: algebra property suites (500 instances each)", 60.0):
        rng = random.Random(99)
        # ring laws
        for _ in range(500):
            a = rand_real_poly(rng, 2, terms=2, max_exp=2)
            b = rand_real_poly(rng, 2, terms=2, max_exp=2)
            c = rand_real_poly(rng, 2, terms=1, max_exp=2)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()
        # Hermitian closure
        for _ in range(500):
            a = rand_real_poly(rng, 2, terms=2, max_exp=2)
            b = rand_real_poly(rng, 2, terms=2, max_exp=2)
            assert (a * b + a).is_real()
        # substitution functoriality
        mu = (Fraction(1), Fraction(1, 2), Fraction(1, 2))
        for _ in range(500):
            p = rand_real_poly(rng, 3, terms=2, max_exp=2)
            c1 = linear_change(
                3, {(1, 1): 1, (2, 2): Fraction(rng.randint(1, 3)),
                    (2, 3): Fraction(rng.randint(-2, 2)), (3, 3): 1}, mu)
            c2 = linear_change(
                3, {(1, 1): 1, (2, 2): 1,
                    (3, 2): Fraction(rng.randint(-2, 2)),
                    (3, 3): Fraction(rng.randint(1, 3))}, mu)
            assert c2.apply(c1.apply(p)) == c1.compose(c2).apply(p)
        # grading reconstruction
        for _ in range(500):
            p = rand_real_poly(rng, 2, terms=3, max_exp=3)
            parts = p.grade((Fraction(1), Fraction(1, 3)))
            total = Poly.zero(2)
            for w, part in parts.items():
                assert all(weighted_order(k, (Fraction(1), Fraction(1, 3))) == w
                           for k in part.terms)
                total = total + part
            assert total == p
        # harmonic elimination idempotence
        for _ in range(500):
            f = rand_real_poly(rng, 2, terms=2, max_exp=2)
            f = Poly(2, {k: v for k, v in f.terms.items()
                         if k[0][0] == 0 and k[1][0] == 0})
            r = parse_poly("-2*Re(z1)", 2) + f
            r1, _h = eliminate_harmonic(r)
            r2, h2 = eliminate_harmonic(r1)
            assert r1 == r2 and h2.is_zero()
