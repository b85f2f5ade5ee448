import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from catlin import cli, normal_form
from catlin.exact import CRat
from catlin.normal_form import (NormalForm, NormalRow, PseudoconvexityError,
                                _Degenerate, normalize, step_first,
                                step_inductive, verify_normal_form)
from catlin.parser import parse_poly
from catlin.poly import CoordChange, Poly, PolyError
from catlin.weights import Weight, multitype_search

from helpers import rand_crat, rand_fraction, step_first_oracle

MU_EQQ = Weight((Fraction(1), Fraction(1, 8), Fraction(1, 12)))
MU_TORSION = Weight((Fraction(1), Fraction(1, 6), Fraction(1, 9),
                     Fraction(1, 18)))


def model_p(expr: str, n: int) -> Poly:
    r = parse_poly(expr, n)
    return Poly(n, {k: c for k, c in r.terms.items()
                    if k[0][0] == 0 and k[1][0] == 0})


# ----------------------------------------------------------------------
# step_first
# ----------------------------------------------------------------------


def test_step_first_modulus_fourth():
    p = model_p("|z2|^4", 2)
    mu = Weight((Fraction(1), Fraction(1, 4)))
    change, p2, k22, c20, _ = step_first(p, mu)
    assert (k22, c20) == (2, 1)
    assert p2 == p
    assert change is None  # z2 is active: the coordinates stay


def test_step_first_torsion_model():
    p = model_p(
        "|z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2 + |z2|^2*|z3|^4*|z4|^4"
        " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4) + |z3|^8*|z4|^2", 4)
    _, p2, k22, c20, _ = step_first(p, MU_TORSION)
    assert (k22, c20) == (3, 1)
    assert p2 == model_p("|z2|^6", 4)


def test_step_first_block_direction_mixing():
    # restriction vanishes on the z2 axis but not in the equal-weight block
    p = model_p("|z3|^4", 3)
    mu = Weight((Fraction(1), Fraction(1, 4), Fraction(1, 4)))
    change, p2, k22, c20, _ = step_first(p, mu)
    assert k22 == 2 and c20 > 0
    assert not p2.is_zero()
    assert change is not None
    assert change.apply(p).restrict_support([2]) == p2


def test_step_first_degenerate_signals():
    p = model_p("|z2|^4*|z3|^6", 3)
    with pytest.raises(_Degenerate) as deg:
        step_first(p, MU_EQQ)
    assert deg.value.slot == 2


def test_step_first_odd_degree_contradiction():
    p = model_p("2*Re(z2^2*zbar3^3)", 3)
    mu = Weight((Fraction(1), Fraction(1, 5), Fraction(1, 5)))
    with pytest.raises(PseudoconvexityError):
        step_first(p, mu, assert_psc=True)


def _step_first_outcome(step, p, mu, assert_psc):
    """(kind, value) of one slot-2 step: the 5-tuple on success."""
    try:
        return "success", step(p, mu, assert_psc)
    except _Degenerate as deg:
        return "degenerate", (deg.slot, deg.remaining)
    except PseudoconvexityError:
        return "contradiction", None
    except PolyError:
        return "error", None


# (model after -2*Re(z1), n, weight; None takes the search weight): the
# normalize workload's families, this module's models, and slot-2 failures
NORMALIZE_FAMILIES = [
    ("(1/2)*|z2|^4 + (3)*|z3|^6", 3, None),
    ("|z2|^4 + (2/3)*|z3|^6 + (5/4)*|z4|^6 + (2)*|z5|^8", 5, None),
    ("(3/2)*|z2|^8 + (1/3)*|z2|^4*|z3|^6", 3, None),
    ("(2)*|z2|^6 + |z2|^2*|z3|^4", 3, None),
    ("|z2|^4 + (2)*|z2|^2*|z3|^2 + |z2|^2*|z4|^2 + (1/2)*|z3|^2*|z4|^2", 4,
     None),
    ("|z2 + (-1/2)*z3^2|^4 + (5/4)*|z3|^8", 3, None),
    ("|z2 + (2)*z3^2|^4 + |z3|^8 + (3)*|z4|^8", 4, None),
    ("|z2 + (1)*z3^3|^6 + (2/3)*|z3|^18", 3, None),
    ("2*(1/4)*Re(z2^2*zbar3^3)", 3, None),
    ("2*(-1/3)*Re(z2^3*zbar3^2)", 3, None),
    ("2*(1/2)*Re(z2*zbar3^2)", 3, None),
    ("2*(-1/4)*Re(z2^3*zbar3^4)", 3, None),
    ("|z2|^4*|z3|^6", 3, MU_EQQ.entries),
    ("2*Re(z2^8) + |z2|^4*|z3|^6", 3, MU_EQQ.entries),
    ("|z2|^4 + |z3|^6", 3, (1, Fraction(1, 4), Fraction(1, 4))),
    ("|z3|^4", 3, (1, Fraction(1, 4), Fraction(1, 4))),
    ("|z2|^4 + |z2|^2*|z4|^4", 4,
     (1, Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))),
    ("(Re(z2))^2", 2, (1, Fraction(1, 2))),
    ("|z2|^4 + 2*(2)*Re(z2^3*zbar2)", 2, (1, Fraction(1, 4))),
    ("(-1)*|z2|^4", 2, (1, Fraction(1, 4))),
    ("|z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2 + |z2|^2*|z3|^4*|z4|^4"
     " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4) + |z3|^8*|z4|^2", 4,
     MU_TORSION.entries),
]


def test_step_first_matches_parent_on_normalize_families(monkeypatch):
    # every slot-2 step normalize takes, descents included, against the
    # earlier step_first with its own extraction
    kinds = Counter()
    new_step = normal_form.step_first

    def compared(p, mu, assert_psc=False):
        got = _step_first_outcome(new_step, p, mu, assert_psc)
        assert got == _step_first_outcome(step_first_oracle, p, mu,
                                          assert_psc), (str(p), mu)
        kinds[got[0]] += 1
        return new_step(p, mu, assert_psc)

    monkeypatch.setattr(normal_form, "step_first", compared)
    for expr, n, mu in NORMALIZE_FAMILIES:
        r = parse_poly("-2*Re(z1) + " + expr, n)
        mu = multitype_search(r).value.weight() if mu is None else Weight(mu)
        for assert_psc in (False, True):
            try:
                normalize(r, mu, assert_psc=assert_psc)
            except PseudoconvexityError:
                assert assert_psc
    assert set(kinds) == {"success", "degenerate", "contradiction"}, kinds


def _random_weight_one_model(rng):
    """A real model of weight exactly 1 under a weight with 1/mu integral
    (ties between slots often), with coefficients of either sign."""
    n = rng.randint(2, 4)
    ds = sorted(rng.choice((2, 3, 4, 6)) for _ in range(n - 1))
    mu = Weight((Fraction(1),) + tuple(Fraction(1, d) for d in ds))
    totals = [e for e in itertools.product(*(range(d + 1) for d in ds))
              if sum(Fraction(x, d) for x, d in zip(e, ds)) == 1]
    p = Poly.zero(n)
    for _ in range(rng.randint(1, 3)):
        e = rng.choice(totals)
        a = [rng.randint(0, x) for x in e]
        alpha = (0,) + tuple(a)
        beta = (0,) + tuple(x - y for x, y in zip(e, a))
        c = CRat(rand_fraction(rng)) if alpha == beta else rand_crat(rng)
        p = p + Poly.monomial(n, alpha, beta, c) \
            + Poly.monomial(n, beta, alpha, c.conj())
    return p, mu


def test_step_first_matches_parent_on_random_models():
    rng = random.Random(83)
    kinds = Counter()
    for _ in range(400):
        p, mu = _random_weight_one_model(rng)
        for assert_psc in (False, True):
            got = _step_first_outcome(step_first, p, mu, assert_psc)
            assert got == _step_first_outcome(step_first_oracle, p, mu,
                                              assert_psc), (str(p), mu)
            kinds[got[0]] += 1
    assert set(kinds) == {"success", "degenerate", "contradiction"}, kinds
    assert min(kinds.values()) >= 20, kinds


# ----------------------------------------------------------------------
# step_inductive
# ----------------------------------------------------------------------


def test_step_inductive_weighted_model():
    p = model_p("|z2|^8 + |z2|^4*|z3|^6", 3)
    q = p - model_p("|z2|^8", 3)
    change, pm, row, coeff = step_inductive(q, MU_EQQ, 3)
    assert row == (2, 3) and coeff == 1
    assert pm == model_p("|z2|^4*|z3|^6", 3)
    assert change is None


def test_step_inductive_four_variable():
    mu = Weight((Fraction(1),) + (Fraction(1, 4),) * 3)
    p = model_p("|z2|^4 + |z2|^2*|z3|^2 + |z2|^2*|z4|^2 + |z3|^2*|z4|^2", 4)
    q3 = p - model_p("|z2|^4", 4) - model_p("|z2|^2*|z3|^2", 4)
    change, pm, row, coeff = step_inductive(q3, mu, 4)
    assert row == (0, 1, 1) and coeff == 1


def test_step_inductive_degenerate():
    q = Poly.zero(3)
    with pytest.raises(_Degenerate):
        step_inductive(q, MU_EQQ, 3)


# ----------------------------------------------------------------------
# normalize end to end
# ----------------------------------------------------------------------


def test_normalize_weighted_model():
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    nf = normalize(r, MU_EQQ, assert_psc=True)
    assert nf.K == [[4], [2, 3]]
    assert nf.A == [Fraction(1), Fraction(1)]
    assert nf.residual.is_zero()
    assert not nf.lowered
    ok, violations = verify_normal_form(nf, r, MU_EQQ)
    assert ok, violations


@pytest.mark.parametrize("expr, mu, changes, substitutions", [
    # both slots already active: only the harmonic shift is built
    ("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", MU_EQQ.entries, 1, 0),
    # slot 2 mixes z3 into z2's direction, found on the block restriction
    # with one substitution; slot 3 is then active
    ("-2*Re(z1) + |z3|^4", (1, Fraction(1, 4), Fraction(1, 4)), 3, 6),
])
def test_normalize_makes_only_real_changes(monkeypatch, expr, mu, changes,
                                           substitutions):
    counts = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(CoordChange, "__init__")
    counted(Poly, "substitute_maps")
    r = parse_poly(expr, 3)
    normalize(r, Weight(mu), assert_psc=True)
    assert (counts["__init__"], counts["substitute_maps"]) \
        == (changes, substitutions)


SQUARE_COEFFS = [1, -1, 2, -2, "1/2"]


def _sum_of_squared_quadratic_forms(rng, n):
    """-2 Re z1 plus 1-3 squared moduli of quadratic forms in z2..zn, each
    with 1-3 monomials and small rational coefficients."""
    pairs = list(itertools.combinations_with_replacement(range(2, n + 1), 2))
    forms = [" + ".join(f"({rng.choice(SQUARE_COEFFS)})*z{i}*z{j}"
                        for i, j in rng.sample(pairs, rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    return "-2*Re(z1) + " + " + ".join(f"|{q}|^2" for q in forms)


def test_normalize_verifies_sums_of_squared_quadratic_forms(capsys):
    # the block change must exist for every certified model; one of these
    # models, |z2*z5 - z3*z4|^2, vanishes along every direction
    # (1, t, t^2, t^3) of the block
    rng = random.Random(1)
    for k in range(200):
        n = 4 + k % 2
        expr = _sum_of_squared_quadratic_forms(rng, n)
        code = cli.main(["normalize", "--json", "--n", str(n), "--expr", expr,
                         "--weight", ",".join(["1"] + ["1/4"] * (n - 1))])
        out = capsys.readouterr().out
        assert code == 0, expr
        assert json.loads(out)["verified"], expr


def test_normalize_tube():
    r = parse_poly("-2*Re(z1) + (Re(z2))^2", 2)
    mu = Weight((Fraction(1), Fraction(1, 2)))
    nf = normalize(r, mu)
    assert nf.K == [[1]]
    assert nf.A == [Fraction(1, 2)]
    assert nf.residual.is_zero()
    ok, violations = verify_normal_form(nf, r, mu)
    assert ok, violations


def test_normalize_contradiction_with_assert():
    r = parse_poly("-2*Re(z1) + 2*Re(z2^2*zbar3^3)", 3)
    mu = multitype_search(r).value.weight()
    with pytest.raises(PseudoconvexityError):
        normalize(r, mu, assert_psc=True)
    # without the assertion the failure becomes a warning
    nf = normalize(r, mu, assert_psc=False)
    assert nf.warnings
    assert not any(row.realized for row in nf.rows)


def test_normalize_weight_descent():
    r = parse_poly("-2*Re(z1) + |z2|^4*|z3|^6", 3)
    nf = normalize(r, MU_EQQ, assert_psc=True)
    assert nf.lowered
    assert nf.mu_final == Weight((Fraction(1), Fraction(1, 10),
                                  Fraction(1, 10)))
    assert nf.mu_final.entries < MU_EQQ.entries
    assert all(row.coeff > 0 for row in nf.rows if row.realized)
    ok, violations = verify_normal_form(nf, r, MU_EQQ)
    assert ok, violations


def test_normalize_descent_pulls_tail_into_model():
    # under the lowered weight a former o(1) term joins the model
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^6", 3)
    mu = Weight((Fraction(1), Fraction(1, 4), Fraction(1, 4)))
    nf = normalize(r, mu, assert_psc=True)
    assert nf.lowered
    assert nf.K == [[2], [0, 3]]
    ok, violations = verify_normal_form(nf, r, mu)
    assert ok, violations


def test_normalize_torsion_model():
    r = parse_poly(
        "-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
        " + |z2|^2*|z3|^4*|z4|^4 + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
        " + |z3|^8*|z4|^2", 4)
    nf = normalize(r, MU_TORSION, assert_psc=True)
    assert nf.K == [[3], [1, 3], [1, 2, 2]]
    assert nf.A == [Fraction(1), Fraction(1), Fraction(1)]
    ok, violations = verify_normal_form(nf, r, MU_TORSION)
    assert ok, violations


def test_normalize_requires_model_head():
    with pytest.raises(PolyError):
        normalize(parse_poly("|z2|^2", 2), Weight((Fraction(1), Fraction(1, 2))))


def test_normalize_idempotent():
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    nf = normalize(r, MU_EQQ, assert_psc=True)
    nf2 = normalize(nf.transformed, MU_EQQ, assert_psc=True)
    assert nf2.K == nf.K
    assert nf2.A == nf.A


def test_normalize_after_harmonic_content():
    r = parse_poly("-2*Re(z1) + |z2|^4 + 2*Re(z2^4)", 2)
    mu = Weight((Fraction(1), Fraction(1, 4)))
    nf = normalize(r, mu, assert_psc=True)
    assert nf.K == [[2]] and nf.A == [Fraction(1)]
    assert nf.transform.graded
    ok, violations = verify_normal_form(nf, r, mu)
    assert ok, violations


def test_normalize_pure_term_with_descent():
    # The absorbed pure term z2^8 has weight 4/5 < 1 under the lowered
    # weight, so the recorded shift is an ungraded preliminary change; the
    # extraction itself still succeeds and verifies.
    r = parse_poly("-2*Re(z1) + 2*Re(z2^8) + |z2|^4*|z3|^6", 3)
    nf = normalize(r, MU_EQQ, assert_psc=True)
    assert nf.lowered
    assert nf.K == [[5], [2, 3]]
    assert not nf.transform.graded
    ok, violations = verify_normal_form(nf, r, MU_EQQ)
    assert ok, violations


def test_normalize_refuses_a_weight_of_other_length():
    with pytest.raises(PolyError) as exc:
        normalize(parse_poly("-2*Re(z1) + |z2|^4 + |z3|^4", 3),
                  Weight((Fraction(1), Fraction(1, 4))))
    assert type(exc.value) is PolyError
    assert str(exc.value) == "weight length != dimension"


def test_normalize_needs_dimension_two():
    with pytest.raises(PolyError):
        normalize(parse_poly("-2*Re(z1)", 1), Weight((Fraction(1),)))


def test_normalize_inductive_block_mixing():
    # the slot-3 block {z3, z4} carries content only along z4; the step mixes
    # it into z3 and still realizes every row
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z2|^2*|z4|^4", 4)
    mu = Weight((Fraction(1), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)))
    nf = normalize(r, mu, assert_psc=True)
    assert nf.K == [[2], [1, 2], [1, 0, 2]]
    assert all(a == 1 for a in nf.A)
    ok, violations = verify_normal_form(nf, r, mu)
    assert ok, violations


# ----------------------------------------------------------------------
# verify_normal_form negative cases
# ----------------------------------------------------------------------


def test_verify_rejects_forged_row():
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    nf = normalize(r, MU_EQQ, assert_psc=True)
    forged = NormalForm(
        n=nf.n, mu_initial=nf.mu_initial, mu_final=nf.mu_final,
        rows=[nf.rows[0],
              NormalRow(3, (2, 2), nf.rows[1].coeff, True)],
        transform=nf.transform, transformed=nf.transformed, model=nf.model,
        residual=nf.residual)
    ok, violations = verify_normal_form(forged, r, MU_EQQ)
    assert not ok
    assert any("homogeneity" in v or "coefficient" in v for v in violations)


def test_verify_rejects_swapped_square():
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z2|^2*|z3|^2 + |z2|^2*|z4|^2"
                   " + |z3|^2*|z4|^2", 4)
    mu = Weight((Fraction(1),) + (Fraction(1, 4),) * 3)
    nf = normalize(r, mu, assert_psc=True)
    swapped_rows = list(nf.rows)
    swapped_rows[2] = NormalRow(4, (1, 0, 1), Fraction(1), True)
    forged = NormalForm(
        n=nf.n, mu_initial=nf.mu_initial, mu_final=nf.mu_final,
        rows=swapped_rows, transform=nf.transform,
        transformed=nf.transformed, model=nf.model, residual=nf.residual)
    ok, violations = verify_normal_form(forged, r, mu)
    assert not ok
    assert any("revlex" in v for v in violations)


def test_verify_rejects_wrong_transform():
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    nf = normalize(r, MU_EQQ, assert_psc=True)
    other = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6 + |z2|^2*|z3|^2", 3)
    ok, violations = verify_normal_form(nf, other, MU_EQQ)
    assert not ok
    assert any("transform" in v for v in violations)


def test_verify_rejects_other_weight():
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    nf = normalize(r, MU_EQQ, assert_psc=True)
    for other in (Weight((Fraction(1), Fraction(1, 4), Fraction(1, 12))),
                  Weight((Fraction(1), Fraction(1, 8), Fraction(1, 16)))):
        ok, violations = verify_normal_form(nf, r, other)
        assert not ok
        assert any("initial weight" in v for v in violations)
    # a final weight that claims a descent it did not take
    forged = NormalForm(
        n=nf.n, mu_initial=nf.mu_initial, mu_final=nf.mu_final,
        rows=nf.rows, transform=nf.transform, transformed=nf.transformed,
        model=nf.model, residual=nf.residual, lowered=True)
    ok, violations = verify_normal_form(forged, r, MU_EQQ)
    assert not ok
    assert any("final weight" in v for v in violations)


# ----------------------------------------------------------------------
# soundness across random pseudoconvex models
# ----------------------------------------------------------------------


def test_normalize_sound_on_random_balanced_models():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.choice((2, 3))
        terms = {}
        p = Poly.zero(n)
        for _k in range(rng.randint(1, 3)):
            alpha = (0,) + tuple(rng.randint(0, 3) for _ in range(n - 1))
            if sum(alpha) == 0:
                continue
            p = p + Poly.monomial(n, alpha, alpha, Fraction(rng.randint(1, 3)))
        if p.is_zero():
            continue
        r = parse_poly("-2*Re(z1)", n) + p
        mt = multitype_search(r)
        if any(e == float("inf") for e in mt.value.entries):
            continue
        mu = mt.value.weight()
        nf = normalize(r, mu, assert_psc=True)
        ok, violations = verify_normal_form(nf, r, mu)
        assert ok, (str(r), violations)
        assert all(row.coeff > 0 for row in nf.rows if row.realized)
        for row in nf.rows:
            if row.realized:
                assert row.ks[-1] > 0
