import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from catlin import levi
from catlin import poly as poly_module
from catlin.exact import CRat, rat_str
from catlin.levi import (KIND_CERTIFIED, KIND_REFUTED, KIND_UNKNOWN,
                         cauchy_schwarz_pairing, complex_hessian,
                         hessian_form_value, psd_certificate, psd_verdict,
                         replay_refutation, sheared_certificate,
                         verify_psd_certificate)
from catlin.parser import parse_poly
from catlin.poly import NonRealError, Poly, PolyError
from catlin.weights import Weight

from helpers import (MANY_SPLITTINGS, all_satisfied, circle_points,
                     first_indefinite_point, grid_tuples,
                     homogenized_modulus_square, m_dominant_coefficients,
                     model_truncate, newton_split_check, one_var_coeff_check,
                     psd_verdict_oracle, rand_crat)

TORSION_EXPR = ("-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
                " + |z2|^2*|z3|^4*|z4|^4"
                " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
                " + |z3|^8*|z4|^2")


def torsion_p(eps="1/10"):
    expr = TORSION_EXPR.replace("1/10", eps)
    r = parse_poly(expr, 4)
    return Poly(4, {k: c for k, c in r.terms.items()
                    if k[0][0] == 0 and k[1][0] == 0})


# ----------------------------------------------------------------------
# complex Hessian
# ----------------------------------------------------------------------


def test_hessian_quadric():
    h = complex_hessian(parse_poly("|z2|^2", 2))
    assert h[0][0].is_zero() and h[0][1].is_zero() and h[1][0].is_zero()
    assert h[1][1] == Poly.const(2, 1)


def test_hessian_modulus_fourth():
    h = complex_hessian(parse_poly("|z2|^4", 2))
    assert h[1][1] == parse_poly("4*|z2|^2", 2)


def test_hessian_against_shift_oracle():
    # Independent check: coefficients of z_j zbar_k in the shifted expansion
    # p(w + z) equal the Hessian entries at w.
    rng = random.Random(41)
    p = parse_poly("2*Re(z2^2*zbar3^3)", 3)
    h = complex_hessian(p)
    for _ in range(10):
        w = [rand_crat(rng, 2) for _ in range(3)]
        maps = [Poly.variable(3, j + 1) + Poly.const(3, w[j]) for j in range(3)]
        shifted = p.substitute_maps(maps)
        for j in range(1, 4):
            for k in range(1, 4):
                ej = tuple(1 if i == j - 1 else 0 for i in range(3))
                ek = tuple(1 if i == k - 1 else 0 for i in range(3))
                assert shifted.coeff(ej, ek) == h[j - 1][k - 1].evaluate(w)


def test_hessian_hermitian_symmetry_random():
    rng = random.Random(43)
    for _ in range(40):
        p = Poly.zero(3)
        for _k in range(3):
            a = tuple(rng.randint(0, 2) for _ in range(3))
            b = tuple(rng.randint(0, 2) for _ in range(3))
            c = rand_crat(rng)
            p = p + Poly.monomial(3, a, b, c) + Poly.monomial(3, b, a, c.conj())
        h = complex_hessian(p)
        for j in range(3):
            for k in range(3):
                assert h[j][k] == h[k][j].conj()


# ----------------------------------------------------------------------
# psd_verdict tiers
# ----------------------------------------------------------------------


def test_verdict_diagonal():
    v = psd_verdict(parse_poly("|z2|^2 + |z3|^2", 3))
    assert v.kind == KIND_CERTIFIED and v.tier == 1
    assert verify_psd_certificate(parse_poly("|z2|^2 + |z3|^2", 3),
                                  v.certificate)


def test_verdict_refuted_with_witness():
    p = parse_poly("2*Re(z2^2*zbar3^3)", 3)
    v = psd_verdict(p)
    assert v.kind == KIND_REFUTED
    assert Fraction(v.witness["value"]) < 0
    assert replay_refutation(p, v.witness) == Fraction(v.witness["value"])


def test_verdict_torsion_model_tier2():
    p = torsion_p()
    v = psd_verdict(p)
    assert v.kind == KIND_CERTIFIED and v.tier == 2
    assert verify_psd_certificate(p, v.certificate)


def test_verdict_square_tier1():
    p = parse_poly("|z2|^4 + |z3|^6 + 2*(9/10)*Re(z2^2*zbar3^3)", 3)
    v = psd_verdict(p)
    assert v.kind == KIND_CERTIFIED and v.tier == 1
    assert verify_psd_certificate(p, v.certificate)


def test_tier3_dimension_limit(monkeypatch):
    monkeypatch.setattr(levi, "MAX_TIER3_DIMENSION", 3)
    form = "|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)"
    assert psd_verdict(parse_poly(form, 3)).kind == KIND_REFUTED
    with pytest.raises(PolyError, match="dimension 4 is above 3"):
        psd_verdict(parse_poly(form + " + |z4|^4", 4))
    # tiers 1 and 2 run before the limit is read
    assert psd_verdict(parse_poly(form.replace("1/3", "0"), 4)).tier == 1


def test_verdict_unknown_is_honest():
    # (Re z2)^2 restricted to the tangential slots: psh but neither a
    # diagonal-plus-squares shape nor CS-absorbable (the mixed term has no
    # balanced majorant pair); the verdict must stay Unknown, not Refuted.
    p = parse_poly("(Re(z2))^2", 2)
    v = psd_verdict(p, samples=40)
    assert v.kind == KIND_UNKNOWN
    assert v.samples_tried > 0


def test_verdict_rejects_z1_dependence():
    with pytest.raises(PolyError):
        psd_verdict(parse_poly("-2*Re(z1) + |z2|^2", 2))


def test_hessian_form_value_negative_case():
    p = parse_poly("2*Re(z2^2*zbar3^3)", 3)
    h = complex_hessian(p)
    value = hessian_form_value(h, [CRat(0), CRat(1), CRat(1)],
                               [CRat(1), CRat(-1)])
    assert value == -12


def test_hessian_form_value_matches_entrywise_evaluation():
    # the point's conjugates are shared across entries; the value is the
    # Hermitian form of the entries evaluated one by one
    rng = random.Random(17)
    p = parse_poly(TORSION_EXPR, 4).restrict_support(range(2, 5))
    h = complex_hessian(p)
    for _ in range(10):
        z = [CRat(0)] + [rand_crat(rng) for _ in range(3)]
        a = [rand_crat(rng) for _ in range(3)]
        want = CRat(0)
        for j in range(2, 5):
            for k in range(2, 5):
                want = want + h[j - 1][k - 1].evaluate(z) * a[j - 2] * \
                    a[k - 2].conj()
        assert want.is_real()
        assert hessian_form_value(h, z, a) == want.re
    assert hessian_form_value(h, [0, 1, Fraction(1, 2), -1],
                              [CRat(1)] * 3) == \
        hessian_form_value(h, [CRat(0), CRat(1), CRat(Fraction(1, 2)),
                               CRat(-1)], [CRat(1)] * 3)
    with pytest.raises(PolyError):
        hessian_form_value(h, [CRat(0)] * 3, [CRat(1)] * 3)
    with pytest.raises(ValueError):  # a witness vector of the wrong length
        hessian_form_value(h, [CRat(0)] * 4, [CRat(1)] * 2)


def test_lattice_splits_are_the_product_tuples_that_sum_to_one():
    # tier 2 takes the first feasible tuple into its certificate, so the
    # walk keeps the product's order, not only its set of tuples
    for k in range(1, 6):
        assert levi._lattice_splits(k, Fraction(1)) == [
            combo for combo in itertools.product(levi._LATTICE, repeat=k)
            if sum(combo) == 1], k


def test_many_splittings_get_a_verdict_at_once():
    p = parse_poly(MANY_SPLITTINGS, 3)
    assert len(p.terms) == 26
    start = time.perf_counter()
    verdict = psd_verdict(p)
    assert time.perf_counter() - start < 10
    assert verdict.kind == KIND_REFUTED and verdict.witness["value"] == "-1026"


# the benchmark's `perturbed` shapes at c = 1/3 (not plurisubharmonic, yet
# no structured pair refutes them), then models refuted at a structured pair
# and at a random point
TIER3_MODELS = [
    ("|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)", 3),
    ("|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^2*zbar2*zbar3)", 3),
    ("|z2|^4 + |z3|^4 + |z4|^4 + 2*(1/3)*Re(z2^3*zbar3)", 4),
    ("2*Re(z2^2*zbar3^3)", 3),
    ("|z2^2 + 2*z3^2|^2 + (-3)*|z3|^4 + |z4|^4", 4),
    ("|z2|^4 + |z3|^4 + 2*(-1/2)*Re(z2^3*zbar3)", 3),
]


def _point_json(z):
    return [{"re": rat_str(c.re), "im": rat_str(c.im)} for c in z]


def _assert_matches_sweep(p, got, want):
    """``got`` is tier 3's verdict and ``want`` the oracle's.  Where some
    structured Hessian is not PSD, ``got`` refutes at the first such point,
    from its Hessian matrix alone: no random point is drawn, and the witness
    replays to its recorded value.  Elsewhere no structured vector can
    refute; where the oracle refutes at a random point, ``got`` refutes at
    the same point after the same number of random points, and its witness
    replays negative; otherwise ``got`` is the oracle's verdict."""
    indefinite = first_indefinite_point(p)
    if indefinite is not None:
        assert want["kind"] != KIND_CERTIFIED
        assert got["kind"] == KIND_REFUTED and got["samples_tried"] == 0
        assert got["tier"] is None and got["certificate"] is None
        assert got["witness"]["z"] == _point_json(indefinite)
        assert replay_refutation(p, got["witness"]) == \
            Fraction(got["witness"]["value"]) < 0
        return
    if want["kind"] == KIND_REFUTED:
        assert want["samples_tried"] > 0
        assert {**got, "witness": None} == {**want, "witness": None}
        assert got["witness"]["z"] == want["witness"]["z"]
        assert replay_refutation(p, got["witness"]) == \
            Fraction(got["witness"]["value"]) < 0
        return
    assert got == want


@pytest.mark.parametrize("expr,n", TIER3_MODELS)
def test_tier3_matches_per_pair_sweep(expr, n):
    p = parse_poly(expr, n)
    got = psd_verdict(p).to_json()
    want = psd_verdict_oracle(p).to_json()
    _assert_matches_sweep(p, got, want)
    if want["samples_tried"] > 0:
        # the oracle refutes the last and the three perturbed shapes only at
        # a random point; tier 3 at a structured point, from its Hessian
        assert got["kind"] == KIND_REFUTED and got["samples_tried"] == 0
    assert replay_refutation(p, got["witness"]) == \
        Fraction(got["witness"]["value"]) < 0


def _rand_tangential(rng, n):
    """Balanced moduli plus one or two random Hermitian pairs in z2..zn."""
    p = Poly.zero(n)
    for _ in range(rng.randint(1, n)):
        alpha = (0,) + tuple(rng.randint(0, 2) for _ in range(n - 1))
        p = p + Poly.monomial(n, alpha, alpha, Fraction(rng.randint(1, 3)))
    for _ in range(rng.randint(1, 2)):
        a = (0,) + tuple(rng.randint(0, 2) for _ in range(n - 1))
        b = (0,) + tuple(rng.randint(0, 2) for _ in range(n - 1))
        c = rand_crat(rng, 2)
        p = p + Poly.monomial(n, a, b, c) + Poly.monomial(n, b, a, c.conj())
    return p


def test_tier3_matches_per_pair_sweep_random():
    rng = random.Random(67)
    kinds = set()
    for i in range(150):
        p = _rand_tangential(rng, 4 if i % 25 == 0 else 3)
        got = psd_verdict(p, samples=50).to_json()
        want = psd_verdict_oracle(p, samples=50).to_json()
        _assert_matches_sweep(p, got, want)
        if got["kind"] == KIND_REFUTED:
            assert replay_refutation(p, got["witness"]) == \
                Fraction(got["witness"]["value"]) < 0
        kinds.add((want["kind"], got["kind"], got["samples_tried"] > 0))
    # every branch above is taken: refuted at a structured point and at a
    # random point, Unknown, and refuted where no structured vector refutes
    assert {(KIND_REFUTED, KIND_REFUTED, False),
            (KIND_REFUTED, KIND_REFUTED, True),
            (KIND_UNKNOWN, KIND_UNKNOWN, True),
            (KIND_UNKNOWN, KIND_REFUTED, False)} <= kinds


def test_tier3_never_refutes_sums_of_squared_moduli():
    # sum |f_i|^2 over holomorphic f_i has Hessian sum (df_i)(df_i)*, which
    # is PSD everywhere
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    crats = st.builds(CRat, small, small)

    @st.composite
    def sum_of_squares(draw):
        n = draw(st.integers(2, 4))
        exponents = st.tuples(st.just(0), *[st.integers(0, 2)] * (n - 1))
        p = Poly.zero(n)
        for terms in draw(st.lists(st.lists(st.tuples(exponents, crats),
                                            min_size=1, max_size=3),
                                   min_size=1, max_size=3)):
            f = sum((Poly.monomial(n, a, (0,) * n, c) for a, c in terms),
                    Poly.zero(n))
            p = p + f * f.conj()
        return p

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         suppress_health_check=[
                             hypothesis.HealthCheck.too_slow])
    @hypothesis.given(sum_of_squares())
    def check(p):
        assert psd_verdict(p, samples=40).kind != KIND_REFUTED

    check()


def _count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to count its calls; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_tier3_evaluates_hessian_once_per_point(monkeypatch):
    # refuted at a structured point: the 3 entries of the Hermitian half at
    # each point up to it, and one reduction per point
    p = parse_poly("|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)", 3)
    points = [[CRat(0)] + z for z in grid_tuples(3, 4)]
    visited = points.index(first_indefinite_point(p)) + 1
    evaluated = _count_calls(monkeypatch, Poly, "_evaluate")
    reductions = _count_calls(monkeypatch, levi, "hermitian_reduce")
    v = psd_verdict(p)
    assert v.kind == KIND_REFUTED and v.samples_tried == 0
    assert evaluated[0] == 3 * visited and reductions[0] == visited
    # Unknown: the one entry at each of the 3 structured points and each of
    # the 37 random points, each point reduced once
    evaluated[0] = reductions[0] = 0
    v = psd_verdict(parse_poly("(Re(z2))^2", 2), samples=37)
    assert v.kind == KIND_UNKNOWN and v.samples_tried == 37
    assert evaluated[0] == reductions[0] == 3 + 37


def test_tier3_skips_vectors_at_psd_points(monkeypatch):
    # no direction vector is drawn: one reduction per point visited, where
    # the per-pair sweep forms 63 * 124 + 200 = 8012 form values on each
    reductions = _count_calls(monkeypatch, levi, "hermitian_reduce")
    p = parse_poly("|z2|^4 + |z3|^4 + |z4|^4 + 2*(1/3)*Re(z2^3*zbar3)", 4)
    v = psd_verdict(p)
    assert v.kind == KIND_REFUTED and v.samples_tried == 0
    points = [[CRat(0)] + z for z in grid_tuples(4, 4)]
    assert reductions[0] == points.index(first_indefinite_point(p)) + 1
    reductions[0] = 0
    v = psd_verdict(parse_poly("(Re(z2))^2 + (Re(z3))^2 + (Re(z4))^2", 4))
    assert v.kind == KIND_UNKNOWN and v.samples_tried == 200
    assert reductions[0] == 63 + 200


def test_tier3_refutes_at_a_random_point():
    # every structured Levi matrix is PSD; the Levi matrix at the fifth
    # random point has a negative pivot
    p = parse_poly("2*Re(i*z2*zbar3^2) + 3*|z3|^4 + 2*|z2|^2*|z3|^2", 3)
    assert first_indefinite_point(p) is None
    v = psd_verdict(p)
    assert v.kind == KIND_REFUTED and 0 < v.samples_tried <= 200
    assert replay_refutation(p, v.witness) == \
        Fraction(v.witness["value"]) < 0


def test_tier3_refutes_from_the_first_negative_pivot():
    # H(z) = -I at every point: the first structured point (z2, z3) = (0, 1)
    # refutes along the first basis vector, the first of two negative pivots
    v = psd_verdict(parse_poly("-|z2|^2 - |z3|^2", 3))
    assert v.to_json() == {
        "kind": KIND_REFUTED, "tier": None, "certificate": None,
        "samples_tried": 0,
        "witness": {"z": _point_json([CRat(0), CRat(0), CRat(1)]),
                    "a": _point_json([CRat(1), CRat(0)]), "value": "-1"}}


def test_replay_refutation_rejects_non_real():
    # i*z2 has a zero Hessian, so its form value alone would not show it
    p = Poly.monomial(2, (0, 1), (0, 0), CRat(0, 1))
    witness = {"z": _point_json([CRat(0), CRat(1)]),
               "a": _point_json([CRat(1)]), "value": "-1"}
    with pytest.raises(NonRealError):
        replay_refutation(p, witness)


# ----------------------------------------------------------------------
# Cauchy-Schwarz pairing engine
# ----------------------------------------------------------------------


def test_pairing_lattice_fractions_keep_unused_splittings():
    # equal fractions overdraw the small |z2 z3|^2 budget, so the lattice
    # gives the (0,1,1)+(0,1,1) splitting fraction 0; the consumption table
    # still lists its exponent, with nothing used
    p = parse_poly("|z2|^4 + |z3|^4 + (1/10)*|z2|^2*|z3|^2"
                   " + 2*(1/4)*Re(z2^2*zbar3^2)", 3)
    cert = cauchy_schwarz_pairing(p)
    assert cert["mixed"][0]["splittings"] == [
        {"fraction": "1", "gamma1": [0, 0, 2], "gamma2": [0, 2, 0]}]
    assert cert["consumption"] == [
        {"gamma": [0, 0, 2], "used": "1/4", "budget": "1"},
        {"gamma": [0, 1, 1], "used": "0", "budget": "1/10"},
        {"gamma": [0, 2, 0], "used": "1/4", "budget": "1"}]
    assert cert["margin"] == "1/4"
    assert verify_psd_certificate(p, cert)


def test_pairing_torsion_kernel_systems():
    cert = cauchy_schwarz_pairing(torsion_p())
    assert cert is not None
    mixed = cert["mixed"]
    assert len(mixed) == 1
    systems = {frozenset(tuple(row) for row in sys_)
               for sys_ in mixed[0]["kernel_systems"]}
    expected = {frozenset({(1, 3, 0), (1, 2, 2)}),
                frozenset({(2, 1, 1), (0, 4, 1)})}
    assert systems == expected
    fractions = sorted(Fraction(sp["fraction"])
                       for sp in mixed[0]["splittings"])
    assert fractions == [Fraction(1, 2), Fraction(1, 2)]


def test_pairing_kernel_intersection_trivial_oracle():
    # Independent oracle: Gaussian elimination over the rationals on the four
    # kernel rows; full rank 3 means the intersection is the origin.
    rows = [[1, 3, 0], [1, 2, 2], [2, 1, 1], [0, 4, 1]]
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(3):
        piv = next((r for r in range(rank, 4) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(4):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    assert rank == 3


def test_pairing_trivial_without_mixed():
    cert = cauchy_schwarz_pairing(parse_poly("|z2|^4 + |z3|^2", 3))
    assert cert is not None
    assert cert["kind"] == "diagonal"


def test_pairing_fails_without_balanced():
    assert cauchy_schwarz_pairing(parse_poly("2*Re(z2^2*zbar3^3)", 3)) is None


def test_pairing_margin_scales_with_eps():
    small = cauchy_schwarz_pairing(torsion_p("1/100"))
    big = cauchy_schwarz_pairing(torsion_p("1/10"))
    assert Fraction(small["margin"]) < Fraction(big["margin"]) < 1


def test_pairing_uses_lattice_when_equal_split_fails():
    # two mixed terms compete for the |z2|^4 budget: a half/half split of the
    # second one overloads the slot, a quarter/three-quarters split fits
    p = parse_poly("|z2|^4 + |z3|^4 + |z4|^4 + |z2|^2*|z4|^2"
                   " + 2*(4/5)*Re(z2^2*zbar3^2) + 2*(3/5)*Re(z2^2*zbar4^2)", 4)
    cert = cauchy_schwarz_pairing(p)
    assert cert is not None
    assert verify_psd_certificate(p, cert)
    by_pair = {(tuple(m["alpha"]), tuple(m["beta"])): m
               for m in cert["mixed"]}
    competing = by_pair[((0, 0, 0, 2), (0, 2, 0, 0))]
    fractions = sorted(Fraction(sp["fraction"])
                       for sp in competing["splittings"])
    assert fractions == [Fraction(1, 4), Fraction(3, 4)]


def test_pairing_kernel_check_restricted_to_mixed_support():
    # a mixed term not involving z4 pairs inside {z2, z3}; its majorant
    # kernels need only be trivial there
    p = parse_poly("|z2|^4 + |z3|^4 + |z4|^4 + 2*(1/2)*Re(z2^2*zbar3^2)", 4)
    cert = cauchy_schwarz_pairing(p)
    assert cert is not None
    assert verify_psd_certificate(p, cert)


def test_m_dominance_of_extracted_restriction():
    # the balanced coefficient of a one-variable restriction is
    # (1/(2 mu_2))-dominant among its coefficients
    p2 = parse_poly("|z1|^4 + Re(z1^3*zbar1)", 1)
    dominant = m_dominant_coefficients(p2, Fraction(2))
    assert ((2,), (2,)) in dominant


def test_certificate_tamper_detection():
    p = torsion_p()
    cert = cauchy_schwarz_pairing(p)
    assert verify_psd_certificate(p, cert)
    import copy
    bad = copy.deepcopy(cert)
    bad["mixed"][0]["splittings"][0]["fraction"] = "2/3"  # sums above 1
    assert not verify_psd_certificate(p, bad)
    bad2 = copy.deepcopy(cert)
    bad2["mixed"][0]["splittings"].pop()  # fractions no longer sum to 1
    assert not verify_psd_certificate(p, bad2)
    other = parse_poly("|z2|^2 + |z3|^2 + |z4|^2", 4)
    assert not verify_psd_certificate(other, cert)


def _leaf_paths(x, path=()):
    """Paths to the leaves of a JSON value; an empty list is a leaf."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(x, list) and x:
        for i, v in enumerate(x):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


@pytest.mark.parametrize("which", ["tier1", "tier2", "pointwise"])
def test_certificate_every_single_leaf_mutation_is_rejected(which):
    import copy
    import json
    if which == "tier1":
        p = parse_poly("|z2|^4 + |z3|^6 + 2*(9/10)*Re(z2^2*zbar3^3)", 3)
        cert = psd_verdict(p).certificate
    elif which == "tier2":
        p = torsion_p()
        cert = psd_verdict(p).certificate
    else:
        p = levi._diag_entry(torsion_p(), 2)
        cert = levi._nonneg_certificate(p)
        assert cert["kind"] == "pointwise-nonneg"
    cert = json.loads(json.dumps(cert))  # no shared sub-certificates
    assert verify_psd_certificate(p, cert)
    mutated = 0
    for path in _leaf_paths(cert):
        for value in ("x", None, -1, "1/0", [], {}):
            bad = copy.deepcopy(cert)
            target = bad
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            if bad == cert:
                continue
            mutated += 1
            assert verify_psd_certificate(p, bad) is False, (path, value)
    assert mutated > {"tier1": 100, "tier2": 1000, "pointwise": 100}[which]


def test_tier2_refuses_a_linear_slot():
    # the mixed pair z2^2 zbar2 zbar3 is linear in z3: its hyperplane
    # cross-terms survive, whatever the absorption and the kernels say
    p = parse_poly("|z2|^4 + |z2|^2*|z3|^2 + 2*(1/2)*Re(z2^2*zbar2*zbar3)", 3)
    assert levi._absorption(p, strict=True) is not None
    assert levi._psh_certificate(p, {}, frozenset()) is None


def test_tier2_refuses_a_failed_pointwise_entry():
    # absorption, kernels and restrictions pass, but the d^2/dz2 dzbar2
    # entry z3^2 zbar4^2 + conj has no balanced budget to absorb it
    p = parse_poly("|z2|^4*|z3|^4 + |z4|^4 + |z2|^4 + |z3|^4*|z4|^4"
                   " + 2*(1/2)*Re(z2*zbar2*z3^2*zbar4^2)", 4)
    assert levi._absorption(p, strict=True) is not None
    for j in (2, 3, 4):
        killed = frozenset([j])
        assert levi._psh_certificate(levi._kill_var(p, j), {}, killed)
    assert levi._nonneg_certificate(levi._diag_entry(p, 2)) is None
    assert levi._psh_certificate(p, {}, frozenset()) is None


def _forged_absorption(p, fractions):
    """Budget, mixed entries and consumption of p at the given splitting
    fractions: one list per mixed pair, over all its splittings in
    ``_find_splittings`` order, summing to 1.  A splitting at fraction 0 is
    left out of the entry, as the engine leaves it out.  No inequality is
    checked."""
    budget, _bad = levi._balanced_budget(p)
    mixed, cons = [], {}
    for (a, b, c), fracs in zip(levi._mixed_pairs(p), fractions, strict=True):
        u = levi._coeff_bound(c)
        sigma = tuple(x + y for x, y in zip(a, b))
        pairs = levi._find_splittings(sigma, budget)
        assert len(fracs) == len(pairs) and sum(fracs) == 1
        splittings = []
        for (g1, g2), t in zip(pairs, fracs):
            for g in (g1, g2):
                cons[g] = cons.get(g, Fraction(0)) + t * u
            if t:
                splittings.append({"fraction": rat_str(t),
                                   "gamma1": list(g1), "gamma2": list(g2)})
        mixed.append({"alpha": list(a), "beta": list(b), "bound": rat_str(u),
                      "splittings": splittings})
    return budget, mixed, cons


def _forged_pointwise(q, fractions):
    """A pointwise-nonneg entry for q at the given fractions."""
    budget, mixed, _cons = _forged_absorption(q, fractions)
    return {"kind": "pointwise-nonneg", "balanced": levi._budget_json(budget),
            "mixed": mixed}


def _forged_psh(p, fractions):
    """A tier-2 certificate for p laid out as the engine lays it out, at the
    given fractions and with none of the engine's refusals; consumption,
    margin and kernel systems are derived from the fractions, and the
    hyperplane certificates come from the engine."""
    budget, mixed, cons = _forged_absorption(p, fractions)
    for mx in mixed:
        mx["kernel_systems"] = [[sp["gamma1"][1:], sp["gamma2"][1:]]
                                for sp in mx["splittings"]]
    active = [j for j in p.support_vars() if j >= 2]
    return {
        "tier": 2, "kind": "cauchy-schwarz", "active": active,
        "balanced": levi._budget_json(budget), "mixed": mixed,
        "consumption": [{"gamma": list(g), "used": rat_str(v),
                         "budget": rat_str(budget[g])}
                        for g, v in sorted(cons.items())],
        "margin": rat_str(max(v / budget[g] for g, v in cons.items())),
        "hyperplanes": [
            {"var": j,
             "restriction": cauchy_schwarz_pairing(levi._kill_var(p, j)),
             "entry": levi._nonneg_certificate(levi._diag_entry(p, j))}
            for j in active]}


def test_replay_refuses_a_budget_used_up_exactly():
    # tier 2 needs strict domination; at c = 1 the one splitting uses up
    # both budgets exactly, and only the strict consumption clause sees it
    half = parse_poly("|z2|^4 + |z3|^4 + 2*(1/2)*Re(z2^2*zbar3^2)", 3)
    assert _forged_psh(half, [[1]]) == cauchy_schwarz_pairing(half)
    p = parse_poly("|z2|^4 + |z3|^4 + 2*Re(z2^2*zbar3^2)", 3)
    cert = _forged_psh(p, [[1]])
    assert cert["margin"] == "1"
    assert verify_psd_certificate(p, cert) is False


def test_replay_refuses_a_pointwise_overdraw():
    # a pointwise entry may use its budget up, not more: at c = 2 the form
    # is negative at (z2, z3) = (1, -1)
    exact = parse_poly("|z2|^2 + |z3|^2 + 2*Re(z2*zbar3)", 3)
    cert = _forged_pointwise(exact, [[1]])
    assert cert == levi._nonneg_certificate(exact)
    assert verify_psd_certificate(exact, cert)
    q = parse_poly("|z2|^2 + |z3|^2 + 4*Re(z2*zbar3)", 3)
    assert q.evaluate([CRat(0), CRat(1), CRat(-1)]) == CRat(-2)
    assert verify_psd_certificate(q, _forged_pointwise(q, [[1]])) is False


def test_replay_refuses_a_linear_slot():
    # z2 zbar3^2 is linear in z2; absorption, kernels and hyperplanes pass
    p = parse_poly("|z3|^2 + |z2|^2*|z3|^2 + 2*(1/4)*Re(z2*zbar3^2)", 3)
    assert cauchy_schwarz_pairing(p) is None
    cert = _forged_psh(p, [[1]])
    assert all(h["entry"] is not None for h in cert["hyperplanes"])
    assert verify_psd_certificate(p, cert) is False


def test_replay_refuses_kernels_that_intersect():
    # all weight on (0,1,1) + (0,1,1): its two kernel rows coincide, so the
    # majorant kernels do not intersect trivially on z2, z3
    p = parse_poly("|z2|^4 + |z3|^4 + |z2|^2*|z3|^2"
                   " + 2*(1/3)*Re(z2^2*zbar3^2)", 3)
    equal = Fraction(1, 2)
    assert _forged_psh(p, [[equal, equal]]) == cauchy_schwarz_pairing(p)
    cert = _forged_psh(p, [[0, 1]])
    assert cert["mixed"][0]["kernel_systems"] == [[[1, 1], [1, 1]]]
    assert verify_psd_certificate(p, cert) is False


# ----------------------------------------------------------------------
# one-variable coefficient bounds
# ----------------------------------------------------------------------


def test_one_var_pure_modulus():
    rep = one_var_coeff_check(parse_poly("|z1|^4", 1))
    assert rep.C0 == 1 and all_satisfied(rep) and not rep.bounds


def test_one_var_with_off_diagonal():
    # |z|^4 + Re(z^3 zbar): C0 = 1, |C_1| = 1/2 <= 1.  Nonnegativity
    # pre-checked by dense sampling on rational points of |z| = 1.
    p = parse_poly("|z1|^4 + Re(z1^3*zbar1)", 1)
    for z in circle_points(40):
        assert p.evaluate([z]).re >= 0
    rep = one_var_coeff_check(p)
    assert rep.C0 == 1
    assert all_satisfied(rep)
    (k, c, ok), = rep.bounds
    assert k == 1 and c == CRat(Fraction(1, 2)) and ok


def test_one_var_violation_certifies_not_nonneg():
    p = parse_poly("2*Re(z1^2)", 1)
    rep = one_var_coeff_check(p)
    assert rep.C0 == 0
    assert not all_satisfied(rep)
    # contrapositive: P takes negative values
    assert any(p.evaluate([z]).re < 0 for z in circle_points(8))


def test_one_var_requires_homogeneous():
    with pytest.raises(PolyError):
        one_var_coeff_check(parse_poly("|z1|^2 + |z1|^4", 1))
    with pytest.raises(PolyError):
        one_var_coeff_check(parse_poly("|z1|^2*Re(z1)", 1))


def test_one_var_random_nonneg_suite():
    # 200 nonnegative homogeneous one-variable polynomials built as
    # homogenized |q|^2 + |q~|^2; the coefficient bounds must all hold.
    rng = random.Random(47)
    for _ in range(200):
        m = rng.randint(1, 6)
        p = homogenized_modulus_square(rng, m) + \
            homogenized_modulus_square(rng, m)
        rep = one_var_coeff_check(p)
        assert rep.C0 > 0
        assert all_satisfied(rep)


# ----------------------------------------------------------------------
# dominance and Newton splits
# ----------------------------------------------------------------------


def test_m_dominant_single():
    p = parse_poly("|z1|^4", 1)
    assert m_dominant_coefficients(p, Fraction(1)) == [((2,), (2,))]


def test_m_dominant_tie():
    p = parse_poly("|z2|^2*|z3|^2 + |z2|^4 + |z3|^4", 3)
    got = m_dominant_coefficients(p, Fraction(1))
    assert len(got) == 3  # all coefficients equal: every one is 1-dominant


def test_m_dominant_factor():
    p = parse_poly("2*|z1|^4 + Re(z1^3*zbar1)", 1)
    assert ((2,), (2,)) in m_dominant_coefficients(p, Fraction(1))
    assert len(m_dominant_coefficients(p, Fraction(1, 10))) == 0


def test_newton_split_flags():
    p = parse_poly("|z2|^2 + 2*Re(z2*zbar3) + |z3|^2", 3)
    parts = newton_split_check(p, ([2], [3]))
    by_key = {(s.deg_a, s.deg_b): s for s in parts}
    assert set(by_key) == {(2, 0), (1, 1), (0, 2)}
    assert by_key[(2, 0)].flagged_nonneg
    assert by_key[(0, 2)].flagged_nonneg
    assert not by_key[(1, 1)].flagged_nonneg


def test_newton_split_single_balanced():
    p = parse_poly("|z2|^2*|z3|^4", 3)
    parts = newton_split_check(p, ([2], [3]))
    assert len(parts) == 1 and parts[0].flagged_nonneg


def test_newton_split_extremal_parts_nonneg_random():
    rng = random.Random(53)
    for _ in range(40):
        p = Poly.zero(3)
        for _k in range(3):
            a = (0, rng.randint(0, 2), rng.randint(0, 2))
            p = p + Poly.monomial(3, a, a, Fraction(rng.randint(1, 3)))
        parts = newton_split_check(p, ([2], [3]))
        for part in parts:
            if part.flagged_nonneg:
                for z2 in (CRat(1), CRat(-1), CRat(1, 1)):
                    val = part.part.evaluate([CRat(0), z2, CRat(1, -1)])
                    assert val.is_real() and val.re >= 0


def test_newton_split_invalid_partition():
    p = parse_poly("|z2|^2*|z3|^2", 3)
    with pytest.raises(PolyError):
        newton_split_check(p, ([2], [2, 3]))
    with pytest.raises(PolyError):
        newton_split_check(p, ([2], []))


# ----------------------------------------------------------------------
# model truncation
# ----------------------------------------------------------------------


def test_model_truncate_strips_tail():
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z2|^6", 2)
    mu = Weight((Fraction(1), Fraction(1, 4)))
    assert model_truncate(r, mu) == parse_poly("-2*Re(z1) + |z2|^4", 2)


def test_model_truncate_identity_on_homogeneous():
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    mu = Weight((Fraction(1), Fraction(1, 8), Fraction(1, 12)))
    assert model_truncate(r, mu) == r


def test_model_truncate_rejects_low_weight():
    r = parse_poly("-2*Re(z1) + |z2|^2", 2)
    mu = Weight((Fraction(1), Fraction(1, 4)))
    with pytest.raises(PolyError):
        model_truncate(r, mu)


def test_model_truncate_consistency_with_verdict():
    # if the full model is certified, its truncation is never refuted
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z2|^6", 2)
    mu = Weight((Fraction(1), Fraction(1, 4)))
    full_p = Poly(2, {k: c for k, c in r.terms.items()
                      if k[0][0] == 0 and k[1][0] == 0})
    trunc = model_truncate(r, mu)
    trunc_p = Poly(2, {k: c for k, c in trunc.terms.items()
                       if k[0][0] == 0 and k[1][0] == 0})
    assert psd_verdict(full_p).kind == KIND_CERTIFIED
    assert psd_verdict(trunc_p).kind != KIND_REFUTED


# ----------------------------------------------------------------------
# soundness of refutations (invariant)
# ----------------------------------------------------------------------


def test_refutation_soundness_random():
    rng = random.Random(59)
    refuted = 0
    for _ in range(30):
        a = tuple(rng.randint(0, 2) for _ in range(2))
        b = tuple(rng.randint(0, 2) for _ in range(2))
        if a == b:
            continue
        p = Poly.monomial(3, (0,) + a, (0,) + b, 1) + \
            Poly.monomial(3, (0,) + b, (0,) + a, 1)
        v = psd_verdict(p, samples=60, seed=3)
        if v.kind == KIND_REFUTED:
            refuted += 1
            assert replay_refutation(p, v.witness) < 0
    assert refuted > 0


def test_hessian_form_value_refuses_a_value_that_is_not_real():
    # only a Hessian of a polynomial that is not real has a form value that
    # is not real: i*|z2|^2 has H_22 = i
    p = Poly(2, {((0, 1), (0, 1)): CRat(0, 1)})
    with pytest.raises(PolyError) as exc:
        hessian_form_value(complex_hessian(p), [CRat(0)] * 2, [CRat(1)])
    assert str(exc.value) == ("Hessian form value is not real; input was "
                              "not real-valued")


def test_pairing_fails_where_a_hyperplane_restriction_has_none(monkeypatch):
    # a restriction to z_j = 0 without a certificate fails the whole
    # certificate; a restriction with a negative balanced coefficient forged
    # in its place has none
    assert cauchy_schwarz_pairing(torsion_p()) is not None
    monkeypatch.setattr(levi, "_kill_var",
                        lambda p, j: parse_poly("-|z2|^2", p.n))
    assert cauchy_schwarz_pairing(torsion_p()) is None


def test_replay_refuses_a_splitting_outside_the_budget():
    # a splitting with the right sum whose exponents carry no balanced
    # coefficient is refused before its fraction is counted
    p = torsion_p()
    cert = cauchy_schwarz_pairing(p)
    forged = json.loads(json.dumps(cert))
    split = forged["mixed"][0]["splittings"][0]
    assert (split["gamma1"], split["gamma2"]) == ([0, 0, 4, 1], [0, 2, 1, 1])
    split["gamma1"], split["gamma2"] = [0, 1, 4, 1], [0, 1, 1, 1]
    assert {tuple(b["gamma"]) for b in cert["balanced"]}.isdisjoint(
        {(0, 1, 4, 1), (0, 1, 1, 1)})
    assert levi._replay_absorption(p, forged, strict=True) is None
    assert verify_psd_certificate(p, cert)
    assert not verify_psd_certificate(p, forged)


# ----------------------------------------------------------------------
# certificates in sheared coordinates
# ----------------------------------------------------------------------


def _sheared(p, shears):
    """p with each shear z_i -> z_i - s applied, in order."""
    for i, s in shears:
        maps = [Poly.variable(p.n, v) for v in range(1, p.n + 1)]
        maps[i - 1] = maps[i - 1] - s
        p = p.substitute_maps(maps)
    return p


def _unsheared(q, shears):
    """q with each shear z_i -> z_i - s undone, z_i -> z_i + s, in reverse
    order."""
    for i, s in reversed(shears):
        maps = [Poly.variable(q.n, v) for v in range(1, q.n + 1)]
        maps[i - 1] = maps[i - 1] + s
        q = q.substitute_maps(maps)
    return q


@pytest.mark.parametrize("expr,n,shears,sheared", [
    # |z2 + c z3^2|^4: the term z2^2 zbar2 zbar3^2 has coefficient
    # 2 conj(c) against 1 for |z2|^4, so c is read back with its
    # conjugation, and z2 -> z2 - c z3^2 leaves |z2|^4
    ("|z2 + (1/2+i)*z3^2|^4 + 3*|z3|^8", 3, [(2, "(1/2+i)*z3^2")],
     "|z2|^4 + 3*|z3|^8"),
    # a scaled sixth power: z2^3 zbar2^2 zbar3^3 has coefficient
    # 2 * 3 conj(c) against 2 for |z2|^6
    ("2*|z2 - (1/3)*i*z3^3|^6 + |z3|^18", 3, [(2, "-(1/3)*i*z3^3")],
     "2*|z2|^6 + |z3|^18"),
    # no shear in z2, then one in z3 of two monomials at once
    ("|z2|^4 + |z3 + 2*z4 + i*z2^2|^4 + |z4|^4", 4,
     [(3, "2*z4 + i*z2^2")], "|z2|^4 + |z3|^4 + |z4|^4"),
    # both slots sheared, the second read after the first is applied
    ("|z2 + z3^2|^4 + |z3 + z4^2|^8 + |z4|^16", 4,
     [(2, "z3^2"), (3, "z4^2")], None),
])
def test_sheared_certificate_reads_the_shear_off_the_square(expr, n, shears,
                                                             sheared):
    p = parse_poly(expr, n)
    assert psd_certificate(p) is None
    got, q, cert = sheared_certificate(p)
    # each s is holomorphic: the holomorphic part of 2 Re(s)
    assert got == [(i, parse_poly(f"2*Re({s})", n).holomorphic_part())
                   for i, s in shears]
    if sheared is not None:
        assert q == parse_poly(sheared, n)
    assert q == _sheared(p, got)
    assert verify_psd_certificate(q, cert)
    assert _unsheared(q, got) == p


@pytest.mark.parametrize("expr,n", [
    # no pure power of z2 or z3 beside a term of the square's shape
    ("|z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)", 3),
    ("|z2|^2 + 2*(1/2)*Re(z2*z3*zbar3) + (1/4)*|z3|^4", 3),
    # a shear is read, but the sheared polynomial keeps -(1/2)|z3|^8, which
    # dominates near 0: p is not plurisubharmonic, and q has no certificate
    ("|z2 + z3^2|^4 - (1/2)*|z3|^8 + |z3|^10", 3),
])
def test_sheared_certificate_refuses_what_it_cannot_certify(expr, n):
    assert sheared_certificate(parse_poly(expr, n)) is None


def test_sheared_certificate_gives_up_past_the_work_limits(monkeypatch):
    # the shear read off |z2|^2 is z2 -> z2 - (z3 + ... + z9), of 8 terms:
    # its 20th power would have C(27, 7) = 888,030 terms, past
    # MAX_POWER_TERMS, so no shear is applied and there is no certificate
    from catlin.poly import MAX_POWER_TERMS
    p = parse_poly("|z2|^2 + 2*Re(z2*(zbar3 + zbar4 + zbar5 + zbar6 + zbar7"
                   " + zbar8 + zbar9)) + |z2|^40", 9)
    assert MAX_POWER_TERMS < 888030
    monkeypatch.setattr(Poly, "substitute_maps", None)
    assert sheared_certificate(p) is None


def test_sheared_certificate_draws_its_shears_on_one_pair_budget(
        monkeypatch):
    # the two shears of this model form 177 and 660 term pairs, which the
    # product loop charges to the gate's one budget as it forms them
    p = parse_poly("|z2 + z3^2|^4 + |z3 + z4^2|^8 + |z4|^16", 4)
    shears = [(2, Poly.variable(4, 3) ** 2), (3, Poly.variable(4, 4) ** 2)]
    total = 10 ** 6
    with poly_module.pair_budget(total):
        q = _sheared(p, shears[:1])
        first = total - poly_module._PAIR_BUDGET.get()[0]
        _sheared(q, shears[1:])
        both = total - poly_module._PAIR_BUDGET.get()[0]
    assert (first, both) == (177, 837)
    applied = []
    substitute_maps = Poly.substitute_maps

    def substitute(self, maps):
        q = substitute_maps(self, maps)
        applied.append(maps)
        return q

    monkeypatch.setattr(Poly, "substitute_maps", substitute)
    # one pair short: the second shear overdraws the budget after the first
    # is applied, and the gate gives up with no budget left open
    monkeypatch.setattr(levi, "MAX_PRODUCT_PAIRS", both - 1)
    assert sheared_certificate(p) is None
    assert len(applied) == 1
    assert poly_module._PAIR_BUDGET.get() is None
    # exactly that many: both shears are applied and q certifies
    monkeypatch.setattr(levi, "MAX_PRODUCT_PAIRS", both)
    got, q, cert = sheared_certificate(p)
    assert got == shears and len(applied) == 3
    assert verify_psd_certificate(q, cert)


def test_sheared_certificates_of_the_benchmark_shear_models():
    # every shear model of the normalize and boundary workloads at seeds 5,
    # 7 and 23 certifies after the shear read off it, and the certificate
    # replays on the sheared polynomial, which the inverse shear maps back
    from helpers import _workloads
    from catlin.poly import eliminate_harmonic, split_model
    module = _workloads()
    models = {(job.expr, job.n) for seed in (5, 7, 23)
              for make in (module.make_normalize, module.make_boundary)
              for job in make(random.Random(seed)) if job.family == "shear"}
    assert len(models) >= 15
    for expr, n in sorted(models):
        p = split_model(eliminate_harmonic(parse_poly(expr, n))[0])[1]
        assert psd_certificate(p) is None, expr
        shears, q, cert = sheared_certificate(p)
        assert [i for i, _s in shears] == [2], expr
        assert verify_psd_certificate(q, cert), expr
        assert _unsheared(q, shears) == p, expr
