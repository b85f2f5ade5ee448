import dataclasses
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from catlin import weights
from catlin.parser import parse_poly
from catlin.poly import DimensionMismatch, Poly, PolyError
from catlin.weights import (INF, MAX_DEGREE_BOUND, MAX_ENUMERATE_DIMENSION,
                            MAX_ENUMERATE_TYPE, InverseWeight, Weight,
                            _Shear, _cancels_nothing, _catalog, _evecs,
                            _integer_terms, _render, _support_after,
                            admissible_rows, best_distinguished_weight,
                            counting_bound, enumerate_multitypes,
                            is_admissible, lower_weight_at, multitype_search,
                            recip, STATUS_EXACT, STATUS_LOWER_BOUND)

from helpers import (best_distinguished_candidates_oracle,
                     best_ordered_weight_oracle, brute_admissible_slot,
                     catalog_oracle, enumerate_multitypes_oracle,
                     is_admissible_oracle, is_admissible_rows_oracle,
                     is_distinguished, lower_weight_at_oracle,
                     multitype_search_oracle, rand_crat,
                     substitute_maps_oracle, weighted_order)


# ----------------------------------------------------------------------
# weights and inverse weights
# ----------------------------------------------------------------------


def test_weight_validation():
    Weight((Fraction(1), Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(PolyError):
        Weight((Fraction(1), Fraction(1)))
    with pytest.raises(PolyError):
        Weight((Fraction(1), Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(PolyError):
        Weight((Fraction(2),))


_SLOPE = parse_poly("|z2|^4", 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Weight((Fraction(1), Fraction(1, 2), Fraction(-1))), PolyError,
     "weight entries must be nonnegative"),
    (lambda: InverseWeight((Fraction(2), Fraction(2))), PolyError,
     "inverse weight must start with lambda_1 = 1"),
    (lambda: InverseWeight((Fraction(1), Fraction(0))), PolyError,
     "inverse weight entries must be nondecreasing"),
    (lambda: counting_bound(1, 4), PolyError, "counting bound needs n >= 2"),
    (lambda: counting_bound(3, Fraction(3, 2)), PolyError,
     "counting bound needs type m >= 2"),
    (lambda: lower_weight_at(Weight((Fraction(1), Fraction(1, 4))), 3,
                             _SLOPE),
     DimensionMismatch, "slot 3 out of range"),
], ids=["weight-negative", "inverse-first", "inverse-nonpositive",
        "counting-n", "counting-m", "lower-slot"])
def test_weight_input_checks_raise(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_reciprocity_involution():
    cases = [
        (Fraction(1), Fraction(1, 2), Fraction(1, 4)),
        (Fraction(1), Fraction(1, 8), Fraction(0)),
        (Fraction(1), Fraction(1, 6), Fraction(1, 9), Fraction(1, 18)),
    ]
    for entries in cases:
        w = Weight(entries)
        assert InverseWeight(tuple(recip(e) for e in entries)).weight() == w
    lam = InverseWeight((Fraction(1), Fraction(2), INF))
    assert InverseWeight(tuple(recip(e) for e in lam.weight().entries)) == lam


def test_inverse_weight_lex_order():
    a = InverseWeight((Fraction(1), Fraction(2), Fraction(4)))
    b = InverseWeight((Fraction(1), Fraction(2), INF))
    c = InverseWeight((Fraction(1), Fraction(4), Fraction(4)))
    assert a.entries < b.entries < c.entries
    assert sorted([c, a, b]) == [a, b, c]


def test_inverse_weight_json():
    lam = InverseWeight((Fraction(1), Fraction(2), INF))
    d = lam.to_json()
    assert d["lambda"] == ["1", "2", "inf"]


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------


def test_admissible_bloom():
    ok, wit = is_admissible(InverseWeight((Fraction(1), 2, 4)))
    assert ok
    assert (0, 2) in wit[2]
    assert (0, 0, 4) in wit[3]


def test_not_admissible_five_halves():
    # Independent oracle: brute force a1 <= 1, a2 <= 3 finds no solution of
    # a1 + (2/5) a2 = 1 with a2 > 0.
    assert brute_admissible_slot([Fraction(1), Fraction(5, 2)]) == []
    ok, info = is_admissible(InverseWeight((Fraction(1), Fraction(5, 2))))
    assert not ok
    assert info == {2: []}


def test_admissible_infinite_vacuous():
    ok, wit = is_admissible(InverseWeight((Fraction(1), INF, INF)))
    assert ok
    assert set(wit) == {1}


def test_admissible_matches_brute_force():
    for entries in [(1, 2, 4), (1, 4, 6), (1, 6, 9), (1, 3, 7)]:
        lam = InverseWeight(tuple(Fraction(e) for e in entries))
        ok, wit = is_admissible(lam)
        for i in range(1, len(entries) + 1):
            brute = brute_admissible_slot([Fraction(e) for e in entries[:i]])
            if ok:
                assert wit[i] == sorted(brute)
            elif i in wit:
                assert brute == []


def _random_lams(rng, count):
    """``count`` random lambdas: positive rationals up to 4, or INF."""
    return [INF if rng.random() < 0.2
            else Fraction(rng.randint(1, 8), rng.randint(1, 2))
            for _ in range(count)]


def _as_fractions(rows_den):
    """``admissible_rows``' (rows, den) with each remainder, a positive
    integer over den, as a Fraction."""
    rows, den = rows_den
    assert all(isinstance(rem, int) and rem > 0 for _row, rem in rows)
    return [(row, Fraction(rem, den)) for row, rem in rows]


def test_admissible_rows_matches_brute_force():
    # Every row of the box a_j < lambda_j (a_j = 0 for INF), in itertools'
    # lexicographic order, filtered by remainder and row sum.
    rng = random.Random(1401)
    for _ in range(2000):
        lams = _random_lams(rng, rng.randint(0, 4))
        box = [range(1) if lam == INF else range(math.ceil(lam))
               for lam in lams]
        rems = [(row, 1 - sum((Fraction(a) / lam for a, lam
                               in zip(row, lams) if a), Fraction(0)))
                for row in itertools.product(*box)]
        brute = [(row, rem) for row, rem in rems if rem > 0]
        assert _as_fractions(admissible_rows(lams)) == brute, lams
        most = rng.randint(0, 5)
        assert _as_fractions(admissible_rows(lams, most)) == [
            (row, rem) for row, rem in brute if sum(row) <= most], (lams, most)


def test_is_admissible_matches_recursive_oracle():
    rng = random.Random(1402)
    admissible = 0
    for _ in range(3000):
        finite = sorted(Fraction(rng.randint(3, 12), rng.choice((1, 1, 2, 3)))
                        for _ in range(rng.randint(0, 3)))
        lam = InverseWeight([Fraction(1)] + finite
                            + [INF] * rng.choice((0, 0, 1, 2)))
        got = is_admissible(lam)
        assert got == is_admissible_oracle(lam), lam
        # the integer witnesses (w_i divides rem) are the earlier Fraction
        # ones ((rem * lambda_i).denominator == 1), failures included
        assert got == is_admissible_rows_oracle(lam), lam
        admissible += got[0]
    assert 300 < admissible < 2700


# ----------------------------------------------------------------------
# distinguishedness
# ----------------------------------------------------------------------


def test_distinguished_bloom():
    r = parse_poly("Re(z1) + (Re(z2) + |z3|^2)^2", 3)
    assert is_distinguished(r, InverseWeight((Fraction(1), 2, 4)))


def test_distinguished_quadric():
    r = parse_poly("-2*Re(z1) + |z2|^2", 2)
    assert is_distinguished(r, InverseWeight((Fraction(1), 2)))
    assert not is_distinguished(r, InverseWeight((Fraction(1), 4)))


# ----------------------------------------------------------------------
# multitype search
# ----------------------------------------------------------------------


def test_multitype_weighted_model():
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 8, 12))
    assert mt.status == STATUS_LOWER_BOUND
    mt = dataclasses.replace(
        mt, commutator=InverseWeight((Fraction(1), 8, 12)))
    assert mt.status == STATUS_EXACT


def test_multitype_quadric():
    r = parse_poly("-2*Re(z1) + |z2|^2 + |z3|^2 + |z4|^2", 4)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 2, 2, 2))


def test_multitype_torsion_model():
    r = parse_poly(
        "-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
        " + |z2|^2*|z3|^4*|z4|^4 + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
        " + |z3|^8*|z4|^2", 4)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 6, 9, 18))


def test_multitype_search_is_distinguished_in_witness_coords():
    r = parse_poly("-2*Re(z1) + |z2 + z3^2|^4 + |z3|^8", 3)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 4, 8))
    from catlin.poly import Poly
    p = Poly.from_json_dict(mt.witness["coordinates_polynomial"])
    head = parse_poly("-2*Re(z1)", 3)
    assert is_distinguished(head + p, mt.value)


def test_multitype_search_improves_by_linear_mix():
    r = parse_poly("-2*Re(z1) + |z2 - z3|^2", 3)
    mt = multitype_search(r)
    assert mt.value.entries == (Fraction(1), Fraction(2), INF)


def test_multitype_search_improves_by_shear():
    r = parse_poly("-2*Re(z1) + |z2 + z3^2|^2", 3)
    mt = multitype_search(r)
    assert mt.value.entries == (Fraction(1), Fraction(2), INF)


def test_multitype_variable_order():
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z3|^2", 3)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 2, 8))


def test_multitype_needs_dimension_two():
    with pytest.raises(PolyError):
        multitype_search(parse_poly("-2*Re(z1)", 1))


def test_multitype_dimension_limit(monkeypatch):
    monkeypatch.setattr(weights, "MAX_SEARCH_DIMENSION", 3)
    expr = "-2*Re(z1) + |z2|^4 + |z3|^6"
    assert multitype_search(parse_poly(expr, 3)).value == InverseWeight(
        (Fraction(1), 4, 6))
    with pytest.raises(PolyError, match="dimension 4 is above 3"):
        multitype_search(parse_poly(expr + " + |z4|^8", 4))


def test_multitype_search_stops_at_the_round_cap(monkeypatch):
    # each improving round applies one shear: this model needs two, and
    # with MAX_ROUNDS = 1 the search keeps what its first round reached
    r = parse_poly("-2*Re(z1) + |z2 - z3|^4 + |z3 - z4|^8 + |z4|^16", 4)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 4, 8, 16))
    assert mt.changes == ["shear z2 += 1*z3^1", "shear z3 += 1*z4^1"]
    monkeypatch.setattr(weights, "MAX_ROUNDS", 1)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 4, 8, 8))
    assert mt.changes == ["shear z2 += 1*z3^1"]


def test_catalog_names_order_and_maps():
    # the search's "changes" witness names catalog entries in this order;
    # the catalog holds shears only, every order being weighed at once
    assert [_render(3, e)[0] for e in _catalog(3, 2)] == [
        "shear z2 += 1*z3^1", "shear z2 += -1*z3^1",
        "shear z2 += 1*z3^2", "shear z2 += -1*z3^2",
        "shear z3 += 1*z2^1", "shear z3 += -1*z2^1",
        "shear z3 += 1*z2^2", "shear z3 += -1*z2^2"]
    for n in (3, 4):
        got = [_render(n, e) for e in _catalog(n, 4)]
        # every D_j is 4
        want = catalog_oracle(parse_poly(" + ".join(
            f"|z{v}|^8" for v in range(2, n + 1)), n))
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, maps), (_, tables) in zip(got, want):
            assert [m.n for m in maps] == [n] * n, name
            assert [m.terms for m in maps] == [t.terms for t in tables], name


def test_catalog_reaches_the_largest_exponent(monkeypatch):
    # a round weighs the shears z_i -> z_i +- z_j^k with k <= min(D_j, 64),
    # D_j the largest exponent of z_j in p, in catalog order: a shear of
    # larger degree cancels no term.  Here D = (2, 5, 70) and nothing beats
    # the diagonal weight, so one round runs.
    assert MAX_DEGREE_BOUND == 64
    seen = []
    cancels_nothing = weights._cancels_nothing

    def spy(shear, terms):
        seen.append(shear)
        return cancels_nothing(shear, terms)

    monkeypatch.setattr(weights, "_cancels_nothing", spy)
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^10 + |z4|^140", 4)
    got = multitype_search(r)
    assert got.value == InverseWeight((Fraction(1), 4, 10, 140))
    assert got.changes == []
    reach = {2: 2, 3: 5, 4: 64}
    assert seen == [_Shear(i, j, k, c)
                    for i, j in itertools.permutations(range(2, 5), 2)
                    for k in range(1, reach[j] + 1) for c in (1, -1)]


def _gaussian_model(rng, n):
    """Random terms over z_2..z_n with Gaussian-rational coefficients; in
    about half of the models one of z_3..z_n does not occur."""
    absent = rng.choice((None, rng.randint(3, n)))
    p = Poly.zero(n)
    for _ in range(rng.randint(1, 5)):
        a, b = (tuple(0 if v in (1, absent) else rng.randint(0, 3)
                      for v in range(1, n + 1)) for _ in range(2))
        p = p + Poly.monomial(n, a, b, rand_crat(rng))
    return p


def test_catalog_support_matches_substitution():
    # every entry's support, read off the catalog data, is the support of
    # the substituted polynomial; a shear followed by its inverse cancels
    # every term the first one added
    rng = random.Random(1606)
    cancelled = 0
    for n in (3, 3, 4, 4, 5, 5, 6, 6):
        p = _gaussian_model(rng, n)
        support, terms = _evecs(p), _integer_terms(p)
        for entry in _catalog(n, 4):
            name, maps = _render(n, entry)
            q = substitute_maps_oracle(p, maps)
            assert _support_after(entry, terms) == _evecs(q), name
            back = entry._replace(c=-entry.c)
            q_support, q_terms = _evecs(q), _integer_terms(q)
            want = _evecs(substitute_maps_oracle(q, _render(n, back)[1]))
            assert want == support, name
            assert _support_after(back, q_terms) == want, name
            cancelled += q_support != support  # the inverse must cancel
    assert cancelled >= 500, cancelled


def test_cancels_nothing_is_sound():
    # a shear the search skips unexpanded keeps every term of p, so its
    # support contains p's; an inverse shear that cancels is never skipped
    rng = random.Random(1606)
    counts = {"skipped": 0, "cancelled": 0}
    for n in (3, 3, 4, 4, 5, 5, 6, 6):
        p = _gaussian_model(rng, n)
        support, terms = _evecs(p), _integer_terms(p)
        for entry in _catalog(n, 4):
            name, maps = _render(n, entry)
            q = substitute_maps_oracle(p, maps)
            if _cancels_nothing(entry, terms):
                assert set(q.terms) >= set(p.terms), name
                assert _evecs(q) >= support, name
                counts["skipped"] += 1
            back = entry._replace(c=-entry.c)
            if _evecs(q) != support:  # the inverse cancels what q gained
                assert not _cancels_nothing(back, _integer_terms(q)), name
                counts["cancelled"] += 1
    assert counts["cancelled"] >= 500, counts
    assert min(counts.values()) > 0, counts


def test_cancels_nothing_is_exact():
    # _cancels_nothing is False exactly when some key of p cancels under
    # the shear, read off the fully expanded polynomial: on the models of
    # test_cancels_nothing_is_sound, and on each image q under a shear,
    # whose expanded keys share classes, under the shear's inverse, which
    # cancels what the shear added, and under the shear again, which mostly
    # cancels nothing
    rng = random.Random(1606)
    counts = {"cancels": 0, "keeps": 0}
    for n in (3, 3, 4, 4, 5, 5, 6, 6):
        p = _gaussian_model(rng, n)
        for entry in _catalog(n, 4):
            maps = _render(n, entry)[1]
            q = substitute_maps_oracle(p, maps)
            back = entry._replace(c=-entry.c)
            for base, shear, image in (
                    (p, entry, q),
                    (q, back, substitute_maps_oracle(q, _render(n, back)[1])),
                    (q, entry, substitute_maps_oracle(q, maps))):
                cancels = not set(image.terms) >= set(base.terms)
                got = _cancels_nothing(shear, _integer_terms(base))
                assert got == (not cancels), _render(n, shear)[0]
                counts["cancels" if cancels else "keeps"] += 1
    assert min(counts.values()) >= 100, counts


def test_cancels_nothing_reads_the_coefficients():
    # |z2|^2 + |z3|^2 and |z2|^2 - 2*Re(z2*zbar3) + |z3|^2 = |z2 - z3|^2 have
    # the same keys in one class under z2 -> z2 + z3; only the second loses
    # keys, and a coefficient-blind test cannot tell them apart
    shear = _Shear(2, 3, 1, 1)
    for expr, cancels in (("|z2|^2 + |z3|^2", False),
                          ("|z2|^2 + 2*Re(z2*zbar3) + |z3|^2", False),
                          ("|z2|^2 - 2*Re(z2*zbar3) + |z3|^2", True)):
        p = parse_poly(expr, 3)
        q = substitute_maps_oracle(p, _render(3, shear)[1])
        assert (not set(q.terms) >= set(p.terms)) == cancels, expr
        assert _cancels_nothing(shear, _integer_terms(p)) == (not cancels)


def test_multitype_search_weighs_no_shear(monkeypatch):
    # a diagonal model: no shear cancels a term.  Each is skipped unexpanded
    # but z3 += +-z4, which maps |z3|^6 into |z4|^6's class; its support
    # contains the model's, so it is not weighed either.  Only the initial
    # support is weighed, over every order at once.
    weighed = []
    original = weights.best_distinguished_weight

    def counted(support, n, above=None):
        weighed.append(support)
        return original(support, n, above)
    monkeypatch.setattr(weights, "best_distinguished_weight", counted)
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^6 + |z4|^6 + |z5|^8", 5)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 4, 6, 6, 8))
    assert mt.witness["changes"] == []
    assert len(weighed) == 1
    assert all(len(support) == 4 for support in weighed)


def test_best_distinguished_harmonic_sensitivity():
    # without harmonic elimination the pure term would cap lambda_2 at 2
    r = parse_poly("-2*Re(z1) + |z2|^4 + 2*Re(z2^2)", 2)
    mt = multitype_search(r)
    assert mt.value == InverseWeight((Fraction(1), 4))


def _support_poly(n, evecs):
    """Balanced model part with the given exponent vectors over z_2..z_n
    (odd entries split between z and zbar, so alpha+beta is the vector)."""
    p = Poly.zero(n)
    for e in evecs:
        a = (0,) + tuple((x + 1) // 2 for x in e)
        b = (0,) + tuple(x // 2 for x in e)
        p = p + Poly.monomial(n, a, b, 1) + Poly.monomial(n, b, a, 1)
    return p


def _above_cases(rng, n, lam):
    """Inverse weights around lam: lam itself (a tie), a step below and above
    at each finite slot and a finite entry at each INF slot, each with a
    finite or INF tail, a tie through each slot followed by INF or by a
    repeat of that slot, and random ones with INF tails."""
    out = []
    if lam is not None:
        out.append(lam.entries)
        for j in range(1, n):
            tie = lam.entries[:j + 1]
            out.append(tie + (INF,) * (n - j - 1))
            out.append(tie + (tie[-1],) * (n - j - 1))
            x = lam.entries[j]
            near = (x - Fraction(1, 3), x + Fraction(1, 3)) if x != INF \
                else (lam.entries[j - 1] + Fraction(1, 3),)
            for y in near:
                for fill in (y, INF):
                    out.append(lam.entries[:j] + (y,) + (fill,) * (n - j - 1))
            out.append(lam.entries[:j] + (INF,) * (n - j))
    for _ in range(4):
        tail = sorted(Fraction(rng.randint(2, 24), rng.randint(1, 3))
                      for _ in range(n - 1))
        cut = rng.randint(1, n)
        out.append((Fraction(1),) + tuple(tail[:cut - 1]) + (INF,) * (n - cut))
    cases = []
    for entries in out:
        try:
            cases.append(InverseWeight(entries))
        except PolyError:
            pass
    return cases


def _symmetric_support(rng, n):
    """Random exponent vectors over z_2..z_n closed under swapping two of
    the variables, so every order that reaches the lex-max has a twin."""
    i, j = rng.sample(range(n - 1), 2)
    evecs = set()
    for _ in range(rng.randint(1, 3)):
        e = [rng.randint(0, 8) for _ in range(n - 1)]
        evecs.add(tuple(e))
        e[i], e[j] = e[j], e[i]
        evecs.add(tuple(e))
    return evecs


def test_best_distinguished_above_matches_unpruned_oracle():
    # the weight is the lex-max over every order of z_2..z_n and the order
    # the first in itertools.permutations order to reach it, by brute force
    # over the orders with the unpruned oracle, with and without ``above``:
    # on 300 random supports, then on 300 supports symmetric under a swap,
    # whose orders tie in pairs, so the tie rule decides them
    rng = random.Random(505)
    symmetric = random.Random(3906)
    checked = {"above": 0, "none": 0, "infeasible": 0, "reordered": 0}
    for case in range(600):
        if case < 300:
            n = rng.randint(2, 6)
            evecs = {tuple(rng.randint(0, 10) for _ in range(n - 1))
                     for _ in range(rng.randint(1, 4))}
            if rng.random() < 0.1:
                evecs.add(tuple(0 for _ in range(n - 1)))  # infeasible
        else:
            n = symmetric.randint(3, 6)
            evecs = _symmetric_support(symmetric, n)
        p = _support_poly(n, evecs)
        found = best_ordered_weight_oracle(p)
        assert best_distinguished_weight(_evecs(p), p.n) == found, evecs
        lam = None if found is None else found[0]
        if lam is None:
            checked["infeasible"] += 1
        elif case >= 300:
            checked["reordered"] += found[1] != tuple(range(2, n + 1))
        for w in _above_cases(rng, n, lam):
            want = found if lam is not None and lam.entries > w.entries \
                else None
            got = best_distinguished_weight(_evecs(p), p.n, above=w)
            assert got == want, (evecs, w)
            checked["above" if want else "none"] += 1
    assert min(checked.values()) > 0, checked


def test_best_distinguished_above_ties_and_inf_tails():
    p = parse_poly("|z2|^4 + |z3|^8", 3)
    lam = InverseWeight((Fraction(1), 4, 8))
    assert best_distinguished_weight(_evecs(p), p.n) == (lam, (2, 3))
    assert best_distinguished_weight(_evecs(p), p.n, above=lam) is None
    assert best_distinguished_weight(_evecs(p), p.n, above=InverseWeight(
        (Fraction(1), 4, Fraction(15, 2)))) == (lam, (2, 3))
    assert best_distinguished_weight(_evecs(p), p.n, above=InverseWeight(
        (Fraction(1), 4, INF))) is None
    # the same weight in the other order: slot 2 takes z3
    swapped = parse_poly("|z2|^8 + |z3|^4", 3)
    assert best_distinguished_weight(_evecs(swapped), 3) == (lam, (3, 2))
    q = parse_poly("|z2|^4", 3)  # z3 absent: lambda_3 = INF
    inf_tail = InverseWeight((Fraction(1), 4, INF))
    assert best_distinguished_weight(_evecs(q), q.n) == (inf_tail, (2, 3))
    assert best_distinguished_weight(_evecs(q), q.n, above=inf_tail) is None
    assert best_distinguished_weight(_evecs(q), q.n, above=lam) == (
        inf_tail, (2, 3))
    # z2 absent: z3 takes slot 2 and z2 the INF slot
    assert best_distinguished_weight(
        _evecs(parse_poly("|z3|^4", 3)), 3) == (inf_tail, (3, 2))
    with pytest.raises(PolyError):
        best_distinguished_weight(_evecs(q), q.n,
                                  above=InverseWeight((Fraction(1), 2)))


def _nondecreasing_aboves(rng, nvars, found):
    """``above`` tuples over slots 2..n for the walk: its result ``found``
    (a tie), a step below and above it at one slot with a finite or INF
    tail, and one random nondecreasing tuple with an INF tail."""
    out = []
    if found is not None:
        lams = found[0]
        out.append(lams)
        j = rng.randrange(nvars)
        x, prev = lams[j], lams[j - 1] if j else Fraction(1)
        steps = (x - Fraction(1, 2), x + Fraction(1, 2)) if x != INF \
            else (prev + rng.randint(0, 20),)
        for y in steps:
            if y >= prev:
                out.append(lams[:j] + (y,) +
                           (rng.choice((y, INF)),) * (nvars - j - 1))
    tail = sorted(Fraction(rng.randint(1, 40), rng.randint(1, 3))
                  for _ in range(nvars))
    cut = rng.randint(0, nvars)
    out.append(tuple(max(x, 1) for x in tail[:cut]) + (INF,) * (nvars - cut))
    return out


def test_best_distinguished_matches_candidate_oracle():
    # the walk takes each slot's bound; the earlier walk also tried every
    # admissible lambda below it, over the admissibility remainders.  Both
    # give the same (tuple, order), or None, on 2000 random supports over up
    # to 5 variables with exponents up to 15, some with a zero vector, with
    # ``above`` unset, set to the result, stepped at one slot and random
    rng = random.Random(4301)
    checked = {"found": 0, "infeasible": 0, "above": 0, "none": 0}
    for _ in range(2000):
        nvars = rng.randint(1, 5)
        evecs = {tuple(rng.randint(1, 15) if rng.random() < 0.4 else 0
                       for _ in range(nvars))
                 for _ in range(rng.randint(1, 3))}
        if rng.random() < 0.1:
            evecs.add((0,) * nvars)
        want = best_distinguished_candidates_oracle(evecs, nvars)
        assert weights._best_distinguished(evecs, nvars) == want, evecs
        checked["found" if want else "infeasible"] += 1
        for above in _nondecreasing_aboves(rng, nvars, want):
            pruned = best_distinguished_candidates_oracle(evecs, nvars, above)
            assert weights._best_distinguished(evecs, nvars, above) == \
                pruned, (evecs, above)
            checked["above" if pruned else "none"] += 1
    assert min(checked.values()) > 100, checked


def test_best_distinguished_high_degree_diagonal_is_fast():
    # each slot takes its bound at once: the earlier walk enumerated every
    # admissibility remainder below it and took 51 s here
    n = 6
    r = parse_poly("-2*Re(z1) + " + " + ".join(
        f"|z{v}|^{128 + 2 * v}" for v in range(2, n + 1)), n)
    start = time.perf_counter()
    found = best_distinguished_weight(_evecs(r.restrict_support(range(2, 7))),
                                      n)
    assert time.perf_counter() - start < 1.0
    assert found == (InverseWeight((1, 132, 134, 136, 138, 140)),
                     (2, 3, 4, 5, 6))


def test_best_distinguished_forms_no_remainder_set():
    # a profiler sees every return of the walk's recursion, with its depth
    # and whether it found a tuple: one call per slot and one for the end
    # in the walk, then the repeat strictly above (4, 6, 10), which at a
    # tie tries each allowed variable; and none holds a set (of remainders
    # or of candidate lambdas) among its locals
    calls, sets = [], []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "return" and code.co_name == "rec" and \
                code.co_filename == weights.__file__:
            calls.append((len(frame.f_locals["prefix"]), arg is not None))
            sets.extend(name for name, value in frame.f_locals.items()
                        if isinstance(value, (set, frozenset)))
    evecs = _evecs(parse_poly("|z2|^4 + |z3|^6 + |z4|^10", 4))
    sys.setprofile(profile)
    try:
        found = weights._best_distinguished(evecs, 3)
    finally:
        sys.setprofile(None)
    assert found == ((4, 6, 10), (0, 1, 2))
    assert calls == [(3, True), (2, True), (1, True), (0, True),
                     (3, False), (2, False), (2, False),
                     (1, False), (1, False), (1, False), (0, False)]
    assert sets == []


def test_best_distinguished_without_above_always_finds_a_weight():
    # without ``above`` only a zero exponent vector leaves no weight, and
    # eliminate_harmonic leaves none: so the search and the boundary floor
    # need no branch for a missing weight
    rng = random.Random(4302)
    for _ in range(1000):
        nvars = rng.randint(1, 8)
        evecs = set()
        while len(evecs) < rng.randint(1, 6):
            e = tuple(rng.randint(1, 20) if rng.random() < 0.4 else 0
                      for _ in range(nvars))
            if any(e):
                evecs.add(e)
        assert weights._best_distinguished(evecs, nvars) is not None, evecs


def _random_model(rng, n):
    """Diagonal |z_j|^(2k_j) plus a mixed term, hidden by a random
    permutation and a random shear of the catalog's kind."""
    ks = sorted(rng.randint(1, 4) for _ in range(n - 1))
    p = Poly.zero(n)
    for j, k in enumerate(ks, start=1):
        alpha = tuple(k if i == j else 0 for i in range(n))
        p = p + Poly.monomial(n, alpha, alpha, rand_crat(rng).re ** 2 + 1)
    a = (0,) * (n - 2) + (1, 1)
    b = (0,) + (2,) + (0,) * (n - 2)
    p = p + Poly.monomial(n, a, b, Fraction(1, 5)) + \
        Poly.monomial(n, b, a, Fraction(1, 5))
    perm = list(range(2, n + 1))
    rng.shuffle(perm)
    maps = [Poly.variable(n, 1)] + [Poly.variable(n, j) for j in perm]
    i, j = rng.sample(range(2, n + 1), 2)
    maps[i - 1] = maps[i - 1] + Poly.variable(n, j) ** rng.randint(1, 2) * \
        rng.choice((1, -1))
    head = parse_poly("-2*Re(z1)", n)
    return head + substitute_maps_oracle(p, maps)


def _sheared_diagonal(rng, n):
    """A diagonal sum of |z_v|^(2k_v), k_v nondecreasing in v, under a
    random shear z_i -> z_i +- z_j^k with i < j and k*k_i < k_j.  The sheared
    |z_i|^(2k_i) puts |z_j|^(2k*k_i) in the support, below weight 1 under the
    diagonal weight, and every other term stays; so the sheared model weighs
    less than the diagonal one, and the inverse shear alone gets it back."""
    ks = [1]
    while ks[0] == ks[-1]:  # until two exponents differ
        ks = sorted(rng.randint(1, 5) for _ in range(n - 1))
    i, j = rng.choice([(i, j) for i, j in itertools.combinations(
        range(2, n + 1), 2) if ks[i - 2] < ks[j - 2]])
    k = rng.choice([k for k in (1, 2) if k * ks[i - 2] < ks[j - 2]])
    p = Poly.zero(n)
    for v, kv in enumerate(ks, start=2):
        alpha = tuple(kv if u == v else 0 for u in range(1, n + 1))
        p = p + Poly.monomial(n, alpha, alpha, rand_crat(rng).re ** 2 + 1)
    maps = [Poly.variable(n, v) for v in range(1, n + 1)]
    maps[i - 1] = maps[i - 1] + Poly.variable(n, j) ** k * rng.choice((1, -1))
    return parse_poly("-2*Re(z1)", n) + substitute_maps_oracle(p, maps)


def test_multitype_search_matches_oracle_search():
    rng = random.Random(77)
    models = [_random_model(rng, n) for n in (3, 3, 3, 3, 4, 4, 4, 5)]
    models += [parse_poly("-2*Re(z1) + |z2 + z3^2|^4 + |z3|^8", 3),
               parse_poly("-2*Re(z1) + |z2|^6 + |z3|^4 + |z4|^8", 4)]
    # the reversed diagonals |z2|^(2n) + ... + |zn|^4: one perm(...) each
    for n in (4, 5, 6):
        r = parse_poly("-2*Re(z1) + " + " + ".join(
            f"|z{v}|^{2 * (n + 2 - v)}" for v in range(2, n + 1)), n)
        got = multitype_search(r)
        assert got.changes == [f"perm{tuple(range(n, 1, -1))}"]
        models.append(r)
    # symmetric under swapping z3 and z4: both orders of them tie, and the
    # first in itertools.permutations order puts z3 first
    r = parse_poly(
        "-2*Re(z1) + |z2|^8 + |z3|^4 + |z4|^4 + |z3|^2*|z4|^2", 4)
    assert multitype_search(r).changes == ["perm(4, 2, 3)"]
    models.append(r)
    sheared = random.Random(78)
    models += [_sheared_diagonal(sheared, (3, 3, 4, 4, 5)[m % 5])
               for m in range(40)]
    # sheared diagonals whose inverse shear has degree 5 or 6
    models += [parse_poly("-2*Re(z1) + " + expr, n) for expr, n in (
        ("|z2 + z3^5|^2 + |z3|^12", 3),
        ("|z2|^2 + |z3 - z4^6|^2 + |z4|^14", 4),
        ("|z2 + z4^5|^4 + |z3|^6 + |z4|^22", 4))]
    changed = 0
    # a shear and then a permutation: the rendered winner is pinned here
    r = parse_poly("-2*Re(z1) + |z2|^6 + |z3+z4|^6 + |z4|^12 + |z5|^8", 5)
    got = multitype_search(r)
    assert got.witness["changes"] == ["shear z3 += -1*z4^1",
                                      "perm(2, 3, 5, 4)"]
    assert got.value == InverseWeight((Fraction(1), 6, 6, 8, 12))
    models.append(r)
    for r in models:
        got = multitype_search(r)
        value, witness = multitype_search_oracle(r)
        assert got.value == value, str(r)
        assert got.witness == witness, str(r)
        changed += bool(got.witness["changes"])
    # 3, the 4 reordered models, 43 sheared diagonals
    assert changed >= 50


# ----------------------------------------------------------------------
# counting and enumeration
# ----------------------------------------------------------------------


def test_counting_bound_values():
    assert counting_bound(3, 6) == 36
    assert counting_bound(2, 4) == 2
    assert counting_bound(2, 2) == 1


def test_enumerate_two_variables():
    # Oracle: in dimension 2 the system forces m_2 = 2 k_22 <= m, even.
    def oracle(m):
        return [InverseWeight((Fraction(1), Fraction(k)))
                for k in range(2, m + 1, 2)]

    assert enumerate_multitypes(2, 4) == oracle(4)
    assert enumerate_multitypes(2, 6) == oracle(6)


def test_enumerate_three_variables_m4():
    got = enumerate_multitypes(3, 4)
    must = {(1, 2, 2), (1, 2, 4), (1, 4, 4)}
    entries = {tuple(int(e) for e in w.entries) for w in got}
    assert must <= entries
    assert len(got) <= 12


def test_enumerate_all_admissible_and_bounded():
    for n in (2, 3, 4):
        for m in (2, 4, 6, 8, 10):
            weights = enumerate_multitypes(n, m)
            assert len(weights) <= counting_bound(n, m)
            assert weights == sorted(weights)
            assert len(set(weights)) == len(weights)
            for w in weights:
                ok, _ = is_admissible(w)
                assert ok, f"{w} not admissible"


def test_enumerate_rational_entries_appear():
    # 2*1/8 + 2*4/(32/3) = 1: the row (1, 4) realizes m_3 = 32/3
    lam = InverseWeight((Fraction(1), Fraction(8), Fraction(32, 3)))
    assert lam in enumerate_multitypes(3, 11)
    assert (0, 2, 8) in is_admissible(lam)[1][3]
    assert all(e.denominator == 1 for w in enumerate_multitypes(3, 10)
               for e in w.entries)


def test_enumerate_matches_recursive_oracle():
    cases = [(n, m) for n in (2, 3, 4, 5) for m in range(2, 13)]
    cases += [(n, Fraction(13, 2)) for n in (2, 3, 4, 5)]
    cases += [(3, Fraction(21, 2)), (4, Fraction(19, 2))]
    for n, m in cases:
        assert enumerate_multitypes(n, m) == \
            enumerate_multitypes_oracle(n, m), (n, m)


def test_enumerate_limits():
    for n, m in [(1, 4), (MAX_ENUMERATE_DIMENSION + 1, 2), (3, 1),
                 (2, MAX_ENUMERATE_TYPE + 1)]:
        with pytest.raises(PolyError, match="is outside"):
            enumerate_multitypes(n, m)
    assert len(enumerate_multitypes(2, MAX_ENUMERATE_TYPE)) == \
        MAX_ENUMERATE_TYPE // 2
    assert len(enumerate_multitypes(MAX_ENUMERATE_DIMENSION, 2)) == 1
    with pytest.raises(PolyError, match="row entries"):
        enumerate_multitypes(4, 64)


# ----------------------------------------------------------------------
# weight descent helper
# ----------------------------------------------------------------------


def test_lower_weight_at():
    mu = Weight((Fraction(1), Fraction(1, 8), Fraction(1, 12)))
    q = parse_poly("|z2|^4*|z3|^6", 3)
    lowered = lower_weight_at(mu, 2, q)
    assert lowered == Weight((Fraction(1), Fraction(1, 10), Fraction(1, 10)))
    assert lower_weight_at(lowered, 2, q) is None


def _random_descent_case(rng):
    """A seeded (mu, j, q): mu nonincreasing (ties and a zero entry now and
    then), q with z1 heads and terms of zero tail from slot j on mixed in."""
    n = rng.randint(2, 5)
    pool = [Fraction(k, d) for d in range(2, 13) for k in (1, 2, 3)
            if k < d] + [Fraction(0)]
    mu = Weight((Fraction(1),) + tuple(
        sorted((rng.choice(pool) for _ in range(n - 1)), reverse=True)))
    j = rng.randint(2, n)
    q = Poly.zero(n)
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.15:
            # the z1 head
            alpha = (1,) + (0,) * (n - 1)
            beta = (0,) * n
        else:
            alpha = [0] + [rng.randint(0, 3) for _ in range(n - 1)]
            beta = [0] + [rng.randint(0, 3) for _ in range(n - 1)]
            if kind < 0.3:
                # zero tail: no variable from slot j on
                alpha[j - 1:] = beta[j - 1:] = [0] * (n - j + 1)
        q = q + Poly.monomial(n, alpha, beta, 1) + Poly.monomial(n, beta,
                                                                  alpha, 1)
    return mu, j, q


def test_lower_weight_at_matches_candidate_scan():
    # the closed form against the earlier scan over candidate values
    rng = random.Random(2024)
    found = 0
    for _ in range(2500):
        mu, j, q = _random_descent_case(rng)
        got = lower_weight_at(mu, j, q)
        assert got == lower_weight_at_oracle(mu, j, q), (mu, j, q)
        found += got is not None
    # both outcomes are exercised
    assert 250 < found < 2250


def test_lower_weight_keeps_terms_at_least_one():
    rng = random.Random(31)
    mu = Weight((Fraction(1), Fraction(1, 4), Fraction(1, 8)))
    for _ in range(50):
        p = Poly.zero(3)
        for _k in range(3):
            a = (0, rng.randint(0, 3), rng.randint(0, 4))
            if weighted_order((a, a), mu.entries) >= 1:
                p = p + Poly.monomial(3, a, a, 1)
        lowered = lower_weight_at(mu, 3, p)
        if lowered is None:
            continue
        assert lowered.entries < mu.entries
        for key in p.terms:
            assert weighted_order(key, lowered.entries) >= 1
