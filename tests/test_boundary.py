import collections
import copy
import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import catlin.boundary as boundary
import catlin.weights as weights
from catlin.boundary import (BoundaryConstructionError,
                             audit_boundary_system, build_boundary_system,
                             detect_torsion, first_block_slots,
                             first_block_torsion, list_derivative,
                             normalize_first_block, VField, _ranked,
                             _apply_field, _field_from_vector, _lambda_floor,
                             _ListSearcher, _normalize_r)
from catlin.cli import main
from catlin.exact import CRat, hermitian_reduce, rank
from catlin.levi import (complex_hessian, psd_certificate,
                         sheared_certificate)
from catlin.parser import parse_poly
from catlin.poly import (CoordChange, Poly, PolyError, _capped_products,
                         _mul_terms, eliminate_harmonic, split_model)
from catlin.weights import (INF, InverseWeight, _evecs,
                            best_distinguished_weight, is_admissible,
                            multitype_search)

from helpers import (ListSearcherOracle, _truncate, _workloads,
                     apply_field_oracle, audit_boundary_system_oracle,
                     benchmark_models,
                     commutator_oracle, compositions_oracle, rand_crat,
                     rand_real_poly, ranked_oracle, slow_field_oracle,
                     straighten_first_block_oracle)

TORSION_EXPR = ("-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
                " + |z2|^2*|z3|^4*|z4|^4"
                " + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
                " + |z3|^8*|z4|^2")
EPSILON = ["1/10", "1/5", "1/4", "1/3", "2/5", "1/2"]


def torsion_lift(k: int, eps: str = "1/10") -> str:
    """The torsion model with z4 -> z4^k; k = 1 is TORSION_EXPR."""
    return ("-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6"
            f" + |z2|^4*|z3|^2*|z4|^{2 * k} + |z2|^2*|z3|^4*|z4|^{4 * k}"
            f" + 2*({eps})*Re(z2*zbar2*z3^2*zbar3^3*z4^{k}*zbar4^{k})"
            f" + |z3|^8*|z4|^{2 * k}")


def origin_value(p: Poly) -> CRat:
    zero = (0,) * p.n
    return p.terms.get((zero, zero), CRat(0))


# ----------------------------------------------------------------------
# list derivatives
# ----------------------------------------------------------------------


def test_list_derivative_levi_entry():
    r = parse_poly("-2*Re(z1) + |z2|^2", 2)
    c1, _p = split_model(r)
    l2 = _field_from_vector(r, c1, [Poly.const(2, 1)])
    value = list_derivative(r, {2: l2}, [(2, True), (2, False)])
    assert not origin_value(value).is_zero()


def test_list_derivative_length_threshold():
    # For |z2|^(2l), every list over S_2 shorter than 2l vanishes at 0 and
    # some list of length exactly 2l does not (brute force over all lists).
    for ell in (2, 3):
        r = parse_poly(f"-2*Re(z1) + |z2|^{2 * ell}", 2)
        c1, _p = split_model(r)
        l2 = _field_from_vector(r, c1, [Poly.const(2, 1)])
        fields = {2: l2}
        for length in range(2, 2 * ell):
            for flags in itertools.product((False, True), repeat=length):
                entries = [(2, f) for f in flags]
                assert origin_value(list_derivative(r, fields, entries)).is_zero()
        hit = False
        for flags in itertools.product((False, True), repeat=2 * ell):
            entries = [(2, f) for f in flags]
            if not origin_value(list_derivative(r, fields, entries)).is_zero():
                hit = True
                break
        assert hit


def test_list_derivative_needs_two_fields():
    r = parse_poly("-2*Re(z1) + |z2|^2", 2)
    c1, _p = split_model(r)
    l2 = _field_from_vector(r, c1, [Poly.const(2, 1)])
    with pytest.raises(PolyError):
        list_derivative(r, {2: l2}, [(2, False)])


def test_list_derivative_conjugation_consistency():
    # Conjugating every list entry conjugates the value up to the universal
    # sign coming from the (1,0) projection: for tangent fields A, B the full
    # differential kills [A, B], so dbar-r([A, B]) = -dr([A, B]), and the
    # conjugated list pairs with the conjugated form.
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z2|^2*|z3|^2", 3)
    c1, _p = split_model(r)
    l2 = _field_from_vector(r, c1, [Poly.const(3, 1), Poly.zero(3)])
    l3 = _field_from_vector(r, c1, [Poly.zero(3), Poly.const(3, 1)])
    fields = {2: l2, 3: l3}
    for entries in ([(2, False), (2, True), (3, False), (3, True)],
                    [(2, True), (2, False)],
                    [(3, False), (2, True), (2, False)]):
        flipped = [(s, not c) for s, c in entries]
        v1 = origin_value(list_derivative(r, fields, entries))
        v2 = origin_value(list_derivative(r, fields, flipped))
        assert v2 == -(v1.conj())
        assert v1.is_zero() == v2.is_zero()


def test_bloom_lists_vanish():
    # All ordered 3-admissible lists over the kernel direction vanish at the
    # origin: the Bloom phenomenon.
    r = parse_poly("Re(z1) + (Re(z2) + |z3|^2)^2", 3)
    c1, _p = split_model(r)
    # tangent field along z3 corrected to kill the Levi pairing with z2
    b2 = Poly.monomial(3, (0, 0, 0), (0, 0, 1), -2)  # -2 zbar3
    l3 = _field_from_vector(r, c1, [b2, Poly.const(3, 1)])
    fields = {3: l3}
    for length in range(2, 7):
        for flags in itertools.product((False, True), repeat=length):
            entries = [(3, f) for f in flags]
            assert origin_value(list_derivative(r, fields, entries)).is_zero()


def _rand_poly(rng, n, terms, max_exp):
    return Poly(n, {(tuple(rng.randint(0, max_exp) for _ in range(n)),
                     tuple(rng.randint(0, max_exp) for _ in range(n))):
                    rand_crat(rng) for _ in range(terms)})


def test_skeletons_match_recursive_compositions():
    # the lists of first..last fields are the earlier recursion's, ranked
    # by (value c_j = counts[slot] / rem, fields, scan position), the scan
    # position being the row of earlier counts in lexicographic order, so
    # a longer list of smaller value comes first; the rows are formed once,
    # for the largest number of fields, and serve every smaller one
    rng = random.Random(1403)
    lists = longer_first = 0
    for _ in range(2000):
        slot = rng.randint(2, 6)
        c_prev = {k: Fraction(rng.randint(2, 16), rng.randint(1, 3))
                  for k in range(2, slot) if rng.random() < 0.7}
        first = rng.randint(2, 10)
        last = rng.randint(first, 10)
        slow = {k: SimpleNamespace(c=c) for k, c in c_prev.items()}
        got = list(_ranked(slow, slot, first, last))

        def value(counts):
            rem = 1 - sum(Fraction(counts[k]) / c for k, c in c_prev.items())
            return counts[slot] / rem

        want = sorted(
            ((value(counts), total, [counts[k] for k in sorted(c_prev)],
              counts)
             for total in range(first, last + 1)
             for counts in compositions_oracle(total, sorted(c_prev) + [slot],
                                               c_prev)),
            key=lambda w: w[:3])
        assert [(v, f) for v, f, _sk in got] == [w[:2] for w in want]
        for (_v, _f, skeleton), (*_key, counts) in zip(got, want):
            assert skeleton == [s for s in sorted(counts, reverse=True)
                                for _ in range(counts[s])]
        lists += len(got)
        longer_first += any(f > g for (_v, f, _s), (_w, g, _t)
                            in zip(got, got[1:]))
    assert lists > 4000
    # the value order is not the field order on many of the draws
    assert longer_first > 100


def test_ranked_matches_the_fraction_ranking():
    # the integer ranking (remainders over the c-entries' common
    # denominator) yields what the earlier Fraction one did, list for
    # list, on seeded c-prefixes with INF entries, under every kind of
    # floor: none, rational, an earlier c and INF
    rng = random.Random(1404)
    kinds = collections.Counter()
    lists = 0
    for _ in range(2400):
        slot = rng.randint(2, 6)
        c_prev = {k: INF if rng.random() < 0.15
                  else Fraction(rng.randint(2, 16), rng.randint(1, 3))
                  for k in range(2, slot) if rng.random() < 0.7}
        first = rng.randint(2, 10)
        last = rng.randint(first, 10)
        finite = [c for c in c_prev.values() if c != INF]
        kind = rng.choice(("none", "rational", "earlier", "inf"))
        if kind == "earlier" and not finite:
            kind = "rational"
        floor = {"none": None, "inf": INF,
                 "rational": Fraction(rng.randint(1, 40), rng.randint(1, 4)),
                 "earlier": rng.choice(finite) if finite else None}[kind]
        kinds[kind] += 1
        slow = {k: SimpleNamespace(c=c) for k, c in c_prev.items()}
        got = list(_ranked(slow, slot, first, last, floor))
        assert got == ranked_oracle(slow, slot, first, last, floor), \
            (c_prev, slot, first, last, floor)
        lists += len(got)
    assert min(kinds.values()) > 300 and lists > 4000, (kinds, lists)


def test_capped_products_equal_truncated_products():
    rng = random.Random(20240603)
    start_rng = random.Random(20240604)
    for _ in range(60):
        n = rng.randint(1, 3)
        pairs = [(_rand_poly(rng, n, rng.randint(0, 5), 2),
                  _rand_poly(rng, n, rng.randint(0, 5), 2))
                 for _ in range(rng.randint(1, 3))]
        full = sum((a * b for a, b in pairs), Poly.zero(n))
        # the kernel adds into a table that already holds terms of every
        # degree, and keeps those above the cap
        start = _rand_poly(start_rng, n, start_rng.randint(1, 5), 4)
        a, b = pairs[0]
        for cap in [None] + list(range(-1, 8 * n + 1)):
            # products have degree <= 8n
            out = dict(start.terms)
            for x, y in pairs:
                assert _mul_terms(x.terms, y.terms, cap, out) is out
            if cap is None:
                assert Poly(n, out) == start + full
                assert Poly(n, _mul_terms(a.terms, b.terms)) == a * b
            else:
                assert Poly(n, out) == start + _truncate(full, cap)
                assert Poly(n, _mul_terms(a.terms, b.terms, cap)) == \
                    _truncate(a * b, cap)


def test_apply_field_matches_oracle():
    # the one-pass kernel (raw derivative tables, empty ones skipped, one
    # product table) against the earlier product of Poly derivatives: zero
    # coefficients, operands that miss variables or are empty, every cap
    # from below 0 to past the top degree, and both kinds of field
    rng = random.Random(20261018)
    cases = empty_derivatives = 0
    for draw in range(120):
        n = 2 + draw % 4
        coeffs = [Poly.zero(n) if rng.random() < 0.3 else
                  _rand_poly(rng, n, rng.randint(1, 3), 2) for _ in range(n)]
        present = rng.sample(range(n), rng.randint(1, n))
        f = Poly.zero(n) if draw % 10 == 0 else Poly(n, {
            (tuple(rng.randint(0, 3) if i in present else 0
                   for i in range(n)),
             tuple(rng.randint(0, 3) if i in present else 0
                   for i in range(n))): rand_crat(rng)
            for _ in range(rng.randint(1, 5))})
        top = f.total_degree() + max(a.total_degree() for a in coeffs)
        for conjugate in (False, True):
            empty_derivatives += sum(
                not a.is_zero() and f.wirtinger(k, conjugate).is_zero()
                for k, a in enumerate(coeffs, start=1))
            for cap in [None] + list(range(-1, top + 2)):
                # the conjugate field is applied by the field loop itself
                got = Poly._unchecked(n, boundary._field_terms(
                    [(i, a.terms) for i, a in enumerate(coeffs) if a.terms],
                    f.terms, cap, True)) if conjugate else \
                    _apply_field(coeffs, f, cap)
                assert got == apply_field_oracle(coeffs, f, cap, conjugate)
                assert all(not c.is_zero() for c in got.terms.values())
                cases += 1
    assert cases >= 500 and empty_derivatives > 50


def _finite_type_model(rng, n):
    """-2 Re z1 plus |z_j|^2k for every tangential j, a few random modulus
    terms and at times a small Hermitian pair."""
    p = parse_poly("-2*Re(z1)", n)
    for j in range(1, n):
        alpha = [0] * n
        alpha[j] = rng.randint(1, 3)
        p = p + Poly.monomial(n, alpha, alpha, Fraction(rng.randint(1, 2)))
    for _ in range(rng.randint(0, 2)):
        alpha = (0,) + tuple(rng.randint(0, 2) for _ in range(n - 1))
        p = p + Poly.monomial(n, alpha, alpha, Fraction(rng.randint(1, 2)))
    if rng.random() < 0.5:
        a = (0,) + tuple(rng.randint(0, 2) for _ in range(n - 1))
        b = (0,) + tuple(rng.randint(0, 2) for _ in range(n - 1))
        if a != b and sum(a) and sum(b):
            c = rand_crat(rng) * Fraction(1, 8)
            p = p + Poly.monomial(n, a, b, c) + Poly.monomial(n, b, a,
                                                             c.conj())
    return p


def test_slow_fields_equal_uncapped_oracle(monkeypatch):
    # every slow field a build forms, emitted or not, equals the one built
    # from Levi rows and r_k rows formed in full
    rows = collections.Counter()
    built = []
    orig = boundary._tangency_system

    def checked_system(r, c1, p_hess, levi, prior, cap):
        system = orig(r, c1, p_hess, levi, prior, cap)

        def checked(direction):
            fld = system(direction)
            assert fld == slow_field_oracle(r, c1, p_hess, direction, levi,
                                            prior, cap)
            rows["levi"] += bool(levi)
            rows["prior"] += bool(prior)
            built.append(fld)
            return fld

        return checked

    monkeypatch.setattr(boundary, "_tangency_system", checked_system)
    models = [(TORSION_EXPR, 4), (torsion_lift(2), 4),
              ("-2*Re(z1) + |z2|^4 + |z3|^8", 3),
              ("Re(z1) + (Re(z2) + |z3|^2)^2", 3)]
    models = [parse_poly(e, n) for e, n in models]
    rng = random.Random(20261018)
    models += [_finite_type_model(rng, rng.randint(3, 4)) for _ in range(30)]
    for r in models:
        try:
            bs = build_boundary_system(r)
        except BoundaryConstructionError:
            continue
        assert all(sl.fld in built for sl in bs.slow.values())
    assert rows["levi"] > 20 and rows["prior"] > 20, rows


LEVI_AND_SLOT_EXPR = "-2*Re(z1) + |z2 + z3^2|^2 + |z3|^6 + |z4 + z3^2|^4"


def test_slow_fields_solve_their_tangency_equations(monkeypatch):
    # every slow field a build forms, emitted or not, solves the equations
    # it is built from, up to the cap: L r = 0, a zero Levi pairing with
    # each block field, w_k = sum_l p_kl conj(a_l), and L r_k = 0 for each
    # earlier slot, w_k = d r_k/dz_k
    rows = collections.Counter()
    orig = boundary._tangency_system

    def checked_system(r, c1, p_hess, levi, prior, cap):
        system = orig(r, c1, p_hess, levi, prior, cap)
        n = r.n
        pairings = [[sum((p * a.conj() for p, a in zip(hess_row, lf.hol[1:])),
                         Poly.zero(n)) for hess_row in p_hess] for lf in levi]
        pairings += [[sl.r_func.wirtinger(k) for k in range(2, n + 1)]
                     for sl in prior]

        def checked(direction):
            fld = system(direction)
            if fld is not None:
                v = fld.hol[1:]
                assert _apply_field(fld.hol, r).is_zero()
                for w in pairings:
                    assert _capped_products(n, zip(v, w), cap).is_zero()
                rows["fields"] += 1
                rows["levi"] += len(levi)
                rows["prior"] += len(prior)
                rows["both"] += bool(levi) and bool(prior)
            return fld

        return checked

    monkeypatch.setattr(boundary, "_tangency_system", checked_system)
    models = [(TORSION_EXPR, 4), (torsion_lift(2), 4),
              ("-2*Re(z1) + |z2|^4 + |z3|^8", 3),
              ("Re(z1) + (Re(z2) + |z3|^2)^2", 3), (LEVI_AND_SLOT_EXPR, 4)]
    models = [parse_poly(e, n) for e, n in models]
    rng = random.Random(20261018)
    models += [_finite_type_model(rng, rng.randint(3, 4)) for _ in range(30)]
    for r in models:
        try:
            build_boundary_system(r)
        except BoundaryConstructionError:
            continue
    assert rows["levi"] > 20 and rows["prior"] > 20 and rows["both"], rows


def _flag_patterns(skeleton):
    """Conjugation patterns over ``skeleton`` in the search's canonical
    order: the last two positions vary slowest (second-to-last first), then
    positions l-3 down to 0."""
    length = len(skeleton)
    order = [length - 2, length - 1] + list(range(length - 3, -1, -1))
    for flags in itertools.product((False, True), repeat=length):
        flag_at = dict(zip(order, flags))
        yield tuple((skeleton[i], flag_at[i]) for i in range(length))


@pytest.mark.parametrize("expr,n", [
    (TORSION_EXPR, 4),
    ("-2*Re(z1) + |z2 + 2*z3^2|^4 + 3*|z3|^8", 3),
    ("-2*Re(z1) + |z2|^4 + 2*|z3|^6 + |z4|^8", 4),
], ids=["torsion", "shear", "diagonal-n4"])
def test_list_search_matches_uncapped_oracle(expr, n):
    # Every admissible skeleton up to each slot's found length: the capped,
    # cached search returns the first pattern whose uncapped list derivative
    # is nonzero at 0, or None exactly when all of them vanish there.
    r = parse_poly(expr, n)
    bs = build_boundary_system(r)
    fields = {j: s.fld for j, s in bs.slow.items()}
    values = {}

    def uncapped(pattern):
        # L^1 (L^2 ... dr([L^{l-1}, L^l])), with the field applied by plain
        # products, memoized over suffixes
        if pattern not in values:
            if len(pattern) == 2:
                values[pattern] = list_derivative(r, fields, pattern)
            else:
                slot, conj = pattern[0]
                inner = uncapped(pattern[1:])
                out = Poly.zero(n)
                for k, a in enumerate(fields[slot].hol, start=1):
                    out = out + (a.conj() * inner.wirtinger(k, conjugate=True)
                                 if conj else a * inner.wirtinger(k))
                values[pattern] = out
        return values[pattern]

    # sized to the longest list searched: those lists use the seed uncut
    searcher = _ListSearcher(r, fields,
                             max(len(sl.entries) for sl in bs.slow.values()))
    checked = 0
    for j, sl in sorted(bs.slow.items()):
        for _fields, _value, skeleton in _ranked(bs.slow, j, 2,
                                                 len(sl.entries)):
            want = next((list(p) for p in _flag_patterns(skeleton)
                         if not origin_value(uncapped(p)).is_zero()), None)
            assert searcher.first_nonzero(skeleton) == want, skeleton
            checked += 1
        assert searcher.first_nonzero(
            [s for s, _c in sl.entries]) == sl.entries
        assert not origin_value(
            list_derivative(r, fields, sl.entries)).is_zero()
    assert checked > len(bs.slow)


@pytest.mark.parametrize("expr,n", [
    (TORSION_EXPR, 4),
    ("-2*Re(z1) + |z2 + 2*z3^2|^4 + 3*|z3|^8", 3),
    ("-2*Re(z1) + |z2|^4 + 2*|z3|^6 + |z4|^8", 4),
    ("-2*Re(z1) + |z2|^2 + |z3|^4", 3),
], ids=["torsion", "shear", "diagonal-n4", "levi-rank-one"])
def test_bracket_seed_matches_commutator_oracle(expr, n):
    # the searcher applies conjugate entries directly and forms only the
    # (1,0) part of a bracket, as a raw term table; the full commutator
    # gives the same dr, and its (0,1) part gives -dr: the fields are
    # tangent, X r = Y r = 0, so [X, Y] r = dr([X, Y]) + dbar-r([X, Y])
    # vanishes
    r = parse_poly(expr, n)
    bs = build_boundary_system(r)
    fields = {j: s.fld for j, s in bs.slow.items()}
    searcher = _ListSearcher(r, fields)
    entries = [(s, c) for s in sorted(fields) for c in (False, True)]
    nonzero = 0
    for e1, e2 in itertools.product(entries, repeat=2):
        dr, dbar_r = commutator_oracle(r, fields, e1, e2)
        assert searcher.seed(e1, e2) == dr.terms, (e1, e2)
        assert dbar_r == -dr, (e1, e2)
        nonzero += not dr.is_zero()
    assert nonzero > 0


# ----------------------------------------------------------------------
# build_boundary_system
# ----------------------------------------------------------------------


def test_quadric_system():
    r = parse_poly("-2*Re(z1) + |z2|^2 + |z3|^2 + |z4|^2", 4)
    bs = build_boundary_system(r)
    assert bs.rank == 3
    assert bs.commutator_multitype() == InverseWeight((Fraction(1), 2, 2, 2))
    assert bs.nu == 4
    assert not bs.slow  # no functions beyond r_1
    assert audit_boundary_system(bs) == []


def test_shortest_list_found_has_three_fields():
    # the search starts at three fields, the shortest list that can be
    # nonzero at 0; a cubic term is read by a three-field list
    r = parse_poly("-2*Re(z1) + |z2|^2 + 2*Re(z3^2*zbar3)", 3)
    bs = build_boundary_system(r)
    assert bs.c_entries == (1, 2, 3)
    assert bs.slow[3].entries == [(3, False), (3, False), (3, True)]
    assert audit_boundary_system(bs) == []


def test_bloom_system():
    r = parse_poly("Re(z1) + (Re(z2) + |z3|^2)^2", 3)
    bs = build_boundary_system(r)
    assert bs.rank == 1
    assert bs.commutator_multitype().entries == (Fraction(1), Fraction(2), INF)
    assert bs.nu == 2
    assert audit_boundary_system(bs) == []
    # strict lexicographic gap against the distinguished weight found by search
    mt = multitype_search(r)
    assert mt.value.entries < bs.commutator_multitype().entries


def test_torsion_model_system():
    r = parse_poly(TORSION_EXPR, 4)
    bs = build_boundary_system(r)
    assert bs.rank == 0
    assert bs.commutator_multitype() == InverseWeight((Fraction(1), 6, 9, 18))
    assert [bs.slow[j].c for j in sorted(bs.slow)] == [6, 9, 18]
    assert audit_boundary_system(bs) == []
    mt = multitype_search(r)
    assert mt.value == bs.commutator_multitype()


def test_weighted_two_block_system():
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^8", 3)
    bs = build_boundary_system(r)
    assert bs.commutator_multitype() == InverseWeight((Fraction(1), 4, 8))
    assert audit_boundary_system(bs) == []


def test_hyperbolic_levi_block():
    # Levi matrix [[0, 1], [1, 0]]: rank 2 found through the hyperbolic-pair
    # branch of the Hermitian reduction.
    r = parse_poly("-2*Re(z1) + 2*Re(z2*zbar3)", 3)
    bs = build_boundary_system(r)
    assert bs.rank == 2
    assert bs.commutator_multitype() == InverseWeight((Fraction(1), 2, 2))


def test_mixed_levi_rank_one_with_slow_slot():
    r = parse_poly("-2*Re(z1) + |z2|^2 + |z3|^4", 3)
    bs = build_boundary_system(r)
    assert bs.rank == 1
    assert bs.commutator_multitype() == InverseWeight((Fraction(1), 2, 4))
    assert audit_boundary_system(bs) == []
    bs2 = normalize_first_block(bs)
    assert bs2.slow[3].r_func == parse_poly("Re(z3)", 3)


def test_model_shape_rejected():
    with pytest.raises(PolyError):
        build_boundary_system(parse_poly("|z2|^2", 2))
    with pytest.raises(PolyError):
        build_boundary_system(parse_poly("-2*Re(z1) + |z1|^2 + |z2|^2", 2))


def _audit_model():
    """Levi rank 1 and slow slots 3 and 4 (c = 4, 4), the list of slot 4
    reaching into slot 3: [(4, T), (4, F), (3, F), (3, T)]."""
    return build_boundary_system(parse_poly(
        "-2*Re(z1) + |z2|^2 + |z3|^4 + |z3|^2*|z4|^2 + |z4|^8", 4))


def _drop_z1_coefficient(fld: VField) -> VField:
    return VField((Poly.zero(len(fld.hol)),) + fld.hol[1:])


def _tamper_levi_field(bs):
    bs.levi_fields[0] = _drop_z1_coefficient(bs.levi_fields[0])


def _tamper_slow_field(bs):
    bs.slow[4].fld = _drop_z1_coefficient(bs.slow[4].fld)


def _tamper_vanishing_list(bs):
    bs.slow[3].entries = [(3, False), (3, True)]


def _tamper_list_start(bs):
    bs.slow[4].entries = [(3, True), (3, False), (3, False), (3, True)]


def _tamper_list_order(bs):
    bs.slow[4].entries = [(4, True), (3, False), (4, False), (3, True)]


def _tamper_admissibility(bs):
    bs.slow[4].entries = [(4, True)] + [(3, False), (3, True)] * 2


def _tamper_property_5(bs):
    bs.slow[4].c = Fraction(8)


def _tamper_r_j(bs):
    bs.slow[3].r_func = Poly.zero(4)


def _tamper_r_k(bs):
    bs.slow[3].r_func = bs.slow[3].r_func + parse_poly("Re(z4)", 4)


def _tamper_minimality(bs):
    bs.slow[3].entries = bs.slow[3].entries + [(3, False)]


TAMPERED = [
    (_tamper_levi_field, "Levi field 2: L(r) != 0"),
    (_tamper_slow_field, "slot 4: L_4(r) != 0"),
    (_tamper_vanishing_list, "slot 3: list derivative vanishes at 0"),
    (_tamper_list_start, "slot 4: list does not start in S_4"),
    (_tamper_list_order, "slot 4: list is not ordered"),
    (_tamper_admissibility, "slot 4: admissibility sum 1 >= 1"),
    (_tamper_property_5, "slot 4: property-(5) sum 3/4 != 1"),
    (_tamper_r_j, "slot 3: L_3 r_3 vanishes at 0"),
    (_tamper_r_k, "slot 4: L_4 r_3 != 0 (up to degree 10)"),
    pytest.param(
        _tamper_minimality,
        "slot 3: admissible list of value 4 and 4 fields [(3, True), "
        "(3, False), (3, False), (3, True)] has nonzero derivative and is "
        "ranked before the slot's own; minimality broken",
        id="_tamper_minimality-minimality broken")]


@pytest.mark.parametrize("tamper,problem", TAMPERED)
def test_audit_flags_each_tampered_invariant(tamper, problem):
    bs = _audit_model()
    assert audit_boundary_system(bs) == []
    tamper(bs)
    assert problem in audit_boundary_system(bs)


@pytest.mark.parametrize("re,im,expected,scale", [
    # the linear term along z2 is imaginary: the Im branch
    ("0", "2*Re(z2) + |z3|^2", "Re(z2) + (1/2)*|z3|^2", CRat(2)),
    # no linear term along z2: the real part, else the imaginary part
    ("|z3|^2", "|z3|^4", "|z3|^2", CRat(0)),
    ("0", "|z3|^2 - |z3|^4", "|z3|^2 - |z3|^4", CRat(0))])
def test_normalize_r_without_real_linear_term(re, im, expected, scale):
    g = parse_poly(re, 3) + parse_poly(im, 3) * CRat(0, 1)
    assert _normalize_r(g, (CRat(1), CRat(0))) == (parse_poly(expected, 3),
                                                   scale)


# ----------------------------------------------------------------------
# first-block normalization
# ----------------------------------------------------------------------


def test_normalize_first_block_pure_scaling():
    r = parse_poly("-2*Re(z1) + |z2|^4", 2)
    bs = build_boundary_system(r)
    bs2 = normalize_first_block(bs)
    assert bs2.slow[2].r_func == parse_poly("Re(z2)", 2)
    assert bs2.transform is not None


def test_normalize_first_block_absorbs_holomorphic_tail():
    r = parse_poly("-2*Re(z1) + |z2 + z3^2|^4 + |z3|^8", 3)
    bs = build_boundary_system(r)
    assert first_block_slots(bs) == [2]
    assert not bs.slow[2].r_func == parse_poly("Re(z2)", 3)
    bs2 = normalize_first_block(bs)
    assert bs2.slow[2].r_func == parse_poly("Re(z2)", 3)
    # fixpoint: rebuilding on the transformed model reproduces Re z2
    transformed = bs2.transform.apply(r)
    bs3 = build_boundary_system(transformed)
    assert bs3.slow[2].r_func == parse_poly("Re(z2)", 3)
    assert bs3.commutator_multitype() == bs.commutator_multitype()


def test_normalize_first_block_c3_rank_zero():
    # dimension 3, Levi rank 0: both flatness conclusions at the model level
    r = parse_poly("-2*Re(z1) + |z2 + z3^2|^4 + |z3|^8", 3)
    bs2 = normalize_first_block(build_boundary_system(r))
    assert bs2.rank == 0
    assert bs2.slow[2].r_func == parse_poly("Re(z2)", 3)
    fld = bs2.slow[2].fld
    assert fld.hol[1] == Poly.const(3, 1)   # d/dz_2 component
    assert fld.hol[2].is_zero()             # no d/dz_3 component
    fld3 = bs2.slow[3].fld
    assert fld3.hol[2] == Poly.const(3, 1)
    assert fld3.hol[1].is_zero()


def test_normalize_first_block_torsion_model():
    r = parse_poly(TORSION_EXPR, 4)
    bs = build_boundary_system(r)
    assert first_block_slots(bs) == [2]
    bs2 = normalize_first_block(bs)
    assert bs2.slow[2].r_func == parse_poly("Re(z2)", 4)
    assert bs2.commutator_multitype() == bs.commutator_multitype()


def test_normalize_first_block_two_equal_slots():
    # s_1 = 2: both slots of the leading block straighten
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^4 + |z2|^2*|z3|^2", 3)
    bs = build_boundary_system(r)
    assert first_block_slots(bs) == [2, 3]
    bs2 = normalize_first_block(bs)
    assert bs2.slow[2].r_func == parse_poly("Re(z2)", 3)
    assert bs2.slow[3].r_func == parse_poly("Re(z3)", 3)


def test_normalize_first_block_requires_block():
    r = parse_poly("-2*Re(z1) + |z2|^2 + |z3|^2", 3)
    bs = build_boundary_system(r)
    with pytest.raises(BoundaryConstructionError):
        normalize_first_block(bs)


# ----------------------------------------------------------------------
# torsion detection
# ----------------------------------------------------------------------


def test_detect_torsion_on_counterexample():
    r = parse_poly(TORSION_EXPR, 4)
    bs = normalize_first_block(build_boundary_system(r))
    report = detect_torsion(bs)
    assert report.applicable and report.torsion
    assert report.slot == 3
    assert not report.linear_coeff.is_zero()
    assert not report.obstruction.is_zero()
    # the obstruction is a |z4|^2 multiple
    for (a, b) in report.obstruction.terms:
        assert a[3] >= 1 and b[3] >= 1


def test_detect_torsion_direct_derivative_agrees():
    # f = d_z2 d_zbar2 d^2_z3 d^3_zbar3 p has the shape c1 z3 + c2 |z4|^2
    r = parse_poly(TORSION_EXPR, 4)
    p = Poly(4, {k: c for k, c in r.terms.items()
                 if k[0][0] == 0 and k[1][0] == 0})
    f = p.wirtinger(2).wirtinger(2, conjugate=True)
    for conjugate in (False, False, True, True, True):
        f = f.wirtinger(3, conjugate)
    lin = f.coeff((0, 0, 1, 0), (0, 0, 0, 0))
    bal = f.coeff((0, 0, 0, 1), (0, 0, 0, 1))
    assert not lin.is_zero() and not bal.is_zero()
    assert len(f.terms) == 2


@pytest.fixture(scope="module")
def first_block_systems():
    """(r, full system) for each benchmark model, MIXED_MODELS, the
    torsion lifts k = 1..3 and a block of two slots whose r_3 is linear in
    z2, so that r_3 must be read after slot 2's change, whose system has a
    first block."""
    models = benchmark_models() + [(expr, 4) for expr in MIXED_MODELS] \
        + [(torsion_lift(k), 4) for k in (1, 2, 3)] \
        + [("-2*Re(z1) + |z2|^4 + |z3|^4 + |z4|^8"
            " + 2*(1/4)*Re(z2*z3*zbar3^2) + |z3|^2*|z4|^4", 4)]
    systems = []
    for expr, n in dict.fromkeys(models):
        r = parse_poly(expr, n)
        bs = build_boundary_system(r)
        if first_block_slots(bs):
            systems.append((r, bs))
    return systems


def _axis(direction) -> int:
    (v,) = [k for k, c in enumerate(direction, 2) if not c.is_zero()]
    return v


def _own_fields_only(bs) -> bool:
    return all(s == j for j in first_block_slots(bs)
               for s, _c in bs.slow[j].entries)


def test_straightening_matches_the_derivative_oracle(first_block_systems):
    # Where the model's (k-1, k) Wirtinger derivative along each block
    # slot's axis straightens the block (the oracle), the straightening read
    # off each slot's own r_j makes the same changes: the same maps, the
    # same model and the same torsion report.  The oracle refuses the
    # blocks of odd value, as the straightening does, and the blocks whose
    # lists hold another slot's fields, whose value the derivative along
    # one axis does not reach (its scale factor vanishes).
    compared = odd = mixed = 0
    for r, bs in first_block_systems:
        try:
            r_oracle, changes = straighten_first_block_oracle(bs)
        except BoundaryConstructionError as exc:
            if "not an even integer" in str(exc):
                odd += 1
                with pytest.raises(BoundaryConstructionError,
                                   match=str(exc)):
                    normalize_first_block(bs)
            else:
                assert "scale factor" in str(exc) and not _own_fields_only(bs)
                mixed += 1
            continue
        rebuilt = normalize_first_block(bs)
        oracle = functools.reduce(CoordChange.compose, changes)
        assert rebuilt.transform.maps == oracle.maps
        assert rebuilt.r == r_oracle
        assert first_block_torsion(r) == detect_torsion(rebuilt)
        compared += 1
    # 64 benchmark models (the other 3 of the 67 answered have no first
    # block), the 5 MIXED_MODELS, the 3 lifts and the two-slot block
    assert (compared, odd, mixed) == (73, 11, 32)


def test_mixed_list_blocks_straighten_and_replay(first_block_systems):
    # The 32 benchmark models whose first block, of even value, holds a
    # slot whose list mixes in fields of another slot, which the derivative
    # oracle refuses: the transform of normalize_first_block replays from
    # the input, every rebuilt block r_j is Re z_j, and the torsion report
    # is the one read from the rebuilt system.
    replayed = 0
    for r, bs in first_block_systems:
        lam = bs.c_entries[first_block_slots(bs)[0] - 1]
        if _own_fields_only(bs) or lam % 2 != 0:
            continue
        rebuilt = normalize_first_block(bs)
        assert rebuilt.transform.apply(r) == rebuilt.r
        assert first_block_slots(rebuilt) == first_block_slots(bs)
        for j in first_block_slots(rebuilt):
            z = Poly.variable(r.n, _axis(rebuilt.slow[j].direction))
            assert rebuilt.slow[j].r_func == (z + z.conj()) * Fraction(1, 2)
        assert first_block_torsion(r) == detect_torsion(rebuilt)
        replayed += 1
    assert replayed == 32


def test_torsion_report_survives_relabeling():
    # Each permutation of z3..zn of an answered benchmark model with n >= 4
    # (127 twins: 103 of models answered before the block slots read their
    # own r_j, and 24 of the n = 4 models that now answer) gets the same
    # report, the obstruction relabeled.  The linear coefficient is left
    # out: it is the scale of the torsion slot's list derivative, so it
    # depends on the coefficient of the variable that takes the slot, and
    # among slots of one value the first direction in index order takes it,
    # which a relabeling can change (39 of the 103 twins, as before).
    def relabel(p, order):
        return p.substitute_maps([Poly.variable(p.n, v) for v in order])

    twins = 0
    for expr, n in benchmark_models():
        if n < 4:
            continue
        r = parse_poly(expr, n)
        try:
            report = first_block_torsion(r)
        except PolyError:
            continue
        for perm in itertools.permutations(range(3, n + 1)):
            if list(perm) == sorted(perm):
                continue
            order = (1, 2) + perm
            twin = first_block_torsion(relabel(r, order))
            expected = dataclasses.replace(
                report, linear_coeff=None, obstruction=None
                if report.obstruction is None
                else relabel(report.obstruction, order))
            assert dataclasses.replace(twin, linear_coeff=None) == expected
            twins += 1
    assert twins == 127


def test_no_torsion_for_diagonal_model():
    r = parse_poly("-2*Re(z1) + |z2|^6 + |z3|^8 + |z4|^10", 4)
    bs = build_boundary_system(r)
    bs2 = normalize_first_block(bs)
    report = detect_torsion(bs2)
    assert report.applicable
    assert not report.torsion


def test_torsion_not_applicable_strongly_pseudoconvex():
    r = parse_poly("-2*Re(z1) + |z2|^2 + |z3|^2", 3)
    bs = build_boundary_system(r)
    report = detect_torsion(bs)
    assert not report.applicable


def test_torsion_invariant_under_scalings():
    rng = random.Random(67)
    base = parse_poly(TORSION_EXPR, 4)
    for _ in range(3):
        scales = [Fraction(rng.randint(1, 3)) for _ in range(3)]
        maps = [Poly.variable(4, 1)] + [
            Poly.variable(4, j + 2) * scales[j] for j in range(3)]
        scaled = base.substitute_maps(maps)
        bs = normalize_first_block(build_boundary_system(scaled))
        report = detect_torsion(bs)
        assert report.applicable and report.torsion


def _outcome(report):
    """The report's JSON, or the error it raises, for a comparison."""
    try:
        return report().to_json()
    except PolyError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("expr,n", [
    *((torsion_lift(1, eps), 4) for eps in EPSILON),
    *((torsion_lift(k), 4) for k in (2, 3)),
    ("-2*Re(z1) + |z2|^6 + |z3|^8 + |z4|^10", 4),
    ("-2*Re(z1) + |z2|^4 + |z3|^4 + |z2|^2*|z3|^2", 3),
    ("-2*Re(z1) + |z2|^2 + |z3|^4", 3),
    ("-2*Re(z1) + |z2|^2 + |z3|^2", 3),
    # the change z2 -> z2 - z4^2 needs the weight of slot 4, past the
    # torsion slot 3: with c_4 = 12 it is below the weight of z2
    ("-2*Re(z1) + |z2 + z4^2|^4 + |z3|^6 + |z4|^8", 4),
    ("-2*Re(z1) + |z2 + z4^2|^4 + |z3|^6 + |z4|^12", 4),
], ids=[*(f"torsion-eps-{e}" for e in EPSILON), "lift-2", "lift-3",
        "diagonal-n4", "two-equal-slots", "levi-rank-one",
        "strongly-pseudoconvex", "shear-past-the-slot",
        "shear-past-the-slot-refused"])
def test_first_block_torsion_matches_full_systems(expr, n):
    # built only through the slot the report reads, the report is the one
    # read from the full system and its full rebuild, or from the full
    # system alone when it has no first block to straighten; so is an error
    r = parse_poly(expr, n)

    def full():
        bs = build_boundary_system(r)
        return detect_torsion(
            normalize_first_block(bs) if first_block_slots(bs) else bs)

    assert _outcome(lambda: first_block_torsion(r)) == _outcome(full)


def test_normalize_first_block_reuses_the_floor(monkeypatch):
    # the system keeps the floor its build worked out, and the rebuild in
    # the straightened coordinates reuses it: one gate, one weight walk
    calls = collections.Counter()

    def counting(name):
        orig = getattr(boundary, name)

        def counted(*args):
            calls[name] += 1
            return orig(*args)
        return counted

    for name in ("_lambda_floor", "best_distinguished_weight"):
        monkeypatch.setattr(boundary, name, counting(name))
    r = parse_poly(TORSION_EXPR, 4)
    bs = build_boundary_system(r)
    bs2 = normalize_first_block(bs)
    assert calls == {"_lambda_floor": 1, "best_distinguished_weight": 1}
    assert bs.floor == bs2.floor == (1, 6, 9, 18)
    assert bs2.commutator_multitype() == bs.commutator_multitype()


def test_straightening_composes_only_for_the_transform(monkeypatch):
    # a two-slot first block makes two changes: the torsion report, which
    # throws the transform away, composes none of them, and
    # normalize_first_block composes them once
    composed = []
    compose = CoordChange.compose

    def counting(self, after):
        composed.append(after)
        return compose(self, after)

    monkeypatch.setattr(CoordChange, "compose", counting)
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^4 + |z2|^2*|z3|^2", 3)
    first_block_torsion(r)
    assert composed == []
    bs = normalize_first_block(build_boundary_system(r))
    assert len(composed) == 1
    assert bs.transform.apply(r) == bs.r


def test_torsion_command_builds_no_field_past_the_torsion_slot(
        monkeypatch, capsys):
    # the torsion model has Levi rank 0, so a slow field built with k
    # earlier slots in place belongs to slot k + 2
    built = collections.Counter()
    orig = boundary._tangency_system

    def counting_system(r, c1, p_hess, levi, prior, cap):
        system = orig(r, c1, p_hess, levi, prior, cap)

        def counting(direction):
            built[2 + len(levi) + len(prior)] += 1
            return system(direction)

        return counting

    monkeypatch.setattr(boundary, "_tangency_system", counting_system)
    assert main(["torsion", "--expr", TORSION_EXPR, "--n", "4"]) == 0
    assert "torsion at slot 3" in capsys.readouterr().out
    assert set(built) == {2, 3}
    built.clear()
    build_boundary_system(parse_poly(TORSION_EXPR, 4))
    assert set(built) == {2, 3, 4}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lift_family_r_functions_within_exact_degree(k):
    # terms of r_j above trunc_degree - len(list) + 3 would come from the
    # truncation of the fields; the build refuses them, and here has none
    r = parse_poly(torsion_lift(k), 4)
    bs = build_boundary_system(r)
    assert [str(c) for c in bs.c_entries] == ["1", "6", "9", str(18 * k)]
    for sl in bs.slow.values():
        assert sl.r_func.total_degree() <= \
            bs.trunc_degree - len(sl.entries) + 3
    report = first_block_torsion(r)
    assert (report.slot, report.torsion, str(report.linear_coeff)) == \
        (3, True, "4")
    assert report.obstruction == parse_poly(f"(1/30)*|z4|^{2 * k}", 4)


def test_r_function_above_exact_degree_is_refused():
    # Levi rank 1 and a slot-3 list of 6 fields at trunc_degree 8: r_3 is
    # exact up to degree 5, and its terms above that, up to degree 41, move
    # when the fields are truncated at a higher degree
    r = parse_poly("-2*Re(z1) + |z2|^2 + |z3|^6 + |z2|^2*|z3|^4", 3)
    with pytest.raises(BoundaryConstructionError,
                       match="slot 3: r_3 has terms above degree 5"):
        build_boundary_system(r)


# ----------------------------------------------------------------------
# the multitype search's weight as a floor for the list search
# ----------------------------------------------------------------------


def _certified_model(rng: random.Random) -> Poly:
    """-2 Re z1 plus a tangential sum of squared moduli that is weighted
    homogeneous under a random diagonal weight (1/(2 h_2), ..., 1/(2 h_n)):
    terms c_j |z_j|^(2 h_j), and |f|^2 for one or two f, each a
    Gaussian-rational combination of holomorphic monomials z^a with
    sum a_j / h_j = 1.  Each variable is left out altogether with
    probability 1/8 (an infinite entry; a variable met only in mixed terms
    makes the full scan slow).  Half of the models then have z2..zn
    permuted, so that the search finds its weight after a change."""
    n = rng.choice((3, 4))
    halves = sorted(rng.randint(1, 4) for _ in range(n - 1))
    kept = [rng.random() >= 1 / 8 for _ in halves]
    monomials = [a for a in itertools.product(*(range(h + 1) if keep else [0]
                                                for h, keep in zip(halves,
                                                                   kept)))
                 if sum(Fraction(x, h) for x, h in zip(a, halves)) == 1]
    zero = (0,) * n
    r = parse_poly("-2*Re(z1)", n)
    for j, (h, keep) in enumerate(zip(halves, kept), start=2):
        if keep:
            e = tuple(h if v == j else 0 for v in range(1, n + 1))
            r = r + Poly.monomial(n, e, e, Fraction(rng.randint(1, 3)))
    for _ in range(rng.randint(1, 2) if monomials else 0):
        f = Poly.zero(n)
        for a in rng.sample(monomials, min(len(monomials), rng.randint(1, 3))):
            f = f + Poly.monomial(n, (0,) + a, zero, rand_crat(rng, 3))
        r = r + f * f.conj()
    if rng.random() < 0.5:
        perm = rng.sample(range(2, n + 1), n - 1)
        r = r.substitute_maps([Poly.variable(n, v) for v in [1] + perm])
    return r


def _built(r: Poly, floor) -> "boundary.BoundarySystem":
    """The system ``build_boundary_system(r)`` builds, with ``floor`` in
    place of the one it works out (None scans every list)."""
    *_, bs = boundary._system_slots(r, None, floor)
    return bs


def _list_value(bs, skeleton) -> Fraction:
    """counts[j] / rem for a skeleton of slot j = skeleton[0], over the
    c-entries of ``bs``."""
    j = skeleton[0]
    rem = 1 - sum(Fraction(skeleton.count(k)) / bs.slow[k].c
                  for k in set(skeleton) if k < j)
    return skeleton.count(j) / rem


def test_floor_skips_only_lists_that_vanish(monkeypatch):
    # Catlin (Ann. Math. 120, 1984): C = M >= Lambda on a pseudoconvex
    # model.  So while the c-entries equal Lambda's prefix, no list whose
    # value is below Lambda_j is nonzero; the full scan records every list
    # it tries, and the pruned build must equal the full one.  The search
    # and the build share only admissible_rows, so a failure here is a
    # fault in one of them (or in the gate), not a test to loosen.
    rng = random.Random(1984)
    tried = []
    search = _ListSearcher.first_nonzero

    def recording(self, skeleton):
        entries = search(self, skeleton)
        tried.append((skeleton, entries is not None))
        return entries

    models = checked = 0
    while models < 120:
        r = _certified_model(rng)
        floor = _lambda_floor(r)
        if floor is None:
            continue
        models += 1
        tried.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_ListSearcher, "first_nonzero", recording)
            slots = boundary._system_slots(r, None, None)
            try:
                for bs in slots:
                    pass
                full = bs.to_json()
            except PolyError as exc:
                full = type(exc).__name__, str(exc)
        for skeleton, nonzero in tried:
            j = skeleton[0]
            if bs.c_entries[:j - 1] != floor[:j - 1]:
                continue
            if _list_value(bs, skeleton) < floor[j - 1]:
                checked += 1
                assert not nonzero, (str(r), skeleton, floor)
        assert _outcome(lambda: _built(r, floor)) == full, str(r)
    # the floor had lists to skip: the check is not vacuous
    assert checked >= 1000


SAME_DIRECTION = ("-2*Re(z1) + |z3|^6 + |z2|^2*|z3|^4 + 3*|z2|^6 + 3*|z4|^8"
                  " + |z2|^2*|z3|^4*|z4|^4")


@pytest.mark.parametrize("expr,c", [
    # Six fields first reach the origin at slot 3 along two directions: z2
    # with two slot-2 fields, value 4 / (1 - 2/4) = 8, and z3 alone, value
    # 6.  The z2 list comes first in scan order, but c_3 is the smaller
    # value, so the c-entries do not decrease.
    ("-2*Re(z1) + |z2|^8 + |z3|^6 + |z4|^4 + |z2|^4*|z4|^2", (1, 4, 6, 8)),
    # The list found first at a total keeps its value against the later
    # lists of larger value in the same direction.
    (SAME_DIRECTION, (1, 6, 6, 8)),
], ids=["later-direction", "same-direction"])
def test_smallest_value_wins_within_a_total(expr, c):
    # each c-entry equals Lambda's, with the floor and without it
    r = parse_poly(expr, 4)
    floor = _lambda_floor(r)
    assert floor == c
    for f in (None, floor):
        bs = _built(r, f)
        assert bs.c_entries == c
        assert audit_boundary_system(bs) == []


LARGER_VALUE = "-2*Re(z1) + |z2|^4 + |z3|^6 + |z2|^2*|z3|^4"


@pytest.mark.parametrize("expr,n,value", [
    # slot 3's field has two nonvanishing lists of six fields: its own, all
    # in S_3, of value 6, and four in S_3 with two in S_2, of value
    # 4 / (1 - 2/4) = 8
    (LARGER_VALUE, 3, 8),
    # c_2 = 6, so every six-field list of slot 3 has value 6: the list with
    # two slot-2 fields is ranked after the slot's own by scan order
    (SAME_DIRECTION, 4, 6),
], ids=["larger-value", "same-direction"])
def test_audit_flags_a_list_ranked_after_a_nonvanishing_one(expr, n, value):
    # record at slot 3 the nonvanishing six-field list with two slot-2
    # fields, with its c: the record keeps property (5) and no shorter list
    # is nonzero, but the slot's own list is ranked before it and is nonzero
    bs = build_boundary_system(parse_poly(expr, n))
    assert audit_boundary_system(bs) == []
    own = bs.slow[3].entries
    assert own == [(3, True), (3, True), (3, False), (3, False), (3, False),
                   (3, True)]
    skeleton = [3, 3, 3, 3, 2, 2]
    searcher = _ListSearcher(bs.r, {j: s.fld for j, s in bs.slow.items()},
                             len(skeleton))
    bs.slow[3].entries = searcher.first_nonzero(skeleton)
    bs.slow[3].c = _list_value(bs, skeleton)
    assert bs.slow[3].c == value
    assert audit_boundary_system(bs) == [
        f"slot 3: admissible list of value 6 and 6 fields {own} has nonzero "
        "derivative and is ranked before the slot's own; minimality broken"]


def test_audit_flags_a_shorter_list_of_larger_value():
    # The last of MIXED_MODELS as a fields-first ranking built it: slot 4
    # recorded with the six-field list of value 12, which keeps property
    # (5).  The eight-field list of value 8 is ranked before it and is
    # nonzero, so the audit flags it, though it is longer.  The recorded c =
    # (1, 4, 6, 12) fails the audit's grading check (slot 4 lies along z2,
    # and |z2|^8 has weighted degree 8/12 < 1), so the audit walks the
    # lists below c_4 with no floor, as the unfloored oracle does.
    bs = build_boundary_system(parse_poly(MIXED_MODELS[-1], 4))
    assert bs.c_entries == (1, 4, 6, 8)
    assert audit_boundary_system(bs) == []
    assert boundary._graded(bs)
    assert bs.slow[4].direction == (CRat(1), CRat(0), CRat(0))
    own = bs.slow[4].entries
    assert [s for s, _c in own] == [4] * 8
    skeleton = [4, 4, 3, 3, 2, 2]
    searcher = _ListSearcher(bs.r, {j: s.fld for j, s in bs.slow.items()},
                             len(skeleton))
    bs.slow[4].entries = searcher.first_nonzero(skeleton)
    bs.slow[4].c = _list_value(bs, skeleton)
    assert bs.slow[4].c == 12
    assert not boundary._graded(bs)
    assert _audits_agree(bs) == [
        f"slot 4: admissible list of value 8 and 8 fields {own} has nonzero "
        "derivative and is ranked before the slot's own; minimality broken"]


def test_each_direction_tries_lists_in_value_order(monkeypatch):
    # Each direction has its own searcher at a slot.  It tries the
    # skeletons in nondecreasing (value counts[j] / rem, fields), whatever
    # their number of fields, and stops at its first nonvanishing list: no
    # call after that direction's first hit.
    r = parse_poly(SAME_DIRECTION, 4)
    search = _ListSearcher.first_nonzero
    calls = []

    def recording(self, skeleton):
        entries = search(self, skeleton)
        calls.append((self, list(skeleton), entries is not None))
        return entries

    for floor in (None, _lambda_floor(r)):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_ListSearcher, "first_nonzero", recording)
            bs = _built(r, floor)
        assert bs.c_entries == (1, 6, 6, 8)
        last = {}
        hit = set()
        for searcher, skeleton, nonzero in calls:
            rank = _list_value(bs, skeleton), len(skeleton)
            assert searcher not in hit, skeleton
            assert rank >= last.get(searcher, rank), skeleton
            last[searcher] = rank
            if nonzero:
                hit.add(searcher)
        # some direction tried more than one skeleton
        assert len(calls) > len(last)


def test_shared_store_matches_per_direction_searchers(monkeypatch):
    # Every direction's searcher shares the build's store of the tables
    # over finished slots.  Searchers made without a store, which keep
    # every table to themselves, give the same c-entries, lists and JSON
    # on the certified models of test_floor_skips_only_lists_that_vanish,
    # with the floor and without it.
    rng = random.Random(1984)

    def per_direction(r, fields, max_length=None, store=None, slot=None):
        return _ListSearcher(r, fields, max_length)

    models = later = 0
    while models < 120:
        r = _certified_model(rng)
        floor = _lambda_floor(r)
        if floor is None:
            continue
        models += 1
        for f in (None, floor):
            shared = _outcome(lambda: _built(r, f))
            with monkeypatch.context() as patch:
                patch.setattr(boundary, "_ListSearcher", per_direction)
                alone = _outcome(lambda: _built(r, f))
            assert shared == alone, (str(r), f)
            # a slot built after another reads the store
            later += isinstance(shared, dict) and len(shared["slots"]) > 1
    assert later >= 100


# Certified models whose earlier c_k differ (4 and 6) and whose mixed terms
# have weight above 1 under the weight (1/4, 1/6, 1/8), so that at slot 4
# value order and scan order pick different lists: the six-field list of
# row (2, 0) over (c_2, c_3), value 8, reaches |z2|^2*|z4|^4, while the
# list of row (1, 4) before it in scan order, value 12, reaches the cross
# term z2*z3*z4*zbar3^3 and does not vanish either.  The last two take
# their slots in another order than their variables.
MIXED_MODELS = [
    "-2*Re(z1) + |z2|^4 + |z3|^6 + |z4|^8 + |z2*z4^2|^2"
    " + |z2*z3*z4 + z3^3|^2",
    "-2*Re(z1) + |z2|^4 + 2*|z3|^6 + |z4|^8 + |z2*z4^2 + (1/2)*z2^2|^2"
    " + |z2*z3*z4 + (1+i)*z3^3|^2",
    "-2*Re(z1) + |z4|^4 + |z3|^6 + |z2|^8 + |z4*z2^2|^2"
    " + |z4*z3*z2 + z3^3|^2",
    "-2*Re(z1) + |z3|^4 + |z2|^6 + |z4|^8 + |z3*z4^2|^2"
    " + |z3*z2*z4 + z2^3|^2",
    # At slot 4 a longer list has the smaller value: six fields, two in
    # each slot, reach |z2|^2*|z3|^2*|z4|^2 with value 2 / (1 - 2/6 - 2/4)
    # = 12, and eight fields of slot 4 reach |z2|^8 with value 8, which
    # Lambda_4 is.
    "-2*Re(z1) + |z3|^4 + 2*|z4|^6 + |z3|^2*|z4|^4 + |z2|^2*|z3|^2*|z4|^2"
    " + |z2|^8",
]


def _judged_models():
    """(r, floor) for the first 120 models of ``_certified_model`` (seed
    1984) whose tangential part has a tier-1 or tier-2 certificate as it
    stands, then for MIXED_MODELS, each of which has one.  Models whose
    floor needs a shear are judged by the shear tests below."""
    rng = random.Random(1984)
    models = 0
    while models < 120:
        r = _certified_model(rng)
        if psd_certificate(split_model(eliminate_harmonic(r)[0])[1]):
            models += 1
            yield r, _lambda_floor(r)
    for expr in MIXED_MODELS:
        r = parse_poly(expr, 4)
        floor = _lambda_floor(r)
        assert floor is not None, expr
        yield r, floor


def test_build_takes_the_least_nonvanishing_list_by_brute_force():
    # c_j is the value of the least nonvanishing (value, fields, direction,
    # scan position).  Each slot a build reaches is judged again from the
    # slots before it: every catalog direction outside their span gets the
    # field of slow_field_oracle, and every admissible list of the earlier
    # recursion (compositions_oracle) of every number of fields up to the
    # build's bound is judged for every direction by ListSearcherOracle.
    # The least nonvanishing pair gives the slot's direction, list and c_j;
    # none gives +inf for the rest, on the certified models of
    # test_floor_skips_only_lists_that_vanish and on MIXED_MODELS, where
    # value order differs from scan order and from field order.
    judged = 0
    for r, floor in _judged_models():
        bs = None
        try:
            for bs in boundary._system_slots(r, None, floor):
                pass
        except PolyError:
            pass  # the slots built before the refusal are still judged
        c1, p = split_model(r)
        p_hess = [row[1:] for row in complex_hessian(p)[1:]]
        catalog = _catalog_directions(p_hess)
        for j in range(bs.rank + 2, len(bs.c_entries) + 1):
            prior = [bs.slow[k] for k in sorted(bs.slow) if k < j]
            used = [sl.direction for sl in prior]
            c_prev = {sl.slot: sl.c for sl in prior}
            best = None
            # each direction's field and searcher, formed once per slot:
            # neither depends on the number of fields
            searchers = []
            for i, direction in enumerate(catalog):
                if rank(used + [direction]) == rank(used):
                    continue
                fld = slow_field_oracle(r, c1, p_hess, direction,
                                        bs.levi_fields, prior,
                                        bs.trunc_degree)
                if fld is not None:
                    searchers.append((i, direction, ListSearcherOracle(
                        r, {**{sl.slot: sl.fld for sl in prior}, j: fld},
                        bs.list_bound - 2)))
            for total in range(3, bs.list_bound + 1):
                lists = compositions_oracle(total, sorted(c_prev) + [j],
                                            c_prev)
                for i, direction, searcher in searchers:
                    for position, counts in enumerate(lists):
                        rem = 1 - sum(Fraction(counts[k]) / c
                                      for k, c in c_prev.items())
                        key = (counts[j] / rem, total, i, position)
                        entries = searcher.first_nonzero(
                            [k for k in sorted(counts, reverse=True)
                             for _ in range(counts[k])])
                        if entries is not None and (best is None
                                                    or key < best[0]):
                            best = key, direction, entries
            judged += 1
            if best is None:
                assert bs.c_entries[j - 1:] == (INF,) * (bs.n - j + 1), \
                    str(r)
                break
            (value, _total, _i, _pos), direction, entries = best
            sl = bs.slow[j]
            assert (sl.c, sl.direction, sl.entries) == (
                value, tuple(direction), entries), (str(r), j)
    assert judged >= 200


DIAGONAL_N4 = "-2*Re(z1) + |z2|^4 + |z3|^6 + |z4|^8"
# no tier-1 or tier-2 certificate in these coordinates; its floor comes
# from the certificate after z2 -> z2 - (1/2)*z3^2
SHEAR_N4 = "-2*Re(z1) + |z2 + (1/2)*z3^2|^4 + 3*|z3|^8 + 2*|z4|^10"
# DIAGONAL_N4 with two terms of weighted degree 1 that leave no axis
# balanced: the same c-entries along the same axes and a graded build, but
# no list search that the torus-charge check decides, so every list the
# build or the audit walks reaches the store
UNBALANCED_N4 = ("-2*Re(z1) + |z2|^4 + |z3|^6 + |z4|^8"
                 " + 2*(1/10)*Re(z2^2*zbar4^4) + 2*(1/10)*Re(z3^3*zbar2^2)")


def _finished_tables_formed(monkeypatch, r, run):
    """The seeds and tail states over finished slots (below the slot under
    test, the first slot of the list searched or derived) that ``run()``
    forms, each counted per formation.  A seed is keyed by its entry pair
    and formed where its bracket reaches r; a tail state is keyed by (list
    length, its entries), and formed where the search applies an entry to
    a seed or a state (below the seed cap).  Different keys may give equal
    states."""
    seed, apply, search, derivative = (
        _ListSearcher.seed, _ListSearcher.apply, _ListSearcher.first_nonzero,
        _ListSearcher.derivative)
    field_terms = boundary._field_terms
    seeds, states = collections.Counter(), collections.Counter()
    forming, lengths, under_test = [], [], []
    entries_of = {}  # id of a seed or state -> (its entries, itself)

    def finished(entries):
        return all(e[0] < under_test[-1] for e in entries)

    def recording_seed(self, e1, e2):
        forming.append((e1, e2) if finished((e1, e2)) else None)
        try:
            out = seed(self, e1, e2)
        finally:
            forming.pop()
        entries_of[id(out)] = (e1, e2), out
        return out

    def recording_field(coeffs, terms, cap, conjugate):
        if forming and forming[-1] and terms is r.terms and cap is not None:
            seeds[forming[-1]] += 1
        return field_terms(coeffs, terms, cap, conjugate)

    def recording_apply(self, entry, f, cap):
        out = apply(self, entry, f, cap)
        if lengths and cap is not None and cap < self.seed_cap:
            tail = (entry,) + entries_of[id(f)][0]
            entries_of[id(out)] = tail, out
            if finished(tail):
                states[lengths[-1], tail] += 1
        return out

    def recording_search(self, skeleton):
        lengths.append(len(skeleton))
        under_test.append(skeleton[0])
        try:
            return search(self, skeleton)
        finally:
            lengths.pop()
            under_test.pop()

    def recording_derivative(self, entries):
        under_test.append(entries[0][0])
        try:
            return derivative(self, entries)
        finally:
            under_test.pop()

    with monkeypatch.context() as patch:
        patch.setattr(_ListSearcher, "seed", recording_seed)
        patch.setattr(_ListSearcher, "apply", recording_apply)
        patch.setattr(_ListSearcher, "first_nonzero", recording_search)
        patch.setattr(_ListSearcher, "derivative", recording_derivative)
        patch.setattr(boundary, "_field_terms", recording_field)
        out = run()
    return out, seeds, states


def test_finished_slot_seeds_and_states_are_formed_once(monkeypatch):
    # In one build, each seed and each tail state whose entries all lie in
    # finished slots (below the slot under test) is formed once, for every
    # direction and every later slot.  The states guard on SHEAR_N4, built
    # without its floor so that every list below a slot's value is walked,
    # checks that the test reaches the store; UNBALANCED_N4 has no balanced
    # axis, so the torus-charge check empties none of its searches.
    for expr, c, least_states, floored in (
            (UNBALANCED_N4, (1, 4, 6, 8), 8, True),
            (SHEAR_N4, (1, 4, 8, 10), 70, False)):
        r = parse_poly(expr, 4)
        floor = _lambda_floor(r) if floored else None
        bs, seeds, states = _finished_tables_formed(
            monkeypatch, r, lambda: _built(r, floor))
        assert bs.c_entries == c
        assert len(seeds) >= 8 and len(states) >= least_states, \
            (expr, seeds, len(states))
        assert set(seeds.values()) == {1} and set(states.values()) == {1}


# DIAGONAL_N4 with z3 -> z3 + z4 and z2 -> z2 + z4^2: the same c-entries
# along the same axes, but |z4|^6 in r has weighted degree 6/8 < 1, so the
# audit's grading check fails and every slot's minimality walk starts at
# the first list; no axis is balanced, so the torus-charge check decides
# none of its searches
MIXED_N4 = "-2*Re(z1) + |z2 + z4^2|^4 + |z3 + z4|^6 + |z4|^8"


def test_audit_seeds_and_states_are_formed_once(monkeypatch):
    # The audit keeps a store of its own by the build's table rule: each of
    # its seeds and tail states over the slots below the slot it checks is
    # formed once per audit, for every list it derives or searches and
    # every later slot.  MIXED_N4 fails the grading check, so its audit
    # walks every list below c_j, as every audit once did; the graded
    # UNBALANCED_N4 walks only the lists of value c_j, and forms 8 seeds
    # and 16 states.
    for expr, graded, least_states in ((MIXED_N4, False, 50),
                                       (UNBALANCED_N4, True, 8)):
        r = parse_poly(expr, 4)
        bs = build_boundary_system(r)
        assert bs.c_entries == (1, 4, 6, 8)
        assert boundary._graded(bs) == graded
        problems, seeds, states = _finished_tables_formed(
            monkeypatch, r, lambda: audit_boundary_system(bs))
        assert problems == []
        assert set(states.values()) == {1} and set(seeds.values()) == {1}
        assert len(seeds) >= 8 and len(states) >= least_states, \
            (expr, seeds, len(states))
        if graded:
            assert (len(seeds), len(states)) == (8, 16)


def test_finished_slot_coefficient_tables_are_formed_once(monkeypatch):
    # A finished slot's field no longer changes, so each of its conjugate
    # entries has its coefficient tables conjugated once per build, for
    # every direction and every later slot; those of the slot under test
    # (the largest slot of the searcher's fields) are each searcher's own.
    # UNBALANCED_N4 has no balanced axis, so the torus-charge check skips
    # none of the searches that apply them.
    r = parse_poly(UNBALANCED_N4, 4)
    apply, conj_terms = _ListSearcher.apply, boundary._conj_terms
    formed = collections.Counter()
    applying = []  # the entry being applied, None unless of a finished slot

    def recording_apply(self, entry, f, cap):
        applying.append(entry if entry[0] < max(self.fields) else None)
        try:
            return apply(self, entry, f, cap)
        finally:
            applying.pop()

    def recording_conj(terms):
        if applying and applying[-1] is not None:
            formed[applying[-1], id(terms)] += 1
        return conj_terms(terms)

    monkeypatch.setattr(_ListSearcher, "apply", recording_apply)
    monkeypatch.setattr(boundary, "_conj_terms", recording_conj)
    bs = build_boundary_system(r)
    assert bs.c_entries == (1, 4, 6, 8)
    assert {entry for entry, _table in formed} == {(2, True), (3, True)}
    assert set(formed.values()) == {1}, formed


def test_tangency_system_is_formed_once_per_slot(monkeypatch):
    # The tangency matrix, M(0)^{-1} and the two matrices of the series,
    # lead and K, depend on the slot alone, not on the direction: the
    # n = 4 diagonal build inverts one M(0) per slot.  It runs 7 series over
    # its 3 slots, at most one per kernel basis vector at a slot: slot 2
    # stops at z2's field, and slots 3 and 4 also try the combinations sum
    # t^i k_i, whose fields are the combinations of the basis fields (a
    # series per combination direction made 10).
    inverses, fields = [], []
    inverse, field_from_vector = boundary.inverse, boundary._field_from_vector

    def counting_inverse(m):
        inverses.append(len(m))
        return inverse(m)

    def counting_field(r, c1, vec):
        fields.append(vec)
        return field_from_vector(r, c1, vec)

    monkeypatch.setattr(boundary, "inverse", counting_inverse)
    monkeypatch.setattr(boundary, "_field_from_vector", counting_field)
    bs = build_boundary_system(parse_poly(DIAGONAL_N4, 4))
    assert bs.c_entries == (1, 4, 6, 8) and bs.rank == 0
    assert len(fields) == 7
    # one per slot, each over the r_k rows of the slots below it
    assert inverses == [0, 1, 2]


def test_admissible_rows_once_per_slot(monkeypatch):
    # a build and its audit each form the admissible rows of a slot once,
    # for its largest total, not once per total: the build's bound for the
    # build, and for the audit of this graded build the length of the
    # slot's own list (4, 6 and 8 fields), as it walks only the lists of
    # value c_j ranked before that list
    calls = []
    rows = boundary.admissible_rows

    def counting(lams, most=None):
        calls.append((tuple(lams), most))
        return rows(lams, most)

    monkeypatch.setattr(boundary, "admissible_rows", counting)
    bs = build_boundary_system(parse_poly(DIAGONAL_N4, 4))
    assert calls == [((), 7), ((4,), 7), ((4, 6), 7)]
    calls.clear()
    assert audit_boundary_system(bs) == []
    assert calls == [((), 3), ((4,), 5), ((4, 6), 7)]


# ----------------------------------------------------------------------
# the audit's grading check: lists below c_j vanish by a degree count
# ----------------------------------------------------------------------

def _audits_agree(bs):
    """The audit's problems, after checking that the unfloored oracle
    reports the same ones."""
    problems = audit_boundary_system(bs)
    assert problems == audit_boundary_system_oracle(bs), str(bs.r)
    return problems


def test_audit_matches_the_unfloored_oracle_on_named_models():
    # The distinct models of the benchmark's workloads at seeds 5, 7 and 23
    # (110: boundary, torsion and normalize jobs), MIXED_MODELS and the
    # torsion model's z4 lifts: the audit reports what the oracle does,
    # though on a graded build it walks no list below c_j.
    models = benchmark_models()
    assert len(models) >= 100
    models += [(expr, 4) for expr in MIXED_MODELS]
    models += [(torsion_lift(k), 4) for k in (1, 2, 3)]
    graded = 0
    for expr, n in models:
        try:
            bs = build_boundary_system(parse_poly(expr, n))
        except PolyError:
            continue  # refused builds have nothing to audit
        assert _audits_agree(bs) == [], expr
        graded += boundary._graded(bs)
    # both walks are reached
    assert 90 <= graded < len(models) - 10, graded


def _changed(bs, slot=None, **changes):
    """A copy of ``bs`` with ``changes`` made to slot ``slot``, or to the
    system itself when no slot is given; the copy shares every unchanged
    part with ``bs``."""
    out = copy.copy(bs)
    out.slow = {k: copy.copy(sl) for k, sl in bs.slow.items()}
    for name, value in changes.items():
        setattr(out if slot is None else out.slow[slot], name, value)
    return out


def _tamper(bs, j, kind):
    """A copy of ``bs`` with one invariant of slot j broken by ``kind``."""
    sl = bs.slow[j]
    if kind == "levi":
        return _changed(bs, levi_fields=[
            _drop_z1_coefficient(bs.levi_fields[0])] + bs.levi_fields[1:])
    if kind in ("c+1", "c-1"):
        return _changed(bs, j, c=sl.c + (1 if kind == "c+1" else -1))
    if kind == "field":
        return _changed(bs, j, fld=_drop_z1_coefficient(sl.fld))
    if kind == "r_j":
        return _changed(bs, j, r_func=Poly.zero(bs.n))
    if kind == "r_k":
        return _changed(bs, j, r_func=sl.r_func + parse_poly(
            f"Re(z{bs.n})", bs.n))
    first, rest = sl.entries[0], sl.entries[1:]
    return _changed(bs, j, entries={
        "longer": lambda: sl.entries + [(j, False)],
        "shorter": lambda: rest,
        "flag": lambda: [(first[0], not first[1])] + rest,
        "reversed": lambda: sl.entries[::-1],
        # slot j's fields alone, as many as keep the value below c_j
        "below": lambda: [(j, True)] + [(j, False)] * (math.ceil(sl.c) - 2),
    }[kind]())


TAMPERS = ["c+1", "c-1", "field", "longer", "shorter", "flag", "reversed",
           "below", "r_j", "r_k", "levi"]


def test_audit_matches_the_unfloored_oracle_on_random_tampered_builds():
    # 520 seeded random builds (the certified models of _certified_model,
    # with Levi rank, permuted variables and infinite entries among them),
    # each audited as built and with one invariant of a random slot broken:
    # c_j raised and lowered by one, a field's z1 coefficient dropped, a
    # list grown, shortened, conjugated, reversed or replaced by one of
    # value below c_j, r_j zeroed or shifted; and the tampered builds of
    # test_audit_flags_each_tampered_invariant.  The audit reports what the
    # unfloored oracle does on every one.
    rng = random.Random(20261020)
    builds = graded = flagged = 0
    kinds = collections.Counter()
    while builds < 520:
        r = _certified_model(rng)
        try:
            bs = build_boundary_system(r)
        except PolyError:
            continue
        builds += 1
        graded += boundary._graded(bs)
        _audits_agree(bs)
        if not bs.slow:
            continue
        j = rng.choice(sorted(bs.slow))
        kind = rng.choice(TAMPERS[:-1] if not bs.levi_fields
                          else TAMPERS)
        if kind == "shorter" and len(bs.slow[j].entries) < 4 or \
                kind == "below" and bs.slow[j].c <= 3:
            kind = rng.choice(["c+1", "c-1"])
        kinds[kind] += 1
        flagged += bool(_audits_agree(_tamper(bs, j, kind)))
    for case in TAMPERED:
        tamper, _problem = getattr(case, "values", case)
        bs = _audit_model()
        tamper(bs)
        assert _audits_agree(bs)
    # both walks are reached, and most tampers are flagged
    assert 300 <= graded <= builds - 100 and flagged >= 400, (graded,
                                                              flagged)
    assert len(kinds) == len(TAMPERS) and min(kinds.values()) >= 10, kinds


def test_grading_check_fails_when_any_condition_breaks():
    # The check holds on the graded DIAGONAL_N4 build and on _audit_model's
    # (Levi rank 1 along z2), and fails once one condition breaks: a term
    # of r below weighted degree 1 (|z4|^6 weighs 6/8), a field coefficient
    # term below its bound (a constant in a_2 of slot 4's field, bound 1/4 -
    # 1/8), two fields on one axis, a slow direction or a Levi field off
    # the axes, or a variable with no finite slot.
    bs = build_boundary_system(parse_poly(DIAGONAL_N4, 4))
    levi = _audit_model()
    assert boundary._graded(bs) and boundary._graded(levi)
    one = Poly.const(4, CRat(1))

    hol = bs.slow[4].fld.hol
    cases = [
        _changed(bs, r=bs.r + parse_poly("|z4|^6", 4)),
        _changed(bs, 4, fld=VField((hol[0], hol[1] + one) + hol[2:])),
        _changed(bs, 3, direction=bs.slow[2].direction),
        _changed(bs, 4, direction=(CRat(0), CRat(1), CRat(1))),
        _changed(levi, levi_fields=[VField(
            (levi.levi_fields[0].hol[0], one, one, Poly.zero(4)))]),
        build_boundary_system(parse_poly("-2*Re(z1) + |z2|^4 + |z3|^6", 4)),
    ]
    assert [boundary._graded(system) for system in cases] == [False] * 6


def _grading_weights(bs):
    """The weights of the lemma, as Fractions: z_1 weighs 1, and the axis
    variable of each Levi field 1/2 and of each slow slot 1/c_j."""
    zero = (0,) * bs.n
    weight = [Fraction(1)] + [None] * (bs.n - 1)
    for lf in bs.levi_fields:
        k, = [k for k, a in enumerate(lf.hol)
              if k and not a.coeff(zero, zero).is_zero()]
        weight[k] = Fraction(1, 2)
    for sl in bs.slow.values():
        k, = [k for k, x in enumerate(sl.direction, 1) if not x.is_zero()]
        weight[k] = 1 / sl.c
    return weight


def test_lists_below_c_j_have_positive_weighted_degree():
    # The lemma behind the audit's floor, by brute force: on every graded
    # build of test_build_takes_the_least_nonvanishing_list_by_brute_force,
    # every admissible list at slot j of value below c_j, up to the bound,
    # in every conjugation pattern, has a derivative (formed uncapped by
    # ListSearcherOracle) whose terms all have weighted degree at least
    # 1 - sum of 1/c over its fields, which is positive; each tail of the
    # list, a shorter list derivative, obeys the same bound.
    builds = lists = terms = 0
    for r, floor in _judged_models():
        try:
            bs = _built(r, floor)
        except PolyError:
            continue
        if not boundary._graded(bs):
            continue
        builds += 1
        weight = _grading_weights(bs)
        lowers = {k: 1 / sl.c for k, sl in bs.slow.items()}
        searcher = ListSearcherOracle(
            bs.r, {k: sl.fld for k, sl in bs.slow.items()}, None)
        for j, sl in sorted(bs.slow.items()):
            c_prev = {k: bs.slow[k].c for k in bs.slow if k < j}
            for total in range(2, bs.list_bound + 1):
                for counts in compositions_oracle(
                        total, sorted(c_prev) + [j], c_prev):
                    rem = 1 - sum(Fraction(counts[k]) / c
                                  for k, c in c_prev.items())
                    if counts[j] / rem >= sl.c:
                        continue
                    lists += 1
                    skeleton = [k for k in sorted(counts, reverse=True)
                                for _ in range(counts[k])]
                    e1s, e2s = ([(skeleton[i], f) for f in (False, True)]
                                for i in (-2, -1))
                    todo = [(len(skeleton) - 3, searcher.seed(e1, e2),
                             1 - lowers[e1[0]] - lowers[e2[0]])
                            for e1 in e1s for e2 in e2s if e1 != e2]
                    while todo:
                        pos, derivative, least = todo.pop()
                        # the whole list lowers the degree by less than 1
                        assert pos >= 0 or least > 0
                        for a, b in derivative.terms:
                            assert sum((x + y) * w for x, y, w in
                                       zip(a, b, weight)) >= least, \
                                (str(r), skeleton)
                        terms += len(derivative.terms)
                        if pos >= 0 and not derivative.is_zero():
                            todo += [(pos - 1, searcher.apply(
                                (skeleton[pos], f), derivative, None),
                                      least - lowers[skeleton[pos]])
                                     for f in (False, True)]
    assert builds >= 80 and lists >= 2000 and terms >= 10000, \
        (builds, lists, terms)


QUARTIC_N4 = "-2*Re(z1) + |z2|^4 + |z3|^4 + |z4|^4"


def _field_charges(r, fld):
    """The charges of a field on each axis k where r is balanced (every term
    of r has alpha_k = beta_k), from their definition: alpha_k - beta_k -
    [m = k] over every term of every coefficient a_m, a_1 included."""
    return {k: {a[k] - b[k] - (m == k) for m, coeff in enumerate(fld.hol)
                for a, b in coeff.terms}
            for k in range(1, r.n) if all(a[k] == b[k] for a, b in r.terms)}


def _charge_oracle(charges, skeleton) -> bool:
    """The torus-charge lemma's test: on some balanced axis, the field of
    each slot of ``skeleton`` (``charges``: slot -> ``_field_charges``) has
    one charge, and those charges, one per field, add up to an odd
    number."""
    return any(all(len(charges[slot][k]) == 1 for slot in skeleton)
               and sum(min(charges[slot][k]) for slot in skeleton) % 2
               for k in charges[skeleton[0]])


def test_lists_the_charge_check_discharges_vanish():
    # The torus-charge lemma behind _ListSearcher's check, by brute force.
    # On every build of test_build_takes_the_least_nonvanishing_list_by_
    # brute_force whose r is balanced on some axis, and on QUARTIC_N4, at
    # every slot a build reaches, the field of every catalog direction
    # outside the span of the slots before it (slow_field_oracle) joins the
    # finished fields.  Every admissible list up to the build's bound is
    # discharged by the check exactly when _charge_oracle says so, and each
    # discharged list vanishes at 0 in every conjugation pattern, by
    # ListSearcherOracle without a seed cap.  QUARTIC_N4's combination
    # directions give fields that are not charge-homogeneous; the lists
    # holding an odd number of them are counted, as the check must stand
    # down for them.
    builds = discharged = mixed = 0
    quartic = parse_poly(QUARTIC_N4, 4)
    for r, floor in itertools.chain(_judged_models(),
                                    [(quartic, _lambda_floor(quartic))]):
        if all(any(a[k] != b[k] for a, b in r.terms) for k in range(1, r.n)):
            continue  # no balanced axis
        bs = None
        try:
            for bs in boundary._system_slots(r, None, floor):
                pass
        except PolyError:
            pass  # the slots built before the refusal are still judged
        builds += 1
        c1, p = split_model(r)
        p_hess = [row[1:] for row in complex_hessian(p)[1:]]
        for j in range(bs.rank + 2, len(bs.c_entries) + 1):
            prior = [bs.slow[k] for k in sorted(bs.slow) if k < j]
            used = [sl.direction for sl in prior]
            c_prev = {sl.slot: sl.c for sl in prior}
            lists = [[k for k in sorted(counts, reverse=True)
                      for _ in range(counts[k])]
                     for total in range(3, bs.list_bound + 1)
                     for counts in compositions_oracle(
                         total, sorted(c_prev) + [j], c_prev)]
            for direction in _catalog_directions(p_hess):
                if rank(used + [direction]) == rank(used):
                    continue
                fld = slow_field_oracle(r, c1, p_hess, direction,
                                        bs.levi_fields, prior,
                                        bs.trunc_degree)
                if fld is None:
                    continue
                fields = {**{sl.slot: sl.fld for sl in prior}, j: fld}
                charges = {k: _field_charges(r, f) for k, f in fields.items()}
                searcher = _ListSearcher(r, fields, bs.list_bound, {}, j)
                oracle = ListSearcherOracle(r, fields, None)
                for skeleton in lists:
                    decided = searcher._odd_charge(skeleton)
                    assert decided == _charge_oracle(charges, skeleton), \
                        (str(r), j, direction, skeleton)
                    if decided:
                        discharged += 1
                        assert oracle.first_nonzero(skeleton) is None, \
                            (str(r), j, direction, skeleton)
                    mixed += any(len(charges[j][k]) > 1
                                 for k in charges[j]) \
                        and skeleton.count(j) % 2 == 1
    assert builds >= 80 and discharged >= 5000 and mixed >= 1000, \
        (builds, discharged, mixed)


def _check_floored_ranking(slow, slot, first, last, floors):
    """``_ranked`` with each floor yields exactly the lists of the unfloored
    ranking of value at least the floor, in the same order; an infinite
    floor yields none.  Returns the number of lists the floors cut."""
    full = list(_ranked(slow, slot, first, last))
    assert list(_ranked(slow, slot, first, last, INF)) == []
    cut = 0
    for floor in floors:
        kept = [lst for lst in full if lst[0] >= floor]
        assert list(_ranked(slow, slot, first, last, floor)) == kept, \
            (slot, first, last, floor)
        cut += len(full) - len(kept)
    return cut


def test_ranked_floor_keeps_the_unfloored_order():
    # The slot states of built models (MIXED_MODELS, whose value order
    # differs from scan order, and DIAGONAL_N4), each floored at its value
    # of Lambda, at every value its ranking reaches and between them, and
    # seeded random states under random floors.
    cut = 0
    for expr in MIXED_MODELS + [DIAGONAL_N4]:
        bs = build_boundary_system(parse_poly(expr, 4))
        for slot in range(bs.rank + 2, bs.n + 1):
            values = sorted({value for value, _f, _sk in
                             _ranked(bs.slow, slot, 2, bs.list_bound)})
            floors = values + [(a + b) / 2 for a, b in zip(values,
                                                           values[1:])]
            floors += [Fraction(1, 2), values[-1] + 1]
            if bs.floor is not None and bs.floor[slot - 1] != INF:
                floors.append(bs.floor[slot - 1])
            for first in (2, 3):
                cut += _check_floored_ranking(bs.slow, slot, first,
                                              bs.list_bound, floors)
    rng = random.Random(1806)
    for _ in range(500):
        slot = rng.randint(2, 6)
        slow = {k: SimpleNamespace(c=Fraction(rng.randint(2, 16),
                                              rng.randint(1, 3)))
                for k in range(2, slot) if rng.random() < 0.7}
        first = rng.randint(2, 10)
        last = rng.randint(first, 10)
        floors = [Fraction(rng.randint(1, 80), rng.randint(1, 4))
                  for _ in range(3)]
        cut += _check_floored_ranking(slow, slot, first, last, floors)
    assert cut >= 1000, cut


def test_certified_diagonal_build_forms_no_list_below_its_floor(monkeypatch):
    # The n = 6 diagonal is certified, so its build has the floor Lambda =
    # C, and at each slot the ranking forms no list of value below it.
    ranked = boundary._ranked
    formed = []

    def spy(slow, slot, first, last, *floor):
        for lst in ranked(slow, slot, first, last, *floor):
            formed.append((slot, lst[0]))
            yield lst

    monkeypatch.setattr(boundary, "_ranked", spy)
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^6 + |z4|^8 + |z5|^10"
                   " + |z6|^12", 6)
    bs = build_boundary_system(r)
    assert bs.floor == bs.c_entries == (1, 4, 6, 8, 10, 12)
    assert {slot for slot, _value in formed} == {2, 3, 4, 5, 6}
    below = [(slot, value) for slot, value in formed
             if value < bs.floor[slot - 1]]
    assert below == []


def _catalog_directions(p_hess):
    """The candidate directions of a build: the kernel vectors of the Levi
    form at 0 and, when there are several, the combinations sum t^i k_i
    for t = 1, 2, -1."""
    n = p_hess[0][0].n
    zero = (0,) * n
    reduced = hermitian_reduce([[entry.coeff(zero, zero) for entry in row]
                                for row in p_hess])
    kernel = [tuple(vec) for vec, d in reduced if d == 0]
    combos = [tuple(sum((k[m] * CRat(t) ** i for i, k in enumerate(kernel)),
                        CRat(0)) for m in range(n - 1))
              for t in (1, 2, -1)] if len(kernel) > 1 else []
    return kernel + combos


def test_every_catalog_direction_matches_the_slow_field_oracle(monkeypatch):
    # The per-slot tangency system gives, for every catalog direction of
    # every slot a build reaches, tried or not, the field of the earlier
    # build, which formed its whole system for each direction, on the
    # certified models of test_floor_skips_only_lists_that_vanish.
    rng = random.Random(1984)
    orig = boundary._tangency_system
    checked = collections.Counter()

    def every_direction(r, c1, p_hess, levi, prior, cap):
        system = orig(r, c1, p_hess, levi, prior, cap)
        for direction in _catalog_directions(p_hess):
            assert system(direction) == slow_field_oracle(
                r, c1, p_hess, direction, levi, prior, cap), (str(r),
                                                              direction)
            checked[bool(levi), bool(prior)] += 1
        return system

    monkeypatch.setattr(boundary, "_tangency_system", every_direction)
    models = 0
    while models < 120:
        r = _certified_model(rng)
        floor = _lambda_floor(r)
        if floor is None:
            continue
        models += 1
        _outcome(lambda: _built(r, floor))
    # directions over slots with and without Levi rows and r_k rows
    assert min(checked.values()) >= 80 and len(checked) == 4, checked


def test_diagonal_family_n6():
    # the scaled diagonal family |z2|^4 + ... + |zn|^2n at n = 6: five slow
    # slots, each reading the store of the slots below it
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^6 + |z4|^8 + |z5|^10"
                   " + |z6|^12", 6)
    bs = build_boundary_system(r)
    assert bs.c_entries == (1, 4, 6, 8, 10, 12)
    assert audit_boundary_system(bs) == []


@pytest.mark.parametrize("expr,n", [
    (TORSION_EXPR, 4),
    ("-2*Re(z1) + |z2|^4 + 2*|z3|^6 + |z4|^8", 4),
], ids=["torsion", "three-slow-slots"])
def test_build_hashes_no_crat(monkeypatch, expr, n):
    # the list search keys its searchers by direction position, not by the
    # direction's CRat entries
    r = parse_poly(expr, n)
    want = build_boundary_system(r).to_json()

    def unhashable(self):
        raise AssertionError("CRat hashed")

    monkeypatch.setattr(CRat, "__hash__", unhashable)
    assert build_boundary_system(r).to_json() == want


def test_floor_applies_only_while_the_prefix_agrees():
    # floors that are not this model's weight, to probe the rule alone: an
    # infinite entry under an agreeing prefix leaves no finite list, and a
    # prefix the c-entries leave (c_2 = 4, not 2) ends the skipping
    r = parse_poly("-2*Re(z1) + |z2|^4 + |z3|^6", 3)
    full = _built(r, None)
    assert full.c_entries == (1, 4, 6)
    assert _built(r, (1, 4, INF)).c_entries == (1, 4, INF)
    assert _built(r, (1, 2, 8)).to_json() == full.to_json()
    # each system records the floor it was given, which it does not print
    for floor in (None, (1, 4, INF), (1, 2, 8)):
        assert _built(r, floor).floor == floor
    assert "floor" not in full.to_json()


def test_build_skips_the_lists_below_its_own_floor(monkeypatch):
    # build_boundary_system, given no floor, works out Lambda itself: on a
    # certified model it tries no list whose value is below Lambda_j while
    # the c-entries equal Lambda's prefix, where the full scan tries some
    rng = random.Random(1987)
    tried = []
    search = _ListSearcher.first_nonzero

    def recording(self, skeleton):
        tried.append(skeleton)
        return search(self, skeleton)

    def below(bs, floor):
        return [skeleton for skeleton in tried
                if bs.c_entries[:skeleton[0] - 1] == floor[:skeleton[0] - 1]
                and _list_value(bs, skeleton) < floor[skeleton[0] - 1]]

    models = [parse_poly(TORSION_EXPR, 4), parse_poly(SAME_DIRECTION, 4)]
    while len(models) < 30:
        r = _certified_model(rng)
        if _lambda_floor(r) is not None and \
                isinstance(_outcome(lambda: _built(r, None)), dict):
            models.append(r)
    skipped = 0
    for r in models:
        floor = _lambda_floor(r)
        with monkeypatch.context() as patch:
            patch.setattr(_ListSearcher, "first_nonzero", recording)
            tried.clear()
            bs = build_boundary_system(r)
            assert below(bs, floor) == [], str(r)
            assert bs.floor == floor
            tried.clear()
            full = _built(r, None)
            skipped += len(below(full, floor))
        assert bs.to_json() == full.to_json(), str(r)
    assert skipped >= 100


def test_search_weight_is_admissible():
    # The gate passes Lambda on unchecked: _best_distinguished picks each
    # finite lambda_j = a*L/R from a positive row remainder R/L, which
    # leaves that row's remainder exactly 0, an admissibility witness.
    rng = random.Random(1984)
    certified = random_models = 0
    while certified < 120:
        lam = multitype_search(_certified_model(rng)).value
        assert is_admissible(lam)[0], lam
        certified += 1
    while random_models < 120:
        n = rng.choice((3, 4))
        q = rand_real_poly(rng, n - 1, terms=rng.randint(1, 4))
        r = parse_poly("-2*Re(z1)", n) + Poly(n, {
            ((0,) + a, (0,) + b): c for (a, b), c in q.terms.items()})
        try:
            lam = multitype_search(r).value
        except PolyError:
            continue
        assert is_admissible(lam)[0], (str(r), lam)
        random_models += 1


@pytest.mark.parametrize("expr", [TORSION_EXPR, DIAGONAL_N4],
                         ids=["torsion", "diagonal-n4"])
def test_builds_run_no_shear_catalog(monkeypatch, expr):
    # the floor needs the weight walk alone: no build, first-block rebuild
    # or torsion report lists the catalog or tests a shear
    def raising(*_args):
        raise AssertionError("a boundary build ran the shear catalog")

    for name in ("_catalog", "_cancels_nothing"):
        monkeypatch.setattr(weights, name, raising)
    r = parse_poly(expr, 4)
    bs = build_boundary_system(r)
    assert bs.floor == bs.c_entries
    assert normalize_first_block(bs).floor == bs.floor
    assert first_block_torsion(r).slot == 3


def test_walk_floor_is_the_search_weight():
    # On every certified model below, the catalog raises nothing: the
    # floor, the weight walk's tuple over every order of z_2..z_n, is the
    # whole search's weight.  (Where a shear would raise it, the build
    # forms more lists and takes the same ones.)
    models = list(_judged_models())
    for expr in [DIAGONAL_N4] + [torsion_lift(k) for k in (1, 2, 3)]:
        r = parse_poly(expr, 4)
        models.append((r, _lambda_floor(r)))
    for r, floor in models:
        assert floor is not None, str(r)
        assert floor == multitype_search(r).value.entries, str(r)


def _shear_models():
    """SHEAR_N4, then every shear model of the benchmark's normalize and
    boundary workloads at seeds 5, 7 and 23: |z2 + c z3^k|^(4 or 6) +
    b |z3|^m [+ b' |z4|^m], certified only after the shear."""
    module = _workloads()
    models = {(job.expr, job.n) for seed in (5, 7, 23)
              for make in (module.make_normalize, module.make_boundary)
              for job in make(random.Random(seed)) if job.family == "shear"}
    return [(SHEAR_N4, 4)] + sorted(models)


def test_shear_models_take_their_floor_from_the_sheared_certificate(
        monkeypatch):
    # Tiers 1 and 2 fail on each shear model as given, and the gate
    # certifies it after the shear read off p (C = M on a pseudoconvex
    # model, and q = p∘Φ is plurisubharmonic exactly when p is).  The floor
    # is the weight walk's Lambda on p, the build searches no list below
    # it while the c-entries equal its prefix, and the floored build is
    # the build that scans every list: the same c, lists, directions, r_j
    # and fields.
    tried = []
    search = _ListSearcher.first_nonzero

    def recording(self, skeleton):
        tried.append(skeleton)
        return search(self, skeleton)

    def below(bs, floor):
        return [skeleton for skeleton in tried
                if bs.c_entries[:skeleton[0] - 1] == floor[:skeleton[0] - 1]
                and _list_value(bs, skeleton) < floor[skeleton[0] - 1]]

    models = _shear_models()
    assert len(models) == 22
    skipped = 0
    for expr, n in models:
        r = parse_poly(expr, n)
        p = split_model(eliminate_harmonic(r)[0])[1]
        assert psd_certificate(p) is None, expr
        floor = _lambda_floor(r)
        assert floor == best_distinguished_weight(_evecs(p), n)[0].entries, \
            expr
        with monkeypatch.context() as patch:
            patch.setattr(_ListSearcher, "first_nonzero", recording)
            tried.clear()
            bs = build_boundary_system(r)
            assert below(bs, floor) == [], expr
            tried.clear()
            full = _built(r, None)
            skipped += len(below(full, floor))
        assert bs.floor == floor == bs.c_entries, expr
        assert bs.to_json() == full.to_json(), expr
    # the full scans searched lists below the floor: the spy is not vacuous
    assert skipped >= 10 * len(models)


@pytest.mark.parametrize("expr", [
    "-2*Re(z1) + |z2|^4 + |z3|^4 + 2*(1/3)*Re(z2^3*zbar3)",
    "Re(z1) + (Re(z2) + |z3|^2)^2",
    "Re(z1) + (Re(z2) + (3)*|z3|^2)^2",
], ids=["uncertified", "rank-gap", "rank-gap-workload"])
def test_gate_reads_no_shear_where_none_certifies(expr):
    r = parse_poly(expr, 3)
    p = split_model(eliminate_harmonic(r)[0])[1]
    assert sheared_certificate(p) is None
    assert _lambda_floor(r) is None


def test_seed5_shear_job_searches_14_lists(monkeypatch):
    # the boundary workload's shear job at seed 5: 71 list searches
    # without the floor, 14 with it
    calls = []
    search = _ListSearcher.first_nonzero

    def counted(self, skeleton):
        calls.append(skeleton)
        return search(self, skeleton)

    job, = [job for job in _workloads().make_boundary(random.Random(5))
            if job.family == "shear"]
    r = parse_poly(job.expr, job.n)
    monkeypatch.setattr(_ListSearcher, "first_nonzero", counted)
    bs = build_boundary_system(r)
    assert (bs.c_entries, len(calls)) == ((1, 4, 8), 14)
    calls.clear()
    assert _built(r, None).to_json() == bs.to_json() and len(calls) == 71


def test_combination_fields_are_combinations_of_the_basis_fields(
        monkeypatch):
    # A slot's field is linear in its direction, so the field along sum_i
    # t^i k_i is the same combination of the fields along the kernel basis
    # k_i: it equals the series run along the combination itself, at every
    # slot a build forms fields at, on the certified models of
    # test_floor_skips_only_lists_that_vanish.
    rng = random.Random(1984)
    orig = boundary._slot_fields
    checked = collections.Counter()

    def checking(system, kernel_dirs):
        fields = orig(system, kernel_dirs)
        catalog = boundary._catalog(kernel_dirs)
        assert catalog[:len(kernel_dirs)] == [
            tuple(CRat(int(i == j)) for j in range(len(kernel_dirs)))
            for i in range(len(kernel_dirs))]
        for weights in catalog:
            direction = tuple(
                sum((k[m] * w for k, w in zip(kernel_dirs, weights)),
                    CRat(0)) for m in range(len(kernel_dirs[0])))
            field = fields(weights)
            assert field == system(direction), direction
            checked[field is None] += 1
        return fields

    monkeypatch.setattr(boundary, "_slot_fields", checking)
    models = 0
    while models < 120:
        r = _certified_model(rng)
        floor = _lambda_floor(r)
        if floor is None:
            continue
        models += 1
        _outcome(lambda: _built(r, floor))
    assert checked[False] >= 100, checked


# ----------------------------------------------------------------------
# JSON dump
# ----------------------------------------------------------------------


def test_multitype_commutator_coherence_random():
    # on pseudoconvex balanced models the two multitype computations agree;
    # in general the search value never exceeds the commutator value
    rng = random.Random(71)
    checked = 0
    for _ in range(12):
        p = Poly.zero(3)
        for _k in range(rng.randint(1, 2)):
            alpha = (0, rng.randint(0, 2), rng.randint(0, 2))
            if sum(alpha) == 0:
                continue
            p = p + Poly.monomial(3, alpha, alpha, Fraction(rng.randint(1, 2)))
        if p.is_zero():
            continue
        r = parse_poly("-2*Re(z1)", 3) + p
        mt = multitype_search(r)
        bs = build_boundary_system(r)
        c = bs.commutator_multitype()
        assert mt.value.entries <= c.entries
        if all(e != INF for e in c.entries):
            checked += 1
            assert mt.value == c
    assert checked > 0


def test_boundary_system_json():
    r = parse_poly(TORSION_EXPR, 4)
    bs = build_boundary_system(r)
    d = bs.to_json()
    assert d["c"] == ["1", "6", "9", "18"]
    assert set(d["slots"]) == {"2", "3", "4"}
    assert d["rank"] == 0
