"""Complex Hessian machinery and exact positivity certification.

The Levi form of a model -2 Re z1 + p is positive semidefinite iff the
restricted complex Hessian form

    sum_{j,k>=2} p_{z_j zbar_k} a_j abar_k  >=  0   for all z, a,

i.e. iff p is plurisubharmonic.  Deciding this exactly for arbitrary real
polynomials is out of scope; instead psd_verdict produces one of three
answers:

* CertifiedPSD with a machine-checkable certificate.  Tier 1 recognizes
  literal nonnegative combinations of balanced monomials and complete
  squares; tier 2 runs the Cauchy-Schwarz pairing engine: every mixed
  Hermitian pair is absorbed into balanced budget terms along splittings
  gamma' + gamma'' = alpha + beta, the per-term majorant kernels must
  intersect trivially, and the analysis recurses through coordinate
  hyperplanes.  All inequalities are exact rational comparisons (moduli are
  compared through their squares).
* Refuted with an exact rational witness making the Hessian form negative.
  Tier 3 decides the tangential Hessian matrix H(z) exactly at each point
  z it visits, by congruence to diagonal form (hermitian_reduce): first the
  structured points, then seeded random points.  The first negative pivot
  refutes: its vector at its point is the witness.
* Unknown when H(z) is PSD at every structured point and every random
  point, with the number of random points tried (samples_tried counts
  random points only).

verify_psd_certificate replays a certificate from scratch against the
polynomial, re-deriving every inequality with exact arithmetic.

sheared_certificate tries tiers 1 and 2 after triangular shears read off
the polynomial, for the boundary build's floor; psd_verdict does not.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (CRat, CZERO, hermitian_form, hermitian_reduce,
                    rank, rat_str)
from .parser import MAX_POWER_TERMS, MAX_PRODUCT_PAIRS
from .poly import (DimensionMismatch, Poly, PolyError, require_real,
                   term_sort_key)

KIND_CERTIFIED = "CertifiedPSD"
KIND_REFUTED = "Refuted"
KIND_UNKNOWN = "Unknown"

Gamma = Tuple[int, ...]


@dataclass
class PositivityVerdict:
    kind: str
    tier: Optional[int] = None
    certificate: Optional[dict] = None
    witness: Optional[dict] = None
    samples_tried: int = 0

    def to_json(self) -> dict:
        return {"kind": self.kind, "tier": self.tier,
                "certificate": self.certificate, "witness": self.witness,
                "samples_tried": self.samples_tried}


# ----------------------------------------------------------------------
# Hessian
# ----------------------------------------------------------------------


def complex_hessian(p: Poly) -> List[List[Poly]]:
    """Matrix of second Wirtinger derivatives; entry [j-1][k-1] is
    d^2 p / dz_j dzbar_k.  Hermitian as a polynomial matrix when p is real."""
    return [[p.wirtinger(j).wirtinger(k, conjugate=True)
             for k in range(1, p.n + 1)] for j in range(1, p.n + 1)]


def hessian_form_value(hess: Sequence[Sequence[Poly]],
                       z: Sequence[CRat], a: Sequence[CRat]) -> Fraction:
    """Exact value of sum H_jk(z) a_j conj(a_k) over the tangential slots 2..n.

    ``a`` has length n-1 (components for z_2..z_n).  ``hess`` is the complex
    Hessian of a real polynomial: only its entries with k >= j are read.  The
    value of a Hermitian form is real; this is asserted."""
    total = hermitian_form(_tangential_values(hess, z), a, a)
    if not total.is_real():
        raise PolyError("Hessian form value is not real; input was not real-valued")
    return total.re


def _tangential_values(hess: Sequence[Sequence[Poly]],
                       z: Sequence[CRat]) -> List[List[CRat]]:
    """The tangential block (slots 2..n) of the Hessian evaluated at z.

    Only the entries with k >= j are evaluated; the others are their
    conjugates, which is exact when the Hessian is that of a real p."""
    n = len(hess)
    if len(z) != n:
        raise DimensionMismatch("point length != n")
    zs = [CRat.of(c) for c in z]
    zbars = [c.conj() for c in zs]
    m = n - 1
    h: List[List[CRat]] = [[CZERO] * m for _ in range(m)]
    for j in range(m):
        row = hess[j + 1]
        for k in range(j, m):
            h[j][k] = row[k + 1]._evaluate(zs, zbars)
            if k != j:
                h[k][j] = h[j][k].conj()
    return h


# ----------------------------------------------------------------------
# structural helpers
# ----------------------------------------------------------------------


def _check_tangential(p: Poly):
    require_real(p, "Hessian input")
    if p.degree_in(1) > 0:
        raise PolyError("polynomial must depend only on z_2..z_n")


def _balanced_budget(p: Poly) -> Tuple[Dict[Gamma, Fraction], Optional[Gamma]]:
    """Balanced coefficients as rationals; returns (budget, offending_gamma)
    where offending is a balanced exponent with negative coefficient."""
    budget: Dict[Gamma, Fraction] = {}
    for (a, b), c in p.terms.items():
        if a == b:
            if c.re < 0:
                return {}, a
            budget[a] = c.re
    return budget, None


def _mixed_pairs(p: Poly) -> List[Tuple[Gamma, Gamma, CRat]]:
    """Canonical representatives (alpha, beta, coeff) of non-balanced
    Hermitian pairs, sorted canonically."""
    out = []
    for (a, b), c in p.terms.items():
        if a == b:
            continue
        if term_sort_key((a, b)) < term_sort_key((b, a)):
            out.append((a, b, c))
    out.sort(key=lambda t: term_sort_key((t[0], t[1])))
    return out


def _coeff_bound(c: CRat) -> Fraction:
    """Exact rational upper bound for |c| (equals |c| for real or imaginary c)."""
    return abs(c.re) + abs(c.im)


# Splitting fractions tier 2 tries when the equal split overdraws the
# budget: every k/d in [0, 1] with d <= 4, in increasing order.
_LATTICE = sorted({Fraction(k, d) for d in range(1, 5) for k in range(d + 1)})


def _lattice_splits(k: int, rest: Fraction) -> List[Tuple[Fraction, ...]]:
    """The k-tuples (k >= 1) of ``_LATTICE`` entries that sum to ``rest``,
    in product order, built without walking the 7^k tuples of the product."""
    if k == 1:
        return [(rest,)] if rest in _LATTICE else []
    return [(t,) + tail for t in _LATTICE if t <= rest
            for tail in _lattice_splits(k - 1, rest - t)]


# ----------------------------------------------------------------------
# tier 1: diagonal terms and complete squares
# ----------------------------------------------------------------------


def _squares_certificate(p: Poly) -> Optional[dict]:
    budget, bad = _balanced_budget(p)
    if bad is not None:
        return None
    mixed = _mixed_pairs(p)
    if not mixed:
        return {"tier": 1, "kind": "diagonal",
                "balanced": _budget_json(budget)}
    users: Dict[Gamma, int] = {}
    for a, b, _c in mixed:
        if a not in budget or b not in budget:
            return None
        users[a] = users.get(a, 0) + 1
        users[b] = users.get(b, 0) + 1
    blocks = []
    for a, b, c in mixed:
        alloc_a = budget[a] / users[a]
        alloc_b = budget[b] / users[b]
        if c.abs2() > alloc_a * alloc_b:
            return None
        blocks.append({"alpha": list(a), "beta": list(b),
                       "alloc_alpha": rat_str(alloc_a),
                       "alloc_beta": rat_str(alloc_b)})
    return {"tier": 1, "kind": "squares", "balanced": _budget_json(budget),
            "blocks": blocks}


def _budget_json(budget: Dict[Gamma, Fraction]) -> list:
    return [{"gamma": list(g), "coeff": rat_str(v)}
            for g, v in sorted(budget.items())]


# ----------------------------------------------------------------------
# tier 2: Cauchy-Schwarz pairing engine
# ----------------------------------------------------------------------


def _find_splittings(sigma: Gamma, budget: Dict[Gamma, Fraction]
                     ) -> List[Tuple[Gamma, Gamma]]:
    """All unordered pairs (g1 <= g2) of positive-budget balanced exponents
    with g1 + g2 == sigma."""
    pairs = []
    pos = sorted(g for g, v in budget.items() if v > 0)
    for g1 in pos:
        g2 = tuple(s - x for s, x in zip(sigma, g1))
        if any(e < 0 for e in g2):
            continue
        if g2 < g1:
            continue
        if budget.get(g2, Fraction(0)) > 0:
            pairs.append((g1, g2))
    return pairs


def _choose_fractions(mixed_pairs, budget, strict):
    """Assign splitting fractions (default: equal; otherwise, pair by pair,
    the first ``_LATTICE`` combination summing to 1 that fits) so that
    per-slot consumption stays below (or at most equal to, when not strict)
    the budget.

    mixed_pairs: list of (u_bound, [pair...]) in canonical order.  Returns the
    list of fraction lists and the consumption per balanced exponent (every
    exponent of a splitting, also at fraction 0), or None."""

    def feasible(fracs_all) -> Optional[Dict[Gamma, Fraction]]:
        cons: Dict[Gamma, Fraction] = {}
        for (u, pairs), fracs in zip(mixed_pairs, fracs_all):
            for (g1, g2), t in zip(pairs, fracs):
                cons[g1] = cons.get(g1, Fraction(0)) + t * u
                cons[g2] = cons.get(g2, Fraction(0)) + t * u
        for g, used in cons.items():
            if used > budget[g] or (strict and used == budget[g]):
                return None
        return cons

    fracs = [[Fraction(1, len(pairs))] * len(pairs)
             for _u, pairs in mixed_pairs]
    cons = feasible(fracs)
    if cons is not None:
        return fracs, cons
    for i, (_u, pairs) in enumerate(mixed_pairs):
        for combo in _lattice_splits(len(pairs), Fraction(1)):
            fracs[i] = list(combo)
            cons = feasible(fracs)
            if cons is not None:
                break
        else:
            return None
    return fracs, cons  # the last feasible trial is the final choice


def _absorption(p: Poly, strict: bool):
    """Cauchy-Schwarz absorption of every mixed pair of p into its balanced
    budget along the splittings gamma' + gamma'' = alpha + beta.

    Returns (budget, mixed, consumption), or None when a balanced coefficient
    is negative or some pair cannot be absorbed.  ``mixed`` holds, per mixed
    pair in canonical order, (alpha, beta, used splittings (g1, g2, t) with
    t != 0, certificate entry with its "splittings")."""
    budget, bad = _balanced_budget(p)
    if bad is not None:
        return None
    pairs_of = _mixed_pairs(p)
    per_mixed = []
    for a, b, c in pairs_of:
        sigma = tuple(x + y for x, y in zip(a, b))
        pairs = _find_splittings(sigma, budget)
        if not pairs:
            return None
        per_mixed.append((_coeff_bound(c), pairs))
    chosen = _choose_fractions(per_mixed, budget, strict)
    if chosen is None:
        return None
    fractions, cons = chosen
    mixed = []
    for (a, b, _c), (u, pairs), fracs in zip(pairs_of, per_mixed, fractions):
        used = [(g1, g2, t) for (g1, g2), t in zip(pairs, fracs) if t != 0]
        entry = {"alpha": list(a), "beta": list(b), "bound": rat_str(u),
                 "splittings": [{"fraction": rat_str(t),
                                 "gamma1": list(g1), "gamma2": list(g2)}
                                for g1, g2, t in used]}
        mixed.append((a, b, used, entry))
    return budget, mixed, cons


def _psh_certificate(p: Poly, memo: Dict[frozenset, Optional[dict]],
                     killed: frozenset) -> Optional[dict]:
    if killed in memo:
        return memo[killed]
    memo[killed] = None  # cycle guard; overwritten below
    absorbed = _absorption(p, strict=True)
    if absorbed is None:
        return None
    budget, mixed, cons = absorbed
    active = [j for j in p.support_vars() if j >= 2]
    if not mixed:
        cert = {"tier": 2, "kind": "diagonal", "balanced": _budget_json(budget)}
        memo[killed] = cert
        return cert
    for a, b, _used, _entry in mixed:
        for i in range(p.n):
            if a[i] + b[i] == 1:
                return None  # linear slot: hyperplane cross-terms survive
    mixed_json = []
    for a, b, used, entry in mixed:
        rows = [g[1:] for g1, g2, _t in used for g in (g1, g2)]
        # the mixed Hessian content vanishes identically outside the support
        # of alpha + beta, so the kernels must intersect trivially there
        cols = [i - 1 for i in range(1, p.n)
                if a[i] + b[i] > 0]
        if rank([[row[c] for c in cols] for row in rows]) != len(cols):
            return None  # majorant kernels do not intersect trivially
        mixed_json.append({**entry, "kernel_systems": [
            [list(g1[1:]), list(g2[1:])] for g1, g2, _t in used]})
    margin = max((used / budget[g] for g, used in cons.items()),
                 default=Fraction(0))
    hyper = []
    for j in active:
        rest = _kill_var(p, j)
        sub = _psh_certificate(rest, memo, killed | frozenset([j]))
        if sub is None:
            return None
        entry = _diag_entry(p, j)
        entry_cert = _nonneg_certificate(entry)
        if entry_cert is None:
            return None
        hyper.append({"var": j, "restriction": sub, "entry": entry_cert})
    cert = {
        "tier": 2, "kind": "cauchy-schwarz",
        "active": active,
        "balanced": _budget_json(budget),
        "mixed": mixed_json,
        "consumption": [{"gamma": list(g), "used": rat_str(v),
                         "budget": rat_str(budget[g])}
                        for g, v in sorted(cons.items())],
        "margin": rat_str(margin),
        "hyperplanes": hyper,
    }
    memo[killed] = cert
    return cert


def _kill_var(p: Poly, j: int) -> Poly:
    """p restricted to z_j = 0."""
    return p.restrict_support(v for v in range(1, p.n + 1) if v != j)


def _diag_entry(p: Poly, j: int) -> Poly:
    """The Hessian entry d^2 p / dz_j dzbar_j restricted to z_j = 0."""
    return _kill_var(p.wirtinger(j).wirtinger(j, conjugate=True), j)


def _nonneg_certificate(q: Poly) -> Optional[dict]:
    """Pointwise nonnegativity by Cauchy-Schwarz absorption (budget may be
    consumed fully: the bound is an inequality, not a strict domination)."""
    absorbed = _absorption(q, strict=False)
    if absorbed is None:
        return None
    budget, mixed, _cons = absorbed
    if not mixed:
        return {"kind": "pointwise-diagonal", "balanced": _budget_json(budget)}
    return {"kind": "pointwise-nonneg", "balanced": _budget_json(budget),
            "mixed": [entry for _a, _b, _used, entry in mixed]}


def cauchy_schwarz_pairing(p: Poly) -> Optional[dict]:
    """Tier-2 Cauchy-Schwarz plurisubharmonicity certificate for
    p(z_2..z_n), or None when the mixed terms have no full splitting against
    the balanced budget with trivially intersecting kernels."""
    _check_tangential(p)
    return _psh_certificate(p, {}, frozenset())


# ----------------------------------------------------------------------
# certificate replay
# ----------------------------------------------------------------------


def verify_psd_certificate(p: Poly, cert: dict) -> bool:
    """Re-derive every inequality of a stored certificate (tier 1, tier 2 or
    a pointwise entry) from p itself, and every recorded field that follows
    from the others.  An altered or malformed certificate gives False."""
    try:
        _check_tangential(p)
        tier = cert.get("tier")
        if tier == 1:
            return _replay_tier1(p, cert)
        if tier == 2:
            return _replay_psh(p, cert)
        return _replay_pointwise(p, cert)
    except (LookupError, TypeError, ValueError, AttributeError,
            ZeroDivisionError):  # PolyError is a ValueError
        return False


def _replay_budget(p: Poly, cert: dict) -> Optional[Dict[Gamma, Fraction]]:
    budget, bad = _balanced_budget(p)
    if bad is not None or cert["balanced"] != _budget_json(budget):
        return None
    return budget


def _replay_tier1(p: Poly, cert: dict) -> bool:
    budget = _replay_budget(p, cert)
    if budget is None:
        return False
    mixed = _mixed_pairs(p)
    if cert["kind"] == "diagonal":
        return not mixed
    if cert["kind"] != "squares":
        return False
    blocks = {(tuple(bl["alpha"]), tuple(bl["beta"])): bl
              for bl in cert["blocks"]}
    if set(blocks) != {(a, b) for a, b, _ in mixed}:
        return False
    alloc_total: Dict[Gamma, Fraction] = {}
    for a, b, c in mixed:
        bl = blocks[(a, b)]
        aa, ab = Fraction(bl["alloc_alpha"]), Fraction(bl["alloc_beta"])
        if aa < 0 or ab < 0 or c.abs2() > aa * ab:
            return False
        alloc_total[a] = alloc_total.get(a, Fraction(0)) + aa
        alloc_total[b] = alloc_total.get(b, Fraction(0)) + ab
    return all(alloc_total[g] <= budget.get(g, Fraction(0))
               for g in alloc_total)


def _replay_absorption(p: Poly, cert: dict, strict: bool
                       ) -> Optional[Tuple[Dict[Gamma, Fraction],
                                           Dict[Gamma, Fraction]]]:
    """Shared replay of the splitting table; returns (budget, consumption)
    or None.  The consumption has an entry, possibly 0, for every exponent
    of every splitting, as ``_choose_fractions`` reports it."""
    budget = _replay_budget(p, cert)
    if budget is None:
        return None
    mixed = _mixed_pairs(p)
    recorded = {(tuple(mx["alpha"]), tuple(mx["beta"])): mx
                for mx in cert.get("mixed", [])}
    if set(recorded) != {(a, b) for a, b, _ in mixed}:
        return None
    cons: Dict[Gamma, Fraction] = {}
    for a, b, c in mixed:
        mx = recorded[(a, b)]
        u = _coeff_bound(c)
        if mx["bound"] != rat_str(u):
            return None
        sigma = tuple(x + y for x, y in zip(a, b))
        for pair in _find_splittings(sigma, budget):
            for g in pair:
                cons.setdefault(g, Fraction(0))
        total = Fraction(0)
        for sp in mx["splittings"]:
            t = Fraction(sp["fraction"])
            g1, g2 = tuple(sp["gamma1"]), tuple(sp["gamma2"])
            if t < 0 or tuple(x + y for x, y in zip(g1, g2)) != sigma:
                return None
            if budget.get(g1, Fraction(0)) <= 0 or budget.get(g2, Fraction(0)) <= 0:
                return None
            total += t
            cons[g1] = cons.get(g1, Fraction(0)) + t * u
            cons[g2] = cons.get(g2, Fraction(0)) + t * u
        if total != 1:
            return None
    for g, used in cons.items():
        if strict and used >= budget[g]:
            return None
        if not strict and used > budget[g]:
            return None
    return budget, cons


def _replay_pointwise(q: Poly, cert: dict) -> bool:
    kind = "pointwise-nonneg" if _mixed_pairs(q) else "pointwise-diagonal"
    return cert["kind"] == kind and \
        _replay_absorption(q, cert, strict=False) is not None


def _replay_psh(p: Poly, cert: dict) -> bool:
    if cert["tier"] != 2:
        return False
    if cert["kind"] == "diagonal":
        return _replay_budget(p, cert) is not None and not _mixed_pairs(p)
    if cert["kind"] != "cauchy-schwarz":
        return False
    absorbed = _replay_absorption(p, cert, strict=True)
    if absorbed is None:
        return False
    budget, cons = absorbed
    consumption = [{"gamma": list(g), "used": rat_str(v),
                    "budget": rat_str(budget[g])}
                   for g, v in sorted(cons.items())]
    margin = max((used / budget[g] for g, used in cons.items()),
                 default=Fraction(0))
    if cert["consumption"] != consumption or cert["margin"] != rat_str(margin):
        return False
    active = [j for j in p.support_vars() if j >= 2]
    if cert.get("active") != active:
        return False
    for a, b, _c in _mixed_pairs(p):
        for i in range(p.n):
            if a[i] + b[i] == 1:
                return False
    for mx in cert["mixed"]:
        rows = []
        for sp in mx["splittings"]:
            rows.append(tuple(sp["gamma1"])[1:])
            rows.append(tuple(sp["gamma2"])[1:])
        if mx["kernel_systems"] != [[list(g1), list(g2)]
                                    for g1, g2 in zip(rows[::2], rows[1::2])]:
            return False
        sigma_alpha = tuple(mx["alpha"])
        sigma_beta = tuple(mx["beta"])
        cols = [i - 1 for i in range(1, p.n)
                if sigma_alpha[i] + sigma_beta[i] > 0]
        if rank([[row[c] for c in cols] for row in rows]) != len(cols):
            return False
    hyper = {h["var"]: h for h in cert.get("hyperplanes", [])}
    if set(hyper) != set(active):
        return False
    for j in active:
        if not _replay_psh(_kill_var(p, j), hyper[j]["restriction"]):
            return False
        if not _replay_pointwise(_diag_entry(p, j), hyper[j]["entry"]):
            return False
    return True


# ----------------------------------------------------------------------
# tier 3: exact per-point decision
# ----------------------------------------------------------------------


# The values of tier 3's structured points.
_STRUCTURED = [CRat(0), CRat(1), CRat(-1), CRat(0, 1)]
# Tier 3 reduces one Levi matrix per point: 728 structured points at n = 7,
# 2186 at n = 8, then up to ``samples`` random points.  In-process on a
# shared 2-core Xeon (Python 3.11.7), with the limit raised for the
# measurement at n = 8: |z2|^4 + ... + |zn|^4 + 2*(1/3)*Re(z2^3*zbar3),
# refuted at a structured point, takes 0.11-0.17 s at n = 7 and 0.5 s at
# n = 8; (Re(z2 + ... + zn))^2 + |z2|^4 + ... + |zn|^4, Unknown after every
# point and 200 random points, takes 0.7-1.3 s and 2.9-3.7 s.
MAX_TIER3_DIMENSION = 7


def _structured(n: int) -> List[List[CRat]]:
    """The nonzero tuples over z_2..z_n of ``_STRUCTURED`` (one value fewer
    from n = 5 on), in product order."""
    vals = _STRUCTURED[:len(_STRUCTURED) - (n >= 5)]
    return [list(t) for t in itertools.product(vals, repeat=n - 1)
            if any(not c.is_zero() for c in t)]


def _random_crat(rng: random.Random) -> CRat:
    return CRat(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)))


def psd_certificate(p: Poly) -> Optional[dict]:
    """Certificate from tier 1 (squares) or else tier 2 (Cauchy-Schwarz
    pairing) for the Hessian form of p, its tier under ``"tier"``; None when
    neither certifies."""
    _check_tangential(p)
    return _squares_certificate(p) or cauchy_schwarz_pairing(p)


Shear = Tuple[int, Poly]  # (i, s): z_i -> z_i - s, s holomorphic, free of z_i


def _shear_pairs(q: Poly, i: int, width: int) -> Optional[int]:
    """Most term pairs ``q.substitute_maps`` forms for a shear of z_i whose
    map z_i - s has ``width`` terms, or None when a power of the map may
    have more than MAX_POWER_TERMS terms.

    The map's e-th power has at most C(width + e - 1, e) terms, one per
    multiset of e of its terms.  Each power q reads, of the map and of its
    conjugate, is formed once by ``Poly.__pow__``'s repeated squaring; each
    term of q then multiplies its piece, of at most |f^a| |f^b| terms for
    its exponents a and b of z_i and zbar_i, by one power per nonzero
    exponent."""
    def size(e: int) -> int:
        return math.comb(width + e - 1, e)

    exps = {e for alpha, beta in q.terms for e in (alpha[i - 1], beta[i - 1])
            if e}
    if size(max(exps, default=0)) > MAX_POWER_TERMS:
        return None
    pairs = 0
    for e in exps:
        done, base = 0, 1  # the exponents of __pow__'s result and base
        while e:
            if e & 1:
                pairs += 2 * size(done) * size(base)
                done += base
            if e > 1:
                pairs += 2 * size(base) ** 2
                base *= 2
            e >>= 1
    for alpha, beta in q.terms:
        pairs += size(alpha[i - 1]) * size(beta[i - 1]) * \
            sum(1 for e in alpha + beta if e)
    return pairs


def sheared_certificate(p: Poly
                        ) -> Optional[Tuple[List[Shear], Poly, dict]]:
    """Tiers 1 and 2 on p in coordinates read off p: the shears read, in
    order, the sheared polynomial q = p∘Φ and q's certificate, or None when
    no shear is read, when applying the shears may form more term pairs than
    the MAX_PRODUCT_PAIRS a parse may form, or a power of a shear's map more
    terms than MAX_POWER_TERMS (``_shear_pairs``, checked before each shear
    is applied, as p comes from the input), or when q has no certificate.

    For i = 2..n in turn, one shear z_i -> z_i - s is read off the current
    polynomial and applied to it.  For the least a with a pure term
    |z_i|^(2a) of coefficient P, every term z_i^a zbar_i^(a-1) zbar^m with
    m free of z_i and nonzero, of coefficient C, adds c z^m to s, c =
    conj(C / (a P)): |z_i + c z^m|^(2a) expands to P = 1 and C = a conj(c).
    Each shear is a polynomial automorphism (its inverse adds s back), and
    for a biholomorphic Φ, i∂∂̄(p∘Φ) = Φ*(i∂∂̄p): q is plurisubharmonic
    exactly when p is, so q's certificate certifies p."""
    _check_tangential(p)
    n, zero = p.n, (0,) * p.n
    shears: List[Shear] = []
    q = p
    pairs_left = MAX_PRODUCT_PAIRS
    for i in range(2, n + 1):
        pure = [(alpha[i - 1], c) for (alpha, beta), c in q.terms.items()
                if alpha == beta and 0 < alpha[i - 1] == sum(alpha)]
        if not pure:
            continue
        a, scale = min(pure, key=itemgetter(0))
        lead = tuple(a if v == i - 1 else 0 for v in range(n))
        s = {(beta[:i - 1] + (0,) + beta[i:], zero): (c / (scale * a)).conj()
             for (alpha, beta), c in q.terms.items()
             if alpha == lead and a - 1 == beta[i - 1] < sum(beta)}
        if not s:
            continue
        pairs = _shear_pairs(q, i, len(s) + 1)
        if pairs is None or pairs > pairs_left:
            return None
        pairs_left -= pairs
        shift = Poly(n, s)
        maps = [Poly.variable(n, v) for v in range(1, n + 1)]
        maps[i - 1] = maps[i - 1] - shift
        q = q.substitute_maps(maps)
        shears.append((i, shift))
    if not shears:
        return None
    cert = psd_certificate(q)
    return None if cert is None else (shears, q, cert)


def psd_verdict(p: Poly, samples: int = 200, seed: int = 0
                ) -> PositivityVerdict:
    """Three-tier exact positivity verdict for the Hessian form of p."""
    if samples < 0:
        raise PolyError(f"sample count {samples} is negative")
    cert = psd_certificate(p)
    if cert is not None:
        return PositivityVerdict(KIND_CERTIFIED, tier=cert["tier"],
                                 certificate=cert)
    if p.n > MAX_TIER3_DIMENSION:
        raise PolyError(f"dimension {p.n} is above {MAX_TIER3_DIMENSION}, "
                        "the largest for which tier 3 walks its grid")
    if p.n < 2:
        raise PolyError("tier 3 needs a tangential variable z_2..z_n; "
                        "n = 1 has none")
    hess = complex_hessian(p)
    structured = _structured(p.n)
    rng = random.Random(seed)
    drawn = ([_random_crat(rng) for _ in range(p.n - 1)]
             for _ in range(samples))
    for visited, z in enumerate(itertools.chain(structured, drawn), 1):
        full_z = [CRat(0)] + z
        for q, d in hermitian_reduce(_tangential_values(hess, full_z)):
            if d < 0:
                return PositivityVerdict(
                    KIND_REFUTED, witness=_witness(full_z, q, d),
                    samples_tried=max(0, visited - len(structured)))
    return PositivityVerdict(KIND_UNKNOWN, samples_tried=samples)


def _witness(z: Sequence[CRat], a: Sequence[CRat], value: Fraction) -> dict:
    return {"z": [dict(zip(("re", "im"), c.part_strs())) for c in z],
            "a": [dict(zip(("re", "im"), c.part_strs())) for c in a],
            "value": rat_str(value)}


def replay_refutation(p: Poly, witness: dict) -> Fraction:
    """Exact Hessian form value at a stored witness (negative iff sound)."""
    require_real(p, "refuted polynomial")
    z = [CRat(Fraction(c["re"]), Fraction(c["im"])) for c in witness["z"]]
    a = [CRat(Fraction(c["re"]), Fraction(c["im"])) for c in witness["a"]]
    return hessian_form_value(complex_hessian(p), z, a)
