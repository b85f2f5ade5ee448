"""Shared generators, small oracles and the paper's lemma checks that no
command runs, for the test suite."""

from __future__ import annotations

import functools
import heapq
import importlib.util
import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import catlin.boundary as boundary
from catlin.boundary import (BoundaryConstructionError, BoundarySystem,
                             ListEntry, TorsionReport, VField, _apply_field,
                             _field_from_vector, _ListSearcher, _ranked,
                             detect_torsion, first_block_slots)
from catlin.exact import (CI, CZERO, CRat, hermitian_form, inverse, rank,
                          rat_str)
from catlin.levi import (KIND_CERTIFIED, KIND_REFUTED, KIND_UNKNOWN,
                         PositivityVerdict, _check_tangential, _random_crat,
                         _squares_certificate, cauchy_schwarz_pairing)
from catlin.normal_form import (_Degenerate, _bal_monomial_alpha,
                                _block_direction)
from catlin.poly import (CoordChange, DimensionMismatch, Poly, PolyError,
                         PseudoconvexityError, TermKey, _capped_products,
                         eliminate_harmonic, require_real, split_model,
                         term_sort_key)
from catlin.weights import INF, Entry, InverseWeight, Weight, recip


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "workloads.py"


def _workloads():
    """``perfbench/workloads.py``, which imports only the standard library,
    loaded by path, without the harness."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def benchmark_models() -> List[Tuple[str, int]]:
    """Each distinct (expr, n) of the benchmark's normalize and boundary
    workloads, timed jobs and after-jobs, at seeds 5, 7 and 23."""
    module = _workloads()
    models = {}
    for seed in (5, 7, 23):
        for make in (module.make_normalize, module.make_boundary,
                     module.boundary_after):
            for job in make(random.Random(seed)):
                models.setdefault((job.expr, job.n), job.command)
    return list(models)


def workload_argvs(seed: int) -> List[List[str]]:
    """The command line of each timed job of the benchmark's normalize,
    boundary and positivity workloads at ``seed``: one pass of each."""
    workloads = _workloads().WORKLOADS
    return [job.argv() for name in ("normalize", "boundary", "positivity")
            for job in workloads[name].make(random.Random(seed))]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class FractionPairCRat:
    """Reference Gaussian rational: a pair of ``Fraction`` values.  This is
    the earlier ``catlin.exact.CRat``, kept as an oracle for the integer
    form; its ``repr`` differs only in the class name."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    @staticmethod
    def of(x):
        if isinstance(x, FractionPairCRat):
            return x
        return FractionPairCRat(_frac(x))

    def __add__(self, other):
        o = FractionPairCRat.of(other)
        return FractionPairCRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = FractionPairCRat.of(other)
        return FractionPairCRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return FractionPairCRat.of(other) - self

    def __mul__(self, other):
        o = FractionPairCRat.of(other)
        return FractionPairCRat(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = FractionPairCRat.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero CRat")
        return FractionPairCRat((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return FractionPairCRat.of(other) / self

    def __neg__(self):
        return FractionPairCRat(-self.re, -self.im)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = FractionPairCRat(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def conj(self):
        return FractionPairCRat(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


# 24 diagonal terms |z2|^2a |z3|^2b (0 <= a, b <= 4) and one mixed term
# with 12 splittings, tangential: tier 2's fraction walk meets 7^12 product
# tuples, of which 1,717 sum to 1
MANY_SPLITTINGS = " + ".join(
    ["*".join(f"|z{j}|^{2 * e}" for j, e in ((2, a), (3, b)) if e)
     for a in range(5) for b in range(5) if a or b]
    + ["40*Re(z2^4*zbar3^4)"])


def rand_fraction(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_crat(rng: random.Random, span: int = 4) -> CRat:
    return CRat(rand_fraction(rng, span), rand_fraction(rng, span))


def rand_real_poly(rng: random.Random, n: int, terms: int = 3,
                   max_exp: int = 3) -> Poly:
    """Random real-valued polynomial built from Hermitian-symmetric pairs."""
    p = Poly.zero(n)
    for _ in range(terms):
        alpha = tuple(rng.randint(0, max_exp) for _ in range(n))
        beta = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = rand_crat(rng)
        p = p + Poly.monomial(n, alpha, beta, c) + Poly.monomial(n, beta, alpha,
                                                                 c.conj())
    return p


def rand_holomorphic(rng: random.Random, n: int, terms: int = 2,
                     max_exp: int = 2) -> Poly:
    p = Poly.zero(n)
    for _ in range(terms):
        alpha = tuple(rng.randint(0, max_exp) for _ in range(n))
        p = p + Poly.monomial(n, alpha, (0,) * n, rand_crat(rng))
    return p


def homogenized_modulus_square(rng: random.Random, target_half_degree: int,
                               max_q_degree: int = 6) -> Poly:
    """One-variable nonnegative homogeneous polynomial of degree
    2 * target_half_degree: the |z|-homogenization of |q(z)|^2 where q has
    exponents of a single parity (so all pad exponents stay integral).

    With q = sum a_j z^j, the result is
        sum_jk a_j conj(a_k) z^j zbar^k |z|^(2m - j - k),
    which equals |z|^(2m) |q(z/|z|)|^2 >= 0 pointwise.
    """
    m = target_half_degree
    parity = rng.randint(0, 1)
    degrees = [d for d in range(parity, max_q_degree + 1, 2) if d <= m]
    chosen = rng.sample(degrees, k=min(len(degrees), rng.randint(1, 3)))
    coeffs = {d: rand_crat(rng) for d in chosen}
    if all(c.is_zero() for c in coeffs.values()):
        coeffs[chosen[0]] = CRat(1)
    p = Poly.zero(1)
    for j, aj in coeffs.items():
        for k, ak in coeffs.items():
            pad = 2 * m - j - k
            assert pad % 2 == 0 and pad >= 0
            alpha = (j + pad // 2,)
            beta = (k + pad // 2,)
            p = p + Poly.monomial(1, alpha, beta, aj * ak.conj())
    return p


def brute_admissible_slot(lams: List[Fraction], bound: int = 40) -> List[Tuple[int, ...]]:
    """Independent brute-force witness search for one admissibility slot."""
    i = len(lams)
    out = []

    def rec(idx, acc, total):
        if idx == i:
            if acc[-1] > 0 and total == 1:
                out.append(tuple(acc))
            return
        for a in range(0, bound):
            t = total + Fraction(a) / lams[idx]
            if t > 1:
                break
            rec(idx + 1, acc + [a], t)

    rec(0, [], Fraction(0))
    return out


def _rational_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def leading_model(p: Poly, mu: Sequence[Fraction]) -> Poly:
    """Weight-1 part of p: the polynomial model of a graded defining function."""
    return p.grade(mu).get(1, Poly.zero(p.n))


def linear_change(n: int, matrix: Dict[Tuple[int, int], Fraction],
                  mu: Sequence[Fraction]) -> CoordChange:
    """Graded linear change z_i -> sum_j matrix[(i, j)] z_j (1-based,
    sparse)."""
    maps = [sum((Poly.variable(n, j) * CRat.of(c)
                 for (i, j), c in matrix.items() if i == row), Poly.zero(n))
            for row in range(1, n + 1)]
    return CoordChange(n, maps, mu)


def weighted_order(pair: TermKey, mu: Sequence[Fraction]) -> Fraction:
    """(alpha + beta | mu), an exact rational summed entry by entry: the
    oracle for ``Poly.grade`` and ``CoordChange``, which weigh on integers
    over mu's common denominator."""
    alpha, beta = pair
    if len(alpha) != len(mu):
        raise DimensionMismatch("weight length != exponent length")
    total = Fraction(0)
    for a, b, m in zip(alpha, beta, mu):
        e = a + b
        if e:
            total += e * Fraction(m)
    return total


def tail(p: Poly, mu: Sequence[Fraction]) -> Poly:
    """Strictly-above-weight-1 part of p (the graded remainder)."""
    out = {k: c for k, c in p.terms.items() if weighted_order(k, mu) > 1}
    return Poly(p.n, out)


def circle_points(count: int) -> List[CRat]:
    """Rational points on |z| = 1 via the Pythagorean parametrization."""
    pts = [CRat(1), CRat(-1)]
    for t_num in range(1, count):
        t = Fraction(t_num, count)
        d = 1 + t * t
        pts.append(CRat((1 - t * t) / d, 2 * t / d))
        pts.append(CRat((1 - t * t) / d, -2 * t / d))
    return pts


@functools.lru_cache(maxsize=1 << 16)
def _oracle_remainders(prefix: Tuple[Entry, ...]) -> frozenset:
    """The positive remainders 1 - sum a_j/lambda_j over every witness row
    through (1,) + prefix, rebuilt slot by slot from the prefix's own; they
    depend on the lambdas alone, so every order of the variables shares
    them."""
    if not prefix:
        remaining = {Fraction(1)}
        lam = Fraction(1)
    else:
        remaining, lam = _oracle_remainders(prefix[:-1]), prefix[-1]
        if lam == INF:
            return remaining
    return frozenset(r - Fraction(a) / lam for r in remaining
                     for a in range(math.floor(r * lam) + 1)
                     if r - Fraction(a) / lam > 0)


@functools.lru_cache(maxsize=1 << 16)
def _oracle_candidates(prefix: Tuple[Entry, ...], hi: Fraction,
                       lo: Fraction) -> List[Fraction]:
    """The lambdas a/r in [lo, hi] over the remainders r through the
    prefix, largest first; the orders of one support share many."""
    vals = set()
    for r in _oracle_remainders(prefix):
        for a in range(max(1, math.ceil(lo * r)), math.floor(hi * r) + 1):
            lamv = Fraction(a) / r
            if lo <= lamv <= hi:
                vals.add(lamv)
    return sorted(vals, reverse=True)


@functools.lru_cache(maxsize=1 << 16)
def best_distinguished_oracle(evecs: Tuple[Tuple[int, ...], ...],
                              nvars: int) -> Optional[Tuple[Entry, ...]]:
    """Reference for ``weights._best_distinguished`` in one fixed order of
    the variables: the earlier search in ``Fraction`` arithmetic, which
    never prunes and takes each node's admissibility remainders from
    ``_oracle_remainders``; remembered per support, as the orders of one
    support and the candidates of the search's rounds repeat.

    Lex-max admissible nondecreasing (lambda_2..lambda_n) with every
    exponent vector weighted >= 1; None when infeasible."""

    def slot_bound(j: int, pres: List[Fraction]) -> Optional[Entry]:
        # pres: each vector's weighted order over the j slots chosen
        bound: Entry = INF
        for e, pre in zip(evecs, pres):
            if pre >= 1:
                continue
            tail = sum(e[j:])
            if tail == 0:
                return None
            cand = Fraction(tail) / (1 - pre)
            if cand < bound:
                bound = cand
        return bound

    def rec(prefix: Tuple[Entry, ...],
            pres: List[Fraction]) -> Optional[Tuple[Entry, ...]]:
        j = len(prefix)
        if j == nvars:
            return prefix
        bound = slot_bound(j, pres)
        if bound is None:
            return None
        if bound == INF:
            return prefix + (INF,) * (nvars - len(prefix))
        lo = Fraction(1)
        for x in reversed(prefix):
            if x != INF:
                lo = x
                break
        else:
            lo = Fraction(1)
        if prefix and prefix[-1] == INF:
            return None  # finite after infinite would break monotonicity
        for lam in _oracle_candidates(prefix, bound, lo):
            res = rec(prefix + (lam,), [pre + Fraction(e[j]) / lam
                                        for e, pre in zip(evecs, pres)])
            if res is not None:
                return res
        return None

    return rec((), [Fraction(0)] * len(evecs))


def best_distinguished_candidates_oracle(
        evecs: Iterable[Tuple[int, ...]], nvars: int,
        above: Optional[Tuple[Entry, ...]] = None
) -> Optional[Tuple[Tuple[Entry, ...], Tuple[int, ...]]]:
    """The earlier ``weights._best_distinguished``, which also enumerated,
    at every slot, each lambda a*L/R between the previous slot's lambda and
    the slot's bound, over the positive remainders R of the admissibility
    rows through the prefix (``rems``, stepped down slot by slot), and
    walked them largest first.  Same arguments and result: the lex-max
    tuple over every order and the first order reaching it, None when
    infeasible or not strictly above ``above``.  It keeps its own copies
    of the slot bound and the value order of (num, den) pairs."""
    by_value = functools.cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])

    def slot_bound(live, big_l):
        bn, bd = 1, 0
        for pre, tail, _e in live:
            if tail == 0:
                return None
            if tail * bd < bn * (big_l - pre):
                bn, bd = tail, big_l - pre
        return bn * big_l, bd

    live = [(0, sum(e), e) for e in evecs]
    root = slot_bound(live, 1)

    def walk(above):
        # the first complete tuple strictly above ``above``, with its order
        def rec(prefix, order, big_l, live, rems, bound, tight):
            j = len(prefix)
            bn, bd = bound
            if bd == 0:  # nothing live: INF for every slot left
                if tight and all(x == INF for x in above[j:]):
                    return None
                return (prefix + (INF,) * (nvars - j), order +
                        tuple(v for v in range(nvars) if v not in order))
            target = above[j] if tight else None
            if tight and (target == INF or bn * target[1] < target[0] * bd):
                return None
            lo_n, lo_d = prefix[-1] if prefix else (1, 1)
            vals = set()
            for r in rems:
                # lo <= a*L/r <= bn/bd
                for a in range(-(-lo_n * r // (lo_d * big_l)),
                               bn * r // (bd * big_l) + 1):
                    num = a * big_l
                    g = math.gcd(num, r)
                    vals.add((num // g, r // g))
            for lam in sorted(vals, key=by_value, reverse=True):
                num, den = lam
                if tight and (target == INF
                              or num * target[1] < target[0] * den):
                    return None
                sub_l = big_l * num // math.gcd(big_l, num)
                scale = sub_l // big_l
                step = den * (sub_l // num)  # 1/lambda over sub_l
                sub_rems = set()
                if j + 1 < nvars:  # a complete tuple needs no remainders
                    for r in rems:
                        r *= scale
                        while r > 0:
                            sub_rems.add(r)
                            r -= step
                first = order[-1] + 1 if prefix and lam == prefix[-1] else 0
                kids = []
                for v in sorted(set(range(first, nvars)).difference(order)):
                    sub_live = []
                    for pre, tail, e in live:
                        pre *= scale
                        if e[v]:
                            pre += e[v] * step
                            if pre >= sub_l:
                                continue
                        sub_live.append((pre, tail - e[v], e))
                    sub_bound = slot_bound(sub_live, sub_l)
                    if sub_bound is not None:
                        kids.append((sub_bound, v, sub_live))
                # stable: ascending among equal bounds
                kids.sort(key=lambda kid: by_value(kid[0]), reverse=True)
                for sub_bound, v, sub_live in kids:
                    res = rec(prefix + (lam,), order + (v,), sub_l, sub_live,
                              sub_rems, sub_bound, tight and lam == target)
                    if res is not None:
                        return res
            return None

        return rec((), (), 1, live, {1}, root, above is not None)

    if root is None:
        return None
    if above is not None:
        above = tuple((x.numerator, x.denominator)
                      if isinstance(x, Fraction) else INF for x in above)
    best = None
    while (found := walk(best[0] if best else above)) is not None:
        best = found
    if best is None:
        return None
    lams, order = best
    return tuple(x if x == INF else Fraction(*x) for x in lams), order


def substitute_maps_oracle(self: Poly, maps: Sequence[Poly]) -> Poly:
    """Reference for ``Poly.substitute_maps``: the earlier method, which
    expands every map and sums Polys term by term.

    Exact expansion of self under z_j -> maps[j-1], zbar_j -> conj(maps[j-1]).

    Every map must be holomorphic (no zbar content).
    """
    if len(maps) != self.n:
        raise DimensionMismatch("need one component map per variable")
    m = maps[0].n
    for f in maps:
        if f.n != m:
            raise DimensionMismatch("component maps disagree on dimension")
        if not f.is_holomorphic():
            raise PolyError("component maps must be holomorphic")
    hol_pows: Dict[Tuple[int, int], Poly] = {}
    anti_pows: Dict[Tuple[int, int], Poly] = {}

    def hp(i: int, e: int) -> Poly:
        key = (i, e)
        if key not in hol_pows:
            hol_pows[key] = maps[i] ** e
        return hol_pows[key]

    def ap(i: int, e: int) -> Poly:
        key = (i, e)
        if key not in anti_pows:
            anti_pows[key] = maps[i].conj() ** e
        return anti_pows[key]

    total = Poly.zero(m)
    for (a, b), c in self.terms.items():
        piece = Poly.const(m, c)
        for i in range(self.n):
            if a[i]:
                piece = piece * hp(i, a[i])
            if b[i]:
                piece = piece * ap(i, b[i])
        total = total + piece
    return total


def best_ordered_weight_oracle(p: Poly
                               ) -> Optional[Tuple[InverseWeight,
                                                   Tuple[int, ...]]]:
    """Reference for ``weights.best_distinguished_weight``: for each order of
    z_2..z_n in ``itertools.permutations`` order, slot s taking the variable
    order[s - 2], p's lex-max distinguished inverse weight in that order;
    the first maximum with its order, None when no order has one."""
    evecs = {tuple(map(add, a[1:], b[1:])) for (a, b) in p.terms}
    best = None
    for order in itertools.permutations(range(2, p.n + 1)):
        tail = best_distinguished_oracle(
            tuple(sorted({tuple(e[v - 2] for v in order) for e in evecs})),
            p.n - 1)
        if tail is not None and (best is None or tail > best[0]):
            best = tail, order
    if best is None:
        return None
    return InverseWeight((Fraction(1),) + best[0]), best[1]


def _maps_table(n: int, *powers) -> Poly:
    """The holomorphic polynomial sum c*z_v^e over (v, e, c) triples."""
    return Poly(n, {(tuple(e if v == i else 0 for i in range(1, n + 1)),
                     (0,) * n): CRat(c) for v, e, c in powers})


def catalog_oracle(p: Poly) -> List[Tuple[str, List[Poly]]]:
    """The multitype search's coordinate catalog for p as documented,
    written out as term tables: for each ordered pair i != j, each
    k = 1..min(D_j, 64), D_j the largest exponent of z_j or zbar_j in a term
    of p, and c = 1, -1 the shear z_i -> z_i + c*z_j^k, named
    "shear z{i} += {c}*z{j}^{k}"; each with its variable maps z_1..z_n."""
    n = p.n
    out = []
    for i, j in itertools.permutations(range(2, n + 1), 2):
        reach = max([0] + [e for a, b in p.terms
                           for e in (a[j - 1], b[j - 1])])
        for k in range(1, min(reach, 64) + 1):
            for c in (1, -1):
                maps = [_maps_table(n, (v, 1, 1)) for v in range(1, n + 1)]
                maps[i - 1] = _maps_table(n, (i, 1, 1), (j, k, c))
                out.append((f"shear z{i} += {c}*z{j}^{k}", maps))
    return out


def reorder_oracle(p: Poly, order: Tuple[int, ...], applied: List[str]
                   ) -> Poly:
    """p with slot s taking the variable order[s - 2]: the change z_v -> z_s
    for each v, named "perm(...)" by the tuple of those s and recorded in
    ``applied``; p itself when every variable keeps its slot."""
    perm = tuple(order.index(v) + 2 for v in range(2, p.n + 1))
    if perm == tuple(range(2, p.n + 1)):
        return p
    applied.append(f"perm{perm}")
    maps = [_maps_table(p.n, (1, 1, 1))] + \
        [_maps_table(p.n, (s, 1, 1)) for s in perm]
    return substitute_maps_oracle(p, maps)


def multitype_search_oracle(r: Poly, max_rounds: int = 40
                            ) -> Tuple[InverseWeight, dict]:
    """The documented ``weights.multitype_search``, driven by the oracles:
    the input and, in every round, every shear of ``catalog_oracle`` for
    that round's p is expanded and weighed in full over every order
    (``best_ordered_weight_oracle``); the first improving shear is applied,
    and after it (and first, for the input) the order of its weight, as one
    perm(...).  Returns the weight and the witness the search prints."""
    r0, _h = eliminate_harmonic(r)
    p = r0.restrict_support(range(2, r.n + 1))
    best, order = best_ordered_weight_oracle(p)
    applied: List[str] = []
    p = reorder_oracle(p, order, applied)
    for _ in range(max_rounds):
        for name, maps in catalog_oracle(p):
            q = substitute_maps_oracle(p, maps)
            found = best_ordered_weight_oracle(q)
            if found is not None and found[0].entries > best.entries:
                applied.append(name)
                best, order = found
                p = reorder_oracle(q, order, applied)
                break
        else:
            break
    ok, wit = is_admissible_oracle(best)
    witness = {
        "changes": applied,
        "admissibility": {str(i): [list(a) for a in rows]
                          for i, rows in wit.items()} if ok else {},
        "coordinates_polynomial": p.to_json_dict(),
    }
    return best, witness


# The earlier tier 3's grid values: its points took the first 4, its
# vectors all 5.
_GRID = [CRat(0), CRat(1), CRat(-1), CRat(0, 1), CRat(0, -1)]


def grid_tuples(n: int, size: int) -> List[List[CRat]]:
    """The nonzero tuples over z_2..z_n of the first ``size`` values of
    ``_GRID`` (one fewer from n = 5 on), in product order: size 4 gives the
    structured points, size 5 the earlier structured vectors."""
    vals = _GRID[:size - (n >= 5)]
    return [list(t) for t in itertools.product(vals, repeat=n - 1)
            if any(not c.is_zero() for c in t)]


def psd_verdict_oracle(p: Poly, samples: int = 200, seed: int = 0
                       ) -> PositivityVerdict:
    """Tier 3 decided apart from ``levi.psd_verdict``.  At the structured
    points it is the earlier engine's per-pair sweep: it evaluates all
    Hessian entries again for every (point, vector) pair and sums the form
    entry by entry, over every structured vector at every structured point.
    Then it draws the engine's seeded random points, in the engine's order,
    and decides the Levi matrix at each by its principal minors
    (``hermitian_psd_oracle``); a refutation there records its point only.
    ``samples_tried`` counts random points only."""
    _check_tangential(p)
    cert = _squares_certificate(p)
    if cert is not None:
        return PositivityVerdict(KIND_CERTIFIED, tier=1, certificate=cert)
    pairing = cauchy_schwarz_pairing(p)
    if pairing is not None:
        return PositivityVerdict(KIND_CERTIFIED, tier=2, certificate=pairing)
    hess = hessian_oracle(p)
    n = p.n

    def point_json(z):
        return [{"re": rat_str(c.re), "im": rat_str(c.im)} for c in z]

    for z in grid_tuples(n, 4):
        full_z = [CRat(0)] + z
        for a in grid_tuples(n, 5):
            total = CZERO
            for j in range(2, n + 1):
                for k in range(2, n + 1):
                    h = evaluate_oracle(hess[j - 1][k - 1], full_z)
                    total = total + h * a[j - 2] * a[k - 2].conj()
            assert total.is_real()
            if total.re < 0:
                witness = {"z": point_json(full_z), "a": point_json(a),
                           "value": rat_str(total.re)}
                return PositivityVerdict(KIND_REFUTED, witness=witness)
    rng = random.Random(seed)
    for tried in range(1, samples + 1):
        full_z = [CRat(0)] + [_random_crat(rng) for _ in range(n - 1)]
        h = [[evaluate_oracle(hess[j][k], full_z) for k in range(1, n)]
             for j in range(1, n)]
        if not hermitian_psd_oracle(h):
            return PositivityVerdict(KIND_REFUTED,
                                     witness={"z": point_json(full_z)},
                                     samples_tried=tried)
    return PositivityVerdict(KIND_UNKNOWN, samples_tried=samples)


def _det(m: Sequence[Sequence[CRat]]) -> CRat:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return CRat(1)
    total = CZERO
    for j, x in enumerate(m[0]):
        if not x.is_zero():
            term = x * _det([row[:j] + row[j + 1:] for row in m[1:]])
            total = total - term if j % 2 else total + term
    return total


def hermitian_psd_oracle(h: Sequence[Sequence[CRat]]) -> bool:
    """A Hermitian matrix is PSD iff every principal minor is >= 0."""
    for size in range(1, len(h) + 1):
        for rows in itertools.combinations(range(len(h)), size):
            minor = _det([[h[i][j] for j in rows] for i in rows])
            assert minor.is_real()
            if minor.re < 0:
                return False
    return True


def hermitian_reduce_oracle(h: Sequence[Sequence[CRat]]
                            ) -> List[Tuple[List[CRat], Fraction]]:
    """Reference for ``catlin.exact.hermitian_reduce``: exact Gram-Schmidt
    with hyperbolic pairs that evaluates ``hermitian_form`` afresh for every
    value and projection coefficient, where the kernel updates a Gram
    matrix.  The two return the same (q_i, d_i) list, or raise the same
    ValueError."""
    dim = len(h)
    remaining = [[CRat(1 if i == k else 0) for k in range(dim)]
                 for i in range(dim)]
    done: List[Tuple[List[CRat], Fraction]] = []
    while remaining:
        # the remaining vectors are orthogonal to every earlier pivot, so
        # only the newest one is projected out (a zero value ends the loop)
        if done:
            q, d = done[-1]
            for v in remaining:
                coef = hermitian_form(h, v, q) / CRat(d)
                for k in range(dim):
                    v[k] = v[k] - coef * q[k]
        values = ((v, hermitian_form(h, v, v)) for v in remaining)
        pick, val = next(((v, d) for v, d in values if not d.is_zero()),
                         (None, None))
        if pick is None:
            hyper = None
            for v, w in itertools.combinations(remaining, 2):
                if not hermitian_form(h, v, w).is_zero():
                    hyper = (v, w)
                    break
            if hyper is None:
                done.extend((v, Fraction(0)) for v in remaining)
                break
            v, w = hyper
            cand = [v[k] + w[k] for k in range(dim)]
            if hermitian_form(h, cand, cand).is_zero():
                cand = [v[k] + CI * w[k] for k in range(dim)]
            remaining[remaining.index(v)] = cand
            continue
        if not val.is_real():
            raise ValueError("Hermitian form value not real")
        done.append((pick, val.re))
        remaining.remove(pick)
    done.sort(key=lambda t: t[1] == 0)  # stable: nonzero first
    return done


def first_indefinite_point(p: Poly) -> Optional[List[CRat]]:
    """The first structured point (z1 = 0 prepended) at which the tangential
    Hessian of p, every entry evaluated on its own, is not PSD; None when it
    is PSD at all of them."""
    hess = hessian_oracle(p)
    for z in grid_tuples(p.n, 4):
        full_z = [CRat(0)] + z
        h = [[evaluate_oracle(hess[j][k], full_z) for k in range(1, p.n)]
             for j in range(1, p.n)]
        if not hermitian_psd_oracle(h):
            return full_z
    return None


def wirtinger_oracle(f: Poly, j: int, conjugate: bool = False) -> Poly:
    """The earlier ``Poly.wirtinger``: its own derivative loop, summing
    into each key, apart from ``poly._derivative_terms``; it scales by
    ``CRat(e)``, off ``CRat.__mul__``'s int path."""
    i = j - 1
    out: Dict[TermKey, CRat] = {}
    for (a, b), c in f.terms.items():
        e = b[i] if conjugate else a[i]
        if e == 0:
            continue
        if conjugate:
            k = (a, b[:i] + (e - 1,) + b[i + 1:])
        else:
            k = (a[:i] + (e - 1,) + a[i + 1:], b)
        out[k] = out.get(k, CZERO) + c * CRat(e)
    return Poly(f.n, out)


def hessian_oracle(p: Poly) -> List[List[Poly]]:
    """``levi.complex_hessian`` by ``wirtinger_oracle``: entry [j-1][k-1]
    is d^2 p / dz_j dzbar_k."""
    return [[wirtinger_oracle(wirtinger_oracle(p, j), k, conjugate=True)
             for k in range(1, p.n + 1)] for j in range(1, p.n + 1)]


def evaluate_oracle(p: Poly, point: Sequence[CRat]) -> CRat:
    """The earlier ``Poly.evaluate``: one product per unit of exponent and
    no term skipped, apart from ``Poly._evaluate``."""
    zs = [CRat.of(c) for c in point]
    total = CZERO
    for (a, b), c in p.terms.items():
        v = c
        for i in range(p.n):
            for _ in range(a[i]):
                v = v * zs[i]
            for _ in range(b[i]):
                v = v * zs[i].conj()
        total = total + v
    return total


def apply_field_oracle(coeffs: Sequence[Poly], f: Poly,
                       cap: Optional[int] = None,
                       conjugate: bool = False) -> Poly:
    """The earlier ``boundary._apply_field``: every nonzero coefficient a_k
    times the ``Poly`` derivative of f in z_k (zbar_k when ``conjugate``),
    summed by ``_capped_products`` without the terms above ``cap``."""
    return _capped_products(f.n, [(a, wirtinger_oracle(f, k, conjugate))
                                  for k, a in enumerate(coeffs, start=1)
                                  if not a.is_zero()], cap)


def commutator_oracle(r: Poly, fields: Dict[int, VField],
                      e1: Tuple[int, bool], e2: Tuple[int, bool]
                      ) -> Tuple[Poly, Poly]:
    """(dr([X, Y]), dbar-r([X, Y])) for the list entries X = e1, Y = e2.

    An entry (slot, False) is the field sum_k a_k d/dz_k of ``fields[slot]``
    and (slot, True) its conjugate sum_k conj(a_k) d/dzbar_k.  The vector
    field commutator is formed in full, its (1,0) and its (0,1) part, with
    plain Poly products and ``wirtinger``, and no degree cap."""
    n = r.n
    zero = [Poly.zero(n)] * n

    def parts(entry):
        slot, conj = entry
        hol = list(fields[slot].hol)
        return (zero, [a.conj() for a in hol]) if conj else (hol, zero)

    def apply(field, f):
        hol, anti = field
        out = Poly.zero(n)
        for k in range(1, n + 1):
            out = out + hol[k - 1] * f.wirtinger(k) \
                + anti[k - 1] * f.wirtinger(k, conjugate=True)
        return out

    x, y = parts(e1), parts(e2)
    hol, anti = ([apply(x, y[side][k]) - apply(y, x[side][k])
                  for k in range(n)] for side in (0, 1))
    dr = sum((hol[k - 1] * r.wirtinger(k) for k in range(1, n + 1)),
             Poly.zero(n))
    dbar_r = sum((anti[k - 1] * r.wirtinger(k, conjugate=True)
                  for k in range(1, n + 1)), Poly.zero(n))
    return dr, dbar_r


class ListSearcherOracle:
    """The earlier per-direction ``boundary._ListSearcher``: one searcher
    per candidate direction, with its own bracket seeds, that forms every
    tail state it walks through and shares nothing with any other.  Fields
    are applied by ``apply_field_oracle``, apart from the kernel under
    test."""

    def __init__(self, r: Poly, fields: Dict[int, VField], seed_cap: int):
        self.r = r
        self.fields = fields
        self.seed_cap = seed_cap
        self._seeds: Dict[Tuple[ListEntry, ListEntry], Poly] = {}

    def apply(self, entry: ListEntry, f: Poly, cap: int) -> Poly:
        hol = self.fields[entry[0]].hol
        coeffs = [a.conj() for a in hol] if entry[1] else hol
        return apply_field_oracle(coeffs, f, cap, entry[1])

    def seed(self, e1: ListEntry, e2: ListEntry) -> Poly:
        if (e1, e2) not in self._seeds:
            n, c = self.r.n, self.seed_cap
            hol = [Poly.zero(n)] * n
            if not e2[1]:
                hol = [h + self.apply(e1, y, c)
                       for h, y in zip(hol, self.fields[e2[0]].hol)]
            if not e1[1]:
                hol = [h - self.apply(e2, x, c)
                       for h, x in zip(hol, self.fields[e1[0]].hol)]
            self._seeds[e1, e2] = apply_field_oracle(hol, self.r, c)
        return self._seeds[e1, e2]

    def first_nonzero(self, skeleton: Sequence[int]
                      ) -> Optional[List[ListEntry]]:
        length = len(skeleton)
        zero = (0,) * self.r.n

        def rec(pos: int, current: Poly) -> Optional[List[ListEntry]]:
            if current.is_zero():
                return None
            if pos < 0:
                return [] if current.coeff(zero, zero) else None
            for flag in (False, True):
                entry = (skeleton[pos], flag)
                res = rec(pos - 1, self.apply(entry, current, pos))
                if res is not None:
                    return res + [entry]
            return None

        for f1, f2 in itertools.product((False, True), repeat=2):
            e1 = (skeleton[length - 2], f1)
            e2 = (skeleton[length - 1], f2)
            if e1 != e2:
                res = rec(length - 3, self.seed(e1, e2))
                if res is not None:
                    return res + [e1, e2]
        return None


def audit_boundary_system_oracle(bs: BoundarySystem) -> List[str]:
    """The earlier ``boundary.audit_boundary_system``, without the grading
    check: every slot's minimality walk ranks every list before the slot's
    own from the first one, with no floor, up to the build's bound."""
    problems: List[str] = []
    zero = (0,) * bs.n
    fields = {j: s.fld for j, s in bs.slow.items()}
    store: Dict[tuple, object] = {}
    longest = max([bs.list_bound] + [len(s.entries) for s in bs.slow.values()])
    for i, lf in enumerate(bs.levi_fields):
        if not _apply_field(lf.hol, bs.r).is_zero():
            problems.append(f"Levi field {i + 2}: L(r) != 0")
    for j, sl in sorted(bs.slow.items()):
        searcher = _ListSearcher(bs.r, fields, longest, store, j)
        if not _apply_field(sl.fld.hol, bs.r).is_zero():
            problems.append(f"slot {j}: L_{j}(r) != 0")
        if not searcher.derivative(sl.entries).coeff(zero, zero):
            problems.append(f"slot {j}: list derivative vanishes at 0")
        if sl.entries[0][0] != j:
            problems.append(f"slot {j}: list does not start in S_{j}")
        groups = [s for s, _c in sl.entries]
        if groups != sorted(groups, reverse=True):
            problems.append(f"slot {j}: list is not ordered")
        frac = sum((Fraction(groups.count(k)) / bs.slow[k].c
                    for k in bs.slow if k < j), Fraction(0))
        if frac >= 1:
            problems.append(f"slot {j}: admissibility sum {frac} >= 1")
        total = frac + Fraction(groups.count(j)) / sl.c
        if total != 1:
            problems.append(f"slot {j}: property-(5) sum {total} != 1")
        if _apply_field(sl.fld.hol, sl.r_func, 0).is_zero():
            problems.append(f"slot {j}: L_{j} r_{j} vanishes at 0")
        for k, other in bs.slow.items():
            if k < j:
                lr = _apply_field(sl.fld.hol, other.r_func, bs.trunc_degree)
                if not lr.is_zero():
                    problems.append(
                        f"slot {j}: L_{j} r_{k} != 0 (up to degree "
                        f"{bs.trunc_degree})")
        for value, length, skeleton in _ranked(bs.slow, j, 2, bs.list_bound):
            if skeleton == groups or (value, length) > (sl.c, len(groups)):
                break
            entries = searcher.first_nonzero(skeleton)
            if entries is not None:
                problems.append(
                    f"slot {j}: admissible list of value {value} and "
                    f"{length} fields {entries} has nonzero derivative and is "
                    "ranked before the slot's own; minimality broken")
                break
    return problems


def straighten_first_block_oracle(bs: BoundarySystem
                                  ) -> Tuple[Poly, List[CoordChange]]:
    """The first-block straightening read off the model instead of each
    slot's r_j: at each block slot j along z_d, with k = c/2, the (k-1, k)
    Wirtinger derivative of the current model in z_d, by iterated
    ``Poly.wirtinger``, normalized by 1/((k-1)! k!), has the shape
    c_+ z_d + c_- zbar_d + T, and z_d -> (z_d - phi - psi)/(c_+ + conj(c_-))
    with T = phi + conj(psi) straightens it.  The changes are graded by the
    weights 1/c_j in slot order, so ``bs`` must be complete.  It agrees with
    ``boundary._straighten_first_block`` when each block slot's list holds
    only its own fields, whose derivative is (k-1)! k! times this one, and
    no change maps a block variable to a function of a later slot's
    variable (whose derivative would then differ by the chain rule)."""
    block = first_block_slots(bs)
    lam = bs.c_entries[block[0] - 1]
    if lam != int(lam) or int(lam) % 2 != 0:
        raise BoundaryConstructionError(
            f"first block value {lam} is not an even integer")
    k = int(lam) // 2
    n = bs.n
    mu = [recip(e) for e in bs.c_entries]
    r_cur = bs.r
    changes: List[CoordChange] = []
    for j in block:
        support = [i + 2 for i, c in enumerate(bs.slow[j].direction)
                   if not c.is_zero()]
        if len(support) != 1:
            raise BoundaryConstructionError(f"slot {j}: direction off the axes")
        d = support[0]
        g = r_cur
        for conjugate in [False] * (k - 1) + [True] * k:
            g = g.wirtinger(d, conjugate)
        g = g * Fraction(1, math.factorial(k - 1) * math.factorial(k))
        e, zero = tuple(int(i == d - 1) for i in range(n)), (0,) * n
        c_plus, c_minus = g.coeff(e, zero), g.coeff(zero, e)
        tail = g - Poly(n, {(e, zero): c_plus, (zero, e): c_minus})
        if tail.degree_in(d) > 0:
            raise BoundaryConstructionError(
                f"slot {j}: derivative tail depends on z_{d}; the input is "
                "not weight-graded")
        non_harmonic = tail - tail.pure_part()
        if not non_harmonic.is_zero():
            raise PseudoconvexityError(
                f"slot {j}: harmonic tail certificate fails; offending part "
                f"{non_harmonic}")
        a = c_plus + c_minus.conj()
        if a.is_zero():
            raise BoundaryConstructionError(
                f"slot {j}: scale factor C+ + conj(C-) vanishes")
        phi = tail.holomorphic_part()
        psi = tail.antiholomorphic_part().conj()
        maps = [Poly.variable(n, v) for v in range(1, n + 1)]
        maps[d - 1] = (Poly.variable(n, d) - phi - psi) * (CRat(1) / a)
        change = CoordChange(n, maps, mu)
        r_cur = change.apply(r_cur)
        changes.append(change)
    return r_cur, changes


def direction_classes_oracle(catalog_weights: Sequence[Tuple[CRat, ...]],
                             used: Sequence[Tuple[CRat, ...]]
                             ) -> List[Tuple[int, Tuple[CRat, ...]]]:
    """Reference for ``boundary._direction_classes``: the earlier filter,
    every catalog entry outside the span of the finished directions, as
    ``rank`` decides it, each with its weights as they are, so that its
    field runs a series along each basis vector it reads."""
    return [(i, tuple(w)) for i, w in enumerate(catalog_weights)
            if rank(list(used) + [w]) > len(used)]


def first_block_torsion_oracle(r0: Poly) -> TorsionReport:
    """Reference for ``boundary.first_block_torsion``: the first build runs
    through the slot past its first block, however soon the floor proves
    the block complete."""
    slots = boundary._system_slots(r0, None, boundary._lambda_floor(r0))
    bs = boundary._through_torsion_slot(slots)
    if not first_block_slots(bs):
        return detect_torsion(bs)
    r_cur, _changes = boundary._straighten_first_block(bs, slots)
    return detect_torsion(boundary._through_torsion_slot(
        boundary._system_slots(r_cur, bs.list_bound, bs.floor)))


# ----------------------------------------------------------------------
# lemma checks of the paper that no command runs
# ----------------------------------------------------------------------


@dataclass
class CoeffBoundReport:
    C0: Fraction
    bounds: List[Tuple[int, CRat, bool]] = field(default_factory=list)


def one_var_coeff_check(P: Poly) -> CoeffBoundReport:
    """Coefficient bounds for a homogeneous one-variable P = sum C_k z^{m+k} zbar^{m-k}.

    Reports C_0 >= 0 and |C_k| <= C_0 for every k (exactly, via squared
    moduli).  For nonnegative P these must all hold, and C_0 > 0 when P != 0;
    a violated bound therefore certifies that P is not nonnegative."""
    require_real(P, "one-variable polynomial")
    sup = P.support_vars()
    if len(sup) > 1:
        raise PolyError(f"polynomial involves several variables: {sup}")
    if not sup:
        c = P.terms.get(((0,) * P.n, (0,) * P.n), CZERO)
        return CoeffBoundReport(C0=c.re)
    i = sup[0] - 1
    degs = {a[i] + b[i] for (a, b) in P.terms}
    if len(degs) != 1:
        raise PolyError("polynomial is not homogeneous")
    deg = degs.pop()
    if deg % 2 != 0:
        raise PolyError(f"odd degree {deg}; the bounds need even degree")
    m = deg // 2
    coeffs: Dict[int, CRat] = {}
    for (a, b), c in P.terms.items():
        coeffs[a[i] - m] = c
    C0 = coeffs.get(0, CZERO).re
    bounds = []
    for k in sorted(coeffs):
        if k <= 0:
            continue
        ck = coeffs[k]
        ok = C0 >= 0 and ck.abs2() <= C0 * C0
        bounds.append((k, ck, ok))
    return CoeffBoundReport(C0=C0, bounds=bounds)


def all_satisfied(report: CoeffBoundReport) -> bool:
    """C_0 >= 0 and every bound |C_k| <= C_0 of a coefficient-bound report
    holds."""
    return report.C0 >= 0 and all(ok for _k, _c, ok in report.bounds)


def m_dominant_coefficients(P: Poly, M: Fraction) -> List[TermKey]:
    """Exponent pairs whose coefficient is M-dominant: every other coefficient
    C' satisfies |C'| <= M |C| (compared through squared moduli)."""
    M = Fraction(M)
    if M < 0:
        raise PolyError("dominance factor must be nonnegative")
    items = list(P.terms.items())
    out = []
    m2 = M * M
    for key, c in items:
        ca = c.abs2()
        if all(other.abs2() <= m2 * ca for _k, other in items):
            out.append(key)
    return sorted(out, key=term_sort_key)


@dataclass
class SplitPart:
    deg_a: int
    deg_b: int
    part: Poly
    flagged_nonneg: bool


def newton_split_check(P: Poly, partition: Tuple[Sequence[int], Sequence[int]]
                       ) -> List[SplitPart]:
    """Bidegree decomposition of an (asserted nonnegative) homogeneous P over
    a variable bipartition; extremal parts are flagged certified nonnegative
    (scaling x -> t x, y -> y/t and letting t run to 0 or infinity)."""
    group_a, group_b = set(partition[0]), set(partition[1])
    if group_a & group_b:
        raise PolyError("partition groups overlap")
    missing = set(P.support_vars()) - (group_a | group_b)
    if missing:
        raise PolyError(f"partition does not cover variables {sorted(missing)}")
    buckets: Dict[Tuple[int, int], Dict] = {}
    for (a, b), c in P.terms.items():
        da = sum(a[j - 1] + b[j - 1] for j in group_a)
        db = sum(a[j - 1] + b[j - 1] for j in group_b)
        buckets.setdefault((da, db), {})[(a, b)] = c
    if not buckets:
        return []
    max_a = max(d for d, _ in buckets)
    max_b = max(d for _, d in buckets)
    return [SplitPart(da, db, Poly(P.n, terms),
                      flagged_nonneg=(da == max_a or db == max_b))
            for (da, db), terms in sorted(buckets.items())]


def model_truncate(r: Poly, mu: Weight) -> Poly:
    """Weight-1 part of a model r = -2 Re z1 + O_mu(1); pseudoconvexity of r
    passes to the truncation by weighted dilation."""
    parts = r.grade(mu.entries)
    if any(w < 1 for w in parts):
        raise PolyError(f"model contains terms of weight {min(parts)} < 1")
    return parts.get(Fraction(1), Poly.zero(r.n))


def is_distinguished(r: Poly, lam: InverseWeight) -> bool:
    """True iff every term of r has total inverse-weighted order >= 1
    (infinite slots contribute zero) in the given coordinates."""
    if lam.n != r.n:
        raise DimensionMismatch("inverse weight length != dimension")
    mu = [recip(e) for e in lam.entries]  # an infinite lambda weighs 0
    return all(weighted_order(key, mu) >= 1 for key in r.terms)


def _truncate(p: Poly, degree: int) -> Poly:
    """The terms of p of total degree at most ``degree``."""
    return Poly(p.n, {k: c for k, c in p.terms.items()
                      if sum(k[0]) + sum(k[1]) <= degree})


def neumann_solve_oracle(matrix: List[List[Poly]], rhs: List[Poly], n: int,
                         cap: int) -> Optional[List[Poly]]:
    """The earlier ``boundary._neumann_solve``, which formed M(0)^{-1} and
    the nonconstant part of M from the matrix at every call: M x = rhs
    solved exactly modulo degree > cap, or None when M(0) is singular."""
    dim, zero = len(matrix), (0,) * n
    m0 = [[entry.coeff(zero, zero) for entry in row] for row in matrix]
    m0inv = inverse(m0)
    if m0inv is None:
        return None
    npart = [[matrix[i][j] - Poly.const(n, m0[i][j]) for j in range(dim)]
             for i in range(dim)]

    def apply_const(mat: List[List[CRat]], vec: List[Poly]) -> List[Poly]:
        return [sum((vec[j] * mat[i][j] for j in range(dim)), Poly.zero(n))
                for i in range(dim)]

    def apply_poly(mat: List[List[Poly]], vec: List[Poly]) -> List[Poly]:
        return [_capped_products(n, zip(mat[i], vec), cap)
                for i in range(dim)]

    x = apply_const(m0inv, rhs)
    acc = list(x)
    for _ in range(cap + 2):
        x = [-f for f in apply_const(m0inv, apply_poly(npart, x))]
        if all(f.is_zero() for f in x):
            break
        acc = [a + b for a, b in zip(acc, x)]
    return acc


def slow_field_oracle(r: Poly, c1: CRat, p_hess: List[List[Poly]],
                      direction: Sequence[CRat], levi: List[VField],
                      prior: list, cap: int) -> Optional[VField]:
    """Reference for the fields of ``boundary._tangency_system``: the
    earlier build, one tangency system per direction, whose Levi rows and
    r_k rows are formed in full, with plain ``Poly`` products and no degree
    cap; only the correction of the field is truncated at ``cap``."""
    n = r.n
    base = [Poly.const(n, c) for c in direction]
    columns = [[lf.hol[k - 1] for k in range(2, n + 1)] for lf in levi]
    columns += [[Poly.const(n, c) for c in sl.direction] for sl in prior]

    def levi_row(vec: List[Poly], lf: VField) -> Poly:
        out = Poly.zero(n)
        for k in range(2, n + 1):
            for l in range(2, n + 1):
                out = out + p_hess[k - 2][l - 2] * vec[k - 2] \
                    * lf.hol[l - 1].conj()
        return out

    def slow_row(vec: List[Poly], r_k: Poly) -> Poly:
        return sum((vec[k - 2] * r_k.wirtinger(k) for k in range(2, n + 1)),
                   Poly.zero(n))

    rows = [lambda v, lf=lf: levi_row(v, lf) for lf in levi]
    rows += [lambda v, sl=sl: slow_row(v, sl.r_func) for sl in prior]
    if not rows:
        return _field_from_vector(r, c1, base)
    matrix = [[row(col) for col in columns] for row in rows]
    rhs = [-row(base) for row in rows]
    sol = neumann_solve_oracle(matrix, rhs, n, cap)
    if sol is None:
        return None
    vec = list(base)
    for coefficient, col in zip(sol, columns):
        for k in range(n - 1):
            vec[k] = vec[k] + _truncate(coefficient * col[k], cap)
    return _field_from_vector(r, c1, vec)


def lower_weight_at_oracle(mu: Weight, j: int, q: Poly) -> Optional[Weight]:
    """The earlier ``weights.lower_weight_at``: a scan of the candidate
    supporting values, largest first, each checked against every term."""
    entries = mu.entries
    if not 2 <= j <= mu.n:
        raise DimensionMismatch(f"slot {j} out of range")
    pres_tails = []
    candidates = set()
    for (a, b) in q.terms:
        e = tuple(x + y for x, y in zip(a, b))
        pre = sum((Fraction(e[i]) * entries[i] for i in range(j - 1)),
                  Fraction(0))
        tail = sum(e[j - 1:])
        pres_tails.append((pre, tail))
        if pre >= 1 or tail == 0:
            continue
        t = (1 - pre) / tail
        if t >= entries[j - 1] or t <= 0:
            continue
        if j > 2 and t > entries[j - 2]:
            continue
        candidates.add(t)
    for t in sorted(candidates, reverse=True):
        if all(pre + tail * t >= 1 or (pre >= 1)
               for pre, tail in pres_tails):
            return Weight(entries[:j - 1] + (t,) * (mu.n - j + 1))
    return None


def eliminate_harmonic_oracle(r: Poly) -> Tuple[Poly, Poly]:
    """The earlier ``poly.eliminate_harmonic``: r after the substitution
    z1 -> z1 + h, expanded by ``substitute_maps``."""
    c1, f = split_model(r)
    n = r.n
    zero = (0,) * n
    pure_holo = f.holomorphic_part()
    c0 = f.terms.get((zero, zero), CZERO)
    if pure_holo.is_zero() and c0.is_zero():
        return r, Poly.zero(n)
    h = (pure_holo + Poly.const(n, c0 * Fraction(1, 2))) * (CRat(-1) / c1)
    maps = [Poly.variable(n, j) for j in range(1, n + 1)]
    maps[0] = maps[0] + h
    return r.substitute_maps(maps), h


def step_first_oracle(p: Poly, mu: Weight, assert_psc: bool = False):
    """The earlier ``normal_form.step_first``, with its own block
    restriction, direction change, degree and parity checks and C_20 read.
    Returns (change, p2, k22, C20, warnings)."""
    entries = mu.entries
    n = p.n
    block = [j for j in range(2, mu.n + 1) if entries[j - 1] == entries[1]]
    p_block = p.restrict_support(block)
    if p_block.is_zero():
        raise _Degenerate(2, p)
    change, p_changed = _block_direction(p_block, block, entries, 2)
    p2 = p_changed.restrict_support([2])
    warnings: List[str] = []
    deg = p2.total_degree()
    expected = 1 / entries[1]
    if Fraction(deg) != expected:
        raise PolyError(f"restriction degree {deg} != 1/mu_2 = {expected}; "
                        "input is not weight-1 homogeneous")
    if deg % 2 != 0:
        raise PseudoconvexityError(
            f"one-variable restriction has odd degree {deg}; a nonzero "
            "plurisubharmonic restriction must have even degree")
    k22 = deg // 2
    alpha = _bal_monomial_alpha(n, (k22,))
    c20 = p2.coeff(alpha, alpha)
    if not c20.is_real():
        raise PolyError("balanced coefficient not real")
    if c20.re <= 0:
        raise PseudoconvexityError(
            f"balanced coefficient C_20 = {c20} of the restriction is not "
            "positive")
    bound = Fraction(k22) * c20.re
    for a, b, c in p2.iter_terms():
        if a == alpha and b == alpha:
            continue
        if c.abs2() >= bound * bound:
            msg = (f"coefficient bound |C| < k22*C20 violated at {(a, b)}")
            if assert_psc:
                raise PseudoconvexityError(msg)
            warnings.append(msg)
    return change, p2, k22, c20.re, warnings


def slot_witnesses_oracle(lams: Sequence[Entry]) -> List[Tuple[int, ...]]:
    """The earlier ``weights._slot_witnesses``: all (a_1..a_i) >= 0,
    a_i > 0, sum a_j/lambda_j = 1 (infinite slots take 0), by recursion."""
    i = len(lams)
    out: List[Tuple[int, ...]] = []

    def rec(idx: int, remaining: Fraction, acc: Tuple[int, ...]):
        if idx == i - 1:
            if remaining <= 0:
                return
            a = remaining * lams[idx] if lams[idx] != INF else None
            if a is not None and a == int(a) and int(a) >= 1:
                out.append(acc + (int(a),))
            return
        if lams[idx] == INF:
            rec(idx + 1, remaining, acc + (0,))
            return
        top = math.floor(remaining * lams[idx])
        for a in range(0, top + 1):
            rec(idx + 1, remaining - Fraction(a) / lams[idx], acc + (a,))

    rec(0, Fraction(1), ())
    return sorted(out)


def is_admissible_oracle(lam: InverseWeight
                         ) -> Tuple[bool, Dict[int, List[Tuple[int, ...]]]]:
    """The earlier ``weights.is_admissible``, over ``slot_witnesses_oracle``."""
    witnesses: Dict[int, List[Tuple[int, ...]]] = {}
    for i, lam_i in enumerate(lam.entries, start=1):
        if lam_i == INF:
            continue
        sols = slot_witnesses_oracle(lam.entries[:i])
        if not sols:
            return False, {i: []}
        witnesses[i] = sols
    return True, witnesses


def _grow_rows_oracle(rows: List[Tuple[Tuple[int, ...], Fraction]],
                     lam: Entry, most: Optional[int] = None
                     ) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """The earlier ``weights._grow_rows``: one slot over ``lam``, with each
    remainder a ``Fraction``."""
    step = recip(lam)  # 0 for an infinite lambda
    grown = []
    for row, rem in rows:
        top = 0 if step == 0 else math.ceil(rem / step) - 1
        if most is not None:
            top = min(top, most - sum(row))
        grown += [(row + (a,), rem - a * step) for a in range(top + 1)]
    return grown


def admissible_rows_oracle(lams: Sequence[Entry], most: Optional[int] = None
                           ) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """The earlier ``weights.admissible_rows``: each row paired with its
    remainder 1 - sum a_j/lambda_j as a ``Fraction``."""
    rows = [((), Fraction(1))]
    for lam in lams:
        rows = _grow_rows_oracle(rows, lam, most)
    return rows


def is_admissible_rows_oracle(
        lam: InverseWeight) -> Tuple[bool, Dict[int, List[Tuple[int, ...]]]]:
    """The earlier ``weights.is_admissible``: a row witnesses slot i when
    its ``Fraction`` remainder times lambda_i is an integer."""
    witnesses: Dict[int, List[Tuple[int, ...]]] = {}
    rows = admissible_rows_oracle(())
    for i, lam_i in enumerate(lam.entries, start=1):
        if lam_i != INF:
            sols = [row + (a.numerator,) for row, rem in rows
                    if (a := rem * lam_i).denominator == 1]
            if not sols:
                return False, {i: []}
            witnesses[i] = sols
        if i < lam.n:
            rows = _grow_rows_oracle(rows, lam_i)
    return True, witnesses


def ranked_oracle(slow, slot: int, first: int, last: int,
                  floor: Optional[Entry] = None
                  ) -> List[Tuple[Fraction, int, List[int]]]:
    """The earlier ``boundary._ranked``, as a list: the rows of
    ``admissible_rows_oracle``, each value scaled to an integer over the
    lcm of the remainders' numerators, merged by (value, fields, row)."""
    if floor == INF:
        return []
    earlier = [k for k in sorted(slow) if k < slot]
    rows = admissible_rows_oracle([slow[k].c for k in earlier], last - 1)
    common = math.lcm(*(rem.numerator for _row, rem in rows))

    def run(position, row, rem):
        used, scale = sum(row), rem.denominator * (common // rem.numerator)
        tail = [k for k, a in zip(reversed(earlier), reversed(row))
                for _ in range(a)]
        least = 1 if floor is None else math.ceil(floor * rem)
        for fields in range(max(first, used + least), last + 1):
            yield (fields - used) * scale, fields, position, rem, tail

    out = []
    for _key, fields, _pos, rem, tail in heapq.merge(
            *(run(i, row, rem) for i, (row, rem) in enumerate(rows))):
        count = fields - len(tail)
        out.append((Fraction(count * rem.denominator, rem.numerator), fields,
                    [slot] * count + tail))
    return out


def compositions_oracle(total: int, slots: List[int],
                        c_prev: Dict[int, Fraction]) -> List[Dict[int, int]]:
    """The earlier ``boundary._compositions``: count vectors l_k >= 0
    (l_last >= 1) over ``slots`` summing to total with the admissibility
    constraint sum_{k < last} l_k / c_k < 1, by recursion."""
    last = slots[-1]
    earlier = slots[:-1]
    out = []

    def rec(idx: int, left: int, acc: Dict[int, int], frac: Fraction):
        if idx == len(earlier):
            if left >= 1:
                out.append({**acc, last: left})
            return
        k = earlier[idx]
        for lk in range(0, left + 1):
            nf = frac + Fraction(lk) / c_prev[k]
            if nf >= 1:
                break
            rec(idx + 1, left - lk, {**acc, k: lk}, nf)

    rec(0, total, {}, Fraction(0))
    return out


def enumerate_multitypes_oracle(n: int, m) -> List[InverseWeight]:
    """The earlier ``weights.enumerate_multitypes``, by nested recursion
    over prefixes and rows, without the enumeration limits."""
    if n < 2:
        raise PolyError("enumerate_multitypes needs n >= 2")
    m = Fraction(m)
    results = set()

    def extend(prefix: Tuple[Fraction, ...]):
        j = len(prefix) + 2  # next slot
        if j > n:
            results.add((Fraction(1),) + prefix)
            return
        seen = set()

        def rows(idx: int, remaining: Fraction):
            if idx == len(prefix):
                if remaining <= 0:
                    return
                # 2 k_jj / m_j = remaining, m_j in [prefix[-1], m]
                kmax = math.floor(m * remaining / 2)
                for kjj in range(1, kmax + 1):
                    mj = 2 * kjj / remaining
                    if mj >= prefix[-1] and mj <= m and mj not in seen:
                        seen.add(mj)
                        extend(prefix + (mj,))
                return
            ml = prefix[idx]
            top = math.floor(remaining * ml / 2)
            for k in range(0, top + 1):
                rows(idx + 1, remaining - Fraction(2 * k) / ml)

        rows(0, Fraction(1))

    top2 = math.floor(m)
    for m2 in range(2, top2 + 1, 2):
        if n == 2:
            results.add((Fraction(1), Fraction(m2)))
        else:
            extend((Fraction(m2),))
    return [InverseWeight(t) for t in sorted(results)]
