"""Weights, inverse weights, admissibility, and multitype computation.

A weight mu = (1, mu_2, ..., mu_n) grades monomials by (alpha+beta | mu); the
inverse weight Lambda holds the reciprocals with the conventions 0^-1 = +inf
and inf^-1 = 0.  Infinite entries are represented by ``math.inf``, which
compares correctly against ``Fraction`` values, so tuples of entries order
lexicographically out of the box.

The multitype of a polynomial model is approximated by a bounded search: the
lexicographically largest admissible inverse weight making the model
distinguished, over every order of z_2..z_n, is computed exactly from the
supporting values of the Newton diagram by one walk that also chooses the
order; a finite catalog of holomorphic coordinate changes (the shears
z_i -> z_i +- z_j^k with k at most D_j, the largest exponent of z_j in the
model, the k = 1 shears being its linear changes) is then hill-climbed,
each improving shear followed by its weight's order as one permutation.
The result is flagged ``search-lower-bound`` unless it carries the
commutator multitype of a certified model: ``exact-commutator`` when the
two agree, and ``commutator-disagrees`` when they do not, which under
C = M means the catalog missed the multitype's coordinates or a fault
(``Multitype.status``).  The search returns the names of the changes it
applied and the model part in the coordinates they reach; its witness (the
admissibility rows and the coordinates polynomial's JSON) is formed only
when it is read, so the callers that read only the weight form none of it.

The hill-climb only asks whether a candidate beats the incumbent weight, so
each candidate's weight search is pruned against the incumbent and stops as
soon as it cannot beat it; a candidate that cannot, a support weighed in an
earlier round or one containing the incumbent's included, costs one pruned
walk.  A candidate's weight depends only on its support (the exponent
vectors of its terms).  The catalog is data (shears (i, j, k, c)), and a
candidate's support is computed from the entry without forming its
polynomial: a shear expands each term by the binomial theorem with integer
coefficients over p's common denominator, so a term leaves the support
exactly when it cancels.  A larger support weighs no more, so a shear under
which no term cancels is not even expanded: whether a key cancels is read
off the coefficients of the keys the shear can send onto it
(``_cancels_nothing``), an exact test.  Only the winning shear and its
order are rendered as variable maps and applied by
``Poly.substitute_maps``.  A shear of degree k > D_j cancels no term, so
the catalog reaches no further: its size is linear in the D_j, each capped
at ``MAX_DEGREE_BOUND``, and quadratic in the dimension.  The dimension is
limited to ``MAX_SEARCH_DIMENSION`` by the weight walk
(``best_distinguished_weight``), which the search and the boundary build's
floor both run and whose own cost grows fastest, past dimension 12, on
models whose variables tie, such as the quartic sum.

Rows, witnesses and descent are integers over ``poly._integer_weight``.
Admissible rows (a_j >= 0, sum a_j/lambda_j < 1) are enumerated only by
``admissible_rows``, each remainder a positive integer over the weights'
common denominator, one slot per ``_grow_rows`` step; ``is_admissible``
takes those steps itself, and a row witnesses slot i when w_i divides its
remainder.  The weight search keeps its own integer scheme, as it picks its
lambdas as it walks: its denominator, the lcm of those of the weights
1/lambda chosen so far, grows slot by slot, and its slot bounds are integer
pairs compared by cross-multiplication (``_slot_bound``, whose reciprocal
is also descent's supporting value).  It needs no rows: a slot's bound
t/(1 - P) is admissible through the row of the vector setting it
(``_best_distinguished``).  The boundary audit's admissibility and
property-(5) sums and ``verify_normal_form``'s homogeneity sums stay in
``Fraction``: they are the checks, and they print their values.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add
from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .exact import rat_str
from .poly import (DimensionMismatch, Poly, PolyError, _integer_weight,
                   eliminate_harmonic)

INF = math.inf
Entry = Union[Fraction, float]  # float only ever +inf

# The largest degree k of a catalog shear z_i -> z_i +- z_j^k, whatever the
# exponent D_j of z_j in the model: the catalog grows linearly with the
# degrees it reaches, and past this a search would run for seconds to minutes.
MAX_DEGREE_BOUND = 64
# Rounds of the multitype hill-climb; each improving round applies one shear
# and its order.
MAX_ROUNDS = 40
# The catalog holds 2 min(D_j, MAX_DEGREE_BOUND) shears z_i -> z_i +- z_j^k
# per ordered pair (i, j), D_j the largest exponent of z_j in the model, each
# weighed over every order in one walk.  The limit is checked in that walk,
# ``best_distinguished_weight``, which the search and the boundary build's
# floor both run.  Each slot takes its bound, so the walk's cost does not
# grow with the exponents; it grows with ties, since the repeat strictly
# above a tuple tries every allowed variable at each slot that ties.  The
# walk alone, in-process, three runs each, on the quartic sum
# |z2|^4 + ... + |zn|^4, the diagonal |z2|^4 + |z3|^6 + ... + |zn|^(2n) and
# the reversed diagonal:
#
#     n    quartic          diagonal          reversed
#     9    0.002 s          0.0003-0.0004 s   0.0003 s
#    12    0.013 s          0.0006-0.0009 s   0.0006-0.0007 s
#    16    0.16-0.23 s      0.0012-0.0013 s   0.0012-0.0015 s
#    20    2.8-3.3 s        0.0022-0.0026 s   0.0015-0.0017 s
#
# and the whole search 0.02 s on the n = 12 diagonal, 0.06-0.07 s on the
# n = 16 diagonal, 0.16-0.19 s on the n = 16 quartic sum and 2.9-3.2 s on
# the n = 20 quartic sum.  Up to dimension 12 the commutator build that
# ``catlin multitype`` runs sets the cost: on the diagonal ``catlin
# multitype --json`` takes 0.8 s in dimension 9, 1.9-2.4 s in dimension 10
# and 7.8-8.7 s in dimension 11 (in-process, two runs each).  Past
# dimension 12 the walk itself does on the quartic sums, so without a limit
# ``catlin normalize --n 20`` would run for seconds.  (Python 3.11, shared
# 2-core Xeon.)
MAX_SEARCH_DIMENSION = 9
# Limits of ``enumerate_multitypes``: the dimension keeps the counting bound
# printable, the type keeps dimension 2 small, and the budget charges a prefix
# its row entries once and once per candidate (what re-checking them reads).
MAX_ENUMERATE_DIMENSION = 12
MAX_ENUMERATE_TYPE = 1000
MAX_ENUMERATE_WORK = 1_000_000

STATUS_EXACT = "exact-commutator"
STATUS_LOWER_BOUND = "search-lower-bound"
STATUS_DISAGREES = "commutator-disagrees"


def entry_str(x: Entry) -> str:
    return "inf" if x == INF else rat_str(x)


def recip(x: Entry) -> Entry:
    """Reciprocal with 0 <-> +inf."""
    if x == INF:
        return Fraction(0)
    x = Fraction(x)
    if x == 0:
        return INF
    return 1 / x


@dataclass(frozen=True, order=True)
class Weight:
    """mu = (1, mu_2, ..., mu_n) with 1 > mu_2 >= ... >= mu_n >= 0."""

    entries: Tuple[Fraction, ...]

    def __init__(self, entries: Sequence[Fraction]):
        es = tuple(Fraction(e) for e in entries)
        if not es or es[0] != 1:
            raise PolyError("weight must start with mu_1 = 1")
        if len(es) >= 2 and es[1] >= 1:
            raise PolyError("weight requires mu_1 > mu_2")
        for a, b in zip(es[1:], es[2:]):
            if b > a:
                raise PolyError("weight entries must be nonincreasing")
        if es[-1] < 0:
            raise PolyError("weight entries must be nonnegative")
        object.__setattr__(self, "entries", es)

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {"mu": [entry_str(e) for e in self.entries]}

    def __str__(self) -> str:
        return "(" + ", ".join(entry_str(e) for e in self.entries) + ")"


@dataclass(frozen=True, order=True)
class InverseWeight:
    """Lambda = (1, lambda_2, ..., lambda_n), nondecreasing, entries in Q>0 or +inf."""

    entries: Tuple[Entry, ...]

    def __init__(self, entries: Sequence[Entry]):
        es = tuple(e if e == INF else Fraction(e) for e in entries)
        if not es or es[0] != 1:
            raise PolyError("inverse weight must start with lambda_1 = 1")
        # nondecreasing from lambda_1 = 1 makes every entry positive
        for a, b in zip(es, es[1:]):
            if b < a:
                raise PolyError("inverse weight entries must be nondecreasing")
        object.__setattr__(self, "entries", es)

    @property
    def n(self) -> int:
        return len(self.entries)

    def weight(self) -> Weight:
        return Weight(tuple(recip(e) for e in self.entries))

    def to_json(self) -> dict:
        return {"lambda": [entry_str(e) for e in self.entries]}

    def __str__(self) -> str:
        return "(" + ", ".join(entry_str(e) for e in self.entries) + ")"


@dataclass
class Multitype:
    """The search's weight, the catalog changes it applied (``changes``,
    their witness names) and the model part in the coordinates they reach
    (``coordinates``), and the commutator multitype of a build whose Levi
    part is certified (tier 1 or 2, in the input coordinates or after the
    triangular shears ``levi.sheared_certificate`` reads off it, the build's
    gate), where C = M (Catlin, Ann. Math. 120, 1984): only there does
    agreement make it the multitype, and disagreement means the catalog
    missed the multitype's coordinates or a fault (``status``).

    The ``witness`` is formed when it is read: the admissibility rows of the
    weight and the coordinates polynomial's JSON, which only ``catlin
    multitype`` prints, so a caller that reads only ``value`` forms neither.
    """
    value: InverseWeight
    changes: List[str]
    coordinates: Poly
    commutator: Optional[InverseWeight] = None

    @property
    def status(self) -> str:
        if self.commutator is None:
            return STATUS_LOWER_BOUND
        return STATUS_EXACT if self.commutator == self.value \
            else STATUS_DISAGREES

    @property
    def witness(self) -> dict:
        wit = is_admissible(self.value)[1]  # admissible by construction
        return {"changes": list(self.changes),
                "admissibility": {str(i): [list(a) for a in rows]
                                  for i, rows in wit.items()},
                "coordinates_polynomial": self.coordinates.to_json_dict()}

    def to_json(self) -> dict:
        out = self.value.to_json()
        out["status"] = self.status
        out["witness"] = self.witness
        if self.status == STATUS_EXACT:
            out["witness"]["commutator"] = self.commutator.to_json()["lambda"]
        return out


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------


def _grow_rows(rows: List[Tuple[Tuple[int, ...], int]], w: int,
               most: Optional[int] = None
               ) -> List[Tuple[Tuple[int, ...], int]]:
    """``admissible_rows`` one slot on, of integer weight ``w`` (0 for INF)."""
    grown = []
    for row, rem in rows:
        top = 0 if w == 0 else (rem - 1) // w
        if most is not None:
            top = min(top, most - sum(row))
        grown += [(row + (a,), rem - a * w) for a in range(top + 1)]
    return grown


def admissible_rows(lams: Sequence[Entry], most: Optional[int] = None
                    ) -> Tuple[List[Tuple[Tuple[int, ...], int]], int]:
    """(rows, den): each row (a_1..a_k) of nonnegative integers over
    ``lams`` of positive remainder 1 - sum a_j/lambda_j, in lexicographic
    order, with that remainder times den, the weights' common denominator
    (an infinite lambda weighs 0: a_j = 0); with ``most``, the rows of sum
    at most ``most``."""
    w, den = _integer_weight([recip(lam) for lam in lams])
    rows = [((), den)]
    for w_j in w:
        rows = _grow_rows(rows, w_j, most)
    return rows, den


def is_admissible(lam: InverseWeight) -> Tuple[bool, Dict[int, List[Tuple[int, ...]]]]:
    """Check admissibility; on success the dict maps each finite slot i (1-based)
    to all integer witness tuples (a_1..a_i) with a_i > 0 and sum a_j/lambda_j = 1.

    On failure the dict maps the first failing slot to an empty list.  The
    rows over the slots before i are grown one slot at a time, in one pass;
    one witnesses slot i when w_i divides its remainder (a_i = rem // w_i)."""
    witnesses: Dict[int, List[Tuple[int, ...]]] = {}
    w, den = _integer_weight([recip(x) for x in lam.entries])
    rows = [((), den)]
    for i, (lam_i, w_i) in enumerate(zip(lam.entries, w), start=1):
        if lam_i != INF:
            sols = [row + (rem // w_i,) for row, rem in rows if rem % w_i == 0]
            if not sols:
                return False, {i: []}
            witnesses[i] = sols
        if i < lam.n:
            rows = _grow_rows(rows, w_i)
    return True, witnesses


# ----------------------------------------------------------------------
# distinguished weights in fixed coordinates
# ----------------------------------------------------------------------


def _evecs(p: Poly) -> frozenset:
    """Exponent vectors alpha+beta of p's terms over variables 2..n: the
    support, on which alone p's distinguished weights depend."""
    return frozenset(tuple(map(add, a[1:], b[1:])) for (a, b) in p.terms)


# sort key: (num, den) pairs with den > 0 by value, exactly
_BY_VALUE = functools.cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])


def _slot_bound(live: List[Tuple[int, int, tuple]], big_l: int
                ) -> Optional[Tuple[int, int]]:
    """The bound (num, den) on the next slot over the ``live`` vectors, with
    den = 0 for INF (none live); None when a live vector has no unplaced
    variable left (tail 0), so no weight lifts it to 1."""
    bn, bd = 1, 0
    for pre, tail, _e in live:
        if tail == 0:
            return None
        if tail * bd < bn * (big_l - pre):
            bn, bd = tail, big_l - pre
    return bn * big_l, bd


def _best_distinguished(evecs: Iterable[Tuple[int, ...]], nvars: int,
                        above: Optional[Tuple[Entry, ...]] = None
                        ) -> Optional[Tuple[Tuple[Entry, ...],
                                            Tuple[int, ...]]]:
    """Lex-max admissible nondecreasing (lambda_2..lambda_n) with every
    exponent vector weighted >= 1, over every order of the variables, and
    the order that reaches it: order[s] is the position (0-based) of the
    variable put in slot s.  None when infeasible, and also when ``above``
    is given and the lex-max is not strictly above it.

    Slots are filled depth first, and each slot also chooses which
    unplaced variable fills it.  Each level carries what the next slot
    needs: ``live`` holds each exponent vector still weighted below 1 with
    its weighted order over the prefix and its tail, the sum of its
    exponents of the unplaced variables.  A live vector bounds the slot by
    its tail over 1 minus its weighted order, which reads no choice of the
    next variable: so the bound belongs to the slot, and only the choice
    of variable moves the next slot's bound.  Within a run of equal lambdas
    the variables are placed in ascending order: swapping two of them
    changes no weighted order, so sorting a run keeps every tuple and gives
    an order no later in ``itertools.permutations`` order.  Among the
    variables allowed, the one leaving the next slot the largest bound is
    tried first.

    Each slot takes its bound B and no other lambda.  The lemma: B is
    admissible, since the vector setting it has tail t and weighted order
    P, its exponents over the prefix are a row of remainder 1 - P, and
    B = t/(1 - P); no lambda above B lifts that vector to weight 1; and B
    completes: with B at every slot left each live vector weighs at least
    P + t/B >= 1, and once a variable v is placed at B, a live vector whose
    whole tail it takes weighs P + t/B >= 1 and leaves ``live``, so none is
    left with tail 0, and each bounds the next slot by
    (t - e_v)/(1 - P - e_v/B) >= B.  So every unplaced variable leaves the
    next slot a bound, and the bounds never decrease.

    Nothing is lost by trying no lambda below B.  Outside ``tight``, a walk
    through B always completes, because the smallest unplaced variable is
    always an allowed kid: it is at the root, and where a walk leaves
    ``tight`` below a slot whose B is above ``above``'s entry, hence above
    the lambda before it (``above`` is nondecreasing); if the first kid
    leaves a bound above B the next slot allows every variable, and if it
    leaves B every kid does, so the first kid is the smallest variable and
    the next slot allows every variable left, all larger.  Under ``tight``
    (the prefix equals ``above``'s), a bound below ``above``'s entry ends
    the walk, a bound above it leaves its kids outside ``tight``, where
    they complete, and a bound equal to it leaves below B only lambdas
    below ``above``'s entry, whose tuples are all below ``above``.  So a
    walk that also tried the admissible lambdas below B, largest first,
    would return a tuple through B or none, and this walk forms no
    admissibility remainder at all.  Without ``above`` it returns a tuple
    whenever no exponent vector is zero, since only a zero vector leaves
    the root no bound.

    The first complete tuple is not the lex-max over all orders, so the walk
    is repeated strictly above each tuple it finds until none is left.  The
    last tuple found is the lex-max M, and its order is the first in
    ``itertools.permutations`` order that reaches M (the tie rule), because
    for each order the largest tuple takes at every slot the bound B that
    the slots before it leave.  So where two orders reaching M first part,
    both leave the bound M's next entry; the smaller variable, tried first
    among equal bounds, leads to a tuple above the walk's ``above``, and the
    walk returns there.  The first order reaching M is ascending within each
    run of equal lambdas, as the walk requires.

    Invariant: all state is integer over one common denominator L, the lcm
    of the numerators of the lambdas chosen so far (the denominators of the
    weights 1/lambda).  A weighted order is an int P for P/L < 1.  A live
    vector with tail t bounds the slot by t/(1 - P/L), the pair
    (t*L, L - P); pairs compare by cross-multiplication, and the slot's
    lambda is its bound reduced by one gcd to (num, den).  Choosing it moves
    to L' = lcm(L, num), rescales each P by L'/L and adds e[v]*den*L'/num to
    each P for the variable v placed.  ``above`` becomes (num, den) pairs
    once, INF staying INF; a Fraction is built only for the entries of the
    returned tuple."""
    live = [(0, sum(e), e) for e in evecs]
    root = _slot_bound(live, 1)

    def walk(above):
        # the first complete tuple strictly above ``above``, with its order
        def rec(prefix, order, big_l, live, bound, tight):
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
            g = math.gcd(bn, bd)
            lam = num, den = bn // g, bd // g  # the slot's bound B
            sub_l = big_l * num // math.gcd(big_l, num)
            scale = sub_l // big_l
            step = den * (sub_l // num)  # 1/lambda over sub_l
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
                sub_bound = _slot_bound(sub_live, sub_l)
                if sub_bound is not None:
                    kids.append((sub_bound, v, sub_live))
            # stable: ascending among equal bounds
            kids.sort(key=lambda kid: _BY_VALUE(kid[0]), reverse=True)
            for sub_bound, v, sub_live in kids:
                res = rec(prefix + (lam,), order + (v,), sub_l, sub_live,
                          sub_bound, tight and lam == target)
                if res is not None:
                    return res
            return None

        return rec((), (), 1, live, root, above is not None)

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


def best_distinguished_weight(support: Iterable[Tuple[int, ...]], n: int,
                              above: Optional[InverseWeight] = None
                              ) -> Optional[Tuple[InverseWeight,
                                                  Tuple[int, ...]]]:
    """Lex-max admissible distinguished inverse weight in dimension n of a
    model part (variables 2..n) with the given support, its ``_evecs``,
    over every order of z_2..z_n, with the first order reaching it in
    ``itertools.permutations`` order: order[s - 2] is the variable that
    slot s takes.

    With ``above``, the result is None unless the lex-max is strictly above
    it; the search then stops as soon as it cannot beat ``above``.  A
    dimension above ``MAX_SEARCH_DIMENSION`` is refused here, as this walk
    is what that limit bounds."""
    if n > MAX_SEARCH_DIMENSION:
        raise PolyError(f"dimension {n} is above {MAX_SEARCH_DIMENSION}, "
                        "the largest for which the coordinate catalog is "
                        "searched")
    if above is not None and above.n != n:
        raise DimensionMismatch("inverse weight length != dimension")
    found = _best_distinguished(
        support, n - 1, None if above is None else above.entries[1:])
    if found is None:
        return None
    tail, order = found
    return (InverseWeight((Fraction(1),) + tail),
            tuple(v + 2 for v in order))


# ----------------------------------------------------------------------
# multitype search over a bounded coordinate catalog
# ----------------------------------------------------------------------


class _Shear(NamedTuple):
    """The catalog change z_i -> z_i + c*z_j^k, with c = 1 or -1."""

    i: int
    j: int
    k: int
    c: int


# a term over z_2..z_n: (alpha, beta, x, y), its coefficient (x + y*i)/D
_IntTerm = Tuple[Tuple[int, ...], Tuple[int, ...], int, int]


def _catalog(n: int, degree_bound: int) -> List[_Shear]:
    """Candidate holomorphic changes of z_2..z_n as data, in search order:
    the shears z_i -> z_i +- z_j^k (i != j) with 1 <= k <= degree_bound;
    the k = 1 shears are the catalog's linear changes.  No permutation is
    an entry: every candidate is weighed over every order of z_2..z_n.  The
    search reads the shears of degree at most D_j off the catalog of the
    largest D_j."""
    return [_Shear(i, j, k, c)
            for i, j in itertools.permutations(range(2, n + 1), 2)
            for k in range(1, degree_bound + 1) for c in (1, -1)]


def _render(n: int, shear: _Shear) -> Tuple[str, List[Poly]]:
    """A shear's witness name and its variable maps z_1..z_n."""
    zs = [Poly.variable(n, v) for v in range(1, n + 1)]
    i, j, k, c = shear
    power = tuple(k if v == j else 0 for v in range(1, n + 1))
    zs[i - 1] = zs[i - 1] + Poly.monomial(n, power, (0,) * n, c)
    return f"shear z{i} += {c}*z{j}^{k}", zs


def _reorder(p: Poly, order: Tuple[int, ...], applied: List[str]) -> Poly:
    """p with slot s taking the variable order[s - 2], by the change
    z_v -> z_s named perm(...) in ``applied``; p itself for the identity."""
    if order == tuple(sorted(order)):
        return p
    perm = tuple(order.index(v) + 2 for v in sorted(order))
    applied.append(f"perm{perm}")
    return p.substitute_maps([Poly.variable(p.n, s) for s in (1,) + perm])


def _integer_terms(p: Poly) -> List[_IntTerm]:
    """p's terms over z_2..z_n as (alpha, beta, x, y): the coefficient is
    (x + y*i)/D for one common denominator D of p, which is left out."""
    parts = [(a[1:], b[1:], c.re, c.im) for (a, b), c in p.terms.items()]
    den = math.lcm(*(x.denominator for _a, _b, re, im in parts
                     for x in (re, im)))
    return [(a, b, int(re * den), int(im * den)) for a, b, re, im in parts]


def _support_after(shear: _Shear, terms: List[_IntTerm]) -> frozenset:
    """``_evecs`` of p after a shear, from p's ``_integer_terms``, without
    forming the changed polynomial.

    The shear z_i -> z_i + c*z_j^k expands a term w z^a zbar^b (c real, so
    zbar_i -> zbar_i + c*zbar_j^k) by the binomial theorem into the terms
    C(a_i, s) C(b_i, t) c^(s+t) w z^(a - s e_i + ks e_j) zbar^(b - t e_i +
    kt e_j); their coefficients are summed per key as integers over p's
    common denominator, so a key leaves the support exactly when it
    cancels."""
    i, j, k, c = shear
    i, j = i - 2, j - 2  # positions among z_2..z_n
    out = {(a, b): (x, y) for a, b, x, y in terms if not (a[i] or b[i])}
    for a, b, x, y in terms:
        if not (a[i] or b[i]):
            continue
        rows = []
        for base in (a, b):
            row = []
            for s in range(base[i] + 1):
                moved = list(base)
                moved[i] -= s
                moved[j] += k * s
                row.append((math.comb(base[i], s) * c ** s, tuple(moved)))
            rows.append(row)
        for ma, a2 in rows[0]:
            for mb, b2 in rows[1]:
                m = ma * mb
                acc = out.get((a2, b2))
                out[a2, b2] = (x * m, y * m) if acc is None else (
                    acc[0] + x * m, acc[1] + y * m)
    return frozenset(tuple(map(add, a, b))
                     for (a, b), acc in out.items() if acc != (0, 0))


def _cancels_nothing(shear: _Shear, terms: List[_IntTerm]) -> bool:
    """Whether the shear z_i -> z_i + c*z_j^k keeps every term of p (given
    as its ``_integer_terms``), so the changed support contains p's.

    Let phi set a_i to 0 and a_j to a_j + k*a_i.  Every term of the binomial
    expansion of z^a zbar^b has the same (phi(a), phi(b)) as the term
    itself, and the expansion of a key K = (a, b) reaches a key K' = (a', b')
    of its class exactly when a_i >= a'_i and b_i >= b'_i, with the factor
    C(a_i, a'_i) C(b_i, b'_i) c^(a_i - a'_i + b_i - b'_i).  So K' keeps the
    sum of those factors times the coefficients of the keys K of p that
    reach it, K' itself (factor 1) included, and it cancels exactly when
    that sum is 0; a key alone in its class never cancels.  The sums are
    integers over p's common denominator, so the test is exact: True
    exactly when no key of p cancels."""
    i, j, k, c = shear
    i, j = i - 2, j - 2  # positions among z_2..z_n
    classes: Dict[tuple, List[_IntTerm]] = {}
    for term in terms:
        a, b = list(term[0]), list(term[1])
        a[j] += k * a[i]
        b[j] += k * b[i]
        a[i] = b[i] = 0
        classes.setdefault((tuple(a), tuple(b)), []).append(term)
    for members in classes.values():
        if len(members) == 1:
            continue
        for a2, b2, _x, _y in members:
            sx = sy = 0
            for a, b, x, y in members:
                s, t = a[i] - a2[i], b[i] - b2[i]
                if s >= 0 and t >= 0:
                    m = math.comb(a[i], s) * math.comb(b[i], t) * c ** (s + t)
                    sx += x * m
                    sy += y * m
            if not (sx or sy):
                return False
    return True


def multitype_search(r: Poly) -> Multitype:
    """Bounded search for the multitype of the model r = c*Re(z1) + p.

    Returns the lexicographic supremum of admissible distinguished weights
    found over the coordinate catalog and every order of z_2..z_n, flagged
    search-lower-bound, with the names of the changes applied and p in the
    coordinates they reach; the witness (those names, the admissibility
    rows and that polynomial's JSON) is formed when it is read
    (``Multitype.witness``).  Each candidate, the input and each shear of
    the catalog, is weighed from its support alone (``_support_after``)
    over every order at once (``best_distinguished_weight``); only an
    improving shear is applied to p, by ``substitute_maps``, followed by
    its order as one perm(...) change, so a round applies one shear and its
    order, and the input's order comes first.

    More exponent vectors leave fewer feasible weights, so a support that
    only grows weighs no more.  A shear z_i -> z_i + c*z_j^k keeps each
    term's expansion inside the term's class under phi (a_i set to 0, a_j
    to a_j + k*a_i), where a key K' receives C(a_i, a'_i) C(b_i, b'_i)
    c^(a_i - a'_i + b_i - b'_i) times the coefficient of each key K of its
    class with a_i >= a'_i and b_i >= b'_i, itself included; when none of
    these sums is 0 no term cancels, the support only grows, and the shear
    is skipped before it is expanded (``_cancels_nothing``).  Every other
    candidate is weighed against the incumbent by one walk that stops as
    soon as it cannot beat it.

    So the catalog of a round needs no shear of degree k above D_j, the
    largest exponent of z_j (or zbar_j) in that round's p: a key K' of p
    that cancels receives from some other key K of p with s = a_i - a'_i or
    t = b_i - b'_i positive, and then a'_j = a_j + k*s >= k or
    b'_j = b_j + k*t >= k.  A round weighs the shears with
    k <= min(D_j, ``MAX_DEGREE_BOUND``), in catalog order (ordered pairs
    (i, j), then k, then c); the degrees are read off the model, not set by
    the caller.
    """
    if r.n < 2:
        raise DimensionMismatch("multitype needs dimension >= 2")
    r0, _h = eliminate_harmonic(r)  # checks reality and the model shape
    p = r0.restrict_support(range(2, r.n + 1))
    # never None: p has no z1 and, after eliminate_harmonic, no constant,
    # so no exponent vector is zero, and without ``above`` the walk then
    # always completes
    best, order = best_distinguished_weight(_evecs(p), r.n)
    applied: List[str] = []
    p = _reorder(p, order, applied)
    for _ in range(MAX_ROUNDS):
        terms = _integer_terms(p)
        reach = [min(max(col), MAX_DEGREE_BOUND) for col in
                 zip(*(map(max, a, b) for a, b, _x, _y in terms))]
        for shear in _catalog(r.n, max(reach, default=0)):
            if shear.k > reach[shear.j - 2] or _cancels_nothing(shear, terms):
                continue
            found = best_distinguished_weight(_support_after(shear, terms),
                                              r.n, above=best)
            if found is not None:
                name, maps = _render(r.n, shear)
                applied.append(name)
                best, order = found
                p = _reorder(p.substitute_maps(maps), order, applied)
                break
        else:
            break
    return Multitype(best, applied, p)


# ----------------------------------------------------------------------
# counting and enumeration of multitypes
# ----------------------------------------------------------------------


def counting_bound(n: int, m) -> int:
    """Upper bound (floor(m/2)+1)^((n-2)(n-1)/2) * floor(m/2)^(n-1) on the
    number of multitypes of finite-type-m pseudoconvex models in dimension n."""
    if n < 2:
        raise PolyError("counting bound needs n >= 2")
    m = Fraction(m)
    if m < 2:
        raise PolyError("counting bound needs type m >= 2")
    half = math.floor(m / 2)
    return (half + 1) ** (((n - 2) * (n - 1)) // 2) * half ** (n - 1)


def enumerate_multitypes(n: int, m) -> List[InverseWeight]:
    """All inverse weights (1, m_2..m_n) realizable by balanced exponent rows:
    m_2 even, 2 <= m_2 <= ... <= m_n <= m, and for each j some integer row
    k_{j2}..k_{jj} >= 0 with k_{jj} >= 1 and sum_l 2 k_{jl} / m_l = 1.

    A prefix's rows over the m_l/2 offer m_j = 2k/rem, kept in [m_{j-1}, m],
    once the prefix is charged to ``MAX_ENUMERATE_WORK``."""
    if not 2 <= n <= MAX_ENUMERATE_DIMENSION:
        raise PolyError(f"dimension {n} is outside "
                        f"2..{MAX_ENUMERATE_DIMENSION}")
    m = Fraction(m)
    if not 2 <= m <= MAX_ENUMERATE_TYPE:
        raise PolyError(f"type bound {rat_str(m)} is outside "
                        f"2..{MAX_ENUMERATE_TYPE}")
    work = MAX_ENUMERATE_WORK
    prefixes: List[Tuple[Fraction, ...]] = [(Fraction(1),)]
    for _ in range(2, n + 1):
        grown = []
        for prefix in prefixes:
            rows, den = admissible_rows([x / 2 for x in prefix[1:]])
            tops = [math.floor(m * rem / (2 * den)) for _row, rem in rows]
            work -= len(prefix) * len(rows) * (1 + sum(tops))
            if work < 0:
                raise PolyError(f"dimension {n} and type {rat_str(m)} need "
                                f"more than {MAX_ENUMERATE_WORK} row entries")
            slot = {Fraction(2 * k * den, rem) for (_row, rem), top in
                    zip(rows, tops) for k in range(1, top + 1)}
            grown += [prefix + (x,) for x in sorted(slot) if x >= prefix[-1]]
        prefixes = grown
    return [InverseWeight(t) for t in prefixes]


# ----------------------------------------------------------------------
# weight descent for the normal-form pipeline
# ----------------------------------------------------------------------


def lower_weight_at(mu: Weight, j: int, q: Poly) -> Optional[Weight]:
    """Largest weight lexicographically below mu obtained by dropping mu_j
    (and every later slot) to a supporting value of q's Newton diagram.

    Write a term's weight under (mu_1..mu_{j-1}, t, ..., t) as pre + tail*t,
    pre from the slots before j and tail its total degree from slot j on.
    The weight keeps every term at weight >= 1 exactly when t >= T, the
    largest (1 - pre)/tail over the terms with pre < 1, and its value T is
    the one that puts such a term at weight exactly 1: the reciprocal of
    the bound ``_slot_bound`` puts on a slot of the weight walk, with pre
    over ``_integer_weight``'s denominator.  So the answer drops slot j on
    to T; it is None when a term with pre < 1 has tail 0 (no t lifts it),
    when no term has pre < 1, or when T >= mu_j (no descent).
    T < mu_j <= mu_{j-1} keeps the result nonincreasing."""
    entries = mu.entries
    if not 2 <= j <= mu.n:
        raise DimensionMismatch(f"slot {j} out of range")
    w, den = _integer_weight(entries[:j - 1])
    live = []
    for (a, b) in q.terms:
        e = tuple(map(add, a, b))
        pre = sum(x * y for x, y in zip(e, w))
        if pre < den:
            live.append((pre, sum(e[j - 1:]), e))
    bound = _slot_bound(live, den)
    if bound is None or bound[1] == 0:
        return None
    top = Fraction(bound[1], bound[0])
    if top >= entries[j - 1]:
        return None
    return Weight(entries[:j - 1] + (top,) * (mu.n - j + 1))
