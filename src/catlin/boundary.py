"""Boundary systems of polynomial model hypersurfaces.

Given r = c * Re z1 + p(z_2..z_n, conj), the construction computes the Levi
rank at 0 (the Hermitian congruence of the complex Hessian of p there),
tangential (1,0) vector fields with exact polynomial coefficients, and then,
slot by slot, minimal ordered admissible lists of fields whose iterated
derivative of the (1,0) differential,

    list_derivative: L^1 ... L^{l-2} dr([L^{l-1}, L^l]),

does not vanish at the origin.  A list entry is a field L = sum a_k d/dz_k
or its conjugate sum conj(a_k) d/dzbar_k, applied directly.  A bracket is
formed only in its (1,0) part, the part that dr reads.  All list
derivatives are formed by ``_ListSearcher``.  The lists of a slot, up to
the bound, are ranked once, by ``_ranked``: by value c_j = counts[j]/rem,
the list's count of slot-j fields over the remainder of its row of
``weights.admissible_rows`` over the c-entries found so far, then by number
of fields, then in scan order.  A slot takes the least nonvanishing (value,
fields, direction, scan position).  Value first is exact: if every earlier
c_k is at most t, a list of t fields has rem <= counts[j]/t, so value >= t:
while they are at most the bound, no longer list has a smaller value.  The
audit reads the same ranking: every list ranked before the slot's own, a
longer one of smaller value included, must vanish (on a graded build, those
below c_j do by a degree count, below).  The lists produce the
commutator multitype (1, c_2, ..., c_n); the associated real functions r_j
and fields L_j form the boundary system.
The first equal-value block beyond the Levi slots can be normalized to
r_j = Re z_j exactly by a holomorphic change of coordinates, read off each
block slot's own r_j; the failure of the same normalization at the next
slot is the torsion obstruction, detected as non-pluriharmonic content of
r_j.

Field coefficients are polynomials.  Tangency constraints M x = b are
solved by one power series: with M(0)^{-1} exact, x = sum_i K^i M(0)^{-1} b
for K = I - M(0)^{-1} M, which has no constant term, so the series is exact
up to the stored truncation degree, which exceeds every derivative order
that can influence a value at the origin.  The tangency system of a slot
(its rows, columns and matrix M) does not depend on the candidate
direction, so M(0) is inverted once per slot, which forms K and the matrix
that takes a direction to the series' first term (``_tangency_system``);
each kernel basis vector the slot reads adds the series and the z_1
coefficient.  The field is linear in the direction, so a catalog
combination sum t^i k_i, which ``_catalog`` lists by its weights over the
basis, takes the same combination of the basis fields (``_slot_fields``)
and runs no series of its own.

Wherever only low degrees matter, products are formed degree-capped by the
product kernel of ``poly``: term pairs whose degrees add up to more than the
cap are never formed.  In the list search this is exact because a term of
degree d needs d more derivations to reach the origin; each bracket seed is
capped for the longest list and used whole by every list.
The slow fields are built capped at the truncation degree: every entry of
their tangency system, and every product of the series, is a capped
product there.

The list search keeps its tables by one rule (``_ListSearcher``): a table
through the slot under test, whose field changes with the candidate
direction, is that direction's searcher's; every other one, over finished
slots only, is in the build's store, shared by every direction and every
later slot and formed once per build.  The skeletons are in descending
slot order, so the search walks each list from its tail, where only
finished slots lie.  The store is dropped with its build; the audit keeps
its tables by the same rule in a store of its own, as it is the check, and
the two builds of ``first_block_torsion`` (different r) share nothing.

A field is applied by one loop, ``_field_terms``, in one pass: for each
nonzero coefficient a_k, the derivative of the operand in z_k (or zbar_k)
is formed as a raw term table by ``poly._derivative_terms``, the loop behind
``Poly.wirtinger``, and multiplied by a_k into one table by the capped
product kernel, which returns at once on an empty derivative.  The list
search runs on raw term tables, the way the parser does: its states, seeds
and store are tables, each entry keeps the tables of its nonzero
coefficients, already conjugated, and a ``Poly`` is built only for what
``_ListSearcher.derivative`` returns.  ``_apply_field`` wraps the loop for
``Poly`` operands (the slow fields' z_1 coefficients and the audit).

The ranking (``_ranked``) forms the admissible rows of a slot once, for
its longest list, on integers, and merges their runs lazily, so a slot
forms no list ranked after the one it takes, nor the value or skeleton of
a list it does not yield; given a floor, each run starts at its first list
of value at least the floor, so no list below it is formed either.

The list search at a slot starts at three fields (a two-field list vanishes
at 0; the argument is stated where the search runs) and forms no list below
a floor: the entries of Lambda, the lex-max admissible distinguished
inverse weight over every order of z_2..z_n, found by the weight walk
``weights.best_distinguished_weight`` alone.  On a pseudoconvex model the
commutator multitype C equals the multitype M, the lexicographic sup of the
distinguished weights in all holomorphic coordinates (Catlin, Ann. Math.
120, 1984), so C >= Lambda.  While the c-entries built so far equal
Lambda's prefix, c_j >= Lambda_j, so every list whose value counts[j]/rem
is below Lambda_j vanishes at 0 and is never formed; an infinite Lambda_j
leaves no finite list, and the remaining entries are +inf.  The floor
changes which lists are formed, not which one is found.
Every build works out its floor (``_lambda_floor``): Lambda when the
tangential part p without its pure terms has a tier-1 or tier-2 certificate
(r is pseudoconvex), in the input coordinates or, failing that, after the
triangular shears z_i -> z_i - c z^m that ``levi.sheared_certificate``
reads off p, else none.  The shears are sound because each is a polynomial
automorphism: for a biholomorphic Phi, p∘Phi is plurisubharmonic exactly
when p is.  The walk always finds a weight there, as no exponent vector of
p is zero; it weighs p, not p∘Phi.  No build runs the multitype search's
shear catalog: a shear could only raise Lambda, and a higher floor forms
fewer lists but not other ones.  The system records the floor as ``floor``,
and every first-block rebuild in the straightened coordinates reuses it, as
C and M are biholomorphic invariants.  Lambda is admissible by
construction: each finite entry is the bound t/(1 - P) of an exponent
vector whose exponents over the slots before it form a row of remainder 1 -
P, and the entry leaves that remainder exactly 0, an admissibility witness.

The audit takes no floor from Lambda, because it is the check.  Its floor
is a weighted-degree count in the grading of Catlin's construction (Ann.
Math. 126, 1987), which it checks on the built system term by term
(``_graded``), so it does not trust c.  When each Levi field (c = 2) and
each slow slot points along one coordinate axis, each axis used once, give
z_1 weight 1 and the axis variable of a field of value c the weight 1/c.
Suppose every term of r has weighted degree at least 1, and every term of
each coefficient a_k of each field of value c has weighted degree at least
w(z_k) - 1/c.  Then the field, or its conjugate, lowers the weighted
degree of every term by at most 1/c: d/dz_k lowers it by w(z_k), and a_k
raises it by at least w(z_k) - 1/c.  The (1,0) part of a bracket of two
fields X, Y, hol_k = X(Y_k) - Y(X_k), has weighted degree at least w(z_k) -
1/c_X - 1/c_Y, and dr/dz_k at least 1 - w(z_k), so the seed dr([X, Y]) =
sum_k hol_k dr/dz_k has at least 1 - 1/c_X - 1/c_Y.  A list at slot j with
counts[k] fields of each slot k, of value v = counts[j]/rem, so has a
derivative of weighted degree at least 1 - sum_k counts[k]/c_k = rem (1 -
v/c_j).  When v < c_j that is positive: no term is constant, and the list
vanishes at 0 without being formed.  Degree capping keeps the bound, as a
capped product only drops term pairs, and each pair it keeps obeys the
bound term by term.  A c_j that is too large puts some term below its
bound, and the check fails; so does a direction off the axes or a
variable with no finite slot.  Where the check fails, the audit walks every
list ranked before a slot's own, with no floor.

A second lemma decides list searches before they run, in the build, both
torsion builds and the audit alike (``_ListSearcher``): a torus charge.  The
circle acts on one axis k >= 2 by z_k -> e^{it} z_k, and a term z^a zbar^b
has charge a_k - b_k.  Call r balanced on k when every term of r has
charge 0 there.  A field sum_m a_m d/dz_m is charge-homogeneous on k, of
charge q, when every term of every a_m has a_k - b_k - [m = k] = q; its
conjugate entry then has charge -q.  Applying a field of charge q to a
function of one charge adds q to it, and the (1,0) part of a bracket of
fields of charges q and q' has coefficients hol_m of charge q + q' + [m =
k], which dr/dz_m, of charge -[m = k] on a balanced axis, brings to q +
q'.  So on an axis where r is balanced and each field of a list is
homogeneous, the list derivative has the sum of its entries' charges, and
its value at 0, a constant, has charge 0.  Each entry counts q or -q, so
when the fields' charges add up to an odd number no conjugation pattern
can sum to 0: the skeleton vanishes and is skipped without forming a seed.
Capped products drop term pairs only, so the capped search keeps each
charge.  Both conditions are checked term by term on the built fields, the
way ``_graded`` checks weighted degree; a field along a combination of
axes is not homogeneous, and the check stands down for it.  Within a
pattern no bound on the charge is needed: a term of charge Q has degree at
least |Q|, a homogeneous field, nonzero at 0, has charge 0 or -1, and the
degree cap already empties every state whose charge its remaining fields
cannot cancel.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .exact import (CONE, CRat, CZERO, hermitian_reduce, inverse, rank,
                    rat_str)
from .levi import complex_hessian, psd_certificate, sheared_certificate
from .poly import (CoordChange, ModelShapeError, Poly, PolyError,
                   PseudoconvexityError, TermKey, _capped_products,
                   _conj_terms, _derivative_terms, _integer_weight,
                   _mul_terms, _nonzero, _sum_terms, _unit,
                   eliminate_harmonic, split_model)
from .weights import (INF, Entry, InverseWeight, _evecs,
                      admissible_rows, best_distinguished_weight, entry_str,
                      recip)


class BoundaryConstructionError(PolyError):
    """The boundary-system construction hit an inconsistent state."""


# ----------------------------------------------------------------------
# fields and derivations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VField:
    """Type (1,0) vector field sum_k hol[k-1] d/dz_k with polynomial
    coefficients; a list entry may apply its conjugate instead."""

    hol: Tuple[Poly, ...]

    def to_json(self) -> dict:
        return {"hol": [f.to_json_dict() for f in self.hol]}


def _field_terms(coeffs: Sequence[Tuple[int, Dict[TermKey, CRat]]],
                 terms: Dict[TermKey, CRat], cap: Optional[int],
                 conjugate: bool) -> Dict[TermKey, CRat]:
    """Term table of the field sum_k a_k d/dz_k, or sum_k a_k d/dzbar_k
    when ``conjugate``, applied to ``terms``, without the terms above degree
    ``cap``: the one field loop.  ``coeffs`` pairs k - 1 with the table of
    each nonzero a_k.  Each derivative is a raw term table, multiplied into
    one table (the kernel returns at once on an empty one); the result holds
    no zeros."""
    out: Dict[TermKey, CRat] = {}
    for i, a in coeffs:
        _mul_terms(_derivative_terms(terms, i, conjugate), a, cap, out)
    return _nonzero(out) if out else out


def _apply_field(coeffs: Sequence[Poly], f: Poly, cap: Optional[int] = None
                 ) -> Poly:
    """The field sum_k coeffs[k-1] d/dz_k applied to f, without the terms
    above degree ``cap``: ``_field_terms`` on the tables of f and the
    nonzero coefficients."""
    return Poly._unchecked(f.n, _field_terms(
        [(i, a.terms) for i, a in enumerate(coeffs) if a.terms], f.terms,
        cap, False))


ListEntry = Tuple[int, bool]  # (slot index, conjugated?)


def list_derivative(r: Poly, fields: Dict[int, VField],
                    entries: Sequence[ListEntry]) -> Poly:
    """The function L^1 ... L^{l-2} dr([L^{l-1}, L^l]) for an ordered list.

    ``entries`` reference ``fields`` by slot; True marks the conjugate field.
    The result is a polynomial on the ambient space; callers evaluate at 0."""
    if len(entries) < 2:
        raise PolyError("a list needs at least two fields")
    return _ListSearcher(r, fields).derivative(entries)


class _ListSearcher:
    """List derivatives of ``fields`` on r, and the search for conjugation
    patterns whose list derivative does not vanish at 0.

    The search runs on raw term tables, the way the parser does: its
    states, seeds and store hold tables, and ``derivative`` alone builds a
    ``Poly``.  An entry (slot, False) applies the slot's field
    sum_k a_k d/dz_k, and (slot, True) its conjugate sum_k conj(a_k)
    d/dzbar_k; each entry keeps the tables of its nonzero coefficients,
    conjugated for a conjugate entry, formed once where they are kept
    (below).  dr reads only the (1,0) part of a bracket, hol_k = X(Y_k) -
    Y(X_k) with Y_k the d/dz_k coefficient of Y, so only that part is
    formed.  A conjugate entry has no (1,0) coefficients, and the seed of
    two conjugate entries is zero.

    The bracket seed dr([L^{l-1}, L^l]) is computed once per (entry, entry)
    pair and used whole by every list of the searcher, or of the build when
    both entries lie in finished slots (below).  Given ``max_length``, it
    is capped at the degree the longest list (``max_length`` fields) can
    still bring to the origin, and each application drops the terms above
    the number of derivations still to come.  A term of degree d needs d
    more derivations to reach the origin, so values at 0 stay exact.
    Without ``max_length`` nothing is capped.  The search walks the
    skeleton from its tail, so sibling patterns reuse every suffix state.

    One rule decides where a table is kept: one with an entry of the slot
    under test (that slot's coefficient tables, and any seed or tail state
    through it) is the searcher's own, as that field changes with the
    direction; every other one is in ``store``, the build's, keyed by its
    entry, entry pair or (list length, suffix of entries).  Within a build
    r, the seed cap and the finished fields are fixed, and a state's length
    and suffix fix its positions and so its caps, so a stored table is a
    pure function of its key.  Tail states through the slot under test are
    not kept.  A searcher made without a store (``list_derivative``'s)
    has no finished slots and keeps every table to itself.

    ``first_nonzero`` first reads the torus-charge lemma (module
    docstring): a skeleton whose fields' charges add up to an odd number on
    an axis where r is balanced and each of them is charge-homogeneous
    vanishes, and is not walked.  r's balanced axes are found once per
    store, so once per build or audit, and a model with none pays that one
    scan of r; each field's charges are found once per field and kept by
    the rule above."""

    def __init__(self, r: Poly, fields: Dict[int, VField],
                 max_length: Optional[int] = None,
                 store: Optional[Dict[tuple, Any]] = None,
                 slot: Optional[int] = None):
        self.r = r
        self.fields = fields
        self.seed_cap = None if max_length is None else max_length - 2
        # the searcher's own tables: those through a slot not in _finished
        self._own: Dict[tuple, Any] = {}
        self._store = self._own if store is None else store
        self._finished = frozenset() if store is None \
            else frozenset(fields) - {slot}

    def apply(self, entry: ListEntry, f: Dict[TermKey, CRat],
              cap: Optional[int]) -> Dict[TermKey, CRat]:
        """The field of ``entry`` applied to the table f, without the terms
        above degree ``cap``."""
        tables = self._store if entry[0] in self._finished else self._own
        coeffs = tables.get(entry)
        if coeffs is None:
            coeffs = tables[entry] = [
                (i, _conj_terms(a.terms) if entry[1] else a.terms)
                for i, a in enumerate(self.fields[entry[0]].hol) if a.terms]
        return _field_terms(coeffs, f, cap, entry[1])

    def seed(self, e1: ListEntry, e2: ListEntry) -> Dict[TermKey, CRat]:
        """The table of dr([e1, e2]), capped as the searcher's longest list
        needs it."""
        key = (e1, e2)
        seeds = self._store if e1[0] in self._finished \
            and e2[0] in self._finished else self._own
        if key not in seeds:
            c = self.seed_cap
            hol: List[Dict[TermKey, CRat]] = [{}] * self.r.n
            # a field applied to a zero coefficient gives zero
            if not e2[1]:
                hol = [_sum_terms(h, self.apply(e1, y.terms, c)) if y.terms
                       else h for h, y in zip(hol, self.fields[e2[0]].hol)]
            if not e1[1]:
                hol = [_sum_terms(h, self.apply(e2, x.terms, c), True)
                       if x.terms else h
                       for h, x in zip(hol, self.fields[e1[0]].hol)]
            seeds[key] = _field_terms([(i, h) for i, h in enumerate(hol) if h],
                                      self.r.terms, c, False)
        return seeds[key]

    def _charges(self, slot: int, axes: Sequence[int]) -> Tuple[int, int]:
        """The field of ``slot`` on ``axes``, r's balanced axes, as two bit
        masks over a term's exponent positions: the axes on which it is
        charge-homogeneous, and of those the ones of odd charge (module
        docstring).  Formed once per field, kept by the table rule.  The
        z_1 coefficient is not read: r holds z_1 only in c Re z_1, so L(r) =
        0 fixes a_1 = -(1/c) sum_m a_m dr/dz_m, of charge q on a balanced
        axis when every other a_m is homogeneous of charge q.
        ``_field_from_vector`` solves a_1 so, and the audit checks L(r) = 0
        on every field it searches."""
        tables = self._store if slot in self._finished else self._own
        key = ("charges", slot)
        if key not in tables:
            homogeneous = odd = 0
            hol = self.fields[slot].hol
            for i in axes:
                charges = {a[i] - b[i] - (m == i)
                           for m in range(1, len(hol)) for a, b in hol[m].terms}
                if len(charges) == 1:
                    homogeneous |= 1 << i
                    odd |= (charges.pop() & 1) << i
            tables[key] = homogeneous, odd
        return tables[key]

    def _odd_charge(self, skeleton: Sequence[int]) -> bool:
        """Whether every list over ``skeleton`` vanishes at 0 by the
        torus-charge lemma (module docstring): on some axis where r is
        balanced and each field of the skeleton is charge-homogeneous, the
        fields' charges add up to an odd number.  r's balanced axes are
        found once per store."""
        axes = self._store.get(("balanced",))
        if axes is None:
            axes = self._store[("balanced",)] = [
                i for i in range(1, self.r.n)
                if all(a[i] == b[i] for a, b in self.r.terms)]
        if not axes:
            return False
        slots = set(skeleton)
        odd_slots = {slot for slot in slots if skeleton.count(slot) & 1}
        if not odd_slots:
            return False  # every charge sum is even: no field is read
        homogeneous, odd = -1, 0
        for slot in slots:
            slot_homogeneous, slot_odd = self._charges(slot, axes)
            homogeneous &= slot_homogeneous
            if slot in odd_slots:
                odd ^= slot_odd
        return bool(homogeneous & odd)

    def derivative(self, entries: Sequence[ListEntry]) -> Poly:
        """The list derivative of ``entries``; given ``max_length``, capped
        as in the search, so that only its value at 0 is exact."""
        capped = self.seed_cap is not None
        out = self.seed(entries[-2], entries[-1])
        for pos in range(len(entries) - 3, -1, -1):
            out = self.apply(entries[pos], out, pos if capped else None)
        return Poly._unchecked(self.r.n, out)

    def first_nonzero(self, skeleton: Sequence[int]
                      ) -> Optional[List[ListEntry]]:
        """First (in canonical flag order, tail varying slowest) conjugation
        pattern over the skeleton whose list derivative at 0 is nonzero;
        None without a walk when the charge lemma decides the skeleton."""
        if self._odd_charge(skeleton):
            return None
        length = len(skeleton)
        origin = ((0,) * self.r.n,) * 2
        finished, store = self._finished, self._store

        def walk(state: Dict[TermKey, CRat], suffix: Optional[tuple]
                 ) -> Optional[List[ListEntry]]:
            # depth first over positions length - 3 .. 0, the flag False
            # before True at each, by an explicit stack, as a list may be
            # longer than the recursion limit; ``tail``: the entries after
            # a position while all are finished, else None; a table holds
            # no zeros, so an empty one is the zero function
            if length == 2 or not state:
                return [] if origin in state else None
            path: List[ListEntry] = []  # the entries from length - 3 down
            todo = [(length - 3, f, state, suffix) for f in (True, False)]
            while todo:
                pos, flag, current, tail = todo.pop()
                del path[length - 3 - pos:]
                entry = (skeleton[pos], flag)
                path.append(entry)
                if tail is not None and entry[0] in finished:
                    tail = (entry,) + tail
                    if (length, tail) not in store:
                        store[length, tail] = self.apply(entry, current, pos)
                    current = store[length, tail]
                else:
                    tail, current = None, self.apply(entry, current, pos)
                if current and pos == 0 and origin in current:
                    return path[::-1]  # ascending positions
                if current and pos > 0:
                    todo += [(pos - 1, f, current, tail)
                             for f in (True, False)]
            return None

        for f1 in (False, True):
            for f2 in (False, True):
                e1 = (skeleton[length - 2], f1)
                e2 = (skeleton[length - 1], f2)
                if e1 == e2:
                    continue  # bracket of a field with itself vanishes
                shared = e1[0] in finished and e2[0] in finished
                res = walk(self.seed(e1, e2), (e1, e2) if shared else None)
                if res is not None:
                    return res + [e1, e2]
        return None


# ----------------------------------------------------------------------
# boundary system construction
# ----------------------------------------------------------------------


@dataclass
class SlowSlot:
    slot: int
    direction: Tuple[CRat, ...]       # tangential direction over z_2..z_n
    fld: VField
    entries: List[ListEntry]
    c: Fraction
    r_func: Poly                      # normalized real function r_j
    scale: CRat = CZERO               # linear coefficient divided out of the
                                      # list derivative

    def to_json(self) -> dict:
        return {"slot": self.slot,
                "direction": [str(c) for c in self.direction],
                "list": [[s, bool(c)] for s, c in self.entries],
                "c": rat_str(self.c),
                "r": self.r_func.to_json_dict(),
                "field": self.fld.to_json()}


@dataclass
class BoundarySystem:
    n: int
    r: Poly
    rank: int                         # Levi rank s_0
    levi_fields: List[VField]
    slow: Dict[int, SlowSlot]
    c_entries: Tuple[Entry, ...]      # (1, c_2, ..., c_n); a prefix while
                                      # the build runs
    list_bound: int
    trunc_degree: int
    floor: Optional[Tuple[Entry, ...]] = None  # the build's Lambda floor
    transform: Optional[CoordChange] = None

    @property
    def nu(self) -> int:
        return max((j for j in range(1, self.n + 1)
                    if self.c_entries[j - 1] != INF), default=1)

    def commutator_multitype(self) -> InverseWeight:
        return InverseWeight(self.c_entries)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "c": [entry_str(e) for e in self.c_entries],
            "nu": self.nu,
            "levi_fields": [f.to_json() for f in self.levi_fields],
            "slots": {str(j): s.to_json() for j, s in sorted(self.slow.items())},
            "r1": self.r.to_json_dict(),
            "list_bound": self.list_bound,
        }


def _field_from_vector(r: Poly, c1: CRat, vec: Sequence[Poly]) -> VField:
    """Tangential field with given z_2..z_n coefficients; the z_1 coefficient
    is solved from L(r) = 0."""
    a1 = _apply_field([Poly.zero(r.n)] + list(vec), r) * (CRat(-1) / c1)
    return VField((a1,) + tuple(vec))


def _const_vec(n: int, direction: Sequence[CRat]) -> List[Poly]:
    return [Poly.const(n, c) for c in direction]


def _tangency_system(r: Poly, c1: CRat, p_hess: List[List[Poly]],
                     levi: List[VField], prior: List[SlowSlot], cap: int
                     ) -> Callable[[Sequence[CRat]], Optional[VField]]:
    """The slow fields of one slot: a function that takes a direction to
    the field along it corrected to annihilate the Levi pairings with the
    block fields and the earlier slow functions r_k, or to None when M(0)
    is singular.

    The field is base + columns . x, where M x = -rows . base and M is the
    tangency matrix rows . columns.  Its solution modulo degree > cap is
    the series sum_i K^i lead . base, with lead = -M(0)^{-1} . rows and
    K = I - M(0)^{-1} . M.  Both are formed once per slot from the rows
    and the columns, which do not depend on the direction, so M(0) is
    inverted once per slot; a direction adds only the series and the z_1
    coefficient.  Every product is capped at ``cap``."""
    n = r.n
    columns = [list(lf.hol[1:]) for lf in levi]
    columns += [_const_vec(n, sl.direction) for sl in prior]
    # A row w sends v over z_2..z_n to sum_k v_k w_k: the Levi pairing with
    # a block field, w_k = sum_l p_kl conj(a_l), or dr_k, w_k = d r_k/dz_k.
    # Its values are capped, as the series reads nothing above the cap.
    rows = [[_capped_products(n, zip(hess_row, conj), cap)
             for hess_row in p_hess]
            for conj in ([a.conj() for a in lf.hol[1:]] for lf in levi)]
    rows += [[sl.r_func.wirtinger(k) for k in range(2, n + 1)]
             for sl in prior]
    matrix = [[_capped_products(n, zip(col, w), cap) for col in columns]
              for w in rows]
    zero = (0,) * n
    m0inv = inverse([[entry.coeff(zero, zero) for entry in row]
                     for row in matrix])
    if m0inv is None:
        return lambda _direction: None
    # -M(0)^{-1}, whose rows give lead and step = K
    neg = [[Poly.const(n, -c) for c in row] for row in m0inv]
    lead = [[_capped_products(n, [(a, w[k]) for a, w in zip(row, rows)], cap)
             for k in range(n - 1)] for row in neg]
    step = [[_capped_products(n, [(a, m[l]) for a, m in zip(row, matrix)],
                              cap) + Poly.const(n, int(i == l))
             for l in range(len(matrix))] for i, row in enumerate(neg)]

    def field(direction: Sequence[CRat]) -> Optional[VField]:
        base = _const_vec(n, direction)
        x = [_capped_products(n, zip(row, base), cap) for row in lead]
        sol = [Poly.zero(n)] * len(x)
        # M(0)^{-1} . M is I plus terms of positive degree, so K has no
        # constant term: each step raises the least degree of x by one,
        # and x is zero within cap + 1 steps
        for _ in range(cap + 1):
            if all(f.is_zero() for f in x):
                break
            sol = [s + f for s, f in zip(sol, x)]
            x = [_capped_products(n, zip(row, x), cap) for row in step]
        vec = [b + _capped_products(n, [(s, col[k])
                                        for s, col in zip(sol, columns)], cap)
               for k, b in enumerate(base)]
        return _field_from_vector(r, c1, vec)

    return field


def _catalog(kernel_dirs: Sequence[Tuple[CRat, ...]]
             ) -> List[Tuple[CRat, ...]]:
    """The build's direction catalog, each entry as its weights w over the
    Levi kernel basis k_i, the direction sum_i w_i k_i: the basis itself,
    then, given two or more, sum_i t^i k_i for t = 1, 2, -1."""
    m = len(kernel_dirs)
    basis = [tuple(CONE if j == i else CZERO for j in range(m))
             for i in range(m)]
    return basis + ([tuple(CRat(t) ** i for i in range(m))
                     for t in (1, 2, -1)] if m > 1 else [])


def _slot_fields(system: Callable[[Sequence[CRat]], Optional[VField]],
                 kernel_dirs: Sequence[Tuple[CRat, ...]]
                 ) -> Callable[[Sequence[CRat]], Optional[VField]]:
    """The slot's field along sum_i w_i k_i for weights w over the kernel
    basis k_i, None when M(0) is singular.

    A field is linear in its direction: base, the series and the z_1
    coefficient each are, capped products included, as capping drops term
    pairs only.  So the field along sum_i w_i k_i is sum_i w_i times the
    field along k_i, and ``system`` runs one series per basis vector read,
    formed when first read and kept for the slot; a basis vector's field
    is that series' field itself."""
    basis: Dict[int, Optional[VField]] = {}

    def along(i: int) -> Optional[VField]:
        if i not in basis:
            basis[i] = system(kernel_dirs[i])
        return basis[i]

    def field(weights: Sequence[CRat]) -> Optional[VField]:
        terms = [(along(i), w) for i, w in enumerate(weights) if w]
        if any(f is None for f, _w in terms):
            return None  # M(0) does not depend on the direction
        if len(terms) == 1 and terms[0][1] == CONE:
            return terms[0][0]
        return VField(tuple(
            functools.reduce(Poly.__add__, (f.hol[k] * w for f, w in terms))
            for k in range(len(terms[0][0].hol))))

    return field


def _ranked(slow: Dict[int, SlowSlot], slot: int, first: int, last: int,
            floor: Optional[Entry] = None
            ) -> Iterator[Tuple[Fraction, int, List[int]]]:
    """The admissible lists of ``first`` to ``last`` fields at ``slot`` whose
    value is at least ``floor`` (every list when it is None, none when it is
    infinite), as (value, fields, skeleton), lazily, in the order that
    decides c_j (module docstring).  The earlier counts are a row of
    ``admissible_rows`` over their c_k, of remainder rem/den, and the
    skeleton holds the slot of each field, in descending order.  The rows
    are formed once, for ``last`` fields: those of fewer fields sum to at
    most fields - 1.  Within a row the value (fields - used) * den / rem
    grows with fields, so each row's run starts at fields >= used +
    ceil(floor * rem / den), and a heap merge of the runs on the integers
    (fields - used) * (common // rem), common the lcm of the remainders,
    ties going to the earlier row, gives the ranking."""
    if floor == INF:
        return
    earlier = [k for k in sorted(slow) if k < slot]
    rows, den = admissible_rows([slow[k].c for k in earlier], last - 1)
    common = math.lcm(*(rem for _row, rem in rows))

    def run(position: int, row: Tuple[int, ...], rem: int
            ) -> Iterator[Tuple[int, int, int]]:
        used, scale = sum(row), common // rem
        # ceil(floor * rem / den) in integers, as it runs once per row
        least = 1 if floor is None else -(-floor.numerator * rem
                                          // (floor.denominator * den))
        for fields in range(max(first, used + least), last + 1):
            yield (fields - used) * scale, fields, position

    for _key, fields, position in heapq.merge(
            *(run(i, row, rem) for i, (row, rem) in enumerate(rows))):
        row, rem = rows[position]
        tail = [k for k, a in zip(reversed(earlier), reversed(row))
                for _ in range(a)]
        count = fields - len(tail)
        yield Fraction(count * den, rem), fields, [slot] * count + tail


def build_boundary_system(r: Poly, list_bound: Optional[int] = None
                          ) -> BoundarySystem:
    """Construct a boundary system and the commutator multitype of the model.

    The search frontier for list lengths defaults to the total degree of the
    tangential polynomial; at the first slot where every admissible ordered
    list within the frontier vanishes at 0, the remaining entries are +inf.
    No list below ``_lambda_floor(r)``, the weight walk's Lambda of a
    certified model, is formed (module docstring)."""
    *_, bs = _system_slots(r, list_bound, _lambda_floor(r))
    return bs


def _lambda_floor(r: Poly) -> Optional[Tuple[Entry, ...]]:
    """The entries of Lambda, the weight walk's lex-max admissible
    distinguished inverse weight over every order of z_2..z_n, when the
    polynomial it weighs, the tangential part p without the pure terms the
    Levi form never reads, has a tier-1 or tier-2 certificate, as it stands
    or after the shears ``sheared_certificate`` reads off it; otherwise,
    or when either raises, None (no floor).

    The gate is sound: each shear z_i -> z_i - s (s free of z_i) is a
    polynomial automorphism, whose inverse adds s back, and for a
    biholomorphic Phi, i∂∂̄(p∘Phi) = Phi*(i∂∂̄p), so a certificate of p∘Phi
    shows p, and so r, pseudoconvex.

    The floor is sound: the walk's tuple is admissible and distinguished in
    the coordinates that the permutation of its order reaches, so Lambda
    is at most the multitype search's weight, which is at most M, and M =
    C on the certified (pseudoconvex) model.  The floor decides only which
    vanishing lists are formed, never which list a slot takes, so a model
    on which a shear of the search's catalog would raise Lambda builds the
    same system; it only forms more lists.  So no build runs the catalog."""
    try:
        p = split_model(eliminate_harmonic(r)[0])[1]
        if psd_certificate(p) is None and sheared_certificate(p) is None:
            return None
        # never None: p has no z1 and, after eliminate_harmonic, no constant,
        # so no exponent vector is zero, and without ``above`` the walk
        # then always completes
        return best_distinguished_weight(_evecs(p), r.n)[0].entries
    except PolyError:
        return None


def _system_slots(r: Poly, list_bound: Optional[int],
                  floor: Optional[Tuple[Entry, ...]]
                  ) -> Iterator[BoundarySystem]:
    """``build_boundary_system`` slot by slot, with ``floor`` given.

    Yields one system object after the Levi slots and again after each slow
    slot.  Until the last yield its ``c_entries`` hold the entries built so
    far, a prefix that is never padded; the last yield is the complete
    system.  A caller that stops early holds a partial system, which stays
    inside this module."""
    if list_bound is not None and list_bound < 2:
        raise PolyError(f"list bound {list_bound} is below 2: a list has at "
                        "least two fields")
    c1, p = split_model(r)
    n = r.n
    if n < 2:
        raise ModelShapeError("boundary systems need dimension >= 2")
    bound = list_bound if list_bound is not None else max(2, p.total_degree())
    cap = max(2, p.total_degree()) + 2
    p_hess = [row[1:] for row in complex_hessian(p)[1:]]
    zero = (0,) * n
    reduced = hermitian_reduce([[entry.coeff(zero, zero) for entry in row]
                                for row in p_hess])
    levi_fields = [_field_from_vector(r, c1, _const_vec(n, vec))
                   for vec, d in reduced if d != 0]
    levi_rank = len(levi_fields)
    kernel_dirs = [tuple(vec) for vec, d in reduced if d == 0]
    # the catalog's weights over the kernel basis, and its directions
    catalog_weights = _catalog(kernel_dirs)
    catalog = [tuple(sum((k[c] * w for k, w in zip(kernel_dirs, ws)), CZERO)
                     for c in range(n - 1)) for ws in catalog_weights]
    slow: Dict[int, SlowSlot] = {}
    # the list search's tables over finished slots, shared by every
    # direction's searcher; dropped with the build
    store: Dict[tuple, Any] = {}
    bs = BoundarySystem(n=n, r=r, rank=levi_rank, levi_fields=levi_fields,
                        slow=slow,
                        c_entries=(Fraction(1),) + (Fraction(2),) * levi_rank,
                        list_bound=bound, trunc_degree=cap, floor=floor)
    yield bs
    for slot in range(levi_rank + 2, n + 1):
        used = [sl.direction for sl in slow.values()]
        finished = {j: sl.fld for j, sl in slow.items()}
        found = None
        # the catalog directions outside the span of the slots built so far;
        # each slot's direction lay outside the span of those before it, so
        # ``used`` is independent and its rank is its length
        directions = [i for i, d in enumerate(catalog)
                      if rank(used + [d]) > len(used)]
        # by catalog position: the searcher over the direction's slow field,
        # None when the field cannot be built
        searchers: Dict[int, Optional[_ListSearcher]] = {}
        # the slot's field along catalog weights, formed with the slot's
        # tangency system when its first field is built
        fields_at: Optional[Callable[[Sequence[CRat]],
                                     Optional[VField]]] = None
        # While the c-entries equal the floor's prefix, c_j >= floor_j (C = M
        # >= Lambda), so a list whose value is below floor_j vanishes at 0;
        # an infinite floor_j leaves no finite list to try.
        below = floor[slot - 1] if floor is not None \
            and bs.c_entries == floor[:slot - 1] else None
        # Lists start at 3 fields: a 2-field list vanishes at 0.  [L, M]r =
        # 0, as _field_from_vector solves each z1 coefficient exactly; for
        # L, conj(M) it is the Levi form at 0 on values in the Levi kernel
        # (M(0)'s Levi block is decoupled from the kernel columns in
        # _tangency_system); two conjugate entries give a zero seed.
        # The least nonvanishing (value, fields, direction, scan position)
        # wins: the ranking is walked one group of equal value and fields at
        # a time, and within a group each direction, in catalog order, tries
        # the group's lists in scan order.
        ranked = _ranked(slow, slot, 3, bound, below)
        for (value, _fields), group in itertools.groupby(ranked,
                                                         itemgetter(0, 1)):
            skeletons = [skeleton for *_, skeleton in group]
            for i in directions:
                if i not in searchers:
                    if fields_at is None:
                        fields_at = _slot_fields(_tangency_system(
                            r, c1, p_hess, levi_fields,
                            [slow[j] for j in sorted(slow)], cap),
                            kernel_dirs)
                    fld = fields_at(catalog_weights[i])
                    searchers[i] = None if fld is None else _ListSearcher(
                        r, {**finished, slot: fld}, bound, store, slot)
                searcher = searchers[i]
                if searcher is not None:
                    found = next(((catalog[i], searcher.fields, entries,
                                   value)
                                  for entries in map(searcher.first_nonzero,
                                                     skeletons)
                                  if entries is not None), None)
                if found:
                    break
            if found:
                break
        if not found:
            bs.c_entries += (INF,) * (n - slot + 1)
            yield bs
            return
        direction, fields, entries, c_j = found
        g = list_derivative(r, fields, entries[1:])
        r_func, scale = _normalize_r(g, direction)
        # the fields are exact up to degree cap, and each field of the list
        # costs r_j one degree of exactness
        exact = cap - len(entries) + 3
        if r_func.total_degree() > exact:
            raise BoundaryConstructionError(
                f"slot {slot}: r_{slot} has terms above degree {exact}, "
                "where the truncated fields reach it")
        slow[slot] = SlowSlot(slot=slot, direction=tuple(direction),
                              fld=fields[slot], entries=list(entries),
                              c=c_j, r_func=r_func, scale=scale)
        bs.c_entries += (c_j,)
        yield bs


def _normalize_r(g: Poly, direction: Sequence[CRat]) -> Tuple[Poly, CRat]:
    """Canonical real function from the list derivative: divide it by the
    scale a = C+ + conj(C-), C+ and C- its coefficients of z_dir and
    zbar_dir, and take the real part; prefer Re over Im.  The linear part
    along z_dir is then exactly Re z_dir only when a is real: its z_dir
    coefficient is (C+/a + conj(C-)/conj(a))/2, which is 1/2 for real a
    (likewise Im z_dir when the scale -i(C+ - conj(C-)) is real).  Also
    returns the scale (the linear coefficient that was divided out)."""
    # no catalog direction is zero: each is a hermitian_reduce basis vector
    # or a combination sum t^i k_i of independent kernel vectors
    dirvar = next(k + 2 for k, c in enumerate(direction) if not c.is_zero())
    c_plus, c_minus = _linear_coeffs(g, dirvar)
    a_re = c_plus + c_minus.conj()
    if not a_re.is_zero():
        scaled = g * (CRat(1) / a_re)
        return (scaled + scaled.conj()) * Fraction(1, 2), a_re
    a_im = (c_plus - c_minus.conj()) * CRat(0, -1)
    if not a_im.is_zero():
        scaled = g * (CRat(1) / a_im)
        im = (scaled - scaled.conj()) * CRat(0, Fraction(-1, 2))
        return im, a_im
    re_part = (g + g.conj()) * Fraction(1, 2)
    if not re_part.is_zero():
        return re_part, CZERO
    return (g - g.conj()) * CRat(0, Fraction(-1, 2)), CZERO


def _linear_coeffs(g: Poly, var: int) -> Tuple[CRat, CRat]:
    """The coefficients (c_+, c_-) of z_var and zbar_var in g."""
    e, zero = _unit(g.n, var), (0,) * g.n
    return g.coeff(e, zero), g.coeff(zero, e)


# ----------------------------------------------------------------------
# first-block normalization and torsion
# ----------------------------------------------------------------------


def first_block_slots(bs: BoundarySystem) -> List[int]:
    """Slots carrying the first finite c-value above 2 (among the slots
    built, while a build runs)."""
    above = [j for j in range(2, len(bs.c_entries) + 1)
             if bs.c_entries[j - 1] != INF and bs.c_entries[j - 1] > 2]
    if not above:
        return []
    lead = bs.c_entries[above[0] - 1]
    return [j for j in above if bs.c_entries[j - 1] == lead]


def _through_torsion_slot(slots: Iterator[BoundarySystem]) -> BoundarySystem:
    """Run a slot-by-slot build until it has built the first slot past the
    first block, the slot ``detect_torsion`` reads.

    The c-entries of a boundary system do not decrease (the commutator
    multitype is an ``InverseWeight``), and the first-block change keeps
    them (Catlin, Ann. Math. 126, 1987).  So no later slot can rejoin the
    block, and the report reads no slot after this one."""
    for bs in slots:
        block = first_block_slots(bs)
        if block and len(bs.c_entries) > block[-1]:
            break
    return bs


def normalize_first_block(bs: BoundarySystem) -> BoundarySystem:
    """Normalize the first slow block to r_j = Re z_j exactly (model level).

    For each slot j in the block, along z_j, the slot's own r_j, in the
    coordinates of the changes made so far, has the shape Re z_j + T with T
    a harmonic polynomial in the other variables; z_j -> z_j/a - phi - psi
    with T = phi + conj(psi) straightens it, a the slot's scale over
    (k-1)! k! (k = lambda_j / 2 an integer).  A non-harmonic T raises
    PseudoconvexityError; no Re z_j part is inconsistent input.  Returns
    the system of ``bs.r`` rebuilt in the new coordinates with the floor of
    ``bs``, the changes composed as ``transform``."""
    r_cur, changes = _straighten_first_block(bs, iter(()))
    *_, rebuilt = _system_slots(r_cur, bs.list_bound, bs.floor)
    rebuilt.transform = functools.reduce(CoordChange.compose, changes)
    return rebuilt


def first_block_torsion(r0: Poly, list_bound: Optional[int] = None
                        ) -> TorsionReport:
    """The report of ``detect_torsion(normalize_first_block(
    build_boundary_system(r0, list_bound)))``, from systems built only
    through the slot the report reads: the first slot past the first block,
    before and after the change that straightens the block.  The second
    reuses the floor of the first (C and M are biholomorphic invariants).
    A model without a first block has nothing to straighten: its report is
    ``detect_torsion(build_boundary_system(r0, list_bound))``, not
    applicable."""
    slots = _system_slots(r0, list_bound, _lambda_floor(r0))
    bs = _through_torsion_slot(slots)
    if not first_block_slots(bs):  # the whole build: no block to straighten
        return detect_torsion(bs)
    r_cur, _changes = _straighten_first_block(bs, slots)
    return detect_torsion(_through_torsion_slot(
        _system_slots(r_cur, bs.list_bound, bs.floor)))


def _straighten_first_block(bs: BoundarySystem,
                            rest: Iterator[BoundarySystem]
                            ) -> Tuple[Poly, List[CoordChange]]:
    """The model ``bs.r`` in coordinates where r_j = Re z_j on the first
    block (see ``normalize_first_block``), and the change made at each slot
    of the block, in order.

    ``bs`` may be partial, with ``rest`` the rest of its build.  Each change
    is graded by weighing each variable 1/c of the field on its axis
    (``_axis_fields``).  When one of its maps involves a variable on no
    built axis, whose slot may not be built yet, the build runs to the end
    first.  Otherwise such variables keep identity maps, so no check of
    ``CoordChange`` depends on their weights; they take the weight of the
    last slot built.  Input that is not weight-graded keeps its refusal: the
    paper normalizes the model, and truncating it to its weight-1 part
    silently would answer for another hypersurface."""
    block = first_block_slots(bs)
    if not block:
        raise BoundaryConstructionError("no finite slow block to normalize")
    lam = bs.c_entries[block[0] - 1]
    if lam != int(lam) or int(lam) % 2 != 0:
        raise BoundaryConstructionError(
            f"first block value {lam} is not an even integer")
    k = int(lam) // 2
    # a list of k - 1 fields L_j and k fields conj(L_j) is (k-1)! k! times
    # the normalized (k-1, k) Wirtinger derivative: scaling by that keeps the
    # linear coefficient and offending part reported as that derivative's
    norm = Fraction(1, math.factorial(k - 1) * math.factorial(k))
    n = bs.n
    axes = _axis_fields(bs)
    r_cur = bs.r
    changes: List[CoordChange] = []
    for j in block:
        support = [i + 2 for i, c in enumerate(bs.slow[j].direction)
                   if not c.is_zero()]
        if len(support) != 1:
            shown = ", ".join(str(c) for c in bs.slow[j].direction)
            raise BoundaryConstructionError(
                f"slot {j}: direction ({shown}) is not aligned with a "
                "coordinate axis; apply an aligning linear change first")
        dirvar = support[0]
        g = functools.reduce(lambda f, change: change.apply(f), changes,
                             bs.slow[j].r_func)
        e, zero = _unit(n, dirvar), (0,) * n
        c_plus, c_minus = _linear_coeffs(g, dirvar)
        tail = g - Poly(n, {(e, zero): c_plus, (zero, e): c_minus})
        if tail.degree_in(dirvar) > 0:
            raise BoundaryConstructionError(
                f"slot {j}: derivative tail depends on z_{dirvar}; the input "
                "is not weight-graded")
        # earlier changes keep r_j's linear part (the build solves L_j r_i = 0
        # for i < j), so a zero scale, with no such part, is refused here too
        if (c_plus + c_minus).is_zero():
            raise BoundaryConstructionError(
                f"slot {j}: scale factor C+ + conj(C-) vanishes; inconsistent "
                "input")
        a = bs.slow[j].scale * norm
        non_harmonic = tail - tail.pure_part()
        if not non_harmonic.is_zero():
            raise PseudoconvexityError(
                f"slot {j}: harmonic tail certificate fails; offending part "
                f"{non_harmonic * a}")
        if len(bs.c_entries) < n and any(
                tail.degree_in(pos + 1) > 0 for pos in range(1, n)
                if pos not in axes):
            *_, bs = rest
            axes = _axis_fields(bs)
        last = recip(bs.c_entries[-1])
        mu = [Fraction(1)] + [recip(axes[pos][0]) if pos in axes else last
                              for pos in range(1, n)]
        # r_j = Re z_j + Re(phi + psi), and z_j -> z_j/a - phi - psi leaves Re
        phi = tail.holomorphic_part()
        psi = tail.antiholomorphic_part().conj()
        maps = [Poly.variable(n, v) for v in range(1, n + 1)]
        maps[dirvar - 1] = Poly.variable(n, dirvar) * (CRat(1) / a) - phi - psi
        try:
            change = CoordChange(n, maps, mu)
        except PolyError:
            raise BoundaryConstructionError(
                f"slot {j}: the change that straightens r_{j} is not graded "
                "in the axis weights; the input is not weight-graded"
            ) from None
        r_cur = change.apply(r_cur)
        changes.append(change)
    return r_cur, changes


@dataclass
class TorsionReport:
    applicable: bool
    slot: Optional[int] = None
    torsion: bool = False
    linear_coeff: Optional[CRat] = None
    obstruction: Optional[Poly] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "applicable": self.applicable,
            "slot": self.slot,
            "torsion": self.torsion,
            "linear_coeff": str(self.linear_coeff) if self.linear_coeff else None,
            "obstruction": self.obstruction.to_json_dict()
            if self.obstruction is not None else None,
            "detail": self.detail,
        }


def detect_torsion(bs: BoundarySystem) -> TorsionReport:
    """Obstruction to straightening the boundary-system function after the
    first block: any non-pluriharmonic content of r_j beyond its linear term."""
    block = first_block_slots(bs)
    if not block:
        return TorsionReport(False, detail="no slow block present")
    beyond = [j for j in range(block[-1] + 1, len(bs.c_entries) + 1)
              if bs.c_entries[j - 1] != INF]
    if not beyond:
        return TorsionReport(False, detail="no finite slot beyond the first "
                                           "block")
    j = beyond[0]
    sl = bs.slow[j]
    mixed = sl.r_func - sl.r_func.pure_part()
    torsion = not mixed.is_zero()
    detail = "carries non-pluriharmonic content" if torsion \
        else "has pluriharmonic tail only"
    return TorsionReport(True, slot=j, torsion=torsion, linear_coeff=sl.scale,
                         obstruction=mixed, detail=f"r_{j} {detail}")


# ----------------------------------------------------------------------
# property audit
# ----------------------------------------------------------------------


def _axis_fields(bs: BoundarySystem) -> Dict[int, Tuple[Fraction, VField]]:
    """The built fields whose direction at 0 lies on one coordinate axis,
    by that axis: k (z_{k+1}'s position) -> (c, field), each Levi field (its
    value at 0) at c = 2.  A field off the axes is left out; of two on one
    axis the later is kept, leaving some axis unused (n - 1 fields at most)."""
    zero = (0,) * bs.n
    axes: Dict[int, Tuple[Fraction, VField]] = {}
    for fld, direction, c in (
            [(lf, [a.coeff(zero, zero) for a in lf.hol[1:]], Fraction(2))
             for lf in bs.levi_fields]
            + [(sl.fld, sl.direction, sl.c) for sl in bs.slow.values()]):
        support = [k for k, x in enumerate(direction, 1) if not x.is_zero()]
        if len(support) == 1:
            axes[support[0]] = (c, fld)
    return axes


def _graded(bs: BoundarySystem) -> bool:
    """Whether the grading check of the module docstring holds on ``bs``:
    each Levi field and each slow slot's direction lies on one coordinate
    axis, each of z_2..z_n used once (``_axis_fields``); every term of r has
    weighted degree at least 1; and every term of each coefficient a_k of a
    field of value c has weighted degree at least w(z_k) - 1/c.  Weights
    are integers over their common denominator (``poly._integer_weight``
    of 1 and each axis's 1/c), so z_1 weighs ``common``."""
    axes = _axis_fields(bs)
    if len(axes) < bs.n - 1:
        # a field off the axes, an axis used twice, or a variable with no
        # finite slot, whose weight is unset
        return False
    weight, common = _integer_weight(
        [1] + [1 / c for c, _fld in map(axes.get, range(1, bs.n))])

    def degree(key: TermKey) -> int:
        return sum((x + y) * w for x, y, w in zip(*key, weight))

    return all(degree(key) >= common for key in bs.r.terms) and all(
        degree(key) >= weight[k] - weight[axis]
        for axis, (_c, fld) in axes.items() for k, a in enumerate(fld.hol)
        for key in a.terms)


def audit_boundary_system(bs: BoundarySystem) -> List[str]:
    """Re-check of the construction invariants; returns the list of
    violations (empty when sound).  It is not independent of the build: it
    reads the same ranking, ``_ranked``, and list search, ``_ListSearcher``
    (by the build's table rule, in a store of its own).

    Minimality: every list ranked before a slot's own must vanish at 0.
    When ``_graded(bs)`` holds, the lists of value below c_j do by the
    degree count of the module docstring, so the walk at slot j starts at
    value c_j and ends at the slot's own list: it checks the lists of value
    c_j ranked before it, none longer.  A slot whose own list breaks
    admissibility or property (5) is flagged for that, and keeps the walk
    from the first list, so that the report names the first nonvanishing
    list ranked before its own, as the unfloored walk does.  When the check
    fails, every slot walks with no floor, up to the build's bound."""
    problems: List[str] = []
    zero = (0,) * bs.n
    fields = {j: s.fld for j, s in bs.slow.items()}
    store: Dict[tuple, Any] = {}
    graded = _graded(bs)
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
        # minimality: every list ranked before the slot's own vanishes at 0;
        # with property (5), the own list's value is c_j
        ranked = _ranked(bs.slow, j, 2, len(groups), sl.c) \
            if graded and frac < 1 and total == 1 \
            else _ranked(bs.slow, j, 2, bs.list_bound)
        for value, length, skeleton in ranked:
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
