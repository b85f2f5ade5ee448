"""Sparse exact polynomials in z_1..z_n and their conjugates.

A polynomial is a finite map from exponent pairs (alpha, beta) to Gaussian
rational coefficients, representing  sum C_{ab} z^alpha zbar^beta.  Real-valued
polynomials carry a Hermitian-symmetric coefficient table,
C_{ba} = conj(C_{ab}); intermediate results (Wirtinger derivatives, component
maps of coordinate changes) may be non-real, so the class itself does not
force the symmetry.  Use :func:`require_real` at public boundaries.

Conventions used throughout the package:

* variables are 1-based in every public signature (z1 is the "normal"
  direction of a model hypersurface); exponent tuples are 0-based internally;
* a pair (alpha, beta) is *balanced* when alpha == beta and *pure*
  (harmonic) when alpha == 0 or beta == 0;
* the canonical term order is graded, then lexicographic on the concatenated
  (alpha, beta); all iteration and serialization follow it;
* the zero polynomial has an empty term map; the dimension is carried
  separately.

Validation happens at the edge.  The checked constructor ``Poly(n, terms)``,
``Poly.monomial``, ``Poly.from_json_dict`` and the parser check what comes
from outside the program: the dimension, each key's length and signs, each
coefficient.  A polynomial derived from a valid one (ring operations, pure
and holomorphic parts, restrictions, top-degree parts, the parts of
``grade``, ``split_model``'s p) is built by ``Poly._unchecked``, which
wraps its table as given: only a product forms zeros, and each caller of
``_mul_terms`` drops them; ``Poly.zero``, ``const`` and ``variable`` check
their arguments and build the same way.  Every weighted sum is an integer
over its weights' common denominator (``_integer_weight``): the weighted
orders of ``grade``, ``CoordChange`` and ``weights.lower_weight_at``, the
remainders of ``weights.admissible_rows`` (read by ``is_admissible``,
``enumerate_multitypes`` and ``boundary._ranked``) and ``boundary._graded``.

Work on input is bounded here: ``MAX_DIMENSION`` caps n, and the parser and
``levi.sheared_certificate`` read ``MAX_POWER_TERMS`` and
``MAX_PRODUCT_PAIRS``.  Product work has one account, ``pair_budget``: inside
it ``_mul_terms``, the one product loop, charges the term pairs of each
product before it forms them, and refuses one that would overdraw the
budget with ``PairBudgetError``.  A parse opens one budget, and the shear
gate another; outside any budget nothing is charged.

All values are immutable after construction and all operations are pure, so
they may be shared freely across threads; a budget is scoped to its context.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .exact import CRat, CZERO, Rat, rank, rat_from_str, rat_str

Exponents = Tuple[int, ...]
TermKey = Tuple[Exponents, Exponents]

# Largest dimension n of a polynomial.  Every term carries two dense
# exponent tuples of length n, so memory and output grow with n whatever the
# expression; a larger n is refused before any term is built.  The largest n
# in the tests, examples, README and benchmark workloads is 12, so this
# leaves a margin of more than five times.
MAX_DIMENSION = 64

# Most terms a power may expand to.  The parser refuses a power before it is
# expanded when the count of monomials within its bidegree, over the
# variables of its base, exceeds this, and ``levi.sheared_certificate`` a
# shear when a power of its map may have more terms; so an oversized input
# fails fast.
MAX_POWER_TERMS = 50_000

# Most term pairs the products of one parse, or of one shear gate, may form
# together (``pair_budget``).  The cap above bounds the size of a power, not
# the work of expanding it: (1+z2+z3+z4)^40 has 12,341 terms, and its last
# squaring forms 3.1 million term pairs.  Every product ``_mul_terms`` forms
# inside a budget is charged against it, and refused before it is formed
# when it would overdraw it; so an expression of many admitted products
# fails fast as well.
MAX_PRODUCT_PAIRS = 1_000_000


class PolyError(ValueError):
    """Invalid polynomial construction or operation."""


class NonRealError(PolyError):
    """A polynomial required to be real-valued is not Hermitian-symmetric."""


class DimensionMismatch(PolyError):
    """Operands live in different ambient dimensions."""


class ModelShapeError(PolyError):
    """Input is not of the model shape c * Re z1 + p(z_2..z_n)."""


class PseudoconvexityError(PolyError):
    """A positivity side condition that pseudoconvexity forces failed."""


class PairBudgetError(PolyError):
    """A product would overdraw the open ``pair_budget``."""


def term_sort_key(key: TermKey) -> tuple:
    alpha, beta = key
    return (sum(alpha) + sum(beta), alpha + beta)


@dataclass(frozen=True, eq=True)
class Poly:
    """Sparse polynomial in (z, zbar) with exact complex-rational coefficients."""

    n: int
    terms: Dict[TermKey, CRat]

    def __post_init__(self):
        _check_dimension(self.n)
        clean = {}
        for (alpha, beta), c in self.terms.items():
            if len(alpha) != self.n or len(beta) != self.n:
                raise DimensionMismatch(
                    f"exponent length != n={self.n}: {(alpha, beta)}")
            if any(e < 0 for e in alpha + beta):
                raise PolyError(f"negative exponent in {(alpha, beta)}")
            c = CRat.of(c)
            if not c.is_zero():
                clean[(tuple(alpha), tuple(beta))] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _unchecked(n: int, terms: Dict[TermKey, CRat]) -> "Poly":
        """Poly wrapping ``terms`` as given: a valid table (tuple keys of
        length n, nonnegative exponents, nonzero CRat values), as ring
        operations on valid operands produce it."""
        p = object.__new__(Poly)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", terms)
        return p

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Poly":
        _check_dimension(n)
        return Poly._unchecked(n, {})

    @staticmethod
    def const(n: int, c: "CRat | Rat") -> "Poly":
        c = CRat.of(c)
        _check_dimension(n)
        z = (0,) * n
        return Poly._unchecked(n, {(z, z): c} if c else {})

    @staticmethod
    def variable(n: int, j: int) -> "Poly":
        """The monomial z_j (1-based)."""
        _check_var(n, j)
        _check_dimension(n)
        return Poly._unchecked(n, {(_unit(n, j), (0,) * n): CRat(1)})

    @staticmethod
    def monomial(n: int, alpha: Sequence[int], beta: Sequence[int],
                 c: "CRat | Rat" = 1) -> "Poly":
        return Poly(n, {(tuple(alpha), tuple(beta)): CRat.of(c)})

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _check_same(self, other: "Poly"):
        if self.n != other.n:
            raise DimensionMismatch(f"n={self.n} vs n={other.n}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        return Poly._unchecked(self.n, _sum_terms(self.terms, other.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        return Poly._unchecked(self.n,
                               _sum_terms(self.terms, other.terms, True))

    def __neg__(self) -> "Poly":
        return Poly._unchecked(self.n, _neg_terms(self.terms))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check_same(other)
            terms = _mul_terms(self.terms, other.terms)
            return Poly._unchecked(self.n, _nonzero(terms))
        return Poly._unchecked(self.n,
                               _scale_terms(self.terms, CRat.of(other)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        """self ** e: a one-term self in closed form (``_monomial_power``),
        any other by repeated squaring."""
        if not isinstance(e, int) or e < 0:
            raise PolyError("exponent must be a nonnegative integer")
        if len(self.terms) == 1:
            return Poly._unchecked(self.n, _monomial_power(self.terms, e))
        result = Poly.const(self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def conj(self) -> "Poly":
        return Poly._unchecked(self.n, _conj_terms(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, alpha: Sequence[int], beta: Sequence[int]) -> CRat:
        return self.terms.get((tuple(alpha), tuple(beta)), CZERO)

    def iter_terms(self) -> Iterator[Tuple[Exponents, Exponents, CRat]]:
        """Terms in the canonical (graded, then lex) order."""
        for key in sorted(self.terms, key=term_sort_key):
            yield key[0], key[1], self.terms[key]

    # ------------------------------------------------------------------
    # realness / structure queries
    # ------------------------------------------------------------------

    def is_real(self) -> bool:
        """True iff the coefficient table is Hermitian-symmetric."""
        for (a, b), c in self.terms.items():
            if self.terms.get((b, a), CZERO) != c.conj():
                return False
        return True

    def pure_part(self) -> "Poly":
        """Terms z^alpha or zbar^beta (harmonic monomials), constants included."""
        zero = (0,) * self.n
        return Poly._unchecked(self.n, {k: c for k, c in self.terms.items()
                                        if k[0] == zero or k[1] == zero})

    def holomorphic_part(self) -> "Poly":
        zero = (0,) * self.n
        return Poly._unchecked(self.n, {k: c for k, c in self.terms.items()
                                        if k[1] == zero and k[0] != zero})

    def antiholomorphic_part(self) -> "Poly":
        zero = (0,) * self.n
        return Poly._unchecked(self.n, {k: c for k, c in self.terms.items()
                                        if k[0] == zero and k[1] != zero})

    def is_holomorphic(self) -> bool:
        zero = (0,) * self.n
        return all(k[1] == zero for k in self.terms)

    def support_vars(self) -> Tuple[int, ...]:
        """1-based indices of variables actually appearing."""
        seen = set()
        for (a, b) in self.terms:
            for i in range(self.n):
                if a[i] or b[i]:
                    seen.add(i + 1)
        return tuple(sorted(seen))

    def degree_in(self, j: int) -> int:
        """Total degree in (z_j, zbar_j); -1 for the zero polynomial."""
        _check_var(self.n, j)
        if not self.terms:
            return -1
        return max(a[j - 1] + b[j - 1] for (a, b) in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(a) + sum(b) for (a, b) in self.terms)

    def restrict_support(self, keep: Iterable[int]) -> "Poly":
        """Terms supported on the 1-based variable set ``keep`` (others set to 0)."""
        ks = {j - 1 for j in keep}
        drop = [i for i in range(self.n) if i not in ks]
        return Poly._unchecked(self.n, {
            (a, b): c for (a, b), c in self.terms.items()
            if not any(a[i] or b[i] for i in drop)})

    def top_degree_part(self, j: int) -> "Poly":
        """Terms of maximal total degree in (z_j, zbar_j)."""
        d = self.degree_in(j)
        return Poly._unchecked(self.n, {k: c for k, c in self.terms.items()
                                        if k[0][j - 1] + k[1][j - 1] == d})

    # ------------------------------------------------------------------
    # weights and grading
    # ------------------------------------------------------------------

    def grade(self, mu: Sequence[Fraction]) -> Dict[Fraction, "Poly"]:
        """Partition of terms by exact weighted order (alpha + beta | mu), in
        ascending order; the parts sum back to self.  Each order is an
        integer dot product over mu's common denominator."""
        if len(mu) != self.n:
            raise DimensionMismatch("weight length != exponent length")
        w, den = _integer_weight(mu)
        buckets: Dict[int, Dict[TermKey, CRat]] = {}
        for key, c in self.terms.items():
            a, b = key
            order = sum(map(mul, a, w)) + sum(map(mul, b, w))
            buckets.setdefault(order, {})[key] = c
        return {Fraction(order, den): Poly._unchecked(self.n, t)
                for order, t in sorted(buckets.items())}

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------

    def wirtinger(self, j: int, conjugate: bool = False) -> "Poly":
        """Formal partial derivative in z_j, or zbar_j when ``conjugate``."""
        _check_var(self.n, j)
        return Poly._unchecked(self.n,
                               _derivative_terms(self.terms, j - 1, conjugate))

    # ------------------------------------------------------------------
    # substitution and evaluation
    # ------------------------------------------------------------------

    def substitute_maps(self, maps: Sequence["Poly"]) -> "Poly":
        """Exact expansion of self under z_j -> maps[j-1], zbar_j -> conj(maps[j-1]).

        Every map must be holomorphic (no zbar content).  Each term is its
        coefficient times the powers of its variables' maps and of their
        conjugates, each power formed once per call, and a power of a
        one-term map (an identity or monomial component) in closed form, with
        no product.
        """
        if len(maps) != self.n:
            raise DimensionMismatch("need one component map per variable")
        m = maps[0].n
        for f in maps:
            if f.n != m:
                raise DimensionMismatch("component maps disagree on dimension")
            if not f.is_holomorphic():
                raise PolyError("component maps must be holomorphic")
        pows: Dict[Tuple[int, int, bool], Dict[TermKey, CRat]] = {}

        def power(i: int, e: int, bar: bool) -> Dict[TermKey, CRat]:
            key = (i, e, bar)
            if key not in pows:
                f = maps[i].conj() if bar else maps[i]
                pows[key] = (f ** e).terms
            return pows[key]

        zero = (0,) * m
        out: Dict[TermKey, CRat] = {}
        for (a, b), c in self.terms.items():
            piece = {(zero, zero): c}
            for i in range(self.n):
                for e, bar in ((a[i], False), (b[i], True)):
                    if e:
                        piece = {k: v for k, v in
                                 _mul_terms(piece, power(i, e, bar)).items()
                                 if v}
            # a key that cancels leaves the table, and a later piece
            # appends it again: the term order of repeated Poly sums
            for k, v in piece.items():
                s = out.get(k)
                if s is None:
                    out[k] = v
                else:
                    s = s + v
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return Poly._unchecked(m, out)

    def evaluate(self, point: Sequence["CRat | Rat"]) -> CRat:
        """Exact value at a point (zbar slots use the conjugate coordinates)."""
        if len(point) != self.n:
            raise DimensionMismatch("point length != n")
        zs = [CRat.of(c) for c in point]
        return self._evaluate(zs, [c.conj() for c in zs])

    def _evaluate(self, zs: Sequence[CRat], zbars: Sequence[CRat]) -> CRat:
        """Value at the point zs, whose conjugates zbars the caller supplies
        (to share them across polynomials evaluated at one point).  A term
        is skipped at its first zero coordinate of positive exponent, and
        each coordinate is raised by ``CRat.__pow__``, one product per
        coordinate."""
        xs = [*zs, *zbars]
        total = CZERO
        for (a, b), c in self.terms.items():
            for x, e in zip(xs, a + b):
                if e:
                    if not x:
                        break
                    c = c * (x if e == 1 else x ** e)
            else:
                total = total + c
        return total

    # ------------------------------------------------------------------
    # serialization and display
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for a, b, c in self.iter_terms():
            re, im = c.part_strs()
            terms.append({"alpha": list(a), "beta": list(b),
                          "re": re, "im": im})
        return {"n": self.n, "terms": terms}

    @staticmethod
    def from_json_dict(d: dict) -> "Poly":
        """Inverse of :meth:`to_json_dict`; malformed input raises PolyError."""
        n = _json_get(d, "n")
        _json_known(d, ("n", "terms"), "")
        if type(n) is not int:
            raise PolyError(f"JSON polynomial: n must be an int, not {n!r}")
        _check_dimension(n)
        raw = _json_get(d, "terms")
        if not isinstance(raw, list):
            raise PolyError("JSON polynomial: terms must be a list")
        terms: Dict[TermKey, CRat] = {}
        for t in raw:
            key = (_json_exponents(t, "alpha"), _json_exponents(t, "beta"))
            c = CRat(_json_rat(t, "re"), _json_rat(t, "im"))
            _json_known(t, ("alpha", "beta", "re", "im"), " in a term")
            if key in terms:
                raise PolyError(f"duplicate term {key} in JSON polynomial")
            terms[key] = c
        return Poly(n, terms)

    def __str__(self) -> str:
        return format_poly(self)


# Raw term-table kernels.  Each takes and returns a Dict[TermKey, CRat];
# the Poly ring operations wrap them, and the parser runs on them directly,
# building one Poly at the end.  Tables without zeros give tables without
# zeros, except from _mul_terms.


def _nonzero(terms: Dict[TermKey, CRat]) -> Dict[TermKey, CRat]:
    """The table without its zero coefficients, in its order."""
    return {k: c for k, c in terms.items() if c}


def _sum_terms(t1: Dict[TermKey, CRat], t2: Dict[TermKey, CRat],
               subtract: bool = False) -> Dict[TermKey, CRat]:
    """Term table of t1 + t2, or t1 - t2 when ``subtract``: t1's keys in
    their order, then t2's new keys in theirs, and a key that cancels
    dropped."""
    out = dict(t1)
    for k, c in t2.items():
        s = out.get(k)
        if s is None:
            out[k] = -c if subtract else c
        else:
            s = s - c if subtract else s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _neg_terms(terms: Dict[TermKey, CRat]) -> Dict[TermKey, CRat]:
    return {k: -c for k, c in terms.items()}


def _scale_terms(terms: Dict[TermKey, CRat], c: CRat
                 ) -> Dict[TermKey, CRat]:
    """Term table of c times the table; empty when c is zero."""
    return {k: v * c for k, v in terms.items()} if c else {}


def _conj_terms(terms: Dict[TermKey, CRat]) -> Dict[TermKey, CRat]:
    """Term table of the conjugate: each key's two halves swapped."""
    return {(b, a): c.conj() for (a, b), c in terms.items()}


def _derivative_terms(terms: Dict[TermKey, CRat], i: int,
                      conjugate: bool) -> Dict[TermKey, CRat]:
    """Term table of the derivative in z_{i+1} (0-based i), or zbar_{i+1}
    when ``conjugate``: the one derivative loop.  Distinct terms have
    distinct derivatives, so nothing is summed, and a table without zeros
    gives one without zeros.  A coefficient of exponent 1 is kept as it
    is; any other is scaled by its int exponent, on ``CRat.__mul__``'s int
    path."""
    out: Dict[TermKey, CRat] = {}
    for (a, b), c in terms.items():
        e = b[i] if conjugate else a[i]
        if e == 0:
            continue
        if e != 1:
            c = c * e
        if conjugate:
            out[(a, b[:i] + (e - 1,) + b[i + 1:])] = c
        else:
            out[(a[:i] + (e - 1,) + a[i + 1:], b)] = c
    return out


def _monomial_power(terms: Dict[TermKey, CRat], k: int
                    ) -> Dict[TermKey, CRat]:
    """Term table of a one-term table raised to the power k >= 0, in closed
    form: the exponents times k and the coefficient c ** k, so no term pair
    is formed."""
    ((a, b), c), = terms.items()
    return {(tuple([k * x for x in a]), tuple([k * y for y in b])): c ** k}


# The term pairs left to the innermost open ``pair_budget``, in a one-item
# list that ``_mul_terms`` draws down; None outside any budget.
_PAIR_BUDGET: ContextVar = ContextVar("pair_budget", default=None)


@contextmanager
def pair_budget(pairs: int) -> Iterator[None]:
    """Scope in which the products ``_mul_terms`` forms may form at most
    ``pairs`` term pairs together: the one account of product work.  A
    budget opened inside another replaces it until it closes."""
    token = _PAIR_BUDGET.set([pairs])
    try:
        yield
    finally:
        _PAIR_BUDGET.reset(token)


def _mul_terms(t1: Dict[TermKey, CRat], t2: Dict[TermKey, CRat],
               cap: Optional[int] = None,
               out: Optional[Dict[TermKey, CRat]] = None
               ) -> Dict[TermKey, CRat]:
    """Term table of t1 * t2, which may hold zeros: the one product loop.

    The product is added into ``out`` when given, and that table is
    returned; an empty operand returns it at once, before the budget is
    read, as its charge is 0.  Inside a ``pair_budget`` it charges
    len(t1) * len(t2) term pairs to the budget first, and raises
    PairBudgetError, before any pair is formed, when that would overdraw it.

    Each term of t1 walks t2: without ``cap``, t2 as it stands, in its own
    order and to its end, so the product's term order is t1's order crossed
    with t2's; with it, t2 by ascending degree (sorted only when it has more
    than one term), stopping at the first term whose product would exceed
    that total degree, so a term pair above the cap is never formed."""
    out = {} if out is None else out
    if not t1 or not t2:
        return out
    left = _PAIR_BUDGET.get()
    if left is not None:
        pairs = len(t1) * len(t2)
        if pairs > left[0]:
            raise PairBudgetError(f"product would form {pairs} term pairs, "
                                  f"more than the {left[0]} left")
        left[0] -= pairs
    if cap is None:
        for (a1, b1), c1 in t1.items():
            for (a2, b2), c2 in t2.items():
                k = (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)))
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
        return out
    right = [(sum(a2) + sum(b2), a2, b2, c2) for (a2, b2), c2 in t2.items()]
    if len(right) > 1:
        right.sort(key=itemgetter(0))
    for (a1, b1), c1 in t1.items():
        room = cap - sum(a1) - sum(b1)
        for d2, a2, b2, c2 in right:
            if d2 > room:
                break
            k = (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)))
            s = out.get(k)
            out[k] = c1 * c2 if s is None else s + c1 * c2
    return out


def _capped_products(n: int, pairs: Iterable[Tuple[Poly, Poly]],
                     cap: Optional[int]) -> Poly:
    """Sum of a * b over ``pairs`` without the terms of total degree above
    ``cap`` (no cap when None), formed in one table by ``_mul_terms``."""
    out: Dict[TermKey, CRat] = {}
    for a, b in pairs:
        _mul_terms(a.terms, b.terms, cap, out)
    return Poly._unchecked(n, _nonzero(out))


def _json_get(d, key: str):
    if not isinstance(d, dict) or key not in d:
        raise PolyError(f"JSON polynomial: missing key {key!r}")
    return d[key]


def _json_known(d: dict, keys: Tuple[str, ...], where: str):
    """Refuse a key of the JSON object ``d`` that is not one of ``keys``."""
    for key in d:
        if key not in keys:
            raise PolyError(f"JSON polynomial: unknown key {key!r}{where}")


def _json_exponents(t, key: str) -> Exponents:
    e = _json_get(t, key)
    if not isinstance(e, list) or any(type(x) is not int for x in e):
        raise PolyError(f"JSON polynomial: {key} must be a list of ints, "
                        f"not {e!r}")
    return tuple(e)


def _json_rat(t, key: str) -> Fraction:
    s = _json_get(t, key)
    if not isinstance(s, str):
        raise PolyError(f"JSON polynomial: {key} must be a string such as "
                        f"\"-1/2\", not {s!r}")
    try:
        return rat_from_str(s)
    except ValueError as exc:
        raise PolyError(f"JSON polynomial: {key}: {exc}") from None


def _check_dimension(n: int):
    if n < 1:
        raise PolyError("dimension must be >= 1")
    if n > MAX_DIMENSION:
        raise PolyError(f"dimension {n} is above {MAX_DIMENSION}, the largest "
                        "a polynomial may have")


def _check_var(n: int, j: int):
    if not 1 <= j <= n:
        raise DimensionMismatch(f"variable index {j} out of range 1..{n}")


def require_real(p: Poly, what: str = "polynomial") -> Poly:
    if not p.is_real():
        # in term order, so that the message depends on p alone
        bad = sorted((k for k, c in p.terms.items()
                      if p.terms.get((k[1], k[0]), CZERO) != c.conj()),
                     key=term_sort_key)
        raise NonRealError(
            f"{what} is not real-valued; offending exponent pairs: {bad[:3]}")
    return p


def _integer_weight(mu: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(w, d) with mu = w / d: d the least common denominator of mu's
    entries, so a weighted order (alpha + beta | mu) is the integer
    (alpha + beta | w) over d."""
    mu = [Fraction(m) for m in mu]
    den = math.lcm(*(m.denominator for m in mu))
    return [m.numerator * (den // m.denominator) for m in mu], den


def split_model(r: Poly) -> Tuple[CRat, Poly]:
    """Split a model r = c1*z1 + c1*zbar1 + p(z_2..z_n) into (c1, p).

    r must be real and z1 may appear only in that linear head, with a
    nonzero real coefficient c1; otherwise ModelShapeError is raised."""
    require_real(r, "model")
    n = r.n
    e1 = _unit(n, 1)
    zero = (0,) * n
    c1 = r.terms.get((e1, zero), CZERO)
    if c1.is_zero() or not c1.is_real():
        raise ModelShapeError("model needs a nonzero real multiple of Re z1")
    p_terms = {}
    for (a, b), c in r.terms.items():
        if a[0] or b[0]:
            if (a, b) not in ((e1, zero), (zero, e1)):
                raise ModelShapeError("z1 appears beyond the linear head")
            continue
        p_terms[(a, b)] = c
    return c1, Poly._unchecked(n, p_terms)


def eliminate_harmonic(r: Poly) -> Tuple[Poly, Poly]:
    """Absorb pure (harmonic) monomials of f into z_1 for r = c*Re(z1) + f.

    Returns (r', h) with r' = r after the substitution z1 -> z1 + h.  h is the
    holomorphic pure part of f rescaled by the z1 coefficient; r' contains no
    pure monomial.  The model shape is checked by :func:`split_model`.

    z1 enters r only through its linear head c1*(z1 + zbar1), c1 real, so the
    shift adds exactly c1*h + conj(c1*h) to r.  With h = -(P + c0/2)/c1, for
    P the holomorphic pure part of f and c0 its real constant, that sum is
    -(P + conj(P) + c0), minus the pure part of f: r' = r - pure_part(f).
    """
    c1, f = split_model(r)
    n = r.n
    zero = (0,) * n
    c0 = f.terms.get((zero, zero), CZERO)
    h = (f.holomorphic_part() + Poly.const(n, c0 * Fraction(1, 2))) \
        * (CRat(-1) / c1)
    # r passed split_model's check, and the pure part of a
    # Hermitian-symmetric table is Hermitian-symmetric, so r' is real
    return r - f.pure_part(), h


def revlex_max_balanced(p: Poly, active: Iterable[int]) -> Optional[TermKey]:
    """Revlex-maximal balanced monomial of p supported on ``active`` variables.

    Multidegree sequences over the active variables are compared starting
    from the last variable.  Returns the (alpha, beta) key or None.
    """
    act = sorted(set(active))
    best_key = None
    best_rank = None
    for (a, b), _ in p.terms.items():
        if a != b:
            continue
        if any((a[i] or b[i]) and (i + 1) not in act for i in range(p.n)):
            continue
        rank = tuple(2 * a[j - 1] for j in reversed(act))
        if best_rank is None or rank > best_rank:
            best_rank = rank
            best_key = (a, b)
    return best_key


# ----------------------------------------------------------------------
# coordinate changes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CoordChange:
    """Weighted-homogeneous polynomial holomorphic coordinate change.

    ``maps[j-1]`` expresses the substitution target of z_j: applying the
    change to p yields p with z_j replaced by maps[j-1] (and zbar_j by its
    conjugate).  Validity: each map is holomorphic with no constant term,
    every monomial of maps[j-1] has mu-weight >= mu_j, and the linear part on
    each equal-weight block of variables is an invertible matrix.

    A change constructed with ``graded=False`` skips the weight clauses and
    instead requires the full linear part to be invertible; this is reserved
    for absorbing pure (harmonic) terms into z_1, which is a preliminary step
    outside the weighted grading.
    """

    n: int
    maps: Tuple[Poly, ...]
    mu: Tuple[Fraction, ...]
    graded: bool

    def __init__(self, n: int, maps: Sequence[Poly], mu: Sequence[Fraction],
                 graded: bool = True):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "maps", tuple(maps))
        object.__setattr__(self, "mu", tuple(Fraction(m) for m in mu))
        object.__setattr__(self, "graded", bool(graded))
        self._validate()

    def _validate(self):
        if len(self.maps) != self.n or len(self.mu) != self.n:
            raise DimensionMismatch("need one map and one weight per variable")
        zero = (0,) * self.n
        w, _den = _integer_weight(self.mu)
        for j, f in enumerate(self.maps, start=1):
            if f.n != self.n:
                raise DimensionMismatch("component map dimension mismatch")
            if not f.is_holomorphic():
                raise PolyError(f"component map {j} is not holomorphic")
            if not f.terms.get((zero, zero), CZERO).is_zero():
                raise PolyError(f"component map {j} does not fix the origin")
            if not self.graded:
                continue
            # f is holomorphic: each term's order is (alpha | w)
            if any(sum(map(mul, a, w)) < w[j - 1] for a, _b in f.terms):
                raise PolyError(f"component map {j} has a monomial of weight "
                                f"below {self.mu[j - 1]}")
        if self.graded:
            for block in _weight_blocks(self.mu):
                m = [[self.maps[j - 1].coeff(_unit(self.n, i), zero)
                      for j in block] for i in block]
                if rank(m) != len(block):
                    raise PolyError(
                        f"linear part on equal-weight block {block} is singular")
        else:
            full = [[self.maps[j - 1].coeff(_unit(self.n, i), zero)
                     for j in range(1, self.n + 1)]
                    for i in range(1, self.n + 1)]
            if rank(full) != self.n:
                raise PolyError("linear part of the change is singular")

    def apply(self, p: Poly) -> Poly:
        return p.substitute_maps(self.maps)

    def compose(self, after: "CoordChange") -> "CoordChange":
        """Change equivalent to applying self first, then ``after``."""
        maps = [f.substitute_maps(after.maps) for f in self.maps]
        return CoordChange(self.n, maps, after.mu,
                           graded=self.graded and after.graded)

    def to_json_dict(self) -> dict:
        return {"mu": [rat_str(m) for m in self.mu],
                "graded": self.graded,
                "maps": [f.to_json_dict() for f in self.maps]}


def _unit(n: int, j: int) -> Exponents:
    return tuple(1 if i == j - 1 else 0 for i in range(n))


def _weight_blocks(mu: Sequence[Fraction]) -> Iterator[Tuple[int, ...]]:
    groups: Dict[Fraction, list] = {}
    for j, m in enumerate(mu, start=1):
        groups.setdefault(m, []).append(j)
    for m in sorted(groups, reverse=True):
        yield tuple(groups[m])


# ----------------------------------------------------------------------
# pretty printing
# ----------------------------------------------------------------------


def _monomial_str(n: int, alpha: Exponents, beta: Exponents) -> str:
    parts = []
    for i in range(n):
        if alpha[i]:
            parts.append(f"z{i+1}" + (f"^{alpha[i]}" if alpha[i] > 1 else ""))
    for i in range(n):
        if beta[i]:
            parts.append(f"zbar{i+1}" + (f"^{beta[i]}" if beta[i] > 1 else ""))
    return "*".join(parts) if parts else "1"


def format_poly(p: Poly) -> str:
    """Human form; Hermitian pairs are folded into 2*Re(...) and |.|^2 terms."""
    if p.is_zero():
        return "0"
    shown = set()
    chunks = []
    for a, b, c in p.iter_terms():
        if (a, b) in shown:
            continue
        if a == b:
            shown.add((a, b))
            body = "*".join(f"|z{i+1}|^{2*a[i]}" for i in range(p.n) if a[i])
            coeff = "" if c == CRat(1) else f"{c}*"
            chunks.append(f"{coeff}{body}" if body else str(c))
        else:
            partner = (b, a)
            if partner in p.terms and p.terms[partner] == c.conj():
                shown.add((a, b))
                shown.add(partner)
                if a + b < b + a:  # show the holomorphic-leading side
                    a, b, c = partner[0], partner[1], c.conj()
                if c == CRat(1):
                    chunks.append(f"2*Re({_monomial_str(p.n, a, b)})")
                elif c == CRat(-1):
                    chunks.append(f"-2*Re({_monomial_str(p.n, a, b)})")
                else:
                    chunks.append(f"2*Re(({c})*{_monomial_str(p.n, a, b)})")
            else:
                shown.add((a, b))
                chunks.append(f"({c})*{_monomial_str(p.n, a, b)}")
    out = " + ".join(chunks)
    return out.replace("+ -", "- ")
