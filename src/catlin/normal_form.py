"""Constructive extraction of the balanced sum-of-squares normal form.

Given a model r = -2 Re z1 + p with p weighted homogeneous of weight 1, the
pipeline extracts, step by step, balanced monomials

    A_2 |z2|^{2 k_22},  A_3 |z2|^{2 k_32} |z3|^{2 k_33},  ...

after weighted homogeneous polynomial coordinate changes.  Every slot m >= 2
takes the same step: when z_m is not active in the remainder's restriction
to z_2..z_m, a shear of each later variable of the equal-weight block
starting at z_m by a small Gaussian-integer multiple of z_m makes it active
(``_block_direction``; a slot whose z_m is active already makes no change),
and the top (z_m, zbar_m)-degree part of that restriction is filtered down
to its revlex-maximal balanced monomial.  At m = 2 the remainder is all of
p, and its restriction to z_2 is real and homogeneous of degree 1/mu_2, so
the step yields k_22 and C_20 directly; slot 2 adds only the one-variable
coefficient bound |C| < k_22 C_20, checked in canonical term order.  One
loop runs the slots in order, carrying the remainder and the parts
extracted so far; it alone substitutes the changes.  The change at slot m
moves only the later variables of its block, so it fixes every earlier
part (each lies in z_2..z_{m-1}); only the remainder and the terms above
weight 1 are substituted, and the model in the final coordinates is the
extracted parts plus the remainder.
Pseudoconvexity forces every extracted degree to be even and every extracted
coefficient to be positive; a violation raises PseudoconvexityError where it
is found.  ``normalize`` lets it through when the caller asserts
pseudoconvexity, and otherwise records it as a warning and leaves the
remaining rows unrealized.

Harmonic elimination comes first, in closed form: z1 enters r only through
its linear head, so the shift z1 -> z1 + h that absorbs the pure terms
leaves r minus its pure part (``poly.eliminate_harmonic``).  When a step
degenerates (the required restriction vanishes identically) the weight is
lowered lexicographically to the next supporting value of the Newton
diagram, which is also a closed form: the largest value that keeps every
term at weight >= 1 (``weights.lower_weight_at``).  The pipeline then
restarts and records the descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .exact import CRat, rat_str
from .poly import (CoordChange, Poly, PolyError, PseudoconvexityError,
                   eliminate_harmonic, revlex_max_balanced)
from .weights import Weight, lower_weight_at


class _Degenerate(Exception):
    """Internal: a step's nonvanishing hypothesis failed; carries the slot."""

    def __init__(self, slot: int, remaining: Poly):
        self.slot = slot
        self.remaining = remaining


# Weight descents that one normalization may take before it gives up.
MAX_DESCENTS = 64


@dataclass
class NormalRow:
    j: int
    ks: Tuple[int, ...]          # (k_{j2}, ..., k_{jj})
    coeff: Fraction              # A_j
    realized: bool

    def to_json(self) -> dict:
        return {"j": self.j, "k": list(self.ks), "A": rat_str(self.coeff),
                "realized": self.realized}


@dataclass
class NormalForm:
    n: int
    mu_initial: Weight
    mu_final: Weight
    rows: List[NormalRow]
    transform: CoordChange
    transformed: Poly            # full transformed defining function
    model: Poly                  # weight-1 tangential part after transform
    residual: Poly               # model minus the realized balanced rows
    lowered: bool = False
    descent: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def K(self) -> List[List[int]]:
        return [list(row.ks) for row in self.rows if row.realized]

    @property
    def A(self) -> List[Fraction]:
        return [row.coeff for row in self.rows if row.realized]

    def to_json(self) -> dict:
        return {
            "mu_initial": self.mu_initial.to_json(),
            "mu_final": self.mu_final.to_json(),
            "lowered": self.lowered,
            "descent": self.descent,
            "rows": [r.to_json() for r in self.rows],
            "residual": self.residual.to_json_dict(),
            "model": self.model.to_json_dict(),
            "transform": self.transform.to_json_dict(),
            "warnings": self.warnings,
        }


def _bal_monomial_alpha(n: int, ks: Sequence[int]) -> Tuple[int, ...]:
    alpha = [0] * n
    for offset, k in enumerate(ks):
        alpha[1 + offset] = k
    return tuple(alpha)


def step_first(p: Poly, mu: Weight, assert_psc: bool = False
               ) -> Tuple[Optional[CoordChange], Poly, int, Fraction,
                          List[str]]:
    """Extraction step for slot 2: ``step_inductive(p, mu, 2)`` plus the
    one-variable coefficient bound |C| < k22*C20 on the restriction p2.

    Returns (change, p2, k22, C20, warnings), with change None when z_2 is
    already active.  The bound is checked in canonical term order; a
    violation raises PseudoconvexityError when ``assert_psc``, otherwise it
    becomes a warning."""
    change, p2, (k22,), c20 = step_inductive(p, mu, 2)
    alpha = _bal_monomial_alpha(p.n, (k22,))
    bound = k22 * c20
    warnings: List[str] = []
    for a, b, c in p2.iter_terms():
        if a == alpha and b == alpha:
            continue
        if c.abs2() >= bound * bound:
            msg = f"coefficient bound |C| < k22*C20 violated at {(a, b)}"
            if assert_psc:
                raise PseudoconvexityError(msg)
            warnings.append(msg)
    return change, p2, k22, c20, warnings


def step_inductive(q: Poly, mu: Weight, m: int
                   ) -> Tuple[Optional[CoordChange], Poly, Tuple[int, ...],
                              Fraction]:
    """Extraction step for slot m >= 2.

    q is the remainder after the previous steps (the whole tangential model
    at m = 2).  Returns (change, p_m, row, C) with row = (k_{m2}, ...,
    k_{mm}) and change None when z_m is already active, so the coordinates
    stay as they are.  Raises _Degenerate when the block restriction adds
    nothing beyond the earlier variables."""
    entries = mu.entries
    # mu is nonincreasing, so the slots of mu_m's value are contiguous
    block = [j for j in range(m, mu.n + 1) if entries[j - 1] == entries[m - 1]]
    sub = q.restrict_support(list(range(2, block[-1] + 1)))
    if all(sub.degree_in(j) <= 0 for j in block):
        raise _Degenerate(m, q)
    change, scoped = _block_direction(sub, block, entries, m)
    # _block_direction made z_m active in scoped, so p_m is nonzero
    pm = scoped.top_degree_part(m)
    row, coeff = _extract_row(pm, m)
    return change, pm, row, coeff


def _block_direction(sub: Poly, block: List[int],
                     entries: Sequence[Fraction], m: int
                     ) -> Tuple[Optional[CoordChange], Poly]:
    """Linear change within the block z_m..z_s making z_m active in the
    block restriction ``sub`` (of the remainder, to z_2..z_s); returns
    (change, the restriction to z_2..z_m in the new coordinates), with
    change None when z_m is active already.

    Each later block variable z_j in turn gets the shear z_j -> z_j + x_j z_m,
    x_j the first value of ``_shear_values(D)``, D the total degree of
    ``sub``, that leaves content in the block variables still free; only the
    restriction is substituted (x_j = 0 restricts and substitutes nothing).
    The new z_m axis points along d = (1, x_{m+1}, ..., x_s), and a value
    always exists.  Fixing d_0 = 1 loses no direction, since each
    coefficient of the restriction along d is bihomogeneous in (d, dbar).
    The content F before a step is nonzero, and (z_m, x) -> (z_m, x z_m) has
    dense image, so F at z_j = x z_m is a nonzero polynomial of degree <= D
    in (x, xbar); it cannot vanish on the grid |u|, |v| <= D // 2 + 1, whose
    sides have more than D points (Schwartz, J. ACM 27, 1980; Alon, Combin.
    Probab. Comput. 8, 1999).  So the search needs no failure exit, and it
    makes at most (b - 1) (2 (D // 2) + 3)^2 substitutions, b the block
    size."""
    n = sub.n
    identity = [Poly.variable(n, i) for i in range(1, n + 1)]
    maps = list(identity)
    zm = identity[m - 1]
    degree = sub.total_degree()
    for j in block[1:]:
        for x in _shear_values(degree):
            if x.is_zero():
                f = sub.restrict_support(i for i in range(2, n + 1) if i != j)
            else:
                f = sub.substitute_maps(
                    identity[:j - 1] + [zm * x] + identity[j:])
            if any(f.degree_in(i) > 0 for i in block):
                break
        sub = f
        if not x.is_zero():
            maps[j - 1] = zm * x + identity[j - 1]
    if maps == identity:
        return None, sub
    return CoordChange(n, maps, entries), sub


def _shear_values(degree: int) -> Iterator[CRat]:
    """The Gaussian integers u + v i with |u|, |v| <= degree // 2 + 1: the
    real ones 0, 1, -1, 2, -2, ..., then those plus i, minus i, plus 2i, ..."""
    axis = [0] + [s * t for t in range(1, degree // 2 + 2) for s in (1, -1)]
    return (CRat(u, v) for v in axis for u in axis)


def _extract_row(pm: Poly, m: int) -> Tuple[Tuple[int, ...], Fraction]:
    """Filter p_m down to its revlex-maximal balanced monomial by the
    top-degree / balanced-part chain over z_m, ..., z_2, validating evenness
    and positivity."""
    ks = {}
    current = pm
    for l in range(m, 1, -1):
        dl = current.degree_in(l)
        if dl <= 0:
            ks[l] = 0
            continue
        current = current.top_degree_part(l)
        if dl % 2 != 0:
            raise PseudoconvexityError(
                f"slot {m}: top degree {dl} in (z_{l}, zbar_{l}) is odd")
        current = Poly._unchecked(current.n, {
            k: c for k, c in current.terms.items()
            if k[0][l - 1] == k[1][l - 1] == dl // 2})
        if current.is_zero():
            raise PseudoconvexityError(
                f"slot {m}: the top (z_{l}, zbar_{l}) part has no balanced "
                "term")
        ks[l] = dl // 2
    # every term left has a_l = b_l = ks[l] for l = 2..m: it is one monomial
    (_key, c), = current.terms.items()
    row = tuple(ks[l] for l in range(2, m + 1))
    if not c.is_real() or c.re <= 0:
        mono = "*".join(f"|z{l}|^{2 * k}" for l, k in enumerate(row, 2) if k)
        raise PseudoconvexityError(
            f"slot {m}: coefficient {c} of the extracted {mono} is not "
            "positive")
    return row, c.re


def normalize(r: Poly, mu: Weight, assert_psc: bool = False) -> NormalForm:
    """Full pipeline: harmonic elimination, truncation to the weight-1 model,
    then the extraction steps with lexicographic weight descent on
    degeneracy."""
    n = r.n
    if n < 2:
        raise PolyError("normalization needs dimension >= 2")
    if mu.n != n:
        raise PolyError("weight length != dimension")
    if r.coeff((1,) + (0,) * (n - 1), (0,) * n) != CRat(-1):
        raise PolyError("model must start with -2 Re z1 "
                        "(coefficient -1 on z1)")
    if constant := r.coeff((0,) * n, (0,) * n):
        raise PolyError(f"model has the constant term {constant}: the "
                        "hypersurface r = 0 must pass through the origin")
    r_work, h = eliminate_harmonic(r)  # checks reality and the model shape
    harmonic_maps = [Poly.variable(n, j) for j in range(1, n + 1)]
    harmonic_maps[0] = harmonic_maps[0] + h
    mu_init = mu
    descent: List[str] = []
    warnings: List[str] = []
    for _ in range(MAX_DESCENTS):
        graded = r_work.grade(mu.entries)
        if min(graded) < 1:
            raise PolyError("input has terms of weight below 1; not O_mu(1)")
        trace = _shift_change(n, harmonic_maps, mu)
        model = graded.get(1, Poly.zero(n))
        tail = r_work - model
        # the model in the current coordinates is extracted + q
        q = model.restrict_support(range(2, n + 1))
        extracted = Poly.zero(n)
        rows: List[NormalRow] = []
        try:
            for m in range(2, n + 1):
                if m == 2:
                    change, pm, k, coeff, warn = step_first(q, mu, assert_psc)
                    row = (k,)
                    warnings.extend(warn)
                else:
                    change, pm, row, coeff = step_inductive(q, mu, m)
                if change is not None:
                    q = change.apply(q)
                    tail = change.apply(tail)
                    trace = trace.compose(change)
                q = q - pm
                rows.append(NormalRow(m, row, coeff, True))
                extracted = extracted + pm
        except _Degenerate as deg:
            # Candidates come from the whole working polynomial: under a
            # lowered weight, former o_mu(1) terms may join the model.
            lowered = lower_weight_at(mu, deg.slot, r_work)
            if lowered is not None:
                descent.append(f"slot {deg.slot}: {mu} -> {lowered}")
                mu = lowered
                continue
            if not deg.remaining.is_zero():
                warnings.append(
                    f"slot {deg.slot}: restriction vanishes and no lower "
                    "supporting weight exists; remaining rows unrealized")
        except PseudoconvexityError as con:
            if assert_psc:
                raise
            warnings.append(f"pseudoconvexity side condition failed: "
                            f"{con}; remaining rows unrealized")
        # the rows after the last realized one (none on success) stay
        # unrealized
        start = rows[-1].j + 1 if rows else 2
        for mm in range(start, n + 1):
            rows.append(NormalRow(mm, (0,) * (mm - 1), Fraction(0), False))
        return _finish(n, mu_init, mu, rows, trace, extracted + q, tail,
                       descent, warnings)
    raise PolyError("weight descent did not terminate within the cap")


def _shift_change(n: int, maps, mu: Weight) -> CoordChange:
    """Harmonic-absorption shift; graded when the absorbed terms keep weight
    >= 1 under mu, otherwise recorded as an ungraded preliminary change."""
    try:
        return CoordChange(n, maps, mu.entries)
    except PolyError:
        return CoordChange(n, maps, mu.entries, graded=False)


def _finish(n: int, mu_init: Weight, mu: Weight,
            rows: List[NormalRow], trace: CoordChange, p: Poly, tail: Poly,
            descent: List[str], warnings: List[str]) -> NormalForm:
    bal = Poly.zero(n)
    for row in rows:
        if row.realized:
            alpha = _bal_monomial_alpha(n, row.ks)
            bal = bal + Poly.monomial(n, alpha, alpha, row.coeff)
    residual = p - bal
    head = Poly.monomial(n, tuple(1 if i == 0 else 0 for i in range(n)),
                         (0,) * n, -1)
    transformed = head + head.conj() + p + tail
    return NormalForm(
        n=n, mu_initial=mu_init, mu_final=mu, rows=rows, transform=trace,
        transformed=transformed, model=p, residual=residual,
        lowered=bool(descent), descent=descent, warnings=warnings)


def verify_normal_form(nf: NormalForm, r: Poly, mu: Weight) -> Tuple[bool, List[str]]:
    """Independent re-check of a normal form against the original input.

    Clauses: (i) every realized balanced monomial appears in the transformed
    model with coefficient A_j; (ii) the weighted homogeneity identities
    sum_l 2 k_{jl} mu_l = 1 hold under the final weight; (iii) the degree of
    the transformed model among terms supported in z_2..z_j is at most
    2 k_{jj} in (z_j, zbar_j); (iv) each row is the revlex-maximal balanced
    monomial supported in z_2..z_j; (v) applying the recorded transform to r
    reproduces the transformed polynomial exactly; (vi) the normal form
    started from mu and ended at mu or, when lowered, lexicographically
    below it."""
    violations: List[str] = []
    if nf.mu_initial != mu:
        violations.append(f"initial weight {nf.mu_initial} != {mu}")
    if nf.mu_final > mu or nf.lowered != (nf.mu_final < mu):
        violations.append(f"final weight {nf.mu_final} with lowered = "
                          f"{nf.lowered} does not descend from {mu}")
    entries = nf.mu_final.entries
    for row in nf.rows:
        if not row.realized:
            continue
        j = row.j
        alpha = _bal_monomial_alpha(nf.n, row.ks)
        c = nf.model.coeff(alpha, alpha)
        if not (c.is_real() and c.re == row.coeff and row.coeff > 0):
            violations.append(f"row {j}: balanced monomial coefficient "
                              f"{c} != A_j = {row.coeff}")
        total = sum((Fraction(2 * k) * entries[1 + i]
                     for i, k in enumerate(row.ks)), Fraction(0))
        if total != 1:
            violations.append(f"row {j}: weighted homogeneity sum {total} != 1")
        if row.ks[-1] <= 0:
            violations.append(f"row {j}: k_jj must be positive")
        scoped = nf.model.restrict_support(list(range(2, j + 1)))
        if scoped.degree_in(j) > 2 * row.ks[-1]:
            violations.append(
                f"row {j}: degree {scoped.degree_in(j)} in (z_{j}, zbar_{j}) "
                f"exceeds 2 k_jj = {2 * row.ks[-1]}")
        best = revlex_max_balanced(nf.model, range(2, j + 1))
        if best is None or best[0] != alpha:
            violations.append(f"row {j}: not revlex-maximal (expected "
                              f"{best[0] if best else None}, row gives {alpha})")
    reconstructed = nf.transform.apply(r)
    if reconstructed != nf.transformed:
        violations.append("transform applied to the input does not reproduce "
                          "the transformed polynomial")
    return not violations, violations
