"""Seeded job lists for the catlin benchmark and the truth each answer is
checked against.

A job is one ``catlin`` CLI invocation with generated ``--expr``/``--n``
inputs.  Every job carries the answer known by construction; ``check``
compares the CLI's exit code and JSON output with it and, outside the timed
interval, replays certificates and witnesses with the bundled replayers.

The workload seed picks coefficients and the job order only.  The families,
their exponent templates and the number of jobs of each are fixed, so the
work in one pass barely moves with the seed and runs with different seeds
stay comparable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Coefficient pools.  Each pool holds values of similar bit size, so the
# exact arithmetic costs about the same whichever value the seed draws.
POSITIVE = [F(1), F(2), F(3), F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(5, 4)]
SHEAR = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)]
INSIDE_UNIT = [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 3), F(-2, 3),
               F(3, 4), F(-3, 4), F(1), F(-1)]
OUTSIDE_UNIT = [F(3, 2), F(-3, 2), F(2), F(-2), F(5, 4), F(-5, 4)]
PERTURB = [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(1, 4), F(-1, 4)]
UNDECIDED = [F(1, 2), F(1, 3), F(-1, 3), F(1, 4), F(-1, 4)]   # not -1/2: refuted
EPSILON = [F(1, 10), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2)]

OUT_OF_RANGE = ("torsion model with z2 -> z2^2: `catlin torsion` did not "
                "finish within 10 minutes; it stays out of the benchmark "
                "until the boundary module is faster")


def q(x: F) -> str:
    """A rational as a parenthesised expression literal."""
    return f"({x.numerator}/{x.denominator})" if x.denominator != 1 \
        else f"({x.numerator})"


@dataclass(frozen=True)
class Job:
    family: str
    command: str
    expr: str
    n: int
    expect: Dict = field(compare=False, hash=False)
    flags: Tuple[str, ...] = ()

    def argv(self) -> List[str]:
        return [self.command, "--json", *self.flags,
                "--expr", self.expr, "--n", str(self.n)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pass_seconds: float      # one pass at nominal host speed (hostspeed.py)
    make: Callable[[random.Random], List[Job]]
    # run once after the timed passes: checks the timed jobs cannot show
    # (failures counted), and models answered wrongly today (reported only)
    after: Callable[[random.Random], List[Job]] = lambda rng: []
    known_defects: Callable[[], List[Job]] = lambda: []


# ----------------------------------------------------------------------
# normalize
# ----------------------------------------------------------------------

MODEL = "-2*Re(z1) + "


def _normal(family: str, p: str, n: int, mu: Sequence[F],
            K: List[List[int]], A: Sequence[F]) -> Job:
    return Job(family, "normalize", MODEL + p, n,
               {"code": 0, "mu": [str(m) for m in mu], "K": K,
                "A": [str(a) for a in A]})


def _diagonal(rng: random.Random, exps: Sequence[int]) -> Job:
    """sum A_j |z_j|^(2 k_j) with nondecreasing k_j: the coordinates are
    already the multitype coordinates, row j is |z_j|^(2 k_j)."""
    coeffs = [rng.choice(POSITIVE) for _ in exps]
    p = " + ".join(f"{q(c)}*|z{j}|^{e}"
                   for j, (c, e) in enumerate(zip(coeffs, exps), start=2))
    K = [[0] * i + [e // 2] for i, e in enumerate(exps)]
    return _normal("diagonal", p, len(exps) + 1,
                   [F(1)] + [F(1, e) for e in exps], K, coeffs)


def _weighted(rng: random.Random, a: int, b: int, c: int) -> Job:
    """A|z2|^2a + B|z2|^2b |z3|^2c with b < a (acceptance criterion 2):
    weight 1/2a on z2 and (1 - b/a)/2c on z3, rows [a] and [b, c]."""
    A, B = rng.choice(POSITIVE), rng.choice(POSITIVE)
    p = f"{q(A)}*|z2|^{2 * a} + {q(B)}*|z2|^{2 * b}*|z3|^{2 * c}"
    return _normal("mixed", p, 3, [F(1), F(1, 2 * a), (1 - F(b, a)) / (2 * c)],
                   [[a], [b, c]], [A, B])


def _four_variable(rng: random.Random) -> Job:
    """Acceptance criterion 5 with seeded coefficients: the third row is
    |z3|^2 |z4|^2, not |z2|^2 |z4|^2."""
    c = [rng.choice(POSITIVE) for _ in range(4)]
    p = (f"{q(c[0])}*|z2|^4 + {q(c[1])}*|z2|^2*|z3|^2 + "
         f"{q(c[2])}*|z2|^2*|z4|^2 + {q(c[3])}*|z3|^2*|z4|^2")
    return _normal("mixed", p, 4, [F(1), F(1, 4), F(1, 4), F(1, 4)],
                   [[2], [1, 1], [0, 1, 1]], [c[0], c[1], c[3]])


def _shear(rng: random.Random, a: int, m: int, n: int) -> Job:
    """|z2 + c z3^m|^2a + B|z3|^2am (+ D|z4|^2am): weighted homogeneous for
    the weight (1/2a, 1/2am, ...); restricting to z2 = 0 gives the second
    row's coefficient |c|^2a + B."""
    c, B = rng.choice(SHEAR), rng.choice(POSITIVE)
    e = 2 * a * m
    p = f"|z2 + {q(c)}*z3^{m}|^{2 * a} + {q(B)}*|z3|^{e}"
    mu, K, A = [F(1), F(1, 2 * a), F(1, e)], [[a], [0, a * m]], [F(1), c ** (2 * a) + B]
    if n == 4:
        D = rng.choice(POSITIVE)
        p += f" + {q(D)}*|z4|^{e}"
        mu, K, A = mu + [F(1, e)], K + [[0, 0, a * m]], A + [D]
    return _normal("shear", p, n, mu, K, A)


def _not_pseudoconvex(rng: random.Random, a: int, b: int) -> Job:
    """2c Re(z2^a zbar3^b) with a + b odd: p(-z) = -p(z), so p
    plurisubharmonic would force p pluriharmonic, which it is not."""
    p = f"2*{q(rng.choice(PERTURB))}*Re(z2^{a}*zbar3^{b})"
    return Job("not-pseudoconvex", "normalize", MODEL + p, 3, {"code": 3},
               ("--assert-psc",))


def make_normalize(rng: random.Random) -> List[Job]:
    # The costliest family, n=5 diagonal sums, holds the tail percentile.
    # Its cost moves by a fifth with the coefficients, so a pass has four
    # draws and the tail falls in the middle of them.  Twelve jobs cost less
    # than the four-variable family, which has eight draws of nearly equal
    # cost, so the median falls inside that family rather than in the gap
    # below it.
    jobs = [_diagonal(rng, e) for e in
            ((4, 6), (4, 6, 8), (4, 6, 6, 8), (4, 6, 6, 8), (4, 6, 6, 8),
             (4, 6, 6, 8))]
    jobs += [_weighted(rng, *t) for t in ((4, 2, 3), (3, 1, 2), (4, 1, 3), (2, 1, 1))]
    jobs += [_four_variable(rng) for _ in range(8)]
    jobs += [_shear(rng, a, m, n) for a, m, n in
             ((2, 2, 3), (2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 2, 4), (2, 2, 4))]
    jobs += [_not_pseudoconvex(rng, a, b) for a, b in
             ((2, 3), (3, 2), (1, 2), (3, 4))]
    rng.shuffle(jobs)
    return jobs


def normalize_known_defects() -> List[Job]:
    """Models the seed commit answers wrongly; run outside the timed loop
    and reported, so the timed corpus has no failing job."""
    return [
        # The auto weight comes from the coordinates after a catalog change
        # (a permutation, a linear mix), but normalize keeps the input
        # coordinates: exit 2 "input has terms of weight below 1".
        Job("catalog-change", "normalize", MODEL + "|z2|^6 + |z3|^4 + |z4|^8",
            4, {"code": 0}),
        Job("catalog-change", "normalize",
            MODEL + "|z2|^6 + |z3+z4|^6 + |z4|^12 + |z5|^8", 5, {"code": 0}),
        # |w2|^2 + |w3|^2 + 3 Re(w2 conj w3) with w = z^2 has Levi
        # determinant -20|z2|^2|z3|^2 < 0, yet --assert-psc verifies it.
        Job("assert-psc-miss", "normalize",
            MODEL + "|z2|^4 + |z3|^4 + 2*(3/2)*Re(z2^2*zbar3^2)", 3,
            {"code": 3}, ("--assert-psc",)),
        # Not pseudoconvex on the slice z4 = 0, but the auto weight rejects
        # it as an input error (exit 2) instead of exit 3; other
        # coefficients give exit 3.
        Job("assert-psc-weight", "normalize",
            MODEL + "2*(1/2)*Re(z2^2*zbar3^3) + (2/3)*|z4|^4", 4,
            {"code": 3}, ("--assert-psc",)),
    ]


# ----------------------------------------------------------------------
# boundary
# ----------------------------------------------------------------------


def torsion_expr(eps: F, lift: bool = False) -> str:
    """The acceptance torsion model; ``lift`` substitutes z4 -> z4^2."""
    a, b, w = (4, 8, "z4^2*zbar4^2") if lift else (2, 4, "z4*zbar4")
    return (f"{MODEL}|z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^{a}"
            f" + |z2|^2*|z3|^4*|z4|^{b} + 2*{q(eps)}*Re(z2*zbar2*z3^2*zbar3^3*{w})"
            f" + |z3|^8*|z4|^{a}")


def _torsion(rng: random.Random, lift: bool) -> Job:
    """Torsion at slot 3 with obstruction (eps/3)|z4|^2, or (eps/3)|z4|^4
    after the lift: linear in eps, whose term is its only source.  Pinned
    from the seed commit for every eps in the pool."""
    eps = rng.choice(EPSILON)
    e4 = 2 if lift else 1
    return Job("torsion-lift" if lift else "torsion", "torsion",
               torsion_expr(eps, lift), 4,
               {"code": 0, "applicable": True, "slot": 3, "torsion": True,
                "linear_coeff": "4",
                "obstruction": [[[0, 0, 0, e4], [0, 0, 0, e4], str(eps / 3), "0"]]})


def _system(family: str, expr: str, n: int, c: Sequence[str]) -> Job:
    return Job(family, "boundary-system", expr, n,
               {"code": 0, "c": list(c), "audit": []})


def make_boundary(rng: random.Random) -> List[Job]:
    def diagonal(exps: Sequence[int]) -> Job:
        n = len(exps) + 1
        p = " + ".join(f"{q(rng.choice(POSITIVE))}*|z{j}|^{e}"
                       for j, e in enumerate(exps, start=2))
        return _system("diagonal", MODEL + p, n, ["1"] + [str(e) for e in exps])

    shear, B = rng.choice(SHEAR), rng.choice(POSITIVE)
    jobs = [
        _torsion(rng, lift=False),
        _torsion(rng, lift=True),
        diagonal((4, 4, 6, 8)),
        # four n=4 systems, so that in a three-pass run the median falls
        # inside this family, not on an edge between two
        *(diagonal((4, 6, 8)) for _ in range(4)),
        # acceptance criterion 9: the first-block shear
        _system("shear", f"{MODEL}|z2 + {q(shear)}*z3^2|^4 + {q(B)}*|z3|^8", 3,
                ["1", "4", "8"]),
        # acceptance criterion 3: Levi rank 1, no finite third entry
        _system("rank-gap",
                f"Re(z1) + (Re(z2) + {q(rng.choice(POSITIVE))}*|z3|^2)^2", 3,
                ["1", "2", "inf"]),
    ]
    rng.shuffle(jobs)
    return jobs


def boundary_after(rng: random.Random) -> List[Job]:
    """`catlin torsion` does not print the c-entries; this system does."""
    return [_system("torsion-system", torsion_expr(rng.choice(EPSILON)), 4,
                    ["1", "6", "9", "18"])]


# ----------------------------------------------------------------------
# positivity
# ----------------------------------------------------------------------


def _square(c: F, k: int, n: int) -> Job:
    """|z2^k + c z3^k|^2 + (1 - c^2)|z3|^2k (+ |z4|^4): plurisubharmonic iff
    |c| <= 1 (at z2 = z3 = 1 the Levi determinant has the sign of 1 - c^2)."""
    p = f"|z2^{k} + {q(c)}*z3^{k}|^2 + {q(1 - c * c)}*|z3|^{2 * k}"
    if n == 4:
        p += " + |z4|^4"
    psh = abs(c) <= 1
    return Job("square-psh" if psh else "square-not-psh", "psd", p, n,
               {"code": 0, "psh": psh})


def _pairing(rng: random.Random) -> Job:
    """Tangential part of the torsion model: certified by tier 2."""
    p = torsion_expr(rng.choice(EPSILON))[len(MODEL):]
    return Job("pairing", "psd", p, 4, {"code": 0, "psh": True})


def _perturbed(c: F, mixed: str, n: int) -> Job:
    """|z2|^4 + |z3|^4 (+ |z4|^4) + 2c Re(m) with d^2 m/dz2 dzbar3 nonzero on
    z3 = 0, where the z3 diagonal entry vanishes: not plurisubharmonic, but
    no tier decides it at the seed commit."""
    p = " + ".join(f"|z{j}|^4" for j in range(2, n + 1))
    p += f" + 2*{q(c)}*Re({mixed})"
    return Job("perturbed", "psd", p, n, {"code": 0, "psh": False})


def make_positivity(rng: random.Random) -> List[Job]:
    # 24 tier-1 jobs of nearly equal cost put the median well inside one
    # family; one n=4 Unknown and one n=4 refutation per pass put the tail
    # among the n=3 Unknowns, in the middle of the costlier z2^2 zbar2 zbar3
    # ones in a three-pass run.  The n=4 Unknown is most of a pass and its
    # cost moves with c, so c is fixed there.
    jobs = [_square(rng.choice(INSIDE_UNIT), k, n) for k in (1, 2, 3)
            for n in (3, 4) for _ in range(4)]
    jobs += [_pairing(rng) for _ in range(2)]
    jobs += [_square(rng.choice(OUTSIDE_UNIT), k, 3) for k in (1, 2, 3)]
    jobs += [_square(rng.choice(OUTSIDE_UNIT), 2, 4)]
    jobs += [_perturbed(rng.choice(UNDECIDED), m, 3) for m in
             ("z2^3*zbar3", "z2^3*zbar3", "z2^2*zbar2*zbar3", "z2^2*zbar2*zbar3",
              "z2^2*zbar2*zbar3")]
    jobs += [_perturbed(F(1, 3), "z2^3*zbar3", 4)]
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# tiny (smoke test only)
# ----------------------------------------------------------------------


def make_tiny(rng: random.Random) -> List[Job]:
    return [_square(rng.choice(INSIDE_UNIT), 1, 3), _weighted(rng, 4, 2, 3),
            _system("rank-gap", "Re(z1) + (Re(z2) + |z3|^2)^2", 3,
                    ["1", "2", "inf"])]


WORKLOADS = {w.name: w for w in (
    Workload("normalize",
             "28 models n=3..5 through `catlin normalize`: multitype search "
             "(substitute_maps, candidate weights) and normal_form; no "
             "boundary or Levi sampling", 4.0, make_normalize,
             known_defects=normalize_known_defects),
    Workload("boundary",
             "torsion, its z4 lift and boundary systems: list search, "
             "brackets, Poly multiply and wirtinger; no weights or Levi "
             "sampling", 8.7, make_boundary, boundary_after),
    Workload("positivity",
             "`catlin psd` on forms whose truth is known: Levi tiers, "
             "Poly.evaluate and CRat scalars; almost no Poly multiply or "
             "boundary", 6.0, make_positivity),
    Workload("tiny", "three fast jobs for the smoke test", 0.2, make_tiny),
)}


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------


@dataclass
class Verdict:
    ok: bool
    decided: bool
    reason: str = ""


def check(job: Job, code: Optional[int], out: str, err: str) -> Verdict:
    """Compare one outcome with the job's known answer; replays run here,
    outside the timed interval."""
    want = job.expect
    if code != want["code"]:
        return Verdict(False, False, f"exit {code}, expected {want['code']}: "
                                     f"{err.strip()[:160]}")
    if code != 0:
        return Verdict(True, False)
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return Verdict(False, False, f"output is not JSON: {exc}")
    return _CHECKS[job.command](job, payload)


def _check_normalize(job: Job, d: dict) -> Verdict:
    want = job.expect
    rows = d["rows"]
    got = {"verified": d["verified"], "violations": d["violations"],
           "mu": d["mu_final"]["mu"], "K": [r["k"] for r in rows],
           "A": [r["A"] for r in rows]}
    exp = {"verified": True, "violations": [], "mu": want["mu"],
           "K": want["K"], "A": want["A"]}
    if got != exp:
        return Verdict(False, False, f"got {got}, expected {exp}")
    return Verdict(True, all(r["realized"] for r in rows))


def _check_system(job: Job, d: dict) -> Verdict:
    want = job.expect
    if d["audit"] != want["audit"] or d["c"] != want["c"]:
        return Verdict(False, False, f"c={d['c']} audit={d['audit']}, "
                                     f"expected c={want['c']} audit=[]")
    return Verdict(True, "inf" not in d["c"])


def _check_torsion(job: Job, d: dict) -> Verdict:
    want = job.expect
    ob = d["obstruction"]
    got = {"applicable": d["applicable"], "slot": d["slot"],
           "torsion": d["torsion"], "linear_coeff": d["linear_coeff"],
           "obstruction": None if ob is None else
           [[t["alpha"], t["beta"], t["re"], t["im"]] for t in ob["terms"]]}
    exp = {k: want[k] for k in got}
    if got != exp:
        return Verdict(False, False, f"got {got}, expected {exp}")
    return Verdict(True, d["applicable"])


def _check_psd(job: Job, d: dict) -> Verdict:
    from catlin.levi import (KIND_CERTIFIED, KIND_REFUTED,
                             replay_refutation, verify_psd_certificate)
    from catlin.parser import parse_poly
    psh = job.expect["psh"]
    p = parse_poly(job.expr, job.n)
    if d["kind"] == KIND_CERTIFIED:
        if not psh:
            return Verdict(False, False, "certified a form that is not "
                                         "plurisubharmonic")
        if not verify_psd_certificate(p, d["certificate"]):
            return Verdict(False, False, "certificate does not replay")
        return Verdict(True, True)
    if d["kind"] == KIND_REFUTED:
        if psh:
            return Verdict(False, False, "refuted a plurisubharmonic form")
        value = replay_refutation(p, d["witness"])
        if not (value < 0 and str(value) == d["witness"]["value"]):
            return Verdict(False, False, f"witness replays to {value}, "
                                         f"reported {d['witness']['value']}")
        return Verdict(True, True)
    return Verdict(True, False)


_CHECKS = {"normalize": _check_normalize, "boundary-system": _check_system,
           "torsion": _check_torsion, "psd": _check_psd}
