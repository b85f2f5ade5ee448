"""Kernel probes: single exact-arithmetic kernels timed untraced on fixed
seeded inputs.  Each names the workload whose end-to-end figures it should
move."""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction as F
from typing import Callable, Dict

PROBE_SEED = 1806
REPEATS = 5          # at least, and at least MIN_SECONDS of repeats
MIN_SECONDS = 0.25

# name -> workload the kernel dominates
MOVES = {
    "poly.probe.mul_40x40_s": "boundary",
    "poly.probe.evaluate_s": "positivity",
    "poly.probe.substitute_s": "normalize",
    "exact.probe.crat_s": "normalize, boundary, positivity",
}


def _median_time(fn: Callable[[], object]) -> float:
    times = []
    while len(times) < REPEATS or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes() -> Dict[str, float]:
    from catlin.exact import CRat
    from catlin.levi import complex_hessian
    from catlin.parser import parse_poly
    from catlin.poly import Poly

    from workloads import MODEL, torsion_expr

    rng = random.Random(PROBE_SEED)

    def crat() -> CRat:
        return CRat(F(rng.randint(-9, 9), rng.randint(1, 9)),
                    F(rng.randint(-9, 9), rng.randint(1, 9)))

    def poly40() -> Poly:
        terms = {}
        while len(terms) < 40:
            key = (tuple(rng.randint(0, 3) for _ in range(4)),
                   tuple(rng.randint(0, 3) for _ in range(4)))
            terms[key] = crat()
        return Poly(4, terms)

    a, b = poly40(), poly40()

    tangential = parse_poly(torsion_expr(F(1, 10))[len(MODEL):], 4)
    hess = complex_hessian(tangential)
    entries = [hess[j][k] for j in range(1, 4) for k in range(1, 4)]
    points = [[CRat(0)] + [crat() for _ in range(3)] for _ in range(8)]

    def evaluate() -> None:
        for z in points:
            for h in entries:
                h.evaluate(z)

    model = parse_poly("|z2|^4 + |z3|^6 + |z4|^8 + |z5|^8", 5)
    shear = [Poly.variable(5, j) for j in range(1, 6)]
    shear[2] = shear[2] + Poly.variable(5, 4) ** 2      # z3 -> z3 + z4^2

    pairs = [(crat(), crat()) for _ in range(2000)]

    def crat_loop() -> None:
        acc = CRat(0)
        for x, y in pairs:
            acc = acc + x * y

    return {
        "poly.probe.mul_40x40_s": _median_time(lambda: a * b),
        "poly.probe.evaluate_s": _median_time(evaluate),
        "poly.probe.substitute_s": _median_time(
            lambda: model.substitute_maps(shear)),
        "exact.probe.crat_s": _median_time(crat_loop),
    }
