"""Spans and counters around catlin's public entry points, for the traced run.

Nothing here is imported by catlin.  ``Tracer.install`` patches the entry
points from the outside: ``Poly`` and ``CRat`` methods on their classes, and
module functions in every ``catlin.*`` namespace that binds them (``psd_verdict``
lives in both ``catlin.levi`` and ``catlin.cli``).  ``Tracer.remove`` puts the
originals back.

A span records its name, start, end, parent span and job id.  Spans stay in
flat arrays until the run ends; ``layer_metrics`` then derives self time (a
span's duration minus the time its direct children cover) and per-pass
totals.  ``CRat`` arithmetic is only counted: a span per scalar operation
would cost more than the operation.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (span name, owner, attribute).  An owner "catlin.x" is a module whose
# function is patched in every catlin namespace; "Poly"/"CRat" are classes.
SPANS = [
    ("cli.main", "catlin.cli", "main"),
    ("parser.parse_poly", "catlin.parser", "parse_poly"),
    ("poly.mul", "Poly", "__mul__"),
    ("poly.mul", "Poly", "__rmul__"),
    ("poly.substitute_maps", "Poly", "substitute_maps"),
    ("poly.grade", "Poly", "grade"),
    ("poly.eliminate_harmonic", "catlin.poly", "eliminate_harmonic"),
    ("poly.wirtinger", "Poly", "wirtinger"),
    ("poly.evaluate", "Poly", "evaluate"),
    ("poly.to_json_dict", "Poly", "to_json_dict"),
    ("weights.multitype_search", "catlin.weights", "multitype_search"),
    ("weights.best_distinguished_weight", "catlin.weights",
     "best_distinguished_weight"),
    ("levi.psd_verdict", "catlin.levi", "psd_verdict"),
    ("levi.cauchy_schwarz_pairing", "catlin.levi", "cauchy_schwarz_pairing"),
    ("levi.complex_hessian", "catlin.levi", "complex_hessian"),
    ("levi.hessian_form_value", "catlin.levi", "hessian_form_value"),
    ("normal_form.normalize", "catlin.normal_form", "normalize"),
    ("normal_form.step_first", "catlin.normal_form", "step_first"),
    ("normal_form.step_inductive", "catlin.normal_form", "step_inductive"),
    ("normal_form.verify_normal_form", "catlin.normal_form",
     "verify_normal_form"),
    ("boundary.build_boundary_system", "catlin.boundary",
     "build_boundary_system"),
    ("boundary.list_derivative", "catlin.boundary", "list_derivative"),
    ("boundary.normalize_first_block", "catlin.boundary",
     "normalize_first_block"),
    ("boundary.detect_torsion", "catlin.boundary", "detect_torsion"),
    ("boundary.audit_boundary_system", "catlin.boundary",
     "audit_boundary_system"),
]

# (counter name, class, attribute): calls counted, no span.
COUNTS = [
    ("poly.construct.calls", "Poly", "__post_init__"),
    ("exact.crat_mul.calls", "CRat", "__mul__"),
    ("exact.crat_mul.calls", "CRat", "__rmul__"),
    ("exact.crat_add.calls", "CRat", "__add__"),
    ("exact.crat_add.calls", "CRat", "__radd__"),
]

# Reported per span name: which of calls / self_s / terms_out.
REPORTED = {
    "cli.main": ("self_s",),
    "parser.parse_poly": ("calls", "self_s", "terms_out"),
    "poly.mul": ("calls", "self_s", "terms_out"),
    "poly.substitute_maps": ("calls", "self_s"),
    "poly.grade": ("self_s",),
    "poly.eliminate_harmonic": ("self_s",),
    "poly.wirtinger": ("calls", "self_s"),
    "poly.evaluate": ("calls", "self_s"),
    "poly.to_json_dict": ("self_s",),
    "weights.multitype_search": ("calls", "self_s"),
    "weights.best_distinguished_weight": ("calls", "self_s"),
    "levi.psd_verdict": ("self_s",),
    "levi.cauchy_schwarz_pairing": ("calls", "self_s"),
    "levi.complex_hessian": ("self_s",),
    "levi.hessian_form_value": ("calls", "self_s"),
    "normal_form.normalize": ("self_s",),
    "normal_form.step_first": ("self_s",),
    "normal_form.step_inductive": ("self_s",),
    "normal_form.verify_normal_form": ("self_s",),
    "boundary.build_boundary_system": ("calls", "self_s"),
    "boundary.list_derivative": ("calls", "self_s"),
    "boundary.normalize_first_block": ("calls", "self_s"),
    "boundary.detect_torsion": ("calls", "self_s"),
    "boundary.audit_boundary_system": ("calls", "self_s"),
}

# Counters filled by result hooks, reported per pass, with the better
# direction: a decided verdict beats Unknown, less work beats more.
HOOK_COUNTS = {"levi.verdict.tier1": "higher", "levi.verdict.tier2": "higher",
               "levi.verdict.refuted": "higher",
               "levi.verdict.unknown": "lower",
               "normal_form.descents": "lower",
               "boundary.build_boundary_system.poly_mul_calls": "lower"}


def per_layer_names() -> List[Tuple[str, str, str]]:
    """Every per-layer metric of the traced run as (name, unit, better)."""
    out = []
    for span, kinds in REPORTED.items():
        for kind in kinds:
            out.append((f"{span}.{kind}", "s" if kind == "self_s" else "count",
                        "lower"))
    out += [(name, "count", "lower") for name in
            dict.fromkeys(c for c, _, _ in COUNTS)]
    out += [(name, "count", better) for name, better in HOOK_COUNTS.items()]
    out.append(("weights.catalog_improvement_ratio", "ratio", "higher"))
    return out


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.live_calls: List[int] = []
        self.counts: Dict[str, int] = dict.fromkeys(
            [c for c, _, _ in COUNTS] + list(HOOK_COUNTS) +
            ["parser.parse_poly.terms_out", "poly.mul.terms_out",
             "weights.catalog.applied", "weights.catalog.tried"], 0)
        self.job_id = -1
        self._stack = [-1]
        self._patched: List[Tuple[object, str, object]] = []
        for name, _, _ in SPANS:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
                self.live_calls.append(0)

    def _span(self, name: str, fn: Callable, pre: Optional[Callable] = None,
              post: Optional[Callable] = None) -> Callable:
        nid = self._ids[name]
        t0s, t1s, names, parents, jobs = (self.t0, self.t1, self.span_name,
                                          self.parent, self.job)
        stack, live, clock = self._stack, self.live_calls, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            t1s.append(0.0)
            live[nid] += 1
            state = pre() if pre else None
            stack.append(sid)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()
            if post:
                post(state, result)
            return result

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable], Callable]]:
        """(pre, post) per span name; post sees pre's state and the result."""
        counts, live = self.counts, self.live_calls
        mul = self._ids["poly.mul"]
        bdw = self._ids["weights.best_distinguished_weight"]
        kinds = {"Refuted": "refuted", "Unknown": "unknown"}

        def terms(key):
            def post(_, result):
                counts[key] += len(result.terms)
            return None, post

        def verdict(_, v):
            counts["levi.verdict." +
                   kinds.get(v.kind, f"tier{v.tier}")] += 1

        def descents(_, nf):
            counts["normal_form.descents"] += len(nf.descent)

        def searched(before, mt):
            # the first candidate is the input's own weight
            counts["weights.catalog.tried"] += live[bdw] - before - 1
            counts["weights.catalog.applied"] += len(mt.witness["changes"])

        def built(before, _):
            counts["boundary.build_boundary_system.poly_mul_calls"] += \
                live[mul] - before

        return {"parser.parse_poly": terms("parser.parse_poly.terms_out"),
                "poly.mul": terms("poly.mul.terms_out"),
                "levi.psd_verdict": (None, verdict),
                "normal_form.normalize": (None, descents),
                "weights.multitype_search": (lambda: live[bdw], searched),
                "boundary.build_boundary_system": (lambda: live[mul], built)}

    def install(self) -> None:
        from catlin.exact import CRat
        from catlin.poly import Poly
        classes = {"Poly": Poly, "CRat": CRat}
        hooks = self._hooks()
        for name, owner, attr in SPANS:
            pre, post = hooks.get(name, (None, None))
            if owner in classes:
                cls = classes[owner]
                self._patch(cls, attr, self._span(name, cls.__dict__[attr],
                                                  pre, post))
            else:
                orig = getattr(sys.modules[owner], attr)
                wrapped = self._span(name, orig, pre, post)
                for modname, mod in list(sys.modules.items()):
                    if modname == "catlin" or modname.startswith("catlin."):
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._patch(mod, key, wrapped)
        for name, owner, attr in COUNTS:
            cls = classes[owner]
            self._patch(cls, attr, self._count(name, cls.__dict__[attr]))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def layer_metrics(self, jobs_per_pass: int, passes: int) -> Dict[str, float]:
        """Per-pass values: counts divided by the number of passes, self
        times as the median over passes."""
        t0, t1, parent = self.t0, self.t1, self.parent
        child = [0.0] * len(t0)
        for sid in range(len(t0)):
            if parent[sid] >= 0:
                child[parent[sid]] += t1[sid] - t0[sid]
        self_s = [[0.0] * passes for _ in self.names]
        calls = [0] * len(self.names)
        for sid in range(len(t0)):
            nid = self.span_name[sid]
            self_s[nid][self.job[sid] // jobs_per_pass] += \
                t1[sid] - t0[sid] - child[sid]
            calls[nid] += 1
        out: Dict[str, float] = {}
        for span, kinds in REPORTED.items():
            nid = self._ids[span]
            values = {"calls": calls[nid] / passes,
                      "self_s": statistics.median(self_s[nid]),
                      "terms_out": self.counts.get(f"{span}.terms_out", 0) / passes}
            for kind in kinds:
                out[f"{span}.{kind}"] = values[kind]
        for name in dict.fromkeys([c for c, _, _ in COUNTS] + list(HOOK_COUNTS)):
            out[name] = self.counts[name] / passes
        tried = self.counts["weights.catalog.tried"]
        out["weights.catalog_improvement_ratio"] = \
            self.counts["weights.catalog.applied"] / tried if tried else 0.0
        return out
