"""Command-line front end.

Subcommands: parse, multitype, psd, normalize, boundary-system, torsion,
enumerate, examples.  Input is either a positional file (text expression or
canonical JSON) or --expr with --n.  Exit codes: 0 success, 2 input error,
3 mathematical contradiction detected, 4 Unknown verdict under
--require-certificate.

Each command builds its JSON report in both modes and hands ``_emit`` its
text as a zero-argument callable, built only when printed (without --json).
The report is built first and holds every number the text prints, so what
can fail fails in both modes and the exit code does not depend on --json.
``_json_value`` writes the report byte for byte as
``json.dumps(report, indent=2, sort_keys=True)`` would.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Callable

from .boundary import (audit_boundary_system, build_boundary_system,
                       detect_torsion, first_block_torsion,
                       normalize_first_block)
from .exact import ZeroDenominatorError, rat_from_str, rat_str
from .levi import KIND_CERTIFIED, KIND_REFUTED, KIND_UNKNOWN, psd_verdict
from .normal_form import normalize, verify_normal_form
from .parser import parse_poly
from .poly import (Poly, PolyError, PseudoconvexityError, require_real,
                   split_model)
from .weights import (INF, Weight, counting_bound, enumerate_multitypes,
                      is_admissible, multitype_search)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRADICTION = 3
EXIT_UNKNOWN = 4


class CliError(Exception):
    """An input error found by the front end itself (exit 2)."""


# Deepest nesting of arrays and objects a JSON input may have; a polynomial
# needs 4.  It is checked on the text, before the decoder runs: the decoder
# recurses once per level, and the depth at which it raises RecursionError
# moves with the Python version, so that is never the check.
MAX_JSON_DEPTH = 64
# a JSON string, whose brackets do not nest, one bracket, or the quote that
# opens a string left unterminated
_JSON_BRACKETS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}"]')


def _check_json_depth(text: str):
    depth = 0
    for token in _JSON_BRACKETS.findall(text):
        if token == '"':
            return  # the decoder refuses the rest
        if token in ("[", "{"):
            depth += 1
            if depth > MAX_JSON_DEPTH:
                raise CliError("JSON input nests too deeply")
        elif token in ("]", "}"):
            depth -= 1


def _load_poly(args) -> Poly:
    # presence, not truthiness: the parser rejects "--n 0" and "--expr ''"
    if args.expr is not None and args.input is not None:
        raise CliError("give either an input file or --expr, not both")
    if args.expr is not None:
        if args.n is None:
            raise CliError("--expr requires --n")
        return parse_poly(args.expr, args.n)
    if args.input is None:
        raise CliError("no input given; use a file argument or --expr/--n")
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        _check_json_depth(text)
        # from_json_dict checks the dimension cap first
        p = Poly.from_json_dict(json.loads(text))
        if args.n not in (None, p.n):
            raise CliError(f"--n {args.n} differs from the JSON n = {p.n}")
        return require_real(p, "JSON polynomial")
    if args.n is None:
        raise CliError("text input files require --n")
    return parse_poly(text.strip(), args.n)


def _parse_weight(spec: str, n: int) -> Weight:
    try:
        parts = [rat_from_str(s) for s in spec.split(",")]
    except ValueError as exc:
        raise CliError(f"bad weight {spec!r}: {exc}") from None
    if len(parts) != n:
        raise CliError(f"weight has {len(parts)} entries, expected {n}")
    return Weight(tuple(parts))


def _auto_weight(r: Poly) -> Weight:
    mt = multitype_search(r)
    if INF in mt.value.entries:
        raise CliError("could not infer a finite weight; pass --weight")
    return mt.value.weight()


# Any indent sends json.dumps to the standard library's pure-Python encoder;
# its C encoder writes only the compact form.  So the reports are written
# here, with the strings quoted by the function json.dumps quotes them with.
_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_value(o, pad: str) -> str:
    """``o`` as ``json.dumps(o, indent=2, sort_keys=True)`` writes it, where
    ``pad`` is a newline and the indent of the line ``o`` starts on.  Only
    the types catlin prints are written: str, int, bool, None, and dicts
    with str keys, lists and tuples of them; any other value or key (a
    float, a Fraction, a CRat, a set) raises TypeError."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return str(o)
    if t is dict:
        if not o:
            return "{}"
        inner = pad + "  "
        # _quote refuses a key that is not a str
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _json_value(o[k], inner) for k in sorted(o)]
        ) + pad + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(
            [_json_value(v, inner) for v in o]) + pad + "]"
    if t is bool or o is None:
        return _CONSTANTS[o]
    raise TypeError(f"catlin prints no {t.__name__} as JSON: {o!r}")


def _emit(args, payload: dict, human: Callable[[], str]):
    """Print the JSON report under --json and the text, built here,
    otherwise."""
    print(_json_value(payload, "\n") if args.json else human())


def cmd_parse(args) -> int:
    p = _load_poly(args)
    _emit(args, p.to_json_dict(), p.__str__)
    return EXIT_OK


def cmd_multitype(args) -> int:
    r = _load_poly(args)
    mt = multitype_search(r)
    try:
        bs = build_boundary_system(r)
        commutator = bs.commutator_multitype()
    except PolyError:
        bs = commutator = None
    if bs is not None and bs.floor is not None:
        # a certified Levi part: C = M, so agreement makes the weight exact
        # and disagreement is reported as such
        mt = dataclasses.replace(mt, commutator=commutator)
    payload = mt.to_json()
    if commutator is not None:
        payload["commutator"] = commutator.to_json()["lambda"]

    def human():
        if args.commutator and commutator is not None:
            return f"search: {mt.value}; commutator: {commutator}"
        return f"{mt.value} [{mt.status}]"

    _emit(args, payload, human)
    return EXIT_OK


def cmd_psd(args) -> int:
    p = _load_poly(args)
    # a function of z_2..z_n is judged as given; with z1, only a model
    # c * Re z1 + p is accepted, and the verdict is about p
    tangential = split_model(p)[1] if p.degree_in(1) > 0 else p
    verdict = psd_verdict(tangential, samples=args.samples, seed=args.seed)

    def human():
        if verdict.kind == KIND_CERTIFIED:
            return f"{verdict.kind} (tier {verdict.tier})"
        if verdict.kind == KIND_REFUTED:
            return f"{verdict.kind} witness value {verdict.witness['value']}"
        return f"{verdict.kind} after {verdict.samples_tried} random points"

    _emit(args, verdict.to_json(), human)
    if verdict.kind == KIND_UNKNOWN and args.require_certificate:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_normalize(args) -> int:
    r = _load_poly(args)
    mu = _auto_weight(r) if args.weight == "auto" \
        else _parse_weight(args.weight, r.n)
    nf = normalize(r, mu, assert_psc=args.assert_psc)
    if args.assert_psc:
        # the extraction steps check only the rows they extract; the Levi
        # form of the whole weight-1 model can still be indefinite
        verdict = psd_verdict(nf.model, seed=args.seed)
        if verdict.kind == KIND_REFUTED:
            raise PseudoconvexityError(
                "the weight-1 model in the normalized coordinates is not "
                "plurisubharmonic; witness "
                + json.dumps(verdict.witness, sort_keys=True))
    ok, violations = verify_normal_form(nf, r, mu)
    payload = nf.to_json()
    payload["verified"] = ok
    payload["violations"] = violations

    def human():
        lines = [f"weight: {nf.mu_final}"]
        if nf.lowered:
            lines.append("descent: " + "; ".join(nf.descent))
        lines.append("K: " + str(nf.K))
        lines.append("A: [" + ", ".join(rat_str(a) for a in nf.A) + "]")
        lines.append(f"residual: {nf.residual}")
        lines.append(f"verified: {ok}")
        for w in nf.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)

    _emit(args, payload, human)
    return EXIT_OK if ok else EXIT_CONTRADICTION


def cmd_boundary_system(args) -> int:
    r = _load_poly(args)
    bs = build_boundary_system(r, args.list_bound)
    problems = audit_boundary_system(bs)
    payload = bs.to_json()
    payload["audit"] = problems
    commutator = bs.commutator_multitype()

    def human():
        return (f"commutator multitype: {commutator}\n"
                f"Levi rank: {bs.rank}; codimension slots: {sorted(bs.slow)}; "
                f"audit: {'ok' if not problems else problems}")

    _emit(args, payload, human)
    return EXIT_OK if not problems else EXIT_CONTRADICTION


def cmd_torsion(args) -> int:
    r = _load_poly(args)
    report = first_block_torsion(r, args.list_bound)

    def human():
        if not report.applicable:
            return f"torsion: not applicable ({report.detail})"
        if report.torsion:
            return (f"torsion at slot {report.slot}: obstruction "
                    f"{report.obstruction} (linear coefficient "
                    f"{report.linear_coeff})")
        return f"no torsion at slot {report.slot}"

    _emit(args, report.to_json(), human)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        m = rat_from_str(args.max_type)
    except ZeroDenominatorError:
        raise CliError(f"type bound {args.max_type} divides by 0") from None
    except ValueError as exc:
        raise CliError(f"type bound: {exc}") from None
    weights = enumerate_multitypes(args.n, m)
    bound = counting_bound(args.n, m)
    for w in weights:
        if not is_admissible(w)[0]:
            print(f"error: enumerated weight {w} is not admissible",
                  file=sys.stderr)
            return EXIT_CONTRADICTION
    payload = {"count": len(weights), "bound": bound,
               "weights": [w.to_json()["lambda"] for w in weights]}
    _emit(args, payload,
          lambda: "\n".join(str(w) for w in weights)
          + f"\nenumerated {len(weights)} <= {bound}")
    return EXIT_OK


# ----------------------------------------------------------------------
# bundled worked examples
# ----------------------------------------------------------------------


def _example_sq_identity() -> bool:
    ok = True
    for p in (2, 3):
        for q in (2, 3):
            for eps in (Fraction(1, 2), Fraction(9, 10)):
                lhs = parse_poly(
                    f"|z2^{p} + ({eps.numerator}/{eps.denominator})*z3^{q}|^2",
                    3) + parse_poly(
                    f"(1 - ({eps.numerator}/{eps.denominator})^2)*|z3|^{2*q}",
                    3)
                rhs = parse_poly(
                    f"|z2|^{2*p} + |z3|^{2*q} + "
                    f"2*({eps.numerator}/{eps.denominator})"
                    f"*Re(z2^{p}*zbar3^{q})", 3)
                ok = ok and (lhs - rhs).is_zero()
    return ok


def _example_weighted_model() -> bool:
    r = parse_poly("-2*Re(z1) + |z2|^8 + |z2|^4*|z3|^6", 3)
    mt = multitype_search(r)
    if [str(e) for e in mt.value.entries] != ["1", "8", "12"]:
        return False
    nf = normalize(r, mt.value.weight(), assert_psc=True)
    ok, _ = verify_normal_form(nf, r, mt.value.weight())
    return ok and nf.K == [[4], [2, 3]] and nf.A == [Fraction(1), Fraction(1)] \
        and nf.residual.is_zero()


def _example_rank_gap() -> bool:
    r = parse_poly("Re(z1) + (Re(z2) + |z3|^2)^2", 3)
    mt = multitype_search(r)
    bs = build_boundary_system(r)
    c = bs.commutator_multitype()
    return [str(e) for e in mt.value.entries] == ["1", "2", "4"] and \
        [str(e) for e in c.entries] == ["1", "2", "inf"] and \
        mt.value.entries < c.entries


def _example_four_variable_selection() -> bool:
    r = parse_poly(
        "-2*Re(z1) + |z2|^4 + |z2|^2*|z3|^2 + |z2|^2*|z4|^2 + |z3|^2*|z4|^2", 4)
    mt = multitype_search(r)
    nf = normalize(r, mt.value.weight(), assert_psc=True)
    return nf.K == [[2], [1, 1], [0, 1, 1]]


def _example_torsion() -> bool:
    """The paper's torsion example whole: the model is pseudoconvex (tier 2),
    its first block normalizes to r_2 = Re z2, and the slot after the block
    still has torsion.  The report read from the full normalized system is
    the one ``catlin torsion`` reads from systems built through slot 3."""
    r = parse_poly(
        "-2*Re(z1) + |z2|^6 + |z2|^2*|z3|^6 + |z2|^4*|z3|^2*|z4|^2"
        " + |z2|^2*|z3|^4*|z4|^4 + 2*(1/10)*Re(z2*zbar2*z3^2*zbar3^3*z4*zbar4)"
        " + |z3|^8*|z4|^2", 4)
    verdict = psd_verdict(r.restrict_support(range(2, 5)))
    if verdict.kind != KIND_CERTIFIED or verdict.tier != 2:
        return False
    bs = normalize_first_block(build_boundary_system(r))
    if bs.slow[2].r_func != parse_poly("Re(z2)", 4):
        return False
    report = first_block_torsion(r)
    return report.torsion and report.slot == 3 and detect_torsion(bs) == report


def _example_counting() -> bool:
    weights = enumerate_multitypes(3, 6)
    if len(weights) > counting_bound(3, 6):
        return False
    return all(is_admissible(w)[0] for w in weights)


EXAMPLES = {
    "sq-identity": _example_sq_identity,
    "weighted-model": _example_weighted_model,
    "rank-gap": _example_rank_gap,
    "four-variable": _example_four_variable_selection,
    "torsion": _example_torsion,
    "counting": _example_counting,
}


def cmd_examples(args) -> int:
    failures = 0
    for name, fn in EXAMPLES.items():
        if args.only and name != args.only:
            continue
        ok = fn()
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_CONTRADICTION


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _add_io(sub):
    sub.add_argument("input", nargs="?", help="input file (expression or JSON)")
    sub.add_argument("--expr", help="inline expression")
    sub.add_argument("--n", type=int, help="ambient dimension")
    sub.add_argument("--json", action="store_true", help="JSON output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` makes a fresh namespace per call and no default
    is mutable, so calls of ``main`` in one process share no state."""
    ap = argparse.ArgumentParser(
        prog="catlin",
        description="Exact multitype, normal form, and boundary-system "
                    "computations for polynomial hypersurface models.")
    ap.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("parse", help="parse and canonicalize a polynomial")
    _add_io(s)
    s.set_defaults(fn=cmd_parse)

    s = sp.add_parser("multitype", help="multitype search with commutator "
                                        "corroboration")
    _add_io(s)
    s.add_argument("--commutator", action="store_true",
                   help="print search and commutator values separately")
    s.set_defaults(fn=cmd_multitype)

    s = sp.add_parser("psd", help="positivity verdict for the Levi form")
    _add_io(s)
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--require-certificate", action="store_true")
    s.set_defaults(fn=cmd_psd)

    s = sp.add_parser("normalize", help="balanced sum-of-squares normal form")
    _add_io(s)
    s.add_argument("--weight", default="auto",
                   help='comma-separated weight entries or "auto"')
    s.add_argument("--assert-psc", action="store_true",
                   help="treat positivity failures as contradictions")
    s.set_defaults(fn=cmd_normalize)

    s = sp.add_parser("boundary-system", help="commutator multitype and "
                                              "boundary system")
    _add_io(s)
    s.add_argument("--list-bound", type=int, default=None)
    s.set_defaults(fn=cmd_boundary_system)

    s = sp.add_parser("torsion", help="first-block normalization and torsion "
                                      "detection")
    _add_io(s)
    s.add_argument("--list-bound", type=int, default=None)
    s.set_defaults(fn=cmd_torsion)

    s = sp.add_parser("enumerate", help="enumerate multitypes up to a type "
                                        "bound")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--max-type", required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_enumerate)

    s = sp.add_parser("examples", help="run the bundled worked examples")
    s.add_argument("--only", choices=list(EXAMPLES),
                   help="run a single named example")
    s.set_defaults(fn=cmd_examples)
    return ap


def _join_expr(argv):
    """Rewrite "--expr X" as "--expr=X": argparse reads a lone token such as
    "-2*Re(z1)" as an option, not as the value of --expr."""
    out = []
    for tok in argv:
        if out and out[-1] == "--expr":
            out[-1] = "--expr=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_expr(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except PseudoconvexityError as exc:
        # the one place a contradiction becomes exit 3
        print(f"pseudoconvexity contradiction: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except (CliError, OSError, ValueError) as exc:
        # PolyError, NonRealError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
