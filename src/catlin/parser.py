"""Text expression parser for real-valued polynomials in z and zbar.

Grammar (documented in the README):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' factor) | factor)*          -- adjacency multiplies
    factor  := atom ('^' INT)?
    atom    := RATIONAL | 'i' | VAR | CONJVAR
             | 'Re' '(' expr ')' | 'Im' '(' expr ')' | 'conj' '(' expr ')'
             | '~' atom | '|' expr '|' | '(' expr ')' | '-' factor
    VAR     := 'z' INT          CONJVAR := 'zbar' INT
    RATIONAL:= INT ('/' INT)?

Sugar: Re/Im expand to Hermitian-symmetric pairs, conj/~ conjugates, and
|e|^2k expands to (e*conj(e))^k.  A modulus must carry an even power; the
whole expression must be real-valued after expansion.

The parser works on raw term tables (Dict[TermKey, CRat]) through the
``poly`` kernels that the Poly ring operations wrap (``_sum_terms``,
``_neg_terms``, ``_scale_terms``, ``_conj_terms``, ``_mul_terms``), so the
arithmetic is the same and every table has the key order the Poly
operations would give it; one Poly is built at the end.  An atom is a
one-term table, and a power takes a one-term base first: a modulus of one
term, |c z^a zbar^b|^2k, is the plain power of |c|^2 z^(a+b) zbar^(a+b),
the size and digit checks are read off that one term, and the power is
formed in closed form by ``_monomial_power``, as ``Poly.__pow__`` forms
it, with no term pair.

The work limits ``MAX_POWER_TERMS`` and ``MAX_PRODUCT_PAIRS`` live in
``poly``; the parser reads its own bindings of them when it runs, so
rebinding one here changes the parser's limit alone.  A parse draws its
products on one ``poly.pair_budget`` of MAX_PRODUCT_PAIRS term pairs, which
``_mul_terms`` charges, and ``_product`` turns an overdraft into a
ParseError at the product's position.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from operator import add
from typing import Dict, Iterator, List, Optional, Tuple

from .exact import (_PRINTED_BITS, _PRINTED_LIMIT, CI, CONE,
                    MAX_PRINTED_DIGITS, CRat)
from .poly import (MAX_POWER_TERMS, MAX_PRODUCT_PAIRS, PairBudgetError, Poly,
                   PolyError, TermKey, _check_dimension, _conj_terms,
                   _monomial_power, _mul_terms, _neg_terms, _nonzero,
                   _scale_terms, _sum_terms, pair_budget, require_real)

Terms = Dict[TermKey, CRat]


# Most parser frames one parse may nest.  The parser is recursive descent:
# each level of '(', '|' or Re/Im/conj costs four frames (expr, term, factor,
# atom) and each unary '-' or '~' one, so this admits 100 levels of
# parentheses or 400 unary signs.  Python's default recursion limit is 1000
# frames; the 600 left cover the caller and the Poly arithmetic below the
# deepest parser frame, so deep nesting is a ParseError, not a RecursionError.
MAX_NESTING = 400

# Most digits of one number token: a literal, a denominator, an exponent or
# a variable index.  Python refuses to convert a longer decimal string than
# sys.get_int_max_str_digits() allows, 4300 digits by default and never
# fewer than 640, so a token of at most 640 digits always converts, and a
# longer one is a ParseError, not a ValueError.  Only a literal that long
# could still mean something, and no model needs a 640-digit coefficient; an
# index that long is past any dimension, and an exponent that long on a
# variable is past MAX_POWER_TERMS.
MAX_DIGITS = 640

# A sum, product or power that forms a coefficient of more than
# MAX_PRINTED_DIGITS digits is refused, a power before it is formed when it
# surely would, so a long exponent on a constant fails fast.


class ParseError(PolyError):
    """Syntax error; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"parse error at position {pos}: {message}")
        self.pos = pos


# One token, after optional whitespace; any other character is ``bad``.
_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<cvar>zbar\d+)|(?P<var>z\d+)"
    r"|(?P<name>Re|Im|conj)|(?P<op>[-+*^/()|~])|(?P<imag>i)|(?P<bad>\S))")

# The letters before the digits of each token kind that holds a number.
_LETTERS = {"num": 0, "var": len("z"), "cvar": len("zbar")}


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, position) of each token, then an ``end`` token.  Every
    non-space character starts a match, so the scan skips only trailing
    whitespace."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        # the match's own start would count its leading whitespace
        val, start = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {val!r}", start)
        if kind in _LETTERS and len(val) - _LETTERS[kind] > MAX_DIGITS:
            raise ParseError(f"number longer than {MAX_DIGITS} digits", start)
        tokens.append((kind, val, start))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens, on raw term tables: each rule
    returns a Dict[TermKey, CRat] without zeros, formed by the ``poly``
    kernels, and ``parse_poly`` builds one Poly from the last."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.zero = (0,) * n
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parser frames nested so far, at most MAX_NESTING

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    def descend(self, frames: int, pos: int):
        """Charge ``frames`` nested parser frames, opened by the token at
        ``pos``; the caller gives them back when the nested parse returns."""
        self.depth += frames
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} parser "
                             "frames", pos)

    def parse(self) -> Terms:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return p

    def expr(self) -> Terms:
        p = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                size = len(p) + len(q)
                p = _sum_terms(p, q, val == "-")
                if len(p) < size:   # q shares a key with p: a sum formed
                    _printable({k: p[k] for k in q if k in p}, pos)
            else:
                return p

    def term(self) -> Terms:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
            # adjacency multiplies; a bar never opens a factor here since
            # it would be ambiguous with the closing bar of a modulus
            elif not (kind in ("num", "var", "cvar", "name", "imag") or (
                    kind == "op" and val in "(~")):
                return p
            pos = self.peek()[2]
            p = _product(p, self.factor(), pos)

    def factor(self) -> Terms:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            self.descend(1, pos)
            p = _neg_terms(self.factor())
            self.depth -= 1
            return p
        p, modulus = self.atom()
        kind, val, _ = self.peek()
        exponent: Optional[int] = None
        if kind == "op" and val == "^":
            self.next()
            k2, v2, p2 = self.next()
            if k2 != "num":
                raise ParseError("expected an integer exponent", p2)
            exponent = int(v2)
        if modulus:
            if exponent is None or exponent % 2 != 0 or exponent <= 0:
                raise ParseError(
                    "modulus requires a positive even power, e.g. |z2|^4", pos)
            return self._power(p, exponent // 2, pos, modulus=True)
        if exponent is not None:
            return self._power(p, exponent, pos)
        return p

    def atom(self) -> Tuple[Terms, bool]:
        """Returns (term table, is_modulus)."""
        kind, val, pos = self.next()
        zero = self.zero
        if kind == "num":
            value = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, p3 = self.next()
                if k3 != "num":
                    raise ParseError("expected integer denominator", p3)
                if int(v3) == 0:
                    raise ParseError("zero denominator", p3)
                value = Fraction(value, int(v3))
            return ({(zero, zero): CRat.of(value)} if value else {}), False
        if kind == "imag":
            return {(zero, zero): CI}, False
        if kind in ("var", "cvar"):
            j = int(val[_LETTERS[kind]:])
            self._check_var(j, pos)
            unit = zero[:j - 1] + (1,) + zero[j:]
            key = (unit, zero) if kind == "var" else (zero, unit)
            return {key: CONE}, False
        if kind == "name":
            self.expect_op("(")
            self.descend(4, pos)
            inner = self.expr()
            self.depth -= 4
            self.expect_op(")")
            if val == "conj":
                return _conj_terms(inner), False
            # the sum forms a coefficient where inner and its conjugate
            # share a key, and the halving can add a digit at every key
            if val == "Re":
                return _printable(_scale_terms(
                    _sum_terms(inner, _conj_terms(inner)), _HALF), pos), False
            return _printable(_scale_terms(
                _sum_terms(inner, _conj_terms(inner), True), _MINUS_HALF_I),
                pos), False
        if kind == "op" and val == "~":
            self.descend(1, pos)
            inner, modulus = self.atom()
            self.depth -= 1
            if modulus:
                raise ParseError("cannot conjugate a modulus directly", pos)
            return _conj_terms(inner), False
        if kind == "op" and val == "(":
            self.descend(4, pos)
            inner = self.expr()
            self.depth -= 4
            self.expect_op(")")
            return inner, False
        if kind == "op" and val == "|":
            self.descend(4, pos)
            inner = self.expr()
            self.depth -= 4
            k2, v2, p2 = self.next()
            if k2 != "op" or v2 != "|":
                raise ParseError("unterminated modulus bar", p2)
            return inner, True
        raise ParseError(f"unexpected token {val!r}", pos)

    def _check_var(self, j: int, pos: int):
        if not 1 <= j <= self.n:
            raise ParseError(
                f"variable z{j} outside dimension n={self.n}", pos)

    def _power(self, p: Terms, k: int, pos: int,
               modulus: bool = False) -> Terms:
        """p ** k, or |p|^2k = (p * conj(p)) ** k when ``modulus``.

        Refused before it is expanded when more than MAX_POWER_TERMS monomials
        lie within its bidegree: holomorphic degree up to k times the largest
        of the base, in the variables the base has holomorphically, and the
        same for zbar.  The base p * conj(p) of a modulus has every variable of
        p on both sides, and degree the largest holomorphic plus the largest
        antiholomorphic degree of p (top parts of a product of nonzero
        polynomials never cancel), so it is not formed.  Refused as well, for
        k > 1, when a coefficient the power surely has would print more than
        MAX_PRINTED_DIGITS digits (``_extreme_coefficients``,
        ``_unprintable_power``), so that it fails fast.

        A one-term base is handled first.  Its modulus |c z^a zbar^b|^2k
        becomes the plain power k of |c|^2 z^(a+b) zbar^(a+b), which has the
        same bidegree, variables and extreme coefficient, so the two checks
        above read that one term, with the same numbers, messages and
        positions as for any base.  It is raised in closed form
        by ``_monomial_power``, the kernel ``Poly.__pow__`` uses, which forms
        no term pairs: its exponents times k and its coefficient c ** k,
        checked by ``_printable`` once formed.  Any other modulus is
        expanded as q * conj(q) with q = p ** k, which forms far fewer term
        pairs than powers of p * conj(p).  Powers are taken from the top bit
        of k down, so that the last product is the largest; ``_product``
        charges and checks each one."""
        if len(p) == 1:
            ((a, b), c), = p.items()
            if modulus:  # |c z^a zbar^b|^2 = |c|^2 |z^(a+b)|^2
                a = b = tuple(map(add, a, b))
                p = {(a, b): c * c.conj()}
            hol, anti = len(a) - a.count(0), len(b) - b.count(0)
            d_hol, d_anti = k * sum(a), k * sum(b)
            extremes = p.values()
        else:
            hol_vars = {i for (a, _b) in p for i, e in enumerate(a) if e}
            anti_vars = {i for (_a, b) in p for i, e in enumerate(b) if e}
            d_hol = k * max((sum(a) for a, _b in p), default=0)
            d_anti = k * max((sum(b) for _a, b in p), default=0)
            if modulus:
                hol_vars = anti_vars = hol_vars | anti_vars
                d_hol = d_anti = d_hol + d_anti
            hol, anti = len(hol_vars), len(anti_vars)
            extremes = _extreme_coefficients(p, modulus)
        bound = math.comb(hol + d_hol, d_hol) * \
            math.comb(anti + d_anti, d_anti)
        if bound > MAX_POWER_TERMS:
            raise ParseError(f"power may expand to {bound} terms, more than "
                             f"{MAX_POWER_TERMS}", pos)
        if k > 1 and any(_unprintable_power(w, k) for w in extremes):
            raise ParseError("power's coefficient would have more than "
                             f"{MAX_PRINTED_DIGITS} digits", pos)
        if len(p) == 1:
            return _printable(_monomial_power(p, k), pos)
        out = p if k else {(self.zero, self.zero): CONE}
        for bit in f"{k:b}"[1:]:
            out = _product(out, out, pos)
            if bit == "1":
                out = _product(out, p, pos)
        return _product(out, _conj_terms(out), pos) if modulus else out


_HALF = CRat(Fraction(1, 2))
_MINUS_HALF_I = CRat(0, Fraction(-1, 2))


def _extreme_coefficients(p: Terms, modulus: bool) -> Iterator[CRat]:
    """Each w such that p ** k, or |p|^2k when ``modulus``, has the
    coefficient w ** k: at its lex-largest and lex-smallest exponent
    vector.  Lex order on the key (alpha, beta) is kept by adding a vector,
    so an extreme term of a product is the product of the factors' extreme
    terms and never cancels; the extreme terms of conj(p) are those of p
    with the largest and the smallest swapped key (beta, alpha)."""
    for pick in (max, min)[:len(p)]:   # one for a one-term p, none for 0
        w = p[pick(p)]
        if modulus:
            w = w * p[pick(p, key=lambda key: key[::-1])].conj()
        yield w


def _product(p: Terms, q: Terms, pos: int) -> Terms:
    """p * q, its term pairs charged by ``_mul_terms`` to the parse's
    ``pair_budget``, and checked by ``_printable``; ``pos`` is the position
    a refusal names."""
    try:
        pq = _mul_terms(p, q)
    except PairBudgetError as err:
        raise ParseError(f"{err} of the {MAX_PRODUCT_PAIRS} a parse may "
                         "form", pos) from None
    return _printable(_nonzero(pq), pos)


def _printable(terms: Terms, pos: int) -> Terms:
    """``terms``, refused when a coefficient has a part whose numerator or
    denominator has more than MAX_PRINTED_DIGITS digits (exactly)."""
    for c in terms.values():
        if c.bit_length() >= _PRINTED_BITS and any(
                max(abs(x.numerator), x.denominator) >= _PRINTED_LIMIT
                for x in (c.re, c.im)):
            raise ParseError("coefficient has more than "
                             f"{MAX_PRINTED_DIGITS} digits", pos)
    return terms


def _unprintable_power(w: CRat, k: int) -> bool:
    """True when w ** k surely has a real or imaginary part whose numerator
    or denominator has more than MAX_PRINTED_DIGITS digits.

    A lower bound from bit lengths, so a power that prints is never
    refused: 2^(b - 1) <= x < 2^b for an int x >= 1 of b bits.  A real
    w = a/d in lowest terms has w ** k = a^k/d^k in lowest terms.  For a
    complex w = (a + b*i)/d with gcd(a, b, d) = 1, one part of w ** k is at
    least |w|^k / sqrt(2) in modulus, so its numerator is as well; and each
    prime power p^e of d leaves at least p^(ke/2) in the common denominator
    of the two parts (when p = 2, 1 + i divides a + b*i at most once; an odd
    p does not divide a + b*i, so p, or one of its two Gaussian prime
    factors, does not divide it), so one part's denominator is at least
    d^(k/4).  Every int of w ** k is below 2^(k * (w.bit_length() + 1)),
    which settles the common case at once."""
    if k * (w.bit_length() + 1) < _PRINTED_BITS:
        return False
    re, im = w.re, w.im
    if not im:
        top = max(abs(re.numerator), re.denominator)
        return k * (top.bit_length() - 1) >= _PRINTED_BITS
    norm = w.abs2()
    grow = (norm.numerator.bit_length() - 1
            - (norm.denominator - 1).bit_length())   # <= log2 |w|^2
    d = math.lcm(re.denominator, im.denominator)
    return (k * grow >= 2 * _PRINTED_BITS + 1
            or k * (d.bit_length() - 1) >= 4 * _PRINTED_BITS)


def parse_poly(text: str, n: int) -> Poly:
    """Parse a real-valued polynomial expression in z1..zn.

    Raises ParseError on syntax problems and NonRealError when the expanded
    expression is not Hermitian-symmetric (e.g. a lone "z2^2").
    """
    _check_dimension(n)
    with pair_budget(MAX_PRODUCT_PAIRS):
        terms = _Parser(text, n).parse()
    return require_real(Poly._unchecked(n, terms), f"expression {text!r}")
