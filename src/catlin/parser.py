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
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from typing import List, Optional, Tuple

from .exact import CRat, CI
from .poly import NonRealError, Poly, PolyError, require_real


# Most terms a power may expand to.  A power is refused before it is
# expanded when the count of monomials within its bidegree, over the
# variables of its base, exceeds this; so an oversized input fails fast.
MAX_POWER_TERMS = 50_000

# Most term pairs the products of one parse may form together.  The cap
# above bounds the size of a power, not the work of expanding it:
# (1+z2+z3+z4)^40 has 12,341 terms, and its last squaring forms 3.1 million
# term pairs.  Every product the parser forms, of two factors, inside a
# power or as the q * conj(q) of a modulus, is charged against this budget,
# and refused before it is formed when it would overdraw it; so an
# expression of many admitted products fails fast as well.
MAX_PRODUCT_PAIRS = 1_000_000

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


class ParseError(PolyError):
    """Syntax error; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"parse error at position {pos}: {message}")
        self.pos = pos


_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<cvar>zbar(?P<cidx>\d+))|(?P<var>z(?P<idx>\d+))"
    r"|(?P<name>Re|Im|conj)|(?P<op>[-+*^/()|~])|(?P<imag>i))")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        for kind in ("num", "cvar", "var", "name", "op", "imag"):
            if m.group(kind):
                tokens.append((kind, m.group(kind), m.start(kind)))
                break
        digits = m.group("num") or m.group("idx") or m.group("cidx") or ""
        if len(digits) > MAX_DIGITS:
            raise ParseError(f"number longer than {MAX_DIGITS} digits",
                             m.start(kind))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0
        self.pairs_left = MAX_PRODUCT_PAIRS
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

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
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
            p = self._product(p, self.factor(), pos)

    def factor(self) -> Poly:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            self.descend(1, pos)
            p = -self.factor()
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

    def atom(self) -> Tuple[Poly, bool]:
        """Returns (poly, is_modulus)."""
        kind, val, pos = self.next()
        if kind == "num":
            value = Fraction(int(val))
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, p3 = self.next()
                if k3 != "num":
                    raise ParseError("expected integer denominator", p3)
                if int(v3) == 0:
                    raise ParseError("zero denominator", p3)
                value /= int(v3)
            return Poly.const(self.n, value), False
        if kind == "imag":
            return Poly.const(self.n, CI), False
        if kind == "var":
            j = int(val[1:])
            self._check_var(j, pos)
            return Poly.variable(self.n, j), False
        if kind == "cvar":
            j = int(val[4:])
            self._check_var(j, pos)
            return Poly.conj_variable(self.n, j), False
        if kind == "name":
            self.expect_op("(")
            self.descend(4, pos)
            inner = self.expr()
            self.depth -= 4
            self.expect_op(")")
            if val == "conj":
                return inner.conj(), False
            if val == "Re":
                return (inner + inner.conj()) * Fraction(1, 2), False
            return (inner - inner.conj()) * (CRat(0, Fraction(-1, 2))), False
        if kind == "op" and val == "~":
            self.descend(1, pos)
            inner, modulus = self.atom()
            self.depth -= 1
            if modulus:
                raise ParseError("cannot conjugate a modulus directly", pos)
            return inner.conj(), False
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

    def _product(self, p: Poly, q: Poly, pos: int) -> Poly:
        """p * q, after charging its term pairs against the parse's budget of
        MAX_PRODUCT_PAIRS."""
        pairs = len(p.terms) * len(q.terms)
        if pairs > self.pairs_left:
            raise ParseError(f"product would form {pairs} term pairs, more "
                             f"than the {self.pairs_left} left of the "
                             f"{MAX_PRODUCT_PAIRS} a parse may form", pos)
        self.pairs_left -= pairs
        return p * q

    def _power(self, p: Poly, k: int, pos: int,
               modulus: bool = False) -> Poly:
        """p ** k, or |p|^2k = (p * conj(p)) ** k when ``modulus``.

        Refused before it is expanded when more than MAX_POWER_TERMS monomials
        lie within its bidegree: holomorphic degree up to k times the largest
        of the base, in the variables the base has holomorphically, and the
        same for zbar.  The base p * conj(p) of a modulus has every variable of
        p on both sides, and degree the largest holomorphic plus the largest
        antiholomorphic degree of p (top parts of a product of nonzero
        polynomials never cancel), so it is not formed: a modulus is expanded
        as q * conj(q) with q = p ** k, which forms far fewer term pairs.
        Powers are taken from the top bit of k down, so that the last product
        is the largest; ``_product`` charges each one."""
        hol = {i for (a, _b) in p.terms for i, e in enumerate(a) if e}
        anti = {i for (_a, b) in p.terms for i, e in enumerate(b) if e}
        d_hol = k * max((sum(a) for a, _b in p.terms), default=0)
        d_anti = k * max((sum(b) for _a, b in p.terms), default=0)
        if modulus:
            hol = anti = hol | anti
            d_hol = d_anti = d_hol + d_anti
        bound = math.comb(len(hol) + d_hol, d_hol) * \
            math.comb(len(anti) + d_anti, d_anti)
        if bound > MAX_POWER_TERMS:
            raise ParseError(f"power may expand to {bound} terms, more than "
                             f"{MAX_POWER_TERMS}", pos)
        out = p if k else Poly.const(p.n, 1)
        for bit in f"{k:b}"[1:]:
            out = self._product(out, out, pos)
            if bit == "1":
                out = self._product(out, p, pos)
        return self._product(out, out.conj(), pos) if modulus else out


def parse_poly(text: str, n: int) -> Poly:
    """Parse a real-valued polynomial expression in z1..zn.

    Raises ParseError on syntax problems and NonRealError when the expanded
    expression is not Hermitian-symmetric (e.g. a lone "z2^2").
    """
    if n < 1:
        raise PolyError("dimension must be >= 1")
    p = _Parser(text, n).parse()
    return require_real(p, f"expression {text!r}")
