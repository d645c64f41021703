"""The ring-file parser that mdeg.inputlang replaced, kept as its
differential oracle (tests/test_inputlang.py, tests/test_fuzz.py).

Each token is a _Tok that stores its kind, text, line and column;
_Parser walks them with peek, next and expect, delimits each generator
and evaluates it, once the ring is built, by recursive descent into one
term dict (_build_poly); Session.ideal checks each generator with
ring.is_homogeneous.  It reads the power limits of mdeg.inputlang when
it runs, so that a test which changes them changes them for both.
"""

import operator
import re
from math import comb

from mdeg import inputlang
from mdeg.errors import BadArgument, InputError, NonPrimeModulus
from mdeg.fields import QQ, PrimeField
from mdeg.groebner import Ideal
from mdeg.ring import GradedRing, Polynomial, is_homogeneous

# whitespace, then a token, a comment, or a character no token takes
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<op>[=\[\]();,+\-*^/])"
    r"|#.*|(?P<bad>\S))"
)


def _bits(c):
    """Bits of the wider of the numerator and denominator of c, an int or Fraction."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _capped_power(c, k):
    """c^k for an int or Fraction c, or None when its numerator or its
    denominator would have more than POWER_BITS_LIMIT bits.

    An int a of b >= 2 bits has a^k >= 2^((b - 1) k), so a power is
    refused unworked when (b - 1) k reaches the limit; otherwise a^k has
    fewer than b k < 2 * POWER_BITS_LIMIT bits and is worked out.  A base
    of at most one bit (0, 1, -1) passes for every k."""
    if (_bits(c) - 1) * k >= inputlang.POWER_BITS_LIMIT:
        return None
    out = c**k
    return None if _bits(out) > inputlang.POWER_BITS_LIMIT else out


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _number(t):
    """The int of the "num" token t; a number of more digits than Python
    reads into an int is an input error at t."""
    try:
        return int(t.text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise InputError(f"number of {len(t.text)} digits is too long", t.line, t.col) from None


def _tokenize(text):
    """The tokens of `text` and a last "eof" token on the line after the
    last line.  An unexpected character is reported at the column just
    past the last token before it on its line."""
    toks = []
    lines = text.splitlines()
    for line, chars in enumerate(lines, start=1):
        end = 0  # where the last token on the line ends
        for m in _TOKEN.finditer(chars):
            kind = m.lastgroup
            if kind == "bad":
                raise InputError(f"unexpected character {m.group(kind)!r}", line, end + 1)
            if kind:
                toks.append(_Tok(kind, m.group(kind), line, m.start(kind) + 1))
                end = m.end()
    toks.append(_Tok("eof", "", len(lines) + 1, 1))
    return toks


class Session:
    """Parsed ring file: the ring plus named ideals (as Polynomial lists)."""

    def __init__(self, ring, ideals, positions):
        self.ring = ring
        self.ideals = ideals  # name -> list of Polynomial
        self.positions = positions  # name -> (line, col) of each generator

    def ideal(self, name):
        if name not in self.ideals:
            raise InputError(f"no ideal named {name!r} in the input")
        gens = self.ideals[name]
        # every generator is checked here, with its position, so Ideal
        # need not check them again
        for f, (line, col) in zip(gens, self.positions[name]):
            if not is_homogeneous(f):
                raise InputError(f"generator {f} is not multihomogeneous", line, col)
        return Ideal._of(self.ring, [f for f in gens if f])


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise InputError(msg, tok.line, tok.col)

    def expect(self, kind, text=None):
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            self.error(f"expected {text or kind}, found {t.text!r}", t)
        return t

    def parse(self):
        field = None
        names = None
        degrees = {}
        deg_tokens = {}  # name -> its token in the deg declaration
        raw_ideals = {}  # name -> (first token, token slice) of each generator
        while self.peek().kind != "eof":
            t = self.next()
            if t.kind != "name":
                self.error("expected a declaration keyword", t)
            if t.text == "field":
                if field is not None:
                    self.error("duplicate field declaration", t)
                field = self._parse_field()
            elif t.text == "vars":
                if names is not None:
                    self.error("duplicate vars declaration", t)
                names = self._parse_vars(t)
                vars_token = t
            elif t.text == "deg":
                nt, d = self._parse_deg(names)
                nm = nt.text
                if nm in degrees:
                    self.error(f"duplicate degree for {nm}", t)
                if all(c == 0 for c in d) or any(c < 0 for c in d):
                    self.error(f"deg {nm} = {d} is not a positive degree", t)
                degrees[nm] = d
                deg_tokens[nm] = nt
            elif t.text == "ideal":
                nm, gens = self._parse_ideal_header()
                if nm in raw_ideals:
                    self.error(f"duplicate ideal {nm}", t)
                raw_ideals[nm] = gens
            else:
                self.error(f"unknown declaration {t.text!r}", t)
        if field is None:
            field = QQ
        if names is None:
            self.error("missing vars declaration")
        for nm, nt in deg_tokens.items():
            if nm not in names:  # a deg before the vars declaration
                self.error(f"unknown variable {nm!r}", nt)
        missing = [nm for nm in names if nm not in degrees]
        if missing:
            self.error(f"missing degree for {missing[0]}", vars_token)
        p = len(next(iter(degrees.values())))
        for nm in names:
            if len(degrees[nm]) != p:
                self.error(f"degree of {nm} has wrong length", deg_tokens[nm])
        ring = GradedRing(names, [degrees[nm] for nm in names], field)
        ideals = {}
        positions = {}
        for nm, raw_gens in raw_ideals.items():
            ideals[nm] = [_build_poly(ring, toks) for _, toks in raw_gens]
            positions[nm] = [(start.line, start.col) for start, _ in raw_gens]
        return Session(ring, ideals, positions)

    def _parse_field(self):
        t = self.expect("name")
        if t.text == "QQ":
            return QQ
        if t.text == "Fp":
            n = self.expect("num")
            try:
                return PrimeField(_number(n))
            except (BadArgument, NonPrimeModulus) as e:
                self.error(str(e), n)
        self.error(f"unknown field {t.text!r} (use QQ or Fp <prime>)", t)

    def _parse_vars(self, vars_token):
        names = []
        while self.peek().kind == "name" and self.peek().text not in (
            "field",
            "deg",
            "ideal",
            "vars",
        ):
            t = self.next()
            if t.text in names:
                self.error(f"repeated variable {t.text!r}", t)
            names.append(t.text)
        if not names:
            self.error("vars needs at least one name", vars_token)
        return names

    def _parse_deg(self, names):
        t = self.expect("name")
        if names is not None and t.text not in names:
            self.error(f"unknown variable {t.text!r}", t)
        self.expect("op", "=")
        self.expect("op", "(")
        comps = [_number(self.expect("num"))]
        while self.peek().text == ",":
            self.next()
            comps.append(_number(self.expect("num")))
        self.expect("op", ")")
        return t, tuple(comps)

    def _parse_ideal_header(self):
        t = self.expect("name")
        self.expect("op", "=")
        self.expect("op", "[")
        gens = []
        if self.peek().text != "]":
            gens.append(self._parse_expr_tokens())
            while self.peek().text == ";":
                self.next()
                if self.peek().text == "]":
                    break
                gens.append(self._parse_expr_tokens())
        self.expect("op", "]")
        return t.text, gens

    def _parse_expr_tokens(self):
        """The first token and the token slice of one generator (until ; or ])."""
        start = self.i
        depth = 0
        while True:
            t = self.peek()
            if t.kind == "eof":
                self.error("unterminated ideal", t)
            if depth == 0 and t.text in (";", "]"):
                break
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            self.next()
        return self.toks[start], self.toks[start : self.i]


def _build_poly(ring, toks):
    """The Polynomial of a generator's token slice, evaluated by recursive
    descent into one term dict."""
    F = ring.field
    index = ring._index
    minus_one = F.neg(F.one)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def err(msg, t=None):
        t = t or toks[-1]
        raise InputError(msg, t.line, t.col)

    def fit(t, cs):
        """Over QQ, an input error at the token t when a coefficient of cs
        has more than POWER_BITS_LIMIT bits, so that it can be printed: a
        sum of like terms, each factor but a variable and each product
        with a sum is checked, so none grows past twice the limit."""
        if not F.p and max(map(_bits, cs), default=0) > inputlang.POWER_BITS_LIMIT:
            err(f"coefficient too large: more than {inputlang.POWER_BITS_LIMIT} bits", t)

    def add(out, e, c):
        prev = out.get(e)
        if prev is not None:
            c = F.add(prev, c)
            fit(toks[pos - 1], (c,))
        if c:
            out[e] = c
        else:
            out.pop(e, None)

    def expr():
        """The term dict of a sum: each term added in, with its sign."""
        nonlocal pos
        out = {}
        sign = F.one
        t = peek()
        if t is not None and t.text == "-":
            pos += 1
            sign = minus_one
        while True:
            c, e, poly = term()
            c = F.mul(sign, c)
            if poly is None:
                add(out, tuple(e), c)
            else:
                for pe, pc in poly.terms.items():
                    add(out, tuple(map(operator.add, pe, e)), F.mul(c, pc))
                fit(toks[pos - 1], out.values())
            t = peek()
            if t is None or t.text not in ("+", "-"):
                return out
            pos += 1
            sign = F.one if t.text == "+" else minus_one

    def term():
        """(coefficient, exponent list, Polynomial or None) of a product:
        its monomial factors multiply into the coefficient and the
        exponents, the others into the Polynomial; each factor but a
        variable is checked (fit) at its last token."""
        nonlocal pos
        c, e, poly = F.one, [0] * ring.n, None
        while True:
            fc, fe, fp = factor()
            if fp is None:
                c = F.mul(c, fc)
                if fc != F.one:
                    fit(toks[pos - 1], (c,))
                for i, k in fe.items():
                    e[i] += k
            else:
                poly = fp if poly is None else poly * fp
                fit(toks[pos - 1], poly.terms.values())
            t = peek()
            if t is None:
                return c, e, poly
            if t.text == "*":
                pos += 1
            elif t.kind not in ("num", "name") and t.text != "(":
                return c, e, poly

    def factor():
        """A base and its ^ and /: (coefficient, {variable index:
        exponent}, None) for a monomial, (None, None, Polynomial) for a
        parenthesized sum of several terms."""
        nonlocal pos
        c, exps, poly = base()
        while True:
            t = peek()
            if t is None or t.text not in ("^", "/"):
                return c, exps, poly
            pos += 1
            k = peek()
            if k is None or k.kind != "num":
                err("expected an integer after " + t.text, k)
            pos += 1
            m = _number(k)
            if t.text == "^":
                if poly is None:
                    if F.p:
                        c = pow(c, m, F.p)
                    else:
                        c = _capped_power(c, m)
                        if c is None:
                            err(
                                f"power {m} of a number is too large: more than "
                                f"{inputlang.POWER_BITS_LIMIT} bits",
                                k,
                            )
                        c = F.coerce(c)
                    exps = {i: v * m for i, v in exps.items()}
                else:
                    r = len(poly.terms)
                    if comb(m + r, r) > inputlang.POWER_TERMS_LIMIT:
                        err(
                            f"power {m} of a sum of {r} terms is too large: "
                            f"C({m} + {r}, {r}) > {inputlang.POWER_TERMS_LIMIT}",
                            k,
                        )
                    # refused unworked when f's widest coefficient to the m passes the limit
                    if not F.p and _capped_power(max(poly.terms.values(), key=_bits), m) is None:
                        err(f"power {m} of a sum is too large: more than {inputlang.POWER_BITS_LIMIT} bits", k)
                    poly = poly**m
            else:
                d = F.coerce(m)
                if not d:
                    err(f"cannot divide by {k.text} over {F!r}", k)
                if poly is None:
                    c = F.mul(c, F.inv(d))
                else:
                    poly = poly.scale(F.inv(d))

    def base():
        nonlocal pos
        t = peek()
        if t is None:
            err("unexpected end of polynomial")
        pos += 1
        if t.kind == "num":
            return F.coerce(_number(t)), {}, None
        if t.kind == "name":
            if t.text not in index:
                err(f"unknown variable {t.text!r}", t)
            return F.one, {index[t.text]: 1}, None
        if t.text == "(":
            inner = expr()
            t2 = peek()
            if t2 is None or t2.text != ")":
                err("expected )", t2 or t)
            pos += 1
            if len(inner) > 1:
                return None, None, Polynomial._of(ring, inner)
            # a monomial in parentheses stays a monomial, so that its
            # powers too are products of exponents
            if not inner:
                return F.zero, {}, None
            [(e, c)] = inner.items()
            return c, {i: k for i, k in enumerate(e) if k}, None
        err(f"unexpected token {t.text!r}", t)

    if not toks:
        return ring.zero()
    out = expr()
    if pos != len(toks):
        err("trailing tokens in polynomial", toks[pos])
    return Polynomial._of(ring, out)


def parse_input(text):
    """Parse a ring file into a Session."""
    return _Parser(text).parse()
