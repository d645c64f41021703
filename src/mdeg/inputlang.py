"""Parser for the ring-file input language.

Grammar (whitespace-insensitive, # comments):

    field QQ            | field Fp 32003
    vars x0 x1 x2
    deg x0 = (1,0,0)
    ideal P = [ x0*x1 - x2^2 ; x0^3 ]

Every variable is named once in vars and needs a degree declaration, and
every deg names a variable; one ring per file, with at most one field
declaration; several named ideals may follow, each name once.  Errors
carry line and column: each precondition of GradedRing is checked at the
token that breaks it, a repeated variable at its second name.

The text is tokenized in one regex scan that counts lines as
str.splitlines does.  Each generator is read into one term dict: a
product of numbers, names and their ^ or / is one coefficient and one
exponent list, so x^k costs one multiplication of exponents, and + and -
add the product into the dict.  Only a parenthesized sum of several
terms is a Polynomial, multiplied and raised to powers by Polynomial
arithmetic.
"""

import operator
import re

from .errors import InputError
from .fields import QQ, PrimeField
from .groebner import Ideal
from .ring import GradedRing, Polynomial, is_homogeneous

# the line breaks of str.splitlines
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# a line break, other whitespace, a comment, or a token
_TOKEN = re.compile(
    rf"(?P<br>\r\n|[{_BREAKS}])|[^\S{_BREAKS}]+|#[^{_BREAKS}]*"
    r"|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<op>[=\[\]();,+\-*^/])"
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    """The tokens of `text` and a last "eof" token, in one regex scan that
    counts lines as str.splitlines does.  An unexpected character is
    reported at the column just past the last token before it on its
    line."""
    toks = []
    line, start, end = 1, 0, 0  # line number, its first offset, its last token's end
    pos = 0
    match = _TOKEN.match
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            raise InputError(f"unexpected character {text[pos]!r}", line, end - start + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "br":
            line += 1
            start = end = pos
        elif kind:
            toks.append(_Tok(kind, m.group(), line, m.start() - start + 1))
            end = pos
    toks.append(_Tok("eof", "", line + (pos > start), 1))
    return toks


class Session:
    """Parsed ring file: the ring plus named ideals (as Polynomial lists)."""

    def __init__(self, ring, ideals, positions=None):
        self.ring = ring
        self.ideals = ideals  # name -> list of Polynomial
        self.positions = positions or {}  # name -> (line, col) of each generator

    def ideal(self, name):
        if name not in self.ideals:
            raise InputError(f"no ideal named {name!r} in the input")
        gens = self.ideals[name]
        # every generator is checked here, with its position when known,
        # so Ideal need not check them again
        where = self.positions.get(name) or [(None, None)] * len(gens)
        for f, (line, col) in zip(gens, where):
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
                names = self._parse_vars()
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
            return PrimeField(int(n.text))
        self.error(f"unknown field {t.text!r} (use QQ or Fp <prime>)", t)

    def _parse_vars(self):
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
            self.error("vars needs at least one name")
        return names

    def _parse_deg(self, names):
        t = self.expect("name")
        if names is not None and t.text not in names:
            self.error(f"unknown variable {t.text!r}", t)
        self.expect("op", "=")
        self.expect("op", "(")
        comps = [int(self.expect("num").text)]
        while self.peek().text == ",":
            self.next()
            comps.append(int(self.expect("num").text))
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

    def add(out, e, c):
        prev = out.get(e)
        if prev is not None:
            c = F.add(prev, c)
        if F.eq(c, F.zero):
            out.pop(e, None)
        else:
            out[e] = c

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
            t = peek()
            if t is None or t.text not in ("+", "-"):
                return out
            pos += 1
            sign = F.one if t.text == "+" else minus_one

    def term():
        """(coefficient, exponent list, Polynomial or None) of a product:
        its monomial factors multiply into the coefficient and the
        exponents, the others into the Polynomial."""
        nonlocal pos
        c, e, poly = F.one, [0] * ring.n, None
        while True:
            fc, fe, fp = factor()
            if fp is None:
                c = F.mul(c, fc)
                for i, k in fe.items():
                    e[i] += k
            else:
                poly = fp if poly is None else poly * fp
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
            m = int(k.text)
            if t.text == "^":
                if poly is None:
                    c = pow(c, m, F.p) if F.p else F.coerce(c**m)
                    exps = {i: v * m for i, v in exps.items()}
                else:
                    poly = poly**m
            else:
                d = F.coerce(m)
                if F.eq(d, F.zero):
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
            return F.coerce(int(t.text)), {}, None
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


def format_ring_file(ring, ideals):
    """Emit a Session back in the input grammar (used by project/standardize)."""
    lines = []
    if ring.field.p:
        lines.append(f"field Fp {ring.field.p}")
    else:
        lines.append("field QQ")
    lines.append("vars " + " ".join(ring.names))
    for nm, d in zip(ring.names, ring.degrees):
        lines.append(f"deg {nm} = ({','.join(str(c) for c in d)})")
    for nm, gens in ideals.items():
        if not gens:
            lines.append(f"ideal {nm} = []")
            continue
        body = "; ".join(str(g) for g in gens)
        lines.append(f"ideal {nm} = [ {body} ]")
    return "\n".join(lines) + "\n"
