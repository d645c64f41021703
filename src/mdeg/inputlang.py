"""Parser for the ring-file input language.

Grammar (whitespace-insensitive, # comments):

    field QQ            | field Fp 32003
    vars x0 x1 x2
    deg x0 = (1,0,0)
    ideal P = [ x0*x1 - x2^2 ; x0^3 ]

Every variable needs a degree declaration; one ring per file; several
named ideals may follow.  Errors carry line and column.
"""

import re
from fractions import Fraction

from .errors import InputError
from .fields import QQ, PrimeField
from .groebner import Ideal
from .ring import GradedRing, is_homogeneous

_TOKEN = re.compile(
    r"\s*(?:(?P<comment>#[^\n]*)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>[=\[\]();,+\-*^/]))"
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN.match(line, pos)
            if not m or m.end() == pos:
                rest = line[pos:].lstrip()
                if not rest:
                    break
                raise InputError(
                    f"unexpected character {rest[0]!r}", lineno, pos + 1
                )
            if m.lastgroup == "comment":
                break
            if m.lastgroup:
                toks.append(
                    _Tok(m.lastgroup, m.group(m.lastgroup), lineno, m.start(m.lastgroup) + 1)
                )
            pos = m.end()
    toks.append(_Tok("eof", "", len(text.splitlines()) + 1, 1))
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
        return Ideal(self.ring, gens, check_homogeneous=False)


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
        ideals = {}
        order = []
        while self.peek().kind != "eof":
            t = self.next()
            if t.kind != "name":
                self.error("expected a declaration keyword", t)
            if t.text == "field":
                field = self._parse_field()
            elif t.text == "vars":
                if names is not None:
                    self.error("duplicate vars declaration", t)
                names = self._parse_vars()
            elif t.text == "deg":
                nm, d = self._parse_deg(names)
                if nm in degrees:
                    self.error(f"duplicate degree for {nm}", t)
                if all(c == 0 for c in d) or any(c < 0 for c in d):
                    self.error(f"deg {nm} = {d} is not a positive degree", t)
                degrees[nm] = d
            elif t.text == "ideal":
                nm, gens = self._parse_ideal_header()
                order.append((nm, gens))
            else:
                self.error(f"unknown declaration {t.text!r}", t)
        if field is None:
            field = QQ
        if names is None:
            raise InputError("missing vars declaration", 1, 1)
        missing = [nm for nm in names if nm not in degrees]
        if missing:
            raise InputError(f"missing degree for {missing[0]}", 1, 1)
        p = len(next(iter(degrees.values())))
        for nm in names:
            if len(degrees[nm]) != p:
                raise InputError(f"degree of {nm} has wrong length", 1, 1)
        try:
            ring = GradedRing(names, [degrees[nm] for nm in names], field)
        except Exception as e:
            raise InputError(str(e), 1, 1)
        positions = {}
        for nm, raw_gens in order:
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
            names.append(self.next().text)
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
        return t.text, tuple(comps)

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
    """Recursive-descent evaluation of a generator token slice."""
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def advance():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def err(msg, t=None):
        t = t or (toks[-1] if toks else None)
        raise InputError(msg, t.line if t else 0, t.col if t else 0)

    def parse_expr():
        t = peek()
        neg = False
        if t is not None and t.text == "-":
            advance()
            neg = True
        acc = parse_term()
        if neg:
            acc = -acc
        while peek() is not None and peek().text in ("+", "-"):
            op = advance().text
            rhs = parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term():
        acc = parse_factor()
        while peek() is not None and (
            peek().text == "*" or peek().kind in ("num", "name") or peek().text == "("
        ):
            if peek().text == "*":
                advance()
            acc = acc * parse_factor()
        return acc

    def parse_factor():
        base = parse_base()
        while peek() is not None and peek().text in ("^", "/"):
            op = advance().text
            t = peek()
            if t is None or t.kind != "num":
                err("expected an integer after " + op, t)
            advance()
            if op == "^":
                base = base ** int(t.text)
            else:
                try:
                    base = base.scale(Fraction(1, int(t.text)))
                except ZeroDivisionError:
                    err(f"cannot divide by {t.text} over {ring.field!r}", t)
        return base

    def parse_base():
        t = peek()
        if t is None:
            err("unexpected end of polynomial")
        if t.kind == "num":
            advance()
            return ring.constant(int(t.text))
        if t.kind == "name":
            if t.text not in ring._index:
                err(f"unknown variable {t.text!r}", t)
            advance()
            return ring.variable(t.text)
        if t.text == "(":
            advance()
            inner = parse_expr()
            t2 = peek()
            if t2 is None or t2.text != ")":
                err("expected )", t2 or t)
            advance()
            return inner
        err(f"unexpected token {t.text!r}", t)

    if not toks:
        return ring.zero()
    out = parse_expr()
    if pos[0] != len(toks):
        err(f"trailing tokens in polynomial", toks[pos[0]])
    return out


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
