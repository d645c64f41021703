"""The ring-file tokenizer and generator evaluator that mdeg.inputlang
replaced, kept as its differential oracle (tests/test_inputlang.py).

`tokenize` reads the text line by line (str.splitlines), and
`build_poly` evaluates a generator with Polynomial arithmetic on every
name and number: a product of k factors is k - 1 Polynomial products,
and x^k is k of them.
"""

import re
from fractions import Fraction

from conftest import constant, field_element
from mdeg.errors import InputError
from mdeg.inputlang import _Tok

_TOKEN = re.compile(
    r"\s*(?:(?P<comment>#[^\n]*)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>[=\[\]();,+\-*^/]))"
)


def tokenize(text):
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


def build_poly(ring, toks):
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
                    base = base.scale(field_element(ring.field, Fraction(1, int(t.text))))
                except ZeroDivisionError:
                    err(f"cannot divide by {t.text} over {ring.field!r}", t)
        return base

    def parse_base():
        t = peek()
        if t is None:
            err("unexpected end of polynomial")
        if t.kind == "num":
            advance()
            return constant(ring, int(t.text))
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
