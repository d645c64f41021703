"""The ring-file tokenizer and generator builder of mdeg.inputlang against
the ones they replaced (tests/ref_inputlang.py): the same tokens, lines
and columns, the same term dict for every generator, and the same
InputError, text and position, for every malformed one.
"""

import contextlib
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

import ref_inputlang
from mdeg.errors import InputError
from mdeg.fields import GF32003, QQ, PrimeField
from mdeg.inputlang import _build_poly, _tokenize, parse_input
from mdeg.ring import make_ring

VARS = ("x", "y", "z")
RINGS = [make_ring(VARS, [(1,)] * 3, F) for F in (QQ, PrimeField(7), GF32003)]


def outcome(fn):
    """What fn() returns, or the text and position of its InputError."""
    try:
        return fn()
    except InputError as e:
        return ("InputError", str(e), e.line, e.col)


def token_fields(toks):
    return [(t.kind, t.text, t.line, t.col) for t in toks]


# numbers that vanish or divide by zero mod 7 or 32003 as well as over QQ
numbers = st.sampled_from(["0", "1", "2", "3", "6", "7", "14", "21", "32003"])


@st.composite
def expressions(draw, parens=None):
    """A generator as text: signed sums of products of numbers, names and
    at most two parenthesized sums, which may nest, the products written
    with *, with a space or with nothing.  A number or a name takes a
    chain of up to two ^ and /, a parenthesized sum at most one, so that
    no power grows large."""
    if parens is None:
        parens = [2]  # how many parenthesized sums may still be drawn
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["num", "name", "paren"] if parens[0] else ["num", "name"]))
            if kind == "paren":
                parens[0] -= 1
                base = "(" + draw(expressions(parens)) + ")"
            else:
                base = draw(numbers if kind == "num" else st.sampled_from(VARS))
            for _ in range(draw(st.integers(0, 1 if kind == "paren" else 2))):
                if draw(st.booleans()):
                    base += "^" + str(draw(st.integers(0, 2)))
                else:
                    base += "/" + draw(numbers)
            factors.append(base)
        term = factors[0]
        for f in factors[1:]:
            # no empty join between digits, which would make one number
            joins = ["*", " * ", " "] + [""] * (not (term[-1] + f[0]).isdigit())
            term += draw(st.sampled_from(joins)) + f
        terms.append(term)
    signs = [draw(st.sampled_from([" + ", " - ", "-"])) for _ in terms[1:]]
    lead = draw(st.sampled_from(["", "-", "- "]))
    return lead + terms[0] + "".join(s + t for s, t in zip(signs, terms[1:]))


# token sequences that are mostly malformed generators
token_soup = st.lists(
    st.sampled_from(["x", "y", "w", "2", "0", "7", "(", ")", "^", "/", "*", "+", "-", ","]),
    min_size=1,
    max_size=8,
).map(" ".join)


def same_generator(ring, text):
    toks = _tokenize(text)[:-1]  # a generator's slice holds no eof token
    got = outcome(lambda: _build_poly(ring, toks).terms)
    assert got == outcome(lambda: ref_inputlang.build_poly(ring, toks).terms)
    if isinstance(got, dict):
        F = ring.field
        assert not any(F.eq(c, F.zero) for c in got.values())


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(RINGS), expressions())
@example(RINGS[0], "-(x - 2y)^2 z + 3/2 x y z - x/2 (y z - 1/3 x^2)")
@example(RINGS[0], "x/0")
@example(RINGS[1], "x/7 + y")
@example(RINGS[0], "(0)^0 x + 0^0 y + (x - x)^0 z")
def test_generators_build_the_reference_term_dicts(ring, text):
    same_generator(ring, text)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(RINGS), token_soup)
@example(RINGS[0], "x ^")
@example(RINGS[0], "( x")
@example(RINGS[0], "x )")
@example(RINGS[0], "x + - y")
@example(RINGS[0], "w / 0")
def test_malformed_generators_raise_the_reference_errors(ring, text):
    same_generator(ring, text)


# the token alphabet, whitespace that breaks a line for str.splitlines
# (\x0b, \x0c, \x1c, \x85, \u2028) and whitespace that does not (\x1f, \t),
# a non-ASCII digit, and characters no token takes
tokenizer_alphabet = st.sampled_from(
    ["x", "y1", "z'", "_a", "0", "12", "\u0663", "(", ")", "[", "]", "=", ";", ",",
     "+", "-", "*", "^", "/", "#", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c",
     "\x85", "\x1c", "\x1f", "\u2028", "$", "."]
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(tokenizer_alphabet, max_size=30).map("".join))
@example("x $")
@example("x\r\n  \x85y # c\x0bz\n")
@example("\n\n")
def test_tokens_lines_and_columns_match_the_per_line_reference(text):
    got = outcome(lambda: token_fields(_tokenize(text)))
    assert got == outcome(lambda: token_fields(ref_inputlang.tokenize(text)))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body after `seconds` (POSIX only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("field", ["QQ", "Fp 32003"])
def test_a_huge_power_of_a_variable_is_one_exponent(field):
    text = f"field {field}\nvars x\ndeg x = (1)\nideal I = [ x^100000000000000000000 ]\n"
    with time_limit(10):
        session = parse_input(text)
    assert session.ideals["I"][0].terms == {(10**20,): 1}
