"""The ring-file reader of mdeg.inputlang against the one it replaced
(tests/ref_inputlang.py): the same tokens, lines and columns, the same
term dict, in the same order, for every generator, the same InputError,
text and position, for every malformed one, and, on whole ring files,
the same ring, ideals and homogeneity errors.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ref_inputlang
from conftest import time_limit
from mdeg.errors import InputError
from mdeg.fields import GF32003, MODULUS_LIMIT, QQ, PrimeField
from mdeg import inputlang
from mdeg.inputlang import _terms, _tokenize, _where, parse_input
from mdeg.ring import make_ring

VARS = ("x", "y", "z")
RINGS = [make_ring(VARS, [(1,)] * 3, F) for F in (QQ, PrimeField(7), GF32003)]


def outcome(fn):
    """What fn() returns, or the text and position of its InputError."""
    try:
        return fn()
    except InputError as e:
        return ("InputError", str(e), e.line, e.col)


def token_fields(text):
    """(kind, text, line, column) of each token of `text`, the positions
    worked out by _where."""
    lines = text.splitlines()
    return [
        (next((kind for kind, group in zip(("num", "name", "op"), t) if group), "eof"), "".join(t))
        + _where(lines, i)
        for i, t in enumerate(_tokenize(lines))
    ]


def reference_token_fields(text):
    return [(t.kind, t.text, t.line, t.col) for t in ref_inputlang._tokenize(text)]


def session_outcome(parse, text):
    """The ring, each ideal's term dicts as item lists and the outcome of
    Session.ideal on each ideal, or the InputError of parse(text)."""

    def read():
        session = parse(text)
        ideals = [(name, [list(f.terms.items()) for f in gens]) for name, gens in session.ideals.items()]
        checks = [(name, outcome(lambda: session.ideal(name) and None)) for name in session.ideals]
        return session.ring, ideals, checks

    return outcome(read)


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
    """_terms on the tokens of `text`, ended by a ;, as _build_poly of
    the reference evaluates them, whatever their parentheses."""
    lines = (text + " ;").splitlines()
    toks = _tokenize(lines)
    end = len(toks) - 2  # the ;
    got = outcome(lambda: list(_terms(ring, toks, lines, 0, end).items()))
    ref_toks = ref_inputlang._tokenize(text + " ;")[:end]
    assert got == outcome(lambda: list(ref_inputlang._build_poly(ring, ref_toks).terms.items()))
    if isinstance(got, list):
        F = ring.field
        assert not any(c == F.zero for _, c in got)


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
    assert outcome(lambda: token_fields(text)) == outcome(lambda: reference_token_fields(text))


rarely = st.sampled_from([False] * 19 + [True])

# declarations that each stop the parser, or not, in their own way
odd_declarations = st.sampled_from(
    ["3", "ring x", "vars", "field", "field RR", "field Fp", "field Fp 4", "deg x (1)",
     "deg x = (1", "deg = (1)", "deg x = (0)", "ideal = [ x ]", "ideal I [ x ]",
     "ideal I = [ x", "ideal I = [ x ; ]", "ideal I = ( x )", "ideal I = [ ]", "# note"]
)


@st.composite
def ring_files(draw):
    """A ring file over the names of VARS and maybe w: mostly a
    well-formed one, with a field, a vars and a deg declaration per name
    and up to three ideals of drawn generators; at times a declaration
    is missing, repeated or malformed, or a generator is token soup.  The
    declarations come in any order, split into lines in several ways."""
    p = draw(st.integers(1, 2))
    names = draw(st.permutations(VARS + ("w",) * draw(st.booleans())))
    if draw(rarely):
        names = names[1:]
    if draw(rarely):
        names.append(draw(st.sampled_from(names)))
    once = st.sampled_from([1] * 18 + [0, 2])  # how often a declaration comes
    decls = [draw(st.sampled_from(["field QQ", "field Fp 7", "field Fp 32003"]))] * draw(once)
    decls += ["vars " + " ".join(names)] * draw(once)
    # one grading for most names, so that some generators are homogeneous
    degrees = st.lists(st.integers(0, 2), min_size=p, max_size=p).map(lambda d: d if any(d) else [1] + d[1:])
    common = draw(degrees)
    extra = [draw(st.sampled_from(VARS))] if draw(rarely) else []
    for name in dict.fromkeys(names + extra):
        for _ in range(draw(once)):
            d = draw(st.sampled_from([common] * 3 + [draw(degrees)]))
            if draw(rarely):
                d = d + [1]
            decls.append(f"deg {name} = ({','.join(map(str, d))})")
    ideals = draw(st.lists(st.sampled_from("IJK"), min_size=1, max_size=3, unique=True))
    if draw(rarely):
        ideals.append(ideals[0])
    for ideal in ideals:
        gens = draw(st.lists(token_soup if draw(rarely) else expressions(), max_size=3))
        decls.append(f"ideal {ideal} = [ " + " ; ".join(gens) + " ]")
    if draw(rarely):
        decls.append(draw(odd_declarations))
    decls = draw(st.permutations(decls))
    seps = [draw(st.sampled_from(["\n", " ", "\n\n", "\r\n", "  # c\n"])) for _ in decls]
    return "".join(d + sep for d, sep in zip(decls, seps))


@settings(max_examples=500, deadline=None)
@given(ring_files())
@example("vars x y\ndeg x = (1)\ndeg y = (2)\nideal I = [ x^2 - y ; x + y ]\n")
@example("ideal I = [ x ]\ndeg x = (1)\nvars x\nideal J = [ ]\n")
@example("vars x\ndeg x = (1)\nideal I = [ (x ; y) ]\n")
def test_ring_files_read_as_the_reference_reads_them(text):
    assert session_outcome(parse_input, text) == session_outcome(ref_inputlang.parse_input, text)


@pytest.mark.parametrize("field", ["QQ", "Fp 32003"])
def test_a_huge_power_of_a_variable_is_one_exponent(field):
    text = f"field {field}\nvars x\ndeg x = (1)\nideal I = [ x^100000000000000000000 ]\n"
    with time_limit(10):
        session = parse_input(text)
    assert session.ideals["I"][0].terms == {(10**20,): 1}


def test_a_huge_power_of_a_sum_is_an_input_error_at_its_exponent():
    text = "vars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ (x + y)^100000000000000000000 ]\n"
    with time_limit(1), pytest.raises(InputError) as e:
        parse_input(text)
    assert (e.value.line, e.value.col) == (4, 21)


def test_a_power_of_a_sum_is_read_up_to_the_limit(monkeypatch):
    """(f)^k for a sum f of r terms is read while C(k + r, r) is at most
    POWER_TERMS_LIMIT; here C(3 + 2, 2) = 10."""
    monkeypatch.setattr(inputlang, "POWER_TERMS_LIMIT", 10)
    text = "vars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ (x + y)^{} ]\n"
    assert len(parse_input(text.format(3)).ideals["I"][0].terms) == 4
    with pytest.raises(InputError):
        parse_input(text.format(4))


def test_a_huge_power_of_a_number_is_an_input_error_at_its_exponent():
    text = "vars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ 2^100000000000000000000*x ]\n"
    with time_limit(1), pytest.raises(InputError) as e:
        parse_input(text)
    assert (e.value.line, e.value.col) == (4, 15)


@pytest.mark.parametrize(
    "base, bits",
    [("2", 20), ("3", 20), ("(2/3)", 20), ("(-5)", 21), ("(1/7)", 18), ("1000", 20)],
)
def test_a_power_of_a_number_is_read_up_to_the_bit_limit(monkeypatch, base, bits):
    """c^k over QQ is read while the numerator and the denominator of c^k
    have at most POWER_BITS_LIMIT bits, and refused at the first k past
    it, whichever way the two-step test of _capped_power decides."""
    monkeypatch.setattr(inputlang, "POWER_BITS_LIMIT", bits)
    text = "vars x\ndeg x = (1)\nideal I = [ {}^{}*x ]\n"
    c = Fraction(base.strip("()"))
    k = 0
    while max(abs(q).bit_length() for q in (c ** (k + 1)).as_integer_ratio()) <= bits:
        k += 1
    [f] = parse_input(text.format(base, k)).ideals["I"]
    assert f.terms == {(1,): c**k}
    with pytest.raises(InputError):
        parse_input(text.format(base, k + 1))


# generators whose widest coefficient is c^k, for c the base b, h = k // 2
# and r = k - h, by a power, a product of two numbers, a number times a
# sum, a product of two sums and the square of a sum (c^(2h) there)
PRODUCTS = {
    "power": "{b}^{k}*x",
    "numbers": "{b}^{h}*{b}^{r}*x + y",
    "number times sum": "{b}^{h}*x*({b}^{r}*x + y)",
    "sum times sum": "({b}^{h}*x + y)*({b}^{r}*x - y)",
    "square of a sum": "({b}^{h}*x + y)^2",
}


@pytest.mark.parametrize(
    "base, form",
    [
        pytest.param(base, form, id=base if form == "power" else f"{base}-{form}")
        for form in PRODUCTS
        for base in ["2", "3", "(2/3)", "(-5)", "(1/7)", "1000"]
    ],
)
def test_every_power_of_a_number_read_can_be_printed(base, form):
    """The widest coefficient c^k read at the real POWER_BITS_LIMIT, by a
    power of a number or by a product, is written back as a ring file and
    reads back the same, within the digits Python writes for an int; the
    next power is refused."""
    text = "vars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ {} ]\n"
    c = Fraction(base.strip("()"))
    k = 0
    while max(abs(q).bit_length() for q in (c ** (k + 1)).as_integer_ratio()) <= inputlang.POWER_BITS_LIMIT:
        k += 1
    if form == "square of a sum":
        k -= k % 2

    def generator(k):
        return text.format(PRODUCTS[form].format(b=base, k=k, h=k // 2, r=k - k // 2))

    parsed = parse_input(generator(k))
    [f] = parsed.ideals["I"]
    assert c**k in f.terms.values()
    printed = inputlang.format_ring_file(parsed.ring, parsed.ideals)
    assert parse_input(printed).ideals["I"][0].terms == f.terms
    with pytest.raises(InputError):
        parse_input(generator(k + 2 if form == "square of a sum" else k + 1))


@pytest.mark.parametrize("base", ["0", "1", "(-1)"])
@pytest.mark.parametrize("field", ["QQ", "Fp 32003"])
def test_a_huge_power_of_zero_or_a_unit_is_read(base, field):
    text = f"field {field}\nvars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ {base}^100000000000000000000*x + y ]\n"
    with time_limit(1):
        [f] = parse_input(text).ideals["I"]
    assert f.terms.get((1, 0), 0) == {"0": 0, "1": 1, "(-1)": 1}[base]


def test_a_huge_power_of_a_number_over_fp_is_a_modular_power():
    text = "field Fp 32003\nvars x\ndeg x = (1)\nideal I = [ 2^100000000000000000000*x ]\n"
    with time_limit(1):
        [f] = parse_input(text).ideals["I"]
    assert f.terms == {(1,): pow(2, 10**20, 32003)}


@pytest.mark.parametrize("modulus", ["0", "1", "4", "3215031751", str(MODULUS_LIMIT), str(10**30)])
def test_a_modulus_that_is_not_a_prime_below_the_limit_is_an_input_error_at_it(modulus):
    text = f"field  Fp {modulus}\nvars x\ndeg x = (1)\nideal I = [ x ]\n"
    with pytest.raises(InputError) as e:
        parse_input(text)
    assert (e.value.line, e.value.col) == (1, 11)
