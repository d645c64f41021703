"""QQ with integral elements as ints (fields.Rationals) against the
Fraction-only field it replaced (tests/fraction_field.py): Polynomial
arithmetic, printing, Buchberger and normal forms give equal term dicts,
in the same order, and identical strings, on integral and non-integral
rational coefficients.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import normal_form
from fraction_field import FRACTION_QQ
from mdeg.fields import QQ
from mdeg.groebner import Ideal, buchberger
from mdeg.orders import MonomialOrder
from mdeg.ring import Polynomial, make_ring

NAMES, DEGREES = ("x", "y", "z"), [(1,)] * 3
RING = make_ring(NAMES, DEGREES, QQ)
FRACTION_RING = make_ring(NAMES, DEGREES, FRACTION_QQ)
ORDERS = [MonomialOrder(3, (), "grevlex"), MonomialOrder(3, (), "lex"),
          MonomialOrder(3, ((1, 2, 0),), "grevlex")]

exponents = st.tuples(*[st.integers(0, 2)] * 3)
coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
term_dicts = st.dictionaries(exponents, coefficients, max_size=5)
# homogeneous generators, so that every order's basis stays small
forms = st.integers(1, 2).flatmap(
    lambda d: st.dictionaries(
        st.sampled_from([e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]),
        coefficients,
        max_size=4,
    )
)


def both(terms):
    """The polynomial on `terms` in the two rings."""
    return (
        Polynomial(RING, {e: QQ.coerce(c) for e, c in terms.items()}),
        Polynomial(FRACTION_RING, {e: FRACTION_QQ.coerce(c) for e, c in terms.items()}),
    )


def same(f, g):
    assert list(f.terms.items()) == list(g.terms.items())
    assert str(f) == str(g)


def test_integral_elements_are_ints():
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.one) is int
    assert type(QQ.coerce(Fraction(6, 3))) is int and QQ.coerce(Fraction(6, 3)) == 2
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert QQ.inv(2) == Fraction(1, 2) and QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(QQ.inv(Fraction(1, 5))) is int and QQ.inv(Fraction(1, 5)) == 5


@settings(max_examples=300, deadline=None)
@given(term_dicts, term_dicts, coefficients)
def test_polynomial_arithmetic_and_printing_match(a, b, k):
    (f, F), (g, G) = both(a), both(b)
    same(f, F)
    same(f + g, F + G)
    same(f - g, F - G)
    same(f * g, F * G)
    same(-f, -F)
    same(f.scale(k), F.scale(k))


@settings(max_examples=200, deadline=None)
@given(st.lists(forms, max_size=4), term_dicts, st.sampled_from(ORDERS))
def test_buchberger_and_normal_forms_match(gens, h, order):
    pairs = [both(d) for d in gens]
    got = buchberger([f.terms for f, _ in pairs], order, QQ)
    want = buchberger([F.terms for _, F in pairs], order, FRACTION_QQ)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
    I = Ideal(RING, [f for f, _ in pairs])
    J = Ideal(FRACTION_RING, [F for _, F in pairs])
    f, F = both(h)
    same(normal_form(I, f, order), normal_form(J, F, order))
