from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import monomial, normal_form, trial_substitution
from mdeg.errors import (
    DuplicateVariableName,
    NotHomogeneous,
    RingMismatch,
    ZeroDegreeVariable,
    ZeroPolynomial,
)
from mdeg.fields import GF32003, PrimeField, QQ
from mdeg.groebner import Ideal
from mdeg.inputlang import parse_input
from mdeg.orders import grevlex
from mdeg.ring import Polynomial, is_homogeneous, make_ring, multidegree_of
from mdeg.standardize import standardize


def test_ring_construction_and_blocks():
    R = make_ring(["x", "y", "z"], [(1, 0), (1, 0), (0, 1)])
    assert R.p == 2 and R.n == 3
    assert R.is_standard
    assert R.block_variables(0) == [0, 1]
    assert R.block_variables(1) == [2]


def test_nonstandard_ring():
    R = make_ring(["a", "b"], [(2, 1), (0, 3)])
    assert not R.is_standard
    assert R.monomial_degree((1, 2)) == (2, 7)


def test_zero_degree_rejected():
    with pytest.raises(ZeroDegreeVariable):
        make_ring(["x", "y"], [(1, 0), (0, 0)])


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateVariableName):
        make_ring(["x", "x"], [(1,), (1,)])


def test_nonprime_modulus_rejected():
    from mdeg.errors import NonPrimeModulus

    with pytest.raises(NonPrimeModulus):
        PrimeField(32004)


def test_multidegree_of():
    R = make_ring(["x", "y"], [(1, 0), (0, 1)])
    x, y = R.gens()
    assert multidegree_of(x * x * y) == (2, 1)
    with pytest.raises(ZeroPolynomial):
        multidegree_of(R.zero())
    with pytest.raises(NotHomogeneous) as e:
        multidegree_of(x + y)
    assert "x" in str(e.value) and "y" in str(e.value)
    assert is_homogeneous(x * y + x * y)
    assert not is_homogeneous(x + R.one())


def test_ring_mismatch():
    R1 = make_ring(["x"], [(1,)])
    R2 = make_ring(["y"], [(1,)])
    with pytest.raises(RingMismatch):
        R1.gens()[0] + R2.gens()[0]


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.inv(3) == 5
    assert F.coerce(-1) == 6
    with pytest.raises(TypeError):  # a quotient is a product with F.inv
        F.coerce(Fraction(1, 3))


@given(
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 4)] * 3),
            st.integers(-5, 5),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 4)] * 3),
            st.integers(-5, 5),
        ),
        max_size=6,
    ),
)
def test_polynomial_ring_axioms(aterms, bterms):
    R = make_ring(["x", "y", "z"], [(1,), (1,), (1,)])
    f = sum((monomial(R, e, c) for e, c in aterms), R.zero())
    g = sum((monomial(R, e, c) for e, c in bterms), R.zero())
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * g == f * g + g * g
    assert f - f == R.zero()


def test_str_roundtrip_shapes():
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, y = R.gens()
    s = str(x * x - y)
    assert "x^2" in s and "y" in s


def test_powers():
    R = make_ring(["x", "y"], [(1,), (1,)])
    x, y = R.gens()
    f = x + y
    assert f**0 == R.one()
    assert f**3 == f * f * f
    with pytest.raises(ValueError):
        x**-1


# Kernel results skip the constructor's zero filter (Polynomial._of), so
# every public route that can cancel or scale a coefficient to zero is
# checked to leave none.
FIELDS = [QQ, PrimeField(7)]
small_ints = st.integers(-8, 8)
exponent_tuples = st.tuples(*[st.integers(0, 2)] * 3)


def _no_zero_coefficient(*polys):
    for f in polys:
        F = f.ring.field
        assert not any(c == F.zero for c in f.terms.values()), f.terms


@st.composite
def texts(draw):
    """Polynomial text whose coefficients often vanish mod 7 or cancel."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(st.sampled_from([0, 1, 2, 3, 7, 14, 5]))
        mono = "*".join(
            f"{v}^{k}" for v, k in zip("xyz", draw(exponent_tuples)) if k
        )
        terms.append(f"{c}*{mono}" if mono else str(c))
        if draw(st.booleans()):
            terms.append(f"- ({terms[-1]})")
    body = " + ".join(terms).replace("+ -", "-")
    if draw(st.booleans()):
        body = f"({body})^{draw(st.integers(0, 3))}"
    return body


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), small_ints, exponent_tuples, small_ints, texts(), texts())
def test_no_public_construction_leaves_a_zero_coefficient(F, c, e, k, text_f, text_g):
    field_line = "field QQ" if F is QQ else "field Fp 7"
    session = parse_input(
        f"{field_line}\nvars x y z\ndeg x = (1)\ndeg y = (1)\ndeg z = (1)\n"
        f"ideal I = [ {text_f}; {text_g} ]\n"
    )
    R = session.ring
    f, g = (session.ideals["I"] + [R.zero(), R.zero()])[:2]
    _no_zero_coefficient(f, g, monomial(R, (0, 0, 0), c), monomial(R, e, c))
    # exponents of 3 lie outside exponent_tuples, so no key repeats
    given = Polynomial(R, {e: F.coerce(c), (3, 0, 0): F.zero, (0, 3, 0): F.coerce(7)})
    _no_zero_coefficient(given)
    assert given == monomial(R, e, c) + monomial(R, (0, 3, 0), 7)
    _no_zero_coefficient(f.scale(k), f + g, f - g, f - f, f * g, -f, f ** 2)
    _no_zero_coefficient(f + f.scale(-1), (f + g) * (f - g) - f * f + g * g)
    x, y, z = R.gens()
    parts = [  # the homogeneous parts of f and g, which the images keep homogeneous
        Polynomial(R, {e: c for e, c in h.terms.items() if sum(e) == d})
        for h in (f, g)
        for d in {sum(e) for e in h.terms}
    ]
    images = [y - x, x.scale(k), z + y.scale(c)]
    _no_zero_coefficient(*trial_substitution(Ideal(R, parts), images, grevlex(R)))
    I = Ideal._of(R, [f] if f else [])
    _no_zero_coefficient(*I.groebner_basis(), normal_form(I, g))
    std = standardize(make_ring(["a", "b"], [(2,), (1,)], F))
    a, b = std.source.gens()
    _no_zero_coefficient(std.phi(a.scale(k) * b + b * b * b.scale(c)))
