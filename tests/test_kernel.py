"""Differential tests of the packed term kernel ring._add_mul and of the
exponent packing it runs on.

Polynomial +, -, * and unary minus and groebner.substituted_ideal all go
through the kernel.  The loops they were written with before are kept
here as references and compared with them over QQ and GF(32003): on sums
that cancel to zero, on zero, constant and very unequal operands, and on
random block changes of coordinates, with blocks of one variable and on
standardized rings.  The kernel itself is compared with the tuple kernel
it replaced (tests/tuple_kernel.py), and the packing with the tuple order
keys, divisibility and lcm it stands for.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import block_ring, constant, random_form, random_ideal, random_positive_ring
from mdeg.determinantal import build_determinantal
from mdeg.fields import GF32003, QQ
from mdeg.genin import random_block_change
from mdeg import groebner
from mdeg.groebner import Ideal, substituted_ideal
from mdeg.orders import MonomialOrder, lift_order_phi
from mdeg.ring import (
    GradedRing,
    Polynomial,
    _add_mul,
    _field_bits,
    _Overflow,
    _packing,
    make_ring,
)
from mdeg.standardize import standardize, standardize_ideal
import tuple_kernel


def ref_add(f, g):
    F = f.ring.field
    out = dict(f.terms)
    for e, c in g.terms.items():
        if e in out:
            s = F.add(out[e], c)
            if F.eq(s, F.zero):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return Polynomial(f.ring, out)


def ref_neg(f):
    F = f.ring.field
    return Polynomial(f.ring, {e: F.neg(c) for e, c in f.terms.items()})


def ref_sub(f, g):
    return ref_add(f, ref_neg(g))


def ref_mul(f, g):
    F = f.ring.field
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = F.mul(c1, c2)
            if e in out:
                s = F.add(out[e], c)
                if F.eq(s, F.zero):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
    return Polynomial(f.ring, out)


def ref_substituted_ideal(I, images):
    ring = images[0].ring if images else I.ring
    out = []
    for f in I.gens:
        acc = ring.zero()
        for e, c in f.terms.items():
            term = constant(ring, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = ref_mul(term, images[i])
            acc = ref_add(acc, term)
        out.append(acc)
    return Ideal(ring, out)


FIELDS = {"QQ": QQ, "GF32003": GF32003}
RINGS = {name: make_ring(["x", "y", "z"], [(1,)] * 3, F) for name, F in FIELDS.items()}

# few exponents and coefficients, so that terms collide and cancel often
exponents = st.tuples(*[st.integers(0, 2)] * 3)
coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=4)
)


@st.composite
def polynomials(draw, ring, max_terms=8):
    terms = draw(st.dictionaries(exponents, coefficients, max_size=max_terms))
    return Polynomial(ring, {e: ring.field.coerce(c) for e, c in terms.items()})


@st.composite
def operand_pairs(draw):
    """(f, g) over QQ or GF(32003): g may be zero, a constant, much larger
    than f, or agree with f or -f on some terms so that a sum cancels."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    F = ring.field
    f = draw(polynomials(ring))
    kind = draw(st.sampled_from(["any", "zero", "constant", "large", "overlap"]))
    if kind == "zero":
        g = ring.zero()
    elif kind == "constant":
        g = constant(ring, draw(coefficients))
    elif kind == "large":
        g = draw(polynomials(ring, max_terms=27))
    else:
        g = draw(polynomials(ring))
    if kind == "overlap":
        shared = draw(st.sets(st.sampled_from(sorted(f.terms)))) if f.terms else set()
        sign = draw(st.sampled_from([F.one, F.neg(F.one)]))
        terms = dict(g.terms)
        terms.update({e: F.mul(sign, f.terms[e]) for e in shared})
        g = Polynomial(ring, terms)
    if draw(st.booleans()):
        f, g = g, f
    return f, g


@settings(max_examples=400, deadline=None)
@given(operand_pairs())
def test_arithmetic_matches_reference_loops(fg):
    f, g = fg
    assert f + g == ref_add(f, g)
    assert f - g == ref_sub(f, g)
    assert f * g == ref_mul(f, g)
    assert -f == ref_neg(f)
    # results never hold a zero coefficient
    F = f.ring.field
    for h in (f + g, f - g, f * g, -f):
        assert not any(F.eq(c, F.zero) for c in h.terms.values())


@pytest.mark.parametrize("name", sorted(RINGS))
def test_sums_and_products_cancel_to_zero(name):
    ring = RINGS[name]
    x, y, z = ring.gens()
    f = x * x - constant(ring, Fraction(2, 3)) * y * z + ring.one()
    assert (f - f).terms == {} and (f + -f).terms == {}
    assert ((x + y) * (x - y) - x * x + y * y).terms == {}
    assert (f * ring.zero()).terms == {} and (ring.zero() * f).terms == {}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_kernel_skips_and_reports_new_exponents(name, data):
    """The packed kernel against the tuple kernel on the same dicts: the
    same sum, the same new exponents, `skip` honoured."""
    ring = RINGS[name]
    F = ring.field
    acc = dict(data.draw(polynomials(ring)).terms)
    g = data.draw(polynomials(ring)).terms
    c = F.coerce(data.draw(coefficients.filter(bool)))
    shift = data.draw(exponents)
    skip = None
    if g and data.draw(st.booleans()):
        skip = data.draw(st.sampled_from(sorted(g)))
    pk = _packing(ring.n, 8)
    packed = pk.pack_dict(acc)
    new = _add_mul(
        packed, c, pk.pack(shift), pk.pack_dict(g), F, pk.guard,
        None if skip is None else pk.pack(skip),
    )
    want_new = tuple_kernel.add_mul(acc, c, shift, g, F, skip=skip)
    assert pk.unpack_dict(packed) == acc
    assert sorted(map(pk.unpack, new)) == sorted(want_new)


@pytest.mark.parametrize("bits", [8, 16, 128])
def test_kernel_raises_overflow_on_a_new_exponent_past_the_guard(bits):
    top = (1 << (bits - 1)) - 1
    pk = _packing(3, bits)
    g = pk.pack_dict({(top, 0, 1): QQ.one, (0, 2, 0): QQ.one})
    acc = {}
    _add_mul(acc, QQ.one, pk.pack((0, top - 2, 1)), g, QQ, pk.guard)
    assert pk.unpack_dict(acc) == {(top, top - 2, 2): 1, (0, top, 1): 1}
    with pytest.raises(_Overflow):
        _add_mul(acc, QQ.one, pk.pack((0, top - 1, 0)), g, QQ, pk.guard)
    # a sum that lands on an existing exponent is not new and cannot overflow
    acc = {pk.pack((top, 0, 1)): QQ.one}
    assert _add_mul(acc, QQ.one, 0, g, QQ, pk.guard) == [pk.pack((0, 2, 0))]


def _layouts(n, rows):
    """(MonomialOrder, grevlex?) for grevlex and lex, with and without the
    weight rows."""
    return [
        (MonomialOrder(n, r, t), t == "grevlex")
        for r in ((), rows)
        for t in ("grevlex", "lex")
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(*[st.integers(0, 40)] * n), min_size=2, max_size=6),
            st.lists(st.tuples(*[st.integers(-9, 9)] * n), max_size=2),
        )
    ),
    st.sampled_from([8, 16, 72]),
)
def test_packed_keys_divisibility_and_lcm_match_tuples(data, bits):
    """Order keys compare as MonomialOrder.key does, also with negative
    weights, and divisibility and lcm agree with the exponent tuples; the
    fields are wide enough for the lcms (exponents up to 40 < 2^7)."""
    n, monos, rows = data
    rows = [tuple(n * [1])] + rows  # a positive first row keeps a well-order
    for order, is_grevlex in _layouts(n, rows):
        pk = _packing(n, bits, order.weight_rows, is_grevlex)
        for a in monos:
            assert pk.unpack(pk.pack(a)) == a
            for b in monos:
                pa, pb = pk.pack(a), pk.pack(b)
                assert ((pa ^ pk.flip) < (pb ^ pk.flip)) == (order.key(a) < order.key(b))
                divides = all(x <= y for x, y in zip(a, b))
                assert (not (pb - pa) & pk.guard) == divides
                assert pk.lcm(pa, pb) == pk.pack(tuple_kernel.lcm(a, b))
                assert pa + pb == pk.pack(tuple(x + y for x, y in zip(a, b)))


def test_lifted_grevlex_keys_match_tuples():
    """lift_order_phi(grevlex) on a standardized ring: lex refined from
    rows with negative entries."""
    R = make_ring(["a", "b"], [(2,), (1,)])
    std = standardize(R)
    order = lift_order_phi(MonomialOrder(R.n), std)
    pk = _packing(std.target.n, 8, order.weight_rows, False)
    monos = list(itertools.product(range(3), repeat=std.target.n))
    keys = sorted(monos, key=order.key)
    assert sorted(monos, key=lambda e: pk.pack(e) ^ pk.flip) == keys


def test_field_bits_doubles_from_eight():
    assert [_field_bits(m) for m in (0, 127, 128, 32767, 32768, 1 << 63)] == [
        8, 8, 16, 16, 32, 128,
    ]


def _random_linear_images(rng, ring):
    """Per block, random linear forms in the block's variables (QQ has no
    random_block_change, which needs a large prime field)."""
    images = [None] * ring.n
    for k in range(ring.p):
        block = ring.block_variables(k)
        for i in block:
            terms = {}
            for j in rng.sample(block, rng.randint(1, len(block))):
                terms[tuple(int(v == j) for v in range(ring.n))] = Fraction(
                    rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)
                )
            images[i] = Polynomial(ring, terms)
    return images


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.sampled_from(sorted(FIELDS)),
    st.integers(0, 10_000),
)
@example(sizes=[1, 1], name="GF32003", seed=0)
@example(sizes=[1, 3], name="QQ", seed=1)
def test_substitution_matches_reference(sizes, name, seed):
    rng = random.Random(seed)
    R = block_ring(sizes, FIELDS[name])
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    if name == "GF32003":
        images = random_block_change(R, seed)
    else:
        images = _random_linear_images(rng, R)
    assert substituted_ideal(I, images).gens == ref_substituted_ideal(I, images).gens


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_substitution_on_standardized_rings_matches_reference(seed):
    rng = random.Random(seed)
    R = random_positive_ring(rng, max_vars=4, max_blocks=2)
    R = make_ring(R.names, R.degrees, GF32003)
    I = Ideal(R, [random_form(rng, R, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))])
    J, _ = standardize_ideal(I)
    images = random_block_change(J.ring, seed)
    assert substituted_ideal(J, images).gens == ref_substituted_ideal(J, images).gens


def test_substitution_of_standardized_minors_matches_reference():
    _, I = build_determinantal(2, 3, 2, GF32003)
    J, _ = standardize_ideal(I)
    assert not I.ring.is_standard and J.ring.is_standard
    images = random_block_change(J.ring, 3)
    assert substituted_ideal(J, images).gens == ref_substituted_ideal(J, images).gens


def test_substitution_checks_no_degree(monkeypatch):
    # each image is zero or keeps its variable's degree, so the images of
    # the generators are multihomogeneous without a check
    _, I = build_determinantal(2, 3, 2, GF32003)
    J, _ = standardize_ideal(I)
    images = random_block_change(J.ring, 3)
    expected = ref_substituted_ideal(J, images).gens
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, y = R.gens()
    I1, I2 = Ideal(R, [x - y]), Ideal(R, [x])
    asked = []

    def spy(real):
        def call(*args):
            asked.append(real.__name__)
            return real(*args)

        return call

    monkeypatch.setattr(groebner, "is_homogeneous", spy(groebner.is_homogeneous))
    monkeypatch.setattr(GradedRing, "monomial_degree", spy(GradedRing.monomial_degree))
    assert substituted_ideal(J, images).gens == expected
    # a generator whose image is zero is dropped
    assert substituted_ideal(I1, [R.zero(), y]).gens == (-y,)
    assert substituted_ideal(I2, [R.zero(), y]).gens == ()
    assert asked == []
