"""Differential tests of the packed term kernel ring._add_mul and of the
exponent packing it runs on.

Polynomial +, -, * and unary minus and the substitution of
groebner.gin_trial all go through the kernel.  The loops they were
written with before are kept here as references and compared with them
over QQ and GF(32003): on sums that cancel to zero, on zero, constant and
very unequal operands, and on random dense block changes of coordinates
(conftest.dense_block_change), with blocks of one variable and on
standardized rings.  The kernel itself is
compared with the tuple kernel it replaced (tests/tuple_kernel.py), and
with the loop that called the field's add and mul methods per term, on
QQ, on int coefficients over QQ (the K-polynomials of hilbert) and on
two prime fields; the packing with the tuple order keys, divisibility
and lcm it stands for.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    block_ring,
    constant,
    dense_block_change,
    field_element,
    order_lcm,
    random_form,
    random_ideal,
    random_positive_ring,
    substituted_ideal,
    trial_substitution,
)
from mdeg.determinantal import build_determinantal
from mdeg.fields import GF32003, MODULUS_LIMIT, QQ, PrimeField, _is_prime
from mdeg.genin import random_block_change
from mdeg import groebner
from mdeg.groebner import Ideal
from mdeg.orders import MonomialOrder, grevlex, lex, lift_order_phi, weight_order
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
            if s == F.zero:
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
                if s == F.zero:
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
    return Polynomial(ring, {e: field_element(ring.field, c) for e, c in terms.items()})


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
        assert not any(c == F.zero for c in h.terms.values())


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
    c = field_element(F, data.draw(coefficients.filter(bool)))
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


def ref_add_mul(acc, c, shift, g, field, guard, skip=None):
    """The kernel as it was before its coefficient arithmetic was written
    out: the field's add and mul methods called once per term."""
    new = []
    for eg, cg in g.items():
        if eg == skip:
            continue
        e = eg + shift
        prev = acc.get(e)
        if prev is None:
            if e & guard:
                raise _Overflow
            acc[e] = field.mul(c, cg)
            new.append(e)
        else:
            nv = field.add(prev, field.mul(c, cg))
            if nv:
                acc[e] = nv
            else:
                del acc[e]
    return new


#: The largest prime below fields.MODULUS_LIMIT, the largest modulus of a PrimeField.
BIG_PRIME = next(q for q in range(MODULUS_LIMIT - 1, 0, -1) if _is_prime(q))

# the fields _add_mul is given; "QQ integers" draws only int coefficients,
# as the K-polynomials of hilbert have
KERNEL_FIELDS = {
    "QQ": QQ,
    "QQ integers": QQ,
    "GF32003": GF32003,
    "GF(big)": PrimeField(BIG_PRIME),
}


def _kernel_coefficients(name):
    field = KERNEL_FIELDS[name]
    if name == "QQ":
        return coefficients
    if field is QQ:
        return st.integers(-5, 5)
    p = field.p
    return st.one_of(st.integers(0, 3), st.integers(p - 3, p - 1), st.integers(0, p - 1))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(KERNEL_FIELDS)), st.data())
def test_inlined_arithmetic_matches_the_method_call_loop(name, data):
    """The same sum, in the same order, and the same new exponents as the
    loop that called field.add and field.mul, with some terms of acc set to
    cancel against c * g exactly."""
    field = KERNEL_FIELDS[name]
    coeffs = _kernel_coefficients(name).filter(bool)
    terms = st.dictionaries(exponents, coeffs, max_size=8)
    acc, g = data.draw(terms), data.draw(terms)
    c, shift = data.draw(coeffs), data.draw(exponents)
    minus_one = field.p - 1 if field.p else -1
    for eg in data.draw(st.lists(st.sampled_from(sorted(g)), max_size=3)) if g else []:
        e = tuple(map(operator.add, eg, shift))
        acc[e] = field.mul(minus_one, field.mul(c, g[eg]))
    skip = data.draw(st.sampled_from(sorted(g))) if g and data.draw(st.booleans()) else None
    pk = _packing(3, 8)
    got, want = pk.pack_dict(acc), pk.pack_dict(acc)
    args = (c, pk.pack(shift), pk.pack_dict(g))
    skip = None if skip is None else pk.pack(skip)
    new = _add_mul(got, *args, field, pk.guard, skip)
    assert new == ref_add_mul(want, *args, field, pk.guard, skip)
    assert list(got.items()) == list(want.items())
    assert all(got.values())


def test_inlined_arithmetic_cancels_fractions_to_zero():
    pk = _packing(2, 8)
    g = {pk.pack((1, 0)): Fraction(2, 3), pk.pack((0, 1)): Fraction(-1, 6)}
    acc = {pk.pack((1, 1)): Fraction(1, 3), pk.pack((0, 2)): 5}
    # 1/3 - 1/2 * 2/3 = 0 leaves acc; 5 + 1/2 * 1/6 stays
    assert _add_mul(acc, Fraction(-1, 2), pk.pack((0, 1)), g, QQ, pk.guard) == []
    assert acc == {pk.pack((0, 2)): Fraction(61, 12)}


def _orders(n, rows):
    """Grevlex and lex, with and without the weight rows."""
    return [MonomialOrder(n, r, t) for r in ((), rows) for t in ("grevlex", "lex")]


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
    """Order keys compare as tuple_kernel.order_key does, also with negative
    weights, and divisibility and lcm agree with the exponent tuples; the
    fields are wide enough for the lcms (exponents up to 40 < 2^7).
    _Packing.lcm, which has no repack, is the lcm of the plain layout, and
    every order's packing, masked to its variable fields, is the plain
    one."""
    n, monos, rows = data
    plain = _packing(n, bits)
    for a, b in itertools.product(monos, repeat=2):
        assert plain.lcm(plain.pack(a), plain.pack(b)) == plain.pack(tuple_kernel.lcm(a, b))
    rows = [tuple(n * [1])] + rows  # a positive first row keeps a well-order
    for order in _orders(n, rows):
        pk = _packing(n, bits, order.packing_rows())
        key = tuple_kernel.order_key(order)
        for a in monos:
            assert pk.unpack(pk.pack(a)) == a
            assert pk.pack(a) & pk.vmask == plain.pack(a)
            for b in monos:
                pa, pb = pk.pack(a), pk.pack(b)
                assert ((pa ^ pk.vmask) < (pb ^ pk.vmask)) == (key(a) < key(b))
                divides = all(x <= y for x, y in zip(a, b))
                assert (not (pb - pa) & pk.guard) == divides
                lcm = pk.pack(tuple_kernel.lcm(a, b))
                assert order_lcm(pk, pa, pb) == lcm
                # the variable fields and one repack (conftest.new_pairs);
                # groebner._new_pairs: t + x + rows(x), x the fields where b
                # exceeds a, each field's value times its share of the fields
                # above, and the degree t's plus those values
                x = pk.excess(pa, pb)
                lv = (pa & pk.vmask) + x
                assert lv == lcm & pk.vmask and pk.pack(pk.unpack(lv)) == lcm
                xs = [x >> k * bits & ((1 << bits) - 1) for k in range(n)]
                assert pa + x + sum(map(operator.mul, xs, pk.above)) == lcm
                assert sum(a) + sum(xs) == sum(tuple_kernel.lcm(a, b))
                assert pa + pb == pk.pack(tuple(x + y for x, y in zip(a, b)))


def test_lifted_grevlex_keys_match_tuples():
    """lift_order_phi(grevlex) on a standardized ring: lex refined from
    rows with negative entries."""
    R = make_ring(["a", "b"], [(2,), (1,)])
    std = standardize(R)
    order = lift_order_phi(MonomialOrder(R.n), std)
    pk = _packing(std.target.n, 8, order.packing_rows())
    monos = list(itertools.product(range(3), repeat=std.target.n))
    keys = sorted(monos, key=tuple_kernel.order_key(order))
    assert sorted(monos, key=lambda e: pk.pack(e) ^ pk.vmask) == keys
    plain = _packing(std.target.n, 8)
    assert all(pk.pack(e) & pk.vmask == plain.pack(e) for e in monos)


def test_field_bits_doubles_from_eight():
    assert [_field_bits(m) for m in (0, 127, 128, 32767, 32768, 1 << 63)] == [
        8, 8, 16, 16, 32, 128,
    ]


def _random_linear_images(rng, ring):
    """Per block, random linear forms in the block's variables (QQ has no
    dense_block_change, which needs a prime field)."""
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


def _assert_substitution_matches_reference(rng, J, images):
    """The substitution of gin_trial, in the layouts of grevlex, lex and a
    random weight order, and the plain-layout oracle it replaced give the
    generators of the reference loop."""
    R = J.ring
    want = ref_substituted_ideal(J, images).gens
    assert substituted_ideal(J, images).gens == want
    weights = [tuple(rng.randrange(1, 5) for _ in range(R.n))]
    for order in (grevlex(R), lex(R), weight_order(R, weights)):
        assert trial_substitution(J, images, order) == want


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
        images = dense_block_change(R, seed)
    else:
        images = _random_linear_images(rng, R)
    _assert_substitution_matches_reference(rng, I, images)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_substitution_on_standardized_rings_matches_reference(seed):
    rng = random.Random(seed)
    R = random_positive_ring(rng, max_vars=4, max_blocks=2)
    R = make_ring(R.names, R.degrees, GF32003)
    I = Ideal(R, [random_form(rng, R, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))])
    J = standardize_ideal(I)
    images = dense_block_change(J.ring, seed)
    _assert_substitution_matches_reference(rng, J, images)


def test_substitution_of_standardized_minors_matches_reference():
    _, I = build_determinantal(2, 3, 2, GF32003)
    J = standardize_ideal(I)
    assert not I.ring.is_standard and J.ring.is_standard
    images = dense_block_change(J.ring, 3)
    _assert_substitution_matches_reference(random.Random(3), J, images)


def test_substitution_checks_no_degree(monkeypatch):
    # each image is zero or keeps its variable's degree, so the images of
    # the generators are multihomogeneous without a check
    _, I = build_determinantal(2, 3, 2, GF32003)
    J = standardize_ideal(I)
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
    assert trial_substitution(J, images, grevlex(J.ring)) == expected
    # a generator whose image is zero is dropped
    assert trial_substitution(I1, [R.zero(), y], grevlex(R)) == (-y,)
    assert trial_substitution(I2, [R.zero(), y], grevlex(R)) == ()
    assert asked == []
