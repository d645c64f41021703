import itertools
import random
from operator import gt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SURFACE_CEE_TERMS,
    add_empty_block,
    codim_of,
    hilbert_series_table,
    int_monomial,
    int_one,
    int_product,
    multidegree_C_by_substitution,
    random_monomial_ideal,
    random_positive_ring,
    random_standard_ring,
    surface_prime,
    three_block_ring,
    total_degree_part,
    truncation_multidegree,
)
from mdeg import hilbert
from mdeg.determinantal import build_determinantal
from mdeg.errors import BadArgument, BoundTooLarge, EmptyScheme, NotStandardGraded
from mdeg.groebner import Ideal, saturate_var_block
from mdeg.hilbert import (
    HilbertHint,
    _c_packed,
    arithmetic_multidegree,
    cee_of_quotient_prime,
    codimension,
    geometric_multidegrees,
    hilbert_function_oracle,
    k_polynomial,
    local_length,
    multidegree_C,
    multidegree_G,
)
from mdeg.intpoly import IntegerPolynomial
from mdeg.monomial import (
    MonomialIdeal,
    localize_at,
    minimal_primes,
    primary_decomposition,
)
from mdeg.orders import MonomialOrder, lex, weight_order
from mdeg.ring import Polynomial, _field_bits, _packing, make_ring
import tuple_kernel


def test_k_polynomial_complete_intersection():
    R = make_ring(["x", "y"], [(1, 0), (0, 1)])
    I = MonomialIdeal(R, [(2, 1)])
    assert k_polynomial(I) == IntegerPolynomial(2, {(0, 0): 1, (2, 1): -1})


def test_k_polynomial_recursion_consistency():
    R = make_ring(["x", "y", "z"], [(1,)] * 3)
    # (xy, yz, xz): K = 1 - 3t^2 + 2t^3
    I = MonomialIdeal(R, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert k_polynomial(I) == IntegerPolynomial(1, {(0,): 1, (2,): -3, (3,): 2})


def test_k_polynomial_of_general_ideal_via_initial():
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4)
    a, b, c, d = R.gens()
    I = Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])
    # twisted cubic: K = 1 - 3t^2 + 2t^3
    assert k_polynomial(I) == IntegerPolynomial(1, {(0,): 1, (2,): -3, (3,): 2})
    assert multidegree_C(I) == IntegerPolynomial(1, {(2,): 3})


def test_multidegree_G_sees_all_dimensions():
    # I = (xy, xz^2) = (x) cap (y, z^2): K(1-t) has minimal-support terms
    # t1 (from the hyperplane) and t2^2 (from the fat point of the plane)
    R = make_ring(["x", "y", "z"], [(1, 0), (0, 1), (0, 1)])
    I = MonomialIdeal(R, [(1, 1, 0), (1, 0, 2)])
    g = multidegree_G(I)
    assert g == IntegerPolynomial(2, {(1, 0): 1, (0, 2): 2})
    assert multidegree_C(I) == IntegerPolynomial(2, {(1, 0): 1})


def test_surface_fixture_multidegree():
    R = three_block_ring()
    P = surface_prime(R)
    C = multidegree_C(P)
    assert C == IntegerPolynomial(3, SURFACE_CEE_TERMS)


def test_arith_equals_cee_for_monomial_primes():
    R = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)])
    P = MonomialIdeal(R, [(1, 0, 0), (0, 0, 1)])
    assert arithmetic_multidegree(P) == multidegree_C(P)


def test_arith_sees_embedded_primes():
    # J = (x0^2, x0x1, x1y0, y0^a) = (x0, y0) cap (x0^2, x1, y0^a)
    R = make_ring(
        ["x0", "x1", "x2", "y0", "y1", "y2"],
        [(1, 0)] * 3 + [(0, 1)] * 3,
    )

    def J(a):
        return MonomialIdeal(
            R,
            [
                (2, 0, 0, 0, 0, 0),
                (1, 1, 0, 0, 0, 0),
                (0, 1, 0, 1, 0, 0),
                (0, 0, 0, a, 0, 0),
            ],
        )

    t1t2 = {(1, 1): 1}
    assert arithmetic_multidegree(J(2)) == IntegerPolynomial(2, {**t1t2, (2, 1): 3})
    assert arithmetic_multidegree(J(3)) == IntegerPolynomial(2, {**t1t2, (2, 1): 5})
    # C only sees the minimal prime
    assert multidegree_C(J(3)) == IntegerPolynomial(2, t1t2)


def _colength_between(inner, outer):
    """Number of monomials in outer but not inner (finite by saturation)."""
    n = inner.ring.n
    bounds = [1] * n
    for g in inner.gens:
        for i, e in enumerate(g):
            bounds[i] = max(bounds[i], e)
    count = 0

    def rec(i, cur):
        nonlocal count
        if i == n:
            m = tuple(cur)
            if outer.contains(m) and not inner.contains(m):
                count += 1
            return
        for e in range(bounds[i]):
            cur.append(e)
            rec(i + 1, cur)
            cur.pop()

    rec(0, [])
    return count


def _box_arithmetic_multidegree(I):
    """arithmetic_multidegree with each local H^0 length counted in a box.

    At a minimal prime H^0 is the whole localization, so sat is the unit
    ideal there; saturate_var_block would return loc itself at the empty
    prime of the zero ideal.
    """
    out = IntegerPolynomial(I.ring.p)
    minimal = minimal_primes(I)
    for comp in primary_decomposition(I):
        loc = localize_at(I, comp.prime)
        if comp.prime in minimal:
            sat = MonomialIdeal(loc.ring, [(0,) * loc.ring.n])
        else:
            sat = saturate_var_block(loc, range(loc.ring.n))
        length = _colength_between(loc, sat)
        if length:
            out = out + length * cee_of_quotient_prime(I.ring, comp.prime)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_arithmetic_multidegree_matches_box_count(seed):
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    for I in (random_monomial_ideal(rng, R), MonomialIdeal(R, [])):
        assert arithmetic_multidegree(I) == _box_arithmetic_multidegree(I)


def test_zero_ideal_has_the_empty_prime_and_arithmetic_multidegree_one():
    R = make_ring(["x", "y"], [(1,), (1,)])
    zero = MonomialIdeal(R, [])
    one = int_one(1)
    assert [c.prime for c in primary_decomposition(zero)] == [frozenset()]
    assert multidegree_C(zero) == one
    assert arithmetic_multidegree(zero) == one
    truncations = [truncation_multidegree(zero, i) for i in range(R.n + 1)]
    assert sum(truncations, IntegerPolynomial(1)) == one


def test_local_length_at_an_embedded_prime():
    # (x^2, x*y) = (x) cap (x^2, y): at (x, y), H^0 is (x)/(x^2, x*y),
    # spanned by x
    R = make_ring(["x", "y"], [(1,), (1,)])
    I = MonomialIdeal(R, [(2, 0), (1, 1)])
    assert [local_length(I, P) for P in (set(), {0}, {1}, {0, 1})] == [0, 1, 0, 1]
    assert arithmetic_multidegree(I) == IntegerPolynomial(1, {(1,): 1, (2,): 1})


def test_local_length_saturates_only_where_the_localization_is_not_artinian(monkeypatch):
    """(x^2, x*y) localizes to (x) at its minimal prime (x) and to the unit
    ideal at (y): neither is saturated.  At the embedded prime (x, y) the
    localization holds no power of y, and is saturated once."""
    calls = []
    real = hilbert.saturate_var_block

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hilbert, "saturate_var_block", counted)
    R = make_ring(["x", "y"], [(1,), (1,)])
    I = MonomialIdeal(R, [(2, 0), (1, 1)])
    assert [local_length(I, P) for P in ({0}, {1})] == [1, 0]
    assert calls == []
    assert local_length(I, {0, 1}) == 1
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_local_length_is_positive_exactly_at_the_associated_primes(seed):
    # the zero ideal has the one associated prime (0), the unit ideal none
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    unit = MonomialIdeal(R, [(0,) * R.n])
    for I in (random_monomial_ideal(rng, R), MonomialIdeal(R, []), unit):
        associated = {c.prime for c in primary_decomposition(I)}
        for mask in range(1 << R.n):
            P = frozenset(i for i in range(R.n) if mask >> i & 1)
            assert (local_length(I, P) > 0) == (P in associated)
        for outside in ({R.n}, {-1}):
            with pytest.raises(BadArgument):
                local_length(I, outside)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_local_length_at_a_minimal_prime_counts_standard_monomials(seed):
    # the zero ideal has the empty minimal prime, localized to a ring
    # without variables
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    for I in (random_monomial_ideal(rng, R), MonomialIdeal(R, [])):
        for P in minimal_primes(I):
            loc = localize_at(I, P)
            # the localization has finite colength: each standard monomial
            # divides the lcm of the generators, so its degree is at most
            # the lcm's
            lcm = [max(column) for column in zip(*loc.gens)]
            bound = loc.ring.monomial_degree(lcm)
            assert local_length(I, P) == len(loc.standard_monomials(bound))


def test_truncation_identity_small():
    R = make_ring(["x", "y", "z"], [(1,)] * 3)
    I = MonomialIdeal(R, [(1, 0, 0)]).intersect(MonomialIdeal(R, [(2, 0, 0), (0, 1, 0)]))
    total = IntegerPolynomial(1)
    for i in range(R.n + 1):
        total = total + truncation_multidegree(I, i)
    assert total == arithmetic_multidegree(I)


def test_geometric_multidegrees_table():
    R = three_block_ring()
    P = surface_prime(R)
    table = geometric_multidegrees(P)
    assert table.dim == 3
    # e(n) = coefficient of t^(m-n); m = (3,3,3)
    assert table.entries[(0, 0, 3)] == 2
    assert table.entries[(1, 1, 1)] == 4
    assert sorted(table.msupp) == sorted(
        [(0, 0, 3), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1)]
    )


def test_geometric_multidegrees_saturates():
    R = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)])
    x0, x1, y0 = R.gens()
    # irrelevant-supported junk must not change the table
    I1 = Ideal(R, [x0])
    I2 = Ideal(R, [x0 * x0, x0 * x1, x0 * y0])
    t1 = geometric_multidegrees(I1)
    t2 = geometric_multidegrees(I2)
    assert t1.cee == t2.cee and t1.dim == t2.dim


def test_geometric_multidegrees_empty():
    R = make_ring(["x0", "x1"], [(1,), (1,)])
    x0, x1 = R.gens()
    with pytest.raises(EmptyScheme):
        geometric_multidegrees(Ideal(R, [x0, x1]))


def test_geom_needs_standard():
    R = make_ring(["x"], [(2,)])
    with pytest.raises(NotStandardGraded):
        geometric_multidegrees(Ideal(R, []))


def test_hf_oracle_against_series():
    R = make_ring(["x", "y", "z"], [(1, 0), (1, 0), (0, 1)])
    I = MonomialIdeal(R, [(1, 0, 1), (0, 2, 0)])
    hf = hilbert_function_oracle(I, (4, 4))
    series = hilbert_series_table(I, (4, 4))
    for nu, v in series.items():
        assert hf.get(nu, 0) == v
    assert all(series.get(nu, 0) == v for nu, v in hf.items())


def test_hf_oracle_bound_cap():
    R = make_ring(["x"], [(1,)])
    I = MonomialIdeal(R, [(2,)])
    with pytest.raises(BoundTooLarge):
        hilbert_function_oracle(I, (9,))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_k_polynomial_additive_on_colon_split(seed):
    # K(S/I) = K(S/(I+(x))) + t^deg(x) K(S/(I:x)) for any variable x
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5)
    I = random_monomial_ideal(rng, R)
    i = rng.randrange(R.n)
    x = tuple(int(j == i) for j in range(R.n))
    lhs = k_polynomial(I)
    t = int_monomial(R.degrees[i])
    rhs = k_polynomial(I.add_monomial(x)) + int_product(t, k_polynomial(I.colon_monomial(x)))
    assert lhs == rhs


def _pairwise_minimal_terms(poly):
    """The all-pairs scan multidegree_G used before `minimalize`, as its
    oracle: the terms no other term divides."""
    out = {}
    for e, c in poly.terms.items():
        if not any(
            o != e and all(a <= b for a, b in zip(o, e)) for o in poly.terms
        ):
            out[e] = c
    return IntegerPolynomial(poly.p, out)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_multidegree_G_matches_pairwise_oracle(seed):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=6)
    I = random_monomial_ideal(rng, R)
    sub = k_polynomial(I).substitute_one_minus_t()
    assert multidegree_G(I) == _pairwise_minimal_terms(sub)


def _random_binomial_ideal(rng, ring):
    """1-4 homogeneous binomials x^a - c*x^b of degree 1-3, or the monomial
    x^a when no other exponent of at most 3 has its degree."""
    F = ring.field
    gens = []
    for _ in range(rng.randint(1, 4)):
        support = [rng.randrange(ring.n) for _ in range(rng.randint(1, 3))]
        a = tuple(support.count(i) for i in range(ring.n))
        d = ring.monomial_degree(a)
        partners = [
            e
            for e in itertools.product(range(4), repeat=ring.n)
            if e != a and ring.monomial_degree(e) == d
        ]
        terms = {a: F.one}
        if partners:
            terms[rng.choice(partners)] = F.coerce(rng.choice([-2, -1, 1, 2]))
        gens.append(Polynomial(ring, terms))
    return Ideal(ring, gens)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_k_polynomial_does_not_depend_on_the_order(seed, positive):
    # on a positively graded ring, or on a standard one with an empty block
    rng = random.Random(seed)
    if positive:
        R = random_positive_ring(rng, max_vars=5)
    else:
        R = add_empty_block(rng, random_standard_ring(rng, max_vars=5))
    I = _random_binomial_ideal(rng, R)
    weights = [tuple(rng.randrange(1, 9) for _ in range(R.n))]
    k = k_polynomial(I)
    for order in (lex(R), weight_order(R, weights)):
        assert k_polynomial(I, order) == k


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_multidegree_C_is_the_part_at_the_codimension(seed, binomial):
    # for a positive grading K(S/I; 1 - t) has no term below codim I and a
    # nonzero part at it, unless I is the unit ideal; so the lowest-degree
    # part that multidegree_C returns is the part at the codimension
    rng = random.Random(seed)
    R = random_positive_ring(rng, max_vars=5)
    I = _random_binomial_ideal(rng, R) if binomial else random_monomial_ideal(rng, R)
    sub = k_polynomial(I).substitute_one_minus_t()
    c = codimension(I)
    C = multidegree_C(I)
    assert all(sum(e) >= c for e in sub.terms)
    assert C == total_degree_part(sub, c)
    assert bool(C) != I.is_unit()


def check_C_recursion(I):
    """multidegree_C's pivot-tree recursion on the monomial ideal I gives
    codim_of(I) and the C of the substitution oracle, with positive
    coefficients."""
    ring = I.ring
    tpk = _packing(ring.p, _field_bits(ring.n))
    units = [tpk.pack([int(j == k) for j in range(ring.p)]) for k in range(ring.p)]
    codim, terms = _c_packed(I, units)
    assert codim == codim_of(I)
    C = multidegree_C(I)
    assert C.terms == tpk.unpack_dict(terms)
    assert C == multidegree_C_by_substitution(I)
    assert all(c > 0 for c in C.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_C_recursion_matches_the_substitution_oracle(seed, empty_block):
    # random monomial ideals over random positive gradings, some with a
    # grading coordinate that no variable uses, as `project --blocks` gives
    rng = random.Random(seed)
    R = random_positive_ring(rng, max_vars=6)
    if empty_block:
        R = add_empty_block(rng, R)
    check_C_recursion(random_monomial_ideal(rng, R, max_gens=8))


@pytest.mark.parametrize("gens", [[], [(0, 0, 0)]], ids=["zero", "unit"])
def test_C_recursion_on_the_zero_and_unit_ideals(gens):
    R = make_ring(["x", "y", "z"], [(1, 0), (1, 1), (0, 2)])
    I = MonomialIdeal(R, gens)
    check_C_recursion(I)
    assert multidegree_C(I) == (IntegerPolynomial(2) if gens else int_one(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_C_recursion_in_16_bit_fields(seed):
    # a minimal generator with an exponent of 128 or more, so the ideal
    # packs its exponents in 16-bit fields
    rng = random.Random(seed)
    R = random_positive_ring(rng, max_vars=3, max_blocks=2)
    i = rng.randrange(R.n)
    wide = tuple(rng.randint(128, 130) if j == i else rng.randrange(2) for j in range(R.n))
    gens = [
        g
        for g in random_monomial_ideal(rng, R, max_exp=2).gens
        if any(map(gt, g, wide))
    ]
    I = MonomialIdeal(R, gens + [wide])
    assert I._pk.bits == 16
    check_C_recursion(I)


def test_C_recursion_past_255_generators():
    # the 330 monomials of degree 7 in 5 variables: the pivot counts sum
    # the supports of 8-bit fields in chunks of 255 generators
    R = make_ring([f"v{i}" for i in range(5)], [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
    gens = [e for e in itertools.product(range(8), repeat=5) if sum(e) == 7]
    I = MonomialIdeal(R, gens)
    assert len(I._ints) == 330 and I._pk.bits == 8
    check_C_recursion(I)


# the det shapes of the benchmark: (m, n, r) for the r-minors of m x n
BENCHMARK_DET_SHAPES = [(3, 4, 2), (3, 3, 2)] + [
    (m, n, m) for n in range(1, 5) for m in range(1, n + 1)
] + [(2, 5, 2)]


@pytest.mark.parametrize("m,n,r", BENCHMARK_DET_SHAPES)
def test_C_recursion_on_lex_initial_ideals_of_minors(m, n, r):
    ring, I = build_determinantal(m, n, r)
    order = lex(ring)
    check_C_recursion(I.initial_ideal(order))
    assert multidegree_C(I, order) == multidegree_C_by_substitution(I, order)


def _order(n, rows, grevlex_tie):
    """The order of the weight rows refined by grevlex or lex."""
    return MonomialOrder(n, rows, "grevlex" if grevlex_tie else "lex")


@pytest.mark.parametrize("grevlex_tie", [False, True])
def test_hilbert_hint_at_degrees_past_the_exponent_fields(grevlex_tie):
    # leading terms in 8-bit fields whose lcms reach degree 250 and more,
    # though K(S/I) stops at degree 6: the hint agrees with the tuple hint
    R = make_ring(["x", "y", "z"], [(1,)] * 3)
    I = MonomialIdeal(R, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    lts = [(100, 20, 0), (0, 90, 30), (70, 0, 60), (0, 0, 127)]
    pk = _packing(R.n, 8, _order(R.n, (), grevlex_tie).packing_rows())
    hint, tuple_hint = HilbertHint(I), tuple_kernel.HilbertHint(I)
    hint.start(pk)
    monos = [(a, b, c) for a in (0, 60, 127) for b in (0, 90, 127) for c in (0, 1, 127)]
    for k in range(len(lts) + 1):
        if k:
            hint.add(pk.pack(lts[k - 1]))
        for mono in monos:
            assert hint.saturated(pk.pack(mono)) == tuple_hint.saturated(lts[:k], mono)
        assert not hint.complete() and not tuple_hint.complete(lts[:k])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.booleans(), st.sampled_from([8, 16]))
def test_hilbert_hint_matches_hf_oracle(seed, empty_block, grevlex_tie, bits):
    # L generated by some generators of a monomial ideal I lies in I, as the
    # leading terms found so far lie in the initial ideal; they are fed in
    # turn, packed for grevlex or lex, with or without weight rows, and in
    # fields as wide as or wider than L's own, as the pair
    # loop feeds its leading terms; the tuple hint of tests/tuple_kernel.py
    # is given the prefixes of lts
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=4)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_monomial_ideal(rng, R, max_exp=2)
    lts = rng.sample(sorted(I.gens), rng.randint(0, len(I.gens)))
    rows = (tuple(rng.randrange(1, 4) for _ in range(R.n)),) if rng.randrange(2) else ()
    pk = _packing(R.n, bits, _order(R.n, rows, grevlex_tie).packing_rows())
    hint, tuple_hint = HilbertHint(I), tuple_kernel.HilbertHint(I)
    hint.start(pk)
    bound = (3,) * R.p
    hf_I = hilbert_function_oracle(I, bound)
    monos = [
        m
        for m in itertools.product(range(3), repeat=R.n)
        if all(x <= 3 for x in R.monomial_degree(m))
    ]
    for k in range(len(lts) + 1):
        if k:
            hint.add(pk.pack(lts[k - 1]))
        L = MonomialIdeal(R, lts[:k])
        hf_L = hilbert_function_oracle(L, bound)
        for mono in monos:
            d = R.monomial_degree(mono)
            expected = hf_L.get(d, 0) == hf_I.get(d, 0)
            assert hint.saturated(pk.pack(mono)) == expected
            assert tuple_hint.saturated(lts[:k], mono) == expected
        assert hint.complete() == tuple_hint.complete(lts[:k]) == (L == I)
