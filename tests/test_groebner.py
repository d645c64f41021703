import functools
import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    add_empty_block,
    as_ideal,
    block_ring,
    contract_by_elimination,
    dense_block_change,
    eliminate,
    hinted_initial_ideal,
    ideal_contains,
    normal_form,
    random_form,
    random_ideal,
    random_monomial_ideal,
    random_positive_ring,
    random_standard_ring,
    reduce_basis,
    substituted_ideal,
    surface_prime,
    three_block_ring,
    trial_substitution,
    update_pairs,
)
from mdeg import groebner
from mdeg.determinantal import build_determinantal
from mdeg.errors import (
    BadArgument,
    BlocksNotSeparable,
    NotHomogeneous,
    NotStandardGraded,
    RingMismatch,
    Unstable,
)
from mdeg.fields import GF32003, QQ
from mdeg.genin import random_block_change
from mdeg.groebner import (
    Ideal,
    _buchberger,
    _make_monic,
    _packed,
    _reduce_dict,
    _saturate_variable,
    buchberger,
    contract,
    gin_trial,
    intersect,
    saturate_irrelevant,
    saturate_var_block,
)
from mdeg.hilbert import HilbertHint, geometric_multidegrees
from mdeg.monomial import MonomialIdeal
from mdeg.orders import (
    MonomialOrder,
    elimination_order,
    grevlex,
    lex,
    lift_order_phi,
    weight_order,
)
from mdeg.ring import Polynomial, _Overflow, _add_mul, _field_bits, _packing, make_ring
from mdeg.standardize import standardize, standardize_ideal
import tuple_kernel
from tuple_monomial import minimalize


def twisted_cubic():
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4)
    a, b, c, d = R.gens()
    return R, Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])


def test_reduced_gb_twisted_cubic():
    R, I = twisted_cubic()
    gb = I.groebner_basis()
    assert len(gb) == 3
    inI = I.initial_ideal()
    assert inI == MonomialIdeal(R, [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)])


def test_gb_lex_differs():
    R, I = twisted_cubic()
    assert I.initial_ideal(lex(R)) != I.initial_ideal(grevlex(R))


def test_membership():
    R, I = twisted_cubic()
    a, b, c, d = R.gens()
    assert ideal_contains(I, (a * c - b * b) * d)
    assert not ideal_contains(I, a * d)


def test_gb_is_deterministic_and_monic():
    R, I = twisted_cubic()
    gb1 = I.groebner_basis()
    gb2 = Ideal(R, list(reversed(I.gens))).groebner_basis()
    assert gb1 == gb2
    o = grevlex(R)
    for g in gb1:
        lt = max(g.terms, key=tuple_kernel.order_key(o))
        assert g.terms[lt] == R.field.one


def test_nonhomogeneous_generator_rejected():
    R = make_ring(["x", "y"], [(1, 0), (0, 1)])
    x, y = R.gens()
    with pytest.raises(NotHomogeneous):
        Ideal(R, [x + y])


def test_ideal_checks_the_generators_it_is_given():
    R = make_ring(["x", "y"], [(1, 0), (0, 1)])
    x, y = R.gens()
    with pytest.raises(RingMismatch):
        Ideal(R, [make_ring(["x"], [(1,)]).variable("x")])
    with pytest.raises(TypeError):
        Ideal(R, [(1, 0)])
    assert Ideal(R, [R.zero(), x * y, R.zero()]).gens == (x * y,)


def _as_if_checked(E):
    """Whether Ideal(...) accepts every generator of E and drops none:
    the checks that Ideal._of leaves out."""
    return Ideal(E.ring, E.gens).gens == E.gens


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([QQ, GF32003]))
def test_program_built_ideals_pass_the_generator_checks(seed, field):
    # the results of intersect, contract, standardize_ideal and
    # build_determinantal are built by Ideal._of, unchecked, and gin_trial
    # hands the substituted generators to its pair loop unchecked
    rng, R, I = _random_graded_ideal(seed, field)
    built = [intersect(I, random_ideal(rng, R)), standardize_ideal(I)]
    for mask in range(1, 1 << R.p):
        try:
            built.append(contract(I, [k + 1 for k in range(R.p) if mask >> k & 1]))
        except BlocksNotSeparable:
            pass
    m = rng.randint(1, 3)
    built.append(build_determinantal(m, rng.randint(m, 4), rng.randint(1, m), field)[1])
    S = block_ring([rng.randint(1, 3) for _ in range(rng.randint(1, 3))], GF32003)
    J = random_ideal(rng, S, max_degree=3, max_gens=3)
    images = random_block_change(S, seed)
    for order in _orders(rng, S):
        built.append(Ideal._of(S, list(trial_substitution(J, images, order))))
    for E in built:
        assert _as_if_checked(E)


def test_intersect_colon_saturate():
    R = make_ring(["x", "y", "z"], [(1,)] * 3)
    x, y, z = R.gens()
    assert intersect(Ideal(R, [x]), Ideal(R, [y])) == Ideal(R, [x * y])
    assert colon(Ideal(R, [x * y]), y) == Ideal(R, [x])
    assert saturate(Ideal(R, [x * x * y, x * z * z]), x) == Ideal(R, [y, z * z])


def test_saturate_var_block_removes_torsion():
    R = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)])
    x0, x1, y0 = R.gens()
    # (x0) cap (x0^2, x1, y0): the second component is supported on block 1+
    I = intersect(Ideal(R, [x0]), Ideal(R, [x0 * x0, x1, y0]))
    assert saturate_var_block(I, [0, 1]) == Ideal(R, [x0])


def _divide_exact(g, f):
    """Exact polynomial quotient g / f (remainder must vanish)."""
    ring = g.ring
    quo = _packed(grevlex(ring), [g.terms, f.terms], _quotient, ring.field)
    return Polynomial._of(ring, quo)


def _quotient(pk, dicts, F):
    rem, f = dicts
    vmask, guard = pk.vmask, pk.guard
    lt = max(x ^ vmask for x in f) ^ vmask
    lc = f[lt]
    quo = {}
    while rem:
        e = max(x ^ vmask for x in rem) ^ vmask
        shift = e - lt
        if shift & guard:
            raise ArithmeticError("division is not exact")
        qc = F.mul(rem[e], F.inv(lc))
        quo[shift] = qc
        _add_mul(rem, F.neg(qc), shift, f, F, guard)
    return pk.unpack_dict(quo)


def colon(I, f):
    """(I : f) for a single nonzero polynomial f, via (I cap (f)) / f."""
    ring = I.ring
    if not f:
        raise ZeroDivisionError("colon by zero")
    inter = intersect(I, Ideal._of(ring, [f]))
    gens = [_divide_exact(g, f) for g in inter.gens]
    return Ideal._of(ring, gens)


def saturate(I, f):
    """(I : f^infinity) as (I + (1 - t*f)) cap k[x], eliminating t: no
    command saturates by a polynomial, so it is an oracle of
    saturate_var_block and a check of eliminate's cached basis."""
    if not f:
        raise ZeroDivisionError("saturation by zero")
    ring = I.ring
    F = ring.field
    aux = {(1,) + e: F.neg(c) for e, c in f.terms.items()}
    aux[(0,) * (ring.n + 1)] = F.one
    raw = [{(0,) + e: c for e, c in g.terms.items()} for g in I.gens] + [aux]
    return eliminate(ring, raw, ring.n + 1, [0])


def _fixpoint_saturate(I, f):
    """The colon fixpoint that `saturate` replaced, kept as its oracle."""
    order = grevlex(I.ring)
    cur = I
    cur_gb = cur.groebner_basis(order)
    while True:
        nxt = colon(cur, f)
        nxt_gb = nxt.groebner_basis(order)
        if nxt_gb == cur_gb:
            return cur
        cur, cur_gb = nxt, nxt_gb


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([QQ, GF32003]))
def test_saturate_matches_fixpoint_oracle(seed, field):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=4, field=field)
    I = random_ideal(rng, R)
    x = R.gens()[rng.randrange(R.n)]
    f = random_form(rng, R, 2)  # homogeneous, never a variable
    assert saturate(I, x) == _fixpoint_saturate(I, x)
    assert saturate(I, f) == _fixpoint_saturate(I, f)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([QQ, GF32003]))
def test_elimination_result_caches_its_reduced_grevlex_basis(seed, field):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=4, field=field)
    I, J = random_ideal(rng, R), random_ideal(rng, R)
    x = R.gens()[rng.randrange(R.n)]
    results = [saturate(I, x), saturate(I, random_form(rng, R, 2)), intersect(I, J)]
    for mask in range(1 << R.p):
        blocks = [k + 1 for k in range(R.p) if mask >> k & 1]
        for keep_grading in (False, True):
            try:
                results.append(contract(I, blocks, keep_grading))
            except BlocksNotSeparable:
                pass
    for E in results:
        recomputed = Ideal._of(E.ring, E.gens).groebner_basis()
        assert E.groebner_basis() == recomputed


def _random_graded_ideal(seed, field):
    """(rng, ring, Ideal) over `field`, the ring graded at random by a
    standard or a positive grading."""
    rng = random.Random(seed)
    make = rng.choice([random_standard_ring, random_positive_ring])
    R = make(rng, max_vars=4, field=field)
    return rng, R, random_ideal(rng, R)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([QQ, GF32003]))
def test_saturate_var_block_matches_intersection_of_variable_saturations(
    seed, field
):
    rng, R, I = _random_graded_ideal(seed, field)
    idx = rng.sample(range(R.n), rng.randint(1, R.n))
    plain = functools.reduce(intersect, [saturate(I, R.gens()[i]) for i in idx])
    assert saturate_var_block(I, idx) == plain
    M = random_monomial_ideal(rng, R)
    plain = functools.reduce(
        MonomialIdeal.intersect, [M.saturate_variable(i) for i in idx]
    )
    assert saturate_var_block(M, idx) == plain


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([QQ, GF32003]))
def test_bayer_variable_saturation_matches_elimination(seed, field):
    rng, R, I = _random_graded_ideal(seed, field)
    for i in range(R.n):
        s, plain = _saturate_variable(I, i), saturate(I, R.gens()[i])
        assert s == plain
        assert (s is I) == (plain == I)


def _surface_and_torsion():
    """(ring, P, P cap (x0, x1, x2, x3)^2) for the example46 threefold P."""
    R = three_block_ring()
    P = surface_prime(R)
    xs = R.gens()[:4]
    square = Ideal(R, [a * b for k, a in enumerate(xs) for b in xs[k:]])
    return R, P, intersect(P, square)


def test_bayer_variable_saturation_of_the_threefold():
    R, P, J = _surface_and_torsion()
    for i in range(R.n):
        assert _saturate_variable(P, i) is P
        s = _saturate_variable(J, i)
        if i < 4:  # J : x_i^infinity drops the x-block torsion
            assert s == saturate(J, R.gens()[i]) == P
        else:
            assert s is J
    assert saturate_irrelevant(J) == P
    assert geometric_multidegrees(J).entries == geometric_multidegrees(P).entries


def test_saturated_prime_is_returned_without_elimination(monkeypatch):
    R = three_block_ring()
    P = surface_prime(R)

    def no_elimination(*args, **kwargs):
        raise AssertionError("a saturated ideal reached an elimination")

    monkeypatch.setattr(groebner, "intersect", no_elimination)
    assert saturate_irrelevant(P) is P


def test_contract_builds_no_elimination_order(monkeypatch):
    R = three_block_ring()
    P = surface_prime(R)

    def no_elimination(*args, **kwargs):
        raise AssertionError("contract built an elimination order")

    monkeypatch.setattr(groebner, "elimination_order", no_elimination)
    for J in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
        got, want = contract(P, J), contract_by_elimination(P, J)
        assert _term_items(got.gens) == _term_items(want.gens)


def test_saturate_irrelevant_of_irrelevant_is_unit():
    R = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)])
    x0, x1, y0 = R.gens()
    I = Ideal(R, [x0, x1, y0])
    assert saturate_irrelevant(I).is_unit()


def test_saturate_irrelevant_needs_standard():
    R = make_ring(["x"], [(2,)])
    with pytest.raises(NotStandardGraded):
        saturate_irrelevant(Ideal(R, []))


def test_contract_basic():
    R = three_block_ring()
    P = surface_prime(R)
    Q = contract(P, [2, 3])
    assert Q.ring.n == 8
    assert Q.ring.p == 2
    v = {nm: Q.ring.variable(nm) for nm in Q.ring.names}
    g = (
        v["y1"] * v["y1"] + v["y2"] * v["y2"] - v["y0"] * v["y3"]
    )
    assert ideal_contains(Q, g)
    assert not ideal_contains(Q, v["y0"])


def test_contract_keep_grading():
    R = three_block_ring()
    P = surface_prime(R)
    Q = contract(P, [2, 3], keep_grading=True)
    assert Q.ring.p == 3
    assert Q.ring.degrees[0] == (0, 1, 0)


def test_contract_rejects_straddling_degrees():
    R = make_ring(["x", "w"], [(1, 0), (1, 1)])
    with pytest.raises(BlocksNotSeparable):
        contract(Ideal(R, []), [1])


def test_contract_full_is_identity():
    R = three_block_ring()
    P = surface_prime(R)
    full = contract(P, [1, 2, 3])
    assert full.groebner_basis() == P.groebner_basis()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_contract_of_monomial_ideal_matches_ideal_route(seed):
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    for G in (random_monomial_ideal(rng, R), MonomialIdeal(R, [])):
        for mask in range(1 << R.p):
            J = [k + 1 for k in range(R.p) if mask >> k & 1]
            for keep_grading in (False, True):
                try:
                    want = contract(as_ideal(G), J, keep_grading).initial_ideal()
                except BlocksNotSeparable:
                    with pytest.raises(BlocksNotSeparable):
                        contract(G, J, keep_grading)
                    continue
                assert contract(G, J, keep_grading) == want


def _term_items(polys):
    """The term items of each polynomial, in their stored order."""
    return [list(f.terms.items()) for f in polys]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([QQ, GF32003]))
def test_contract_matches_the_elimination_route(seed, field):
    # the same ring, the same generators term for term in the same order,
    # and the same cached grevlex basis, for every separable J
    rng, R, I = _random_graded_ideal(seed, field)
    I = Ideal(R, I.gens + random_ideal(rng, R, max_gens=4).gens)
    for mask in range(1 << R.p):
        J = [k + 1 for k in range(R.p) if mask >> k & 1]
        for keep_grading in (False, True):
            try:
                got = contract(I, J, keep_grading)
            except BlocksNotSeparable:
                continue
            want = contract_by_elimination(I, J, keep_grading)
            assert got.ring == want.ring
            assert _term_items(got.gens) == _term_items(want.gens)
            assert list(got._gb) == list(want._gb) == [grevlex(got.ring)]
            assert _term_items(got.groebner_basis()) == _term_items(want.groebner_basis())


def test_contract_rejects_out_of_range_blocks():
    R = make_ring(["x", "y"], [(1, 0), (0, 1)])
    for I in (Ideal(R, []), MonomialIdeal(R, [])):
        for J in ([0], [3], [1, 3]):
            with pytest.raises(BadArgument):
                contract(I, J)


def test_ideal_is_unhashable():
    # equality compares reduced bases; hashing would compute one silently
    R = make_ring(["x", "y"], [(1,), (1,)])
    with pytest.raises(TypeError):
        hash(Ideal(R, [R.variable("x")]))


def test_prime_field_gb():
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4, GF32003)
    a, b, c, d = R.gens()
    I = Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])
    assert len(I.groebner_basis()) == 3


# ---------------------------------------------------------------------------
# Hilbert-driven initial ideals: the full reduced basis is the oracle.


def _orders(rng, ring):
    """grevlex, lex, a random weight order, a weight order whose second
    row has negative entries, and grevlex lifted along the (identity)
    standardization of a standard ring: lex refined from the rows of
    grevlex, negative entries included."""
    weights = [tuple(rng.randrange(1, 9) for _ in range(ring.n))]
    signed = weights + [tuple(rng.randrange(-4, 5) for _ in range(ring.n))]
    orders = [grevlex(ring), lex(ring), weight_order(ring, weights)]
    orders.append(weight_order(ring, signed))
    if ring.is_standard:
        orders.append(lift_order_phi(grevlex(ring), standardize(ring)))
    return orders


def hinted_basis(gens, order, field, hint):
    """The whole basis of the Hilbert-driven loop, unpacked, whose leading
    terms gin_trial takes."""
    pk, basis = _packed(order, gens, _buchberger, field, hint)
    return [pk.unpack_dict(d) for d in basis]


def _assert_hinted_matches_full_basis(rng, I, seed):
    """in(J) from gin_trial with the hint of I equals in(J) from the
    reduced basis, for J = I (identity images) and J = g(I), under grevlex,
    lex and a random weight order."""
    R = I.ring
    hint = HilbertHint(I)
    images = random_block_change(R, seed)
    moved = substituted_ideal(I, images)
    for order in _orders(rng, R):
        assert gin_trial(I, R.gens(), order, hint) == I.initial_ideal(order)
        assert gin_trial(I, images, order, hint) == moved.initial_ideal(order)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_hilbert_driven_initial_ideal_matches_full_basis(seed, empty_block):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    _assert_hinted_matches_full_basis(rng, I, seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_hinted_initial_ideal_is_the_leading_terms_of_the_hinted_basis(seed, empty_block):
    # gin_trial unpacks only the leading terms of the packed basis;
    # hinted_basis returns the whole of it, unpacked
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    hint = HilbertHint(I)
    images = random_block_change(R, seed)
    J = substituted_ideal(I, images)
    for order in _orders(rng, R):
        basis = hinted_basis([f.terms for f in J.gens], order, R.field, hint)
        lts = MonomialIdeal(R, [max(d, key=tuple_kernel.order_key(order)) for d in basis])
        assert gin_trial(I, images, order, hint) == lts == J.initial_ideal(order)


def test_hilbert_driven_initial_ideal_of_zero_and_unit_ideals():
    rng = random.Random(3)
    R = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)], GF32003)
    zero, unit = Ideal(R, []), Ideal(R, [R.one()])
    for I in (zero, unit):
        _assert_hinted_matches_full_basis(rng, I, 3)
    assert gin_trial(zero, R.gens(), grevlex(R), HilbertHint(zero)).is_zero()
    assert gin_trial(unit, R.gens(), grevlex(R), HilbertHint(unit)).is_unit()


def test_hilbert_driven_initial_ideal_on_ring_with_empty_block():
    # blocks 2 and 3 of the threefold ring; block 1 holds no variable
    R = three_block_ring(GF32003)
    Q = contract(surface_prime(R), [2, 3], keep_grading=True)
    assert Q.ring.block_variables(0) == []
    _assert_hinted_matches_full_basis(random.Random(5), Q, 5)


def _wide_ideal(rng):
    """x^127 + c*y^127 and x*y, coprime, in a first block of two variables,
    beside an optional second block, over GF(32003): the exponents of the
    input fit 8-bit fields, while the S-pairs of degree 128 and the power
    of y in in(g(I)) pass them."""
    R = block_ring([2] + [rng.randint(1, 2)] * rng.randint(0, 1), GF32003)
    x, y = R.gens()[:2]
    c = R.field.coerce(rng.randint(1, R.field.p - 1))
    return Ideal(R, [x**127 + (y**127).scale(c), x * y])


def _trial_bits(I, images, order, hint):
    """gin_trial's answer and the field width of each of its runs of the
    pair loop."""
    bits, real = [], groebner._buchberger

    def spy(pk, *args):
        bits.append(pk.bits)
        return real(pk, *args)

    groebner._buchberger = spy
    try:
        return gin_trial(I, images, order, hint), bits
    finally:
        groebner._buchberger = real


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["random", "empty block", "zero", "unit", "wide"]))
def test_gin_trial_matches_the_oracle_paths(seed, kind):
    """gin_trial over GF(32003) on a dense change g, under grevlex, lex
    and weight orders, against the path it replaced (substituted_ideal,
    then the hinted loop on the unpacked ideal), the reduced basis of g(I)
    with no hint, and the hinted tuple loop of tests/tuple_kernel.py; on
    random ideals, rings with an empty block, the zero and unit ideals,
    and ideals whose S-pairs pass 8-bit fields, where the trial widens its
    fields and reruns."""
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=4, field=GF32003)
    if kind == "empty block":
        R = add_empty_block(rng, R)
    if kind == "zero":
        I = Ideal(R, [])
    elif kind == "unit":
        I = Ideal(R, [R.one()] + list(random_ideal(rng, R).gens))
    elif kind == "wide":
        I = _wide_ideal(rng)
        R = I.ring
    else:
        I = random_ideal(rng, R, max_degree=3, max_gens=4)
    hint, tuple_hint = HilbertHint(I), tuple_kernel.HilbertHint(I)
    images = dense_block_change(R, seed)
    J = substituted_ideal(I, images)
    gens = [f.terms for f in J.gens]
    for order in _orders(rng, R):
        got, bits = _trial_bits(I, images, order, hint)
        assert got == hinted_initial_ideal(J, order, hint) == J.initial_ideal(order)
        tuple_basis = tuple_kernel.buchberger(gens, order, GF32003, tuple_hint)
        assert got == MonomialIdeal(R, [tuple_kernel.leading(d, order) for d in tuple_basis])
        assert bits[0] == 8 and len(bits) == 1 + (kind == "wide")


def test_hint_of_another_hilbert_function_raises_unstable():
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, y = R.gens()
    with pytest.raises(Unstable):
        gin_trial(Ideal(R, [x * x]), R.gens(), grevlex(R), HilbertHint(Ideal(R, [x * x, y])))


# ---------------------------------------------------------------------------
# Oracles of buchberger.  The Buchberger loop on exponent tuples, from
# before exponents were packed (tests/tuple_kernel.py), gives the same
# basis element for element and in order, hinted (with its tuple hint and
# the same top-reduction) or not, with every element's leading term listed
# first.  Hinted, the same tuple loop with every new element fully reduced,
# as before top-reduction, gives the same leading-term ideal in(J).  The
# older loop below, from before each pair's lcm and order key were stored
# with the pair and before one kernel did every subtraction of a term-dict
# multiple (a set of pairs whose lcms are recomputed at every selection,
# with the subtraction loops written out), gives the same reduced basis.


def _reduce_dict_reference(f, lt_exps, polys, order, field):
    key = tuple_kernel.order_key(order)
    work = dict(f)
    heap = [(tuple(-x for x in key(e)), e) for e in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        _, e = heapq.heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        red = next(
            (i for i, lt in enumerate(lt_exps) if all(a <= b for a, b in zip(lt, e))),
            -1,
        )
        if red < 0:
            out[e] = c
            continue
        lt = lt_exps[red]
        shift = tuple(b - a for a, b in zip(lt, e))
        for eg, cg in polys[red].items():
            if eg == lt:
                continue
            e2 = tuple(x + y for x, y in zip(eg, shift))
            prev = work.get(e2)
            delta = field.mul(c, cg)
            if prev is None:
                nv = field.neg(delta)
                if nv != field.zero:
                    work[e2] = nv
                    heapq.heappush(heap, (tuple(-x for x in key(e2)), e2))
            else:
                nv = field.add(prev, field.neg(delta))
                if nv == field.zero:
                    del work[e2]
                else:
                    work[e2] = nv
    return out


def _update_pairs_reference(pairs, lts, new_index):
    t = lts[new_index]
    fresh = {i: tuple_kernel.lcm(lts[i], t) for i in range(new_index)}
    kept = set()
    for i, j in pairs:
        lij = tuple_kernel.lcm(lts[i], lts[j])
        if (
            all(a <= b for a, b in zip(t, lij))
            and lij != fresh[i]
            and lij != fresh[j]
        ):
            continue
        kept.add((i, j))
    items = sorted(fresh.items(), key=lambda kv: (sum(kv[1]), kv[1]))
    chosen = []
    for i, l in items:
        if any(all(a <= b for a, b in zip(l2, l)) and l2 != l for _, l2 in chosen):
            continue
        if any(l2 == l for _, l2 in chosen):
            continue
        chosen.append((i, l))
    for i, l in chosen:
        if not tuple_kernel.coprime(lts[i], t):
            kept.add((i, new_index))
    pairs.clear()
    pairs.update(kept)


def _buchberger_reference(gen_dicts, order, field):
    key = tuple_kernel.order_key(order)
    lts, polys = [], []
    pairs = set()

    def add(d):
        r = _reduce_dict_reference(d, lts, polys, order, field)
        if r:
            lt, monic = tuple_kernel.make_monic(r, order, field)
            lts.append(lt)
            polys.append(monic)
            _update_pairs_reference(pairs, lts, len(lts) - 1)

    gens = [d for d in gen_dicts if d]
    for d in sorted(gens, key=lambda d: key(tuple_kernel.leading(d, order))):
        add(d)
    while pairs:
        i, j = min(
            pairs,
            key=lambda ij: (
                sum(tuple_kernel.lcm(lts[ij[0]], lts[ij[1]])),
                key(tuple_kernel.lcm(lts[ij[0]], lts[ij[1]])),
            ),
        )
        pairs.discard((i, j))
        l = tuple_kernel.lcm(lts[i], lts[j])
        si = tuple(a - b for a, b in zip(l, lts[i]))
        sj = tuple(a - b for a, b in zip(l, lts[j]))
        s = {}
        for e, c in polys[i].items():
            s[tuple(a + b for a, b in zip(e, si))] = c
        for e, c in polys[j].items():
            e2 = tuple(a + b for a, b in zip(e, sj))
            prev = s.get(e2)
            if prev is None:
                s[e2] = field.neg(c)
            else:
                nv = field.add(prev, field.neg(c))
                if nv == field.zero:
                    del s[e2]
                else:
                    s[e2] = nv
        add(s)
    keep = [
        i
        for i, lt in enumerate(lts)
        if not any(
            j != i and all(a <= b for a, b in zip(lts[j], lt)) and (lts[j] != lt or j < i)
            for j in range(len(lts))
        )
    ]
    out = []
    for i in keep:
        others = [j for j in keep if j != i]
        r = _reduce_dict_reference(
            polys[i], [lts[j] for j in others], [polys[j] for j in others], order, field
        )
        out.append(tuple_kernel.make_monic(r, order, field)[1])
    out.sort(key=lambda d: key(tuple_kernel.leading(d, order)))
    return out


def _assert_matches_oracles(gens, order, field, hint=None, tuple_hint=None):
    got = buchberger(gens, order, field) if hint is None else hinted_basis(gens, order, field, hint)
    assert got == tuple_kernel.buchberger(gens, order, field, tuple_hint)
    if hint is None:
        assert got == _buchberger_reference(gens, order, field)
    else:
        full = tuple_kernel.buchberger(gens, order, field, tuple_hint, full=True)
        lts = [tuple_kernel.leading(d, order) for d in full]
        assert minimalize(next(iter(d)) for d in got) == minimalize(lts)
    for d in got:
        assert next(iter(d)) == tuple_kernel.leading(d, order)
    return got


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([QQ, GF32003]), st.booleans())
def test_buchberger_matches_reference(seed, field, empty_block):
    """Unhinted, under every order of _orders and a random elimination
    order, and for the non-homogeneous input of a saturation."""
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=field)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    gens = [f.terms for f in I.gens]
    drop = rng.sample(range(R.n), rng.randint(0, R.n))
    for order in _orders(rng, R) + [elimination_order(R.n, drop)]:
        _assert_matches_oracles(gens, order, field)
    f = random_form(rng, R, 1)
    aux = {(1,) + e: field.neg(c) for e, c in f.terms.items()}
    aux[(0,) * (R.n + 1)] = field.one
    raw = [{(0,) + e: c for e, c in g.items()} for g in gens] + [aux]
    _assert_matches_oracles(raw, elimination_order(R.n + 1, [0]), field)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_hilbert_driven_buchberger_matches_reference(seed, empty_block):
    """Hinted, on I and on g(I) over GF(32003), under every order of
    _orders: the same top-reduced basis in the same order, and the
    leading-term ideal of the fully reduced loop."""
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    hint, tuple_hint = HilbertHint(I), tuple_kernel.HilbertHint(I)
    moved = substituted_ideal(I, random_block_change(R, seed))
    for J in (I, moved):
        gens = [f.terms for f in J.gens]
        for order in _orders(rng, R):
            _assert_matches_oracles(gens, order, GF32003, hint, tuple_hint)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_hinted_basis_elements_are_monic_members_leading_term_first(seed, empty_block):
    """Top-reduction leaves the tails as they stand, but every element of
    the hinted basis of g(I) lies in g(I), is monic and lists its leading
    term first."""
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    hint = HilbertHint(I)
    J = substituted_ideal(I, random_block_change(R, seed))
    for order in _orders(rng, R):
        for d in hinted_basis([f.terms for f in J.gens], order, R.field, hint):
            lt = next(iter(d))
            assert lt == max(d, key=tuple_kernel.order_key(order))
            assert d[lt] == R.field.one
            assert not normal_form(J, Polynomial(R, d), order)


def test_hilbert_driven_buchberger_at_degrees_past_the_exponent_fields():
    # every exponent fits an 8-bit field, but the degrees reach 130, so
    # the hint's t-exponents need wider fields
    R = make_ring(["x", "y", "z"], [(1,)] * 3, GF32003)
    x, y, z = R.gens()
    I = Ideal(R, [x**70 * y**60 - y**65 * z**65, x * x - y * z])
    hint, tuple_hint = HilbertHint(I), tuple_kernel.HilbertHint(I)
    gens = [f.terms for f in I.gens]
    for order in (grevlex(R), lex(R)):
        got = _assert_matches_oracles(gens, order, GF32003, hint, tuple_hint)
        assert max(sum(next(iter(d))) for d in got) >= 128
        assert gin_trial(I, R.gens(), order, hint) == I.initial_ideal(order)


def test_buchberger_matches_reference_on_the_threefold():
    R = three_block_ring()
    gens = [f.terms for f in surface_prime(R).gens]
    for order in (grevlex(R), elimination_order(R.n, range(4))):
        _assert_matches_oracles(gens, order, QQ)


# Generators over QQ in k[x, y, z], with orders on three variables, and
# whether the basis outgrows the fields that hold the input's exponents:
# x^100*y - 1, x*y^100 - 1 near the top of 8-bit fields, and exponents of
# 2^17 in 32-bit fields, where x - y^a, y - z^a gives z^(a^2) under lex.
_A = 1 << 17
_NEAR = [{(100, 1, 0): QQ.one, (0, 0, 0): -QQ.one}, {(1, 100, 0): QQ.one, (0, 0, 0): -QQ.one}]
_POWER = [{(_A, 1, 0): QQ.one, (0, 0, _A + 1): -QQ.one}, {(0, 1, 0): QQ.one, (0, 0, 1): -QQ.one}]
_CHAIN = [{(1, 0, 0): QQ.one, (0, _A, 0): -QQ.one}, {(0, 1, 0): QQ.one, (0, 0, _A): -QQ.one}]
_GREVLEX3, _LEX3 = MonomialOrder(3), MonomialOrder(3, (), "lex")
WIDENING = {
    "near-grevlex": (_NEAR, _GREVLEX3, True),
    "near-lex": (_NEAR, _LEX3, True),
    "near-elim-x": (_NEAR, elimination_order(3, [0]), True),
    "power-grevlex": (_POWER, _GREVLEX3, False),
    "chain-lex": (_CHAIN, _LEX3, True),
    "chain-elim-y": (_CHAIN, elimination_order(3, [1]), True),
}


@pytest.mark.parametrize("name", sorted(WIDENING))
def test_exponents_past_the_field_width_widen_and_match_reference(name):
    gens, order, widens = WIDENING[name]
    got = _assert_matches_oracles(gens, order, QQ)
    top = (1 << _field_bits(max(x for d in gens for e in d for x in e)) - 1) - 1
    assert (max(x for d in got for e in d for x in e) > top) == widens



@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.dictionaries(
                    st.tuples(*[st.integers(0, 6)] * n), st.sampled_from([-3, -2, -1, 1, 2, 3]),
                    min_size=1, max_size=4,
                ),
                min_size=1, max_size=6,
            ),
            st.integers(0, 10_000),
            st.sets(st.integers(0, n - 1)),
        )
    ),
    st.sampled_from([8, 16]),
    st.sampled_from([QQ, GF32003]),
    st.booleans(),
)
def test_pair_update_and_interreduction_match_the_oracles(data, bits, field, memo):
    """The leading terms of a short Buchberger run, under every order of
    _orders and an elimination order, in 8- and 16-bit fields, go through
    _update_pairs and the oracle it replaced: after every update the same
    pairs, values and insertion order, with or without a memo, and at the
    end the same interreduced basis, term for term."""
    n, polys, seed, drop = data
    R = make_ring([f"v{i}" for i in range(n)], [(1,)] * n)
    for order in _orders(random.Random(seed), R) + [elimination_order(n, drop)]:
        pk = _packing(n, bits, order.packing_rows())
        basis, got, want = {}, {}, {}
        memos = ({}, {}) if memo else (None, None)
        todo = [pk.pack_dict({e: field.coerce(c) for e, c in d.items()}) for d in polys]
        try:
            for _ in range(20):
                if todo:
                    d = todo.pop(0)
                elif got:
                    a, b = min(got, key=got.__getitem__)
                    l = got.pop((a, b))[2]
                    del want[a, b]
                    d = {}
                    _add_mul(d, field.one, l - a, basis[a], field, pk.guard)
                    _add_mul(d, field.neg(field.one), l - b, basis[b], field, pk.guard)
                else:
                    break
                r = _reduce_dict(d, basis, field, pk)
                if not r:
                    continue
                lt, monic = _make_monic(r, field)
                groebner._update_pairs(got, basis, lt, pk, memos[0])
                update_pairs(want, basis, lt, pk, memos[1])
                assert list(got.items()) == list(want.items())
                basis[lt] = monic
        except _Overflow:
            pass
        assert memos[0] == memos[1]
        try:
            got = groebner._reduce_basis(basis, field, pk)
        except _Overflow:
            # a reduced tail outgrew the fields, which _packed would widen
            with pytest.raises(_Overflow):
                reduce_basis(basis, field, pk)
            continue
        want = reduce_basis(basis, field, pk)
        assert [list(f.items()) for f in got] == [list(f.items()) for f in want]
