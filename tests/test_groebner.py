import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    add_empty_block,
    random_form,
    random_ideal,
    random_monomial_ideal,
    random_positive_ring,
    random_standard_ring,
    surface_prime,
    three_block_ring,
)
from mdeg.errors import (
    BadArgument,
    BlocksNotSeparable,
    NotHomogeneous,
    NotStandardGraded,
    Unstable,
)
from mdeg.fields import GF32003, QQ
from mdeg.genin import random_block_change
from mdeg.groebner import (
    Ideal,
    as_ideal,
    colon,
    colon_ideal,
    contract,
    intersect,
    saturate,
    saturate_irrelevant,
    saturate_var_block,
    substituted_ideal,
)
from mdeg.hilbert import HilbertHint
from mdeg.monomial import MonomialIdeal
from mdeg.orders import grevlex, lex, weight_order
from mdeg.ring import make_ring


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
    assert I.contains((a * c - b * b) * d)
    assert not I.contains(a * d)


def test_gb_is_deterministic_and_monic():
    R, I = twisted_cubic()
    gb1 = I.groebner_basis()
    gb2 = Ideal(R, list(reversed(I.gens))).groebner_basis()
    assert gb1 == gb2
    o = grevlex(R)
    for g in gb1:
        lt = max(g.terms, key=o.key)
        assert g.terms[lt] == R.field.one


def test_nonhomogeneous_generator_rejected():
    R = make_ring(["x", "y"], [(1, 0), (0, 1)])
    x, y = R.gens()
    with pytest.raises(NotHomogeneous):
        Ideal(R, [x + y])


def test_intersect_colon_saturate():
    R = make_ring(["x", "y", "z"], [(1,)] * 3)
    x, y, z = R.gens()
    assert intersect(Ideal(R, [x]), Ideal(R, [y])) == Ideal(R, [x * y])
    assert colon(Ideal(R, [x * y]), y) == Ideal(R, [x])
    assert saturate(Ideal(R, [x * x * y, x * z * z]), x) == Ideal(R, [y, z * z])
    assert colon_ideal(Ideal(R, [x * y, x * z]), Ideal(R, [y, z])) == Ideal(R, [x])


def test_saturate_var_block_removes_torsion():
    R = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)])
    x0, x1, y0 = R.gens()
    # (x0) cap (x0^2, x1, y0): the second component is supported on block 1+
    I = intersect(Ideal(R, [x0]), Ideal(R, [x0 * x0, x1, y0]))
    assert saturate_var_block(I, [0, 1]) == Ideal(R, [x0])


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
    for E in (saturate(I, x), saturate(I, random_form(rng, R, 2)), intersect(I, J)):
        recomputed = Ideal(R, E.gens, check_homogeneous=False).groebner_basis()
        assert E.groebner_basis() == recomputed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_saturate_var_block_matches_intersection_of_variable_saturations(seed):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=4)
    idx = rng.sample(range(R.n), rng.randint(1, R.n))
    I = random_ideal(rng, R)
    plain = functools.reduce(intersect, [saturate(I, R.gens()[i]) for i in idx])
    assert saturate_var_block(I, idx) == plain
    M = random_monomial_ideal(rng, R)
    plain = functools.reduce(
        MonomialIdeal.intersect, [M.saturate_variable(i) for i in idx]
    )
    assert saturate_var_block(M, idx) == plain


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
    assert Q.contains(g)
    assert not Q.contains(v["y0"])


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


def _three_orders(rng, ring):
    weights = [tuple(rng.randrange(1, 9) for _ in range(ring.n))]
    return [grevlex(ring), lex(ring), weight_order(ring, weights)]


def _assert_hinted_matches_full_basis(rng, I, seed):
    """in(J) with the hint of I equals in(J) from the reduced basis, for
    J = I and J = g(I), under grevlex, lex and a random weight order."""
    R = I.ring
    hint = HilbertHint(I)
    moved = substituted_ideal(I, random_block_change(R, seed))
    for J in (I, moved):
        for order in _three_orders(rng, R):
            assert J.initial_ideal(order, hilbert=hint) == J.initial_ideal(order)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_hilbert_driven_initial_ideal_matches_full_basis(seed, empty_block):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    _assert_hinted_matches_full_basis(rng, I, seed)


def test_hilbert_driven_initial_ideal_of_zero_and_unit_ideals():
    rng = random.Random(3)
    R = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)], GF32003)
    zero, unit = Ideal(R, []), Ideal(R, [R.one()])
    for I in (zero, unit):
        _assert_hinted_matches_full_basis(rng, I, 3)
    assert zero.initial_ideal(hilbert=HilbertHint(zero)).is_zero()
    assert unit.initial_ideal(hilbert=HilbertHint(unit)).is_unit()


def test_hilbert_driven_initial_ideal_on_ring_with_empty_block():
    # blocks 2 and 3 of the threefold ring; block 1 holds no variable
    R = three_block_ring(GF32003)
    Q = contract(surface_prime(R), [2, 3], keep_grading=True)
    assert Q.ring.block_variables(0) == []
    _assert_hinted_matches_full_basis(random.Random(5), Q, 5)


def test_hint_of_another_hilbert_function_raises_unstable():
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, y = R.gens()
    with pytest.raises(Unstable):
        Ideal(R, [x * x]).initial_ideal(hilbert=HilbertHint(Ideal(R, [x * x, y])))
