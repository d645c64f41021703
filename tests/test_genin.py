import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    add_empty_block,
    block_ring,
    evaluate,
    ge_coefficientwise,
    random_ideal,
    random_standard_ring,
    surface_prime,
    three_block_ring,
)
from mdeg import genin
from mdeg.errors import EmptyScheme, FieldTooSmall, NotStandardGraded, Unstable
from mdeg.fields import GF32003, PrimeField, QQ, rank_mod_p
from mdeg.genin import gin, gin_structure_report, random_block_change
from mdeg.groebner import Ideal, as_ideal, contract, substituted_ideal
from mdeg.hilbert import arithmetic_multidegree, k_polynomial
from mdeg.monomial import MonomialIdeal, minimal_primes, primary_decomposition
from mdeg.orders import MonomialOrder
from mdeg.ring import Polynomial, make_ring, multidegree_of


def two_block_ring(field=GF32003):
    return make_ring(
        ["x0", "x1", "x2", "y0", "y1", "y2"],
        [(1, 0)] * 3 + [(0, 1)] * 3,
        field,
    )


def test_gin_of_borel_monomial_ideal_is_itself():
    R = two_block_ring()
    B = MonomialIdeal(
        R, [(1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    )
    res = gin(as_ideal(B))
    assert res.ideal == B
    assert res.borel


def test_gin_preserves_k_polynomial():
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4, GF32003)
    a, b, c, d = R.gens()
    I = Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])
    res = gin(I)
    assert res.borel
    assert k_polynomial(res.ideal) == k_polynomial(I)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_gin_has_the_k_polynomial_of_the_ideal(seed, empty_block):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    res = gin(I, seed=seed)
    assert k_polynomial(res.ideal) == k_polynomial(I)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_gin_does_not_depend_on_the_order_of_the_generators(seed, empty_block):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    if empty_block:
        R = add_empty_block(rng, R)
    I = random_ideal(rng, R, max_degree=3, max_gens=4)
    gens = list(I.gens)
    rng.shuffle(gens)
    if gens == list(I.gens):
        gens.reverse()
    assert gin(Ideal(R, gens), seed=seed).ideal == gin(I, seed=seed).ideal


def test_gin_trial_with_another_hilbert_function_is_unstable(monkeypatch):
    # a substitution that loses a generator changes the Hilbert function;
    # the trial's K-polynomial check must catch it
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4, GF32003)
    a, b, c, d = R.gens()
    I = Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])
    real = genin.substituted_ideal

    def lossy(ideal, images):
        moved = real(ideal, images)
        return Ideal(moved.ring, moved.gens[:-1])

    monkeypatch.setattr(genin, "substituted_ideal", lossy)
    with pytest.raises(Unstable):
        gin(I)


def _random_block_ring(rng):
    """A standard graded ring over GF(32003): 1-3 blocks of 1-3 variables."""
    return block_ring([rng.randint(1, 3) for _ in range(rng.randint(1, 3))], GF32003)


def test_arithmetic_multidegree_is_upper_semicontinuous_under_gin():
    # gin J is a flat degeneration of g(J) ~ J, so A(J) <= A(gin J)
    # coefficient by coefficient (the paper's multidegree version of
    # Hartshorne's semicontinuity)
    rng = random.Random(2208)
    strict = 0
    for _ in range(200):
        R = _random_block_ring(rng)
        gens = [
            tuple(rng.randint(0, 2) for _ in range(R.n)) for _ in range(rng.randint(1, 4))
        ]
        J = MonomialIdeal(R, gens)
        if J.is_unit():
            continue
        a, b = arithmetic_multidegree(J), arithmetic_multidegree(gin(as_ideal(J)).ideal)
        assert ge_coefficientwise(b, a), (J, a, b)
        strict += a != b
    assert strict


def _first_column(ring, images):
    """Each variable's image's coefficient of the first variable of its
    block."""
    out = []
    for i, g in enumerate(images):
        first = ring.block_variables(ring.degrees[i].index(1))[0]
        out.append(g.terms.get(tuple(int(j == first) for j in range(ring.n)), 0))
    return out


def _principal_gin_is_first_variables_power(R, f):
    """Check in(g f) against x^d = prod_k x_{k,1}^{d_k}, d = deg f, for the
    changes g of gin's two default trials, and gin((f)) = (x^d) when both
    are generic for f; return whether they are.

    x^d is the grevlex-largest monomial of degree d, and its coefficient
    in f(g x) is f at the first columns of g: in(g f) = x^d exactly when
    that value is nonzero."""
    I = Ideal(R, [f])
    d = multidegree_of(f)
    top = [0] * R.n
    for k in range(R.p):
        top[R.block_variables(k)[0]] = d[k]
    xd = MonomialIdeal(R, [tuple(top)])
    generic = True
    for seed in (0, 1):
        images = random_block_change(R, seed)
        value = evaluate(f, _first_column(R, images)) % R.field.p
        trial = substituted_ideal(I, images).initial_ideal()
        assert (trial == xd) == (value != 0)
        generic = generic and value != 0
    if generic:
        assert gin(I).ideal == xd
    return generic


def test_gin_of_a_principal_ideal_is_a_power_of_the_first_variables():
    rng = random.Random(2208)
    F = GF32003
    for _ in range(200):
        R = _random_block_ring(rng)
        d = [0] * R.p
        while not any(d):
            d = [rng.randint(0, 2) for _ in range(R.p)]
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * R.n
            for k, dk in enumerate(d):
                for _ in range(dk):
                    e[rng.choice(R.block_variables(k))] += 1
            terms[tuple(e)] = F.coerce(rng.randrange(1, F.p))
        _principal_gin_is_first_variables_power(R, Polynomial(R, terms))
    # a form that vanishes at the first columns of the second trial's change:
    # that trial's initial ideal differs, and gin reports the disagreement
    R = block_ring([2, 3, 1], F)
    v = R.gens()
    f = v[1] * (v[2] * v[2]).scale(24471) + v[1] * (v[3] * v[4]).scale(2504)
    assert not _principal_gin_is_first_variables_power(R, f)
    with pytest.raises(Unstable):
        gin(Ideal(R, [f]))


def test_gin_seed_independent():
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4, GF32003)
    a, b, c, d = R.gens()
    I = Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])
    assert gin(I, seed=0).ideal == gin(I, seed=7).ideal == gin(I, trials=3, seed=42).ideal


def test_gin_field_guards():
    Rq = make_ring(["x", "y"], [(1,), (1,)], QQ)
    x, y = Rq.gens()
    with pytest.raises(FieldTooSmall):
        gin(Ideal(Rq, [x * y]))
    Rs = make_ring(["x", "y"], [(1,), (1,)], PrimeField(101))
    x, y = Rs.gens()
    with pytest.raises(FieldTooSmall):
        gin(Ideal(Rs, [x * y]))


def _det_nonzero(M, F):
    """Reference: the triangularization gin draws once tested invertibility
    with, kept as the oracle for rank_mod_p."""
    k = len(M)
    M = [row[:] for row in M]
    for col in range(k):
        piv = None
        for r in range(col, k):
            if not F.eq(M[r][col], F.zero):
                piv = r
                break
        if piv is None:
            return False
        M[col], M[piv] = M[piv], M[col]
        inv = F.inv(M[col][col])
        for r in range(col + 1, k):
            c = F.mul(M[r][col], inv)
            if F.eq(c, F.zero):
                continue
            for cc in range(col, k):
                M[r][cc] = F.sub(M[r][cc], F.mul(c, M[col][cc]))
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 32003]), st.data())
def test_full_rank_iff_nonzero_determinant(p, data):
    # small entries make singular matrices common even modulo 32003
    k = data.draw(st.integers(0, 4))
    M = data.draw(
        st.lists(st.lists(st.integers(0, 6), min_size=k, max_size=k), min_size=k, max_size=k)
    )
    F = PrimeField(p)
    M = [[F.coerce(v) for v in row] for row in M]
    assert (rank_mod_p([dict(enumerate(row)) for row in M], p) == k) == _det_nonzero(M, F)


def test_gin_rejects_nonstandard_ring():
    R = make_ring(["x", "y"], [(2,), (1,)], GF32003)
    with pytest.raises(NotStandardGraded):
        gin(Ideal(R, []))


def test_gin_order_must_refine_block_order():
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, y = R.gens()
    bad = MonomialOrder(2, [(0, 1), (1, 0)], "lex")  # ranks y above x
    with pytest.raises(ValueError):
        gin(Ideal(R, [x * y]), order=bad)


def test_gin_threefold_component_structure():
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    G = gin(P).ideal
    assert G.is_squarefree() is False
    comps = primary_decomposition(G)
    assert len(comps) == 9
    mins = {frozenset(Q) for Q in minimal_primes(G)}
    min_lengths = sorted(
        c.length_at_prime for c in comps if frozenset(c.prime) in mins
    )
    assert min_lengths == [2, 2, 2, 4, 4]
    embedded = [c for c in comps if frozenset(c.prime) not in mins]
    assert len(embedded) == 4
    assert all(len(c.prime) == 7 for c in embedded)


def test_gin_commutes_with_contraction():
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    Q = contract(P, [2, 3])
    GQ = gin(Q).ideal
    GP = gin(P).ideal
    assert GQ == contract(GP, [2, 3])


def test_gin_of_contracted_threefold_components():
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    Q = contract(P, [2, 3])  # ring y0..y3, z0..z3
    GQ = gin(Q).ideal
    S = GQ.ring

    def m(**kw):
        e = [0] * 8
        for nm, k in kw.items():
            e[S._index[nm]] = k
        return tuple(e)

    C1 = MonomialIdeal(S, [m(y0=1), m(y1=1), m(y2=2)])
    C2 = MonomialIdeal(S, [m(y0=2), m(y0=1, y1=1), m(y1=3), m(z0=1)])
    C3 = MonomialIdeal(S, [m(y0=2), m(z0=1), m(z1=1)])
    assert GQ == C1.intersect(C2).intersect(C3)


def test_gin_report_accepts_prime():
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    rep = gin_structure_report(P)
    assert rep.ok(), rep.clauses
    assert rep.clauses["borel_fixed"]
    assert rep.clauses["radical_cohen_macaulay"]
    # contraction records cover every nonempty block subset
    assert set(rep.contraction_mlength) == {
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
    }


def test_gin_report_flags_nonprime():
    R = two_block_ring()
    x0, x1, x2, y0, y1, y2 = R.gens()
    J = Ideal(R, [x0 * x0, x0 * x1, x1 * y0, y0 * y0 * y0])
    rep = gin_structure_report(J)
    assert not rep.ok()
    assert not rep.clauses["contraction_mlength_monotone"]


def test_gin_report_on_unit_ideal_is_empty_scheme():
    R = two_block_ring()
    x0, x1, x2, y0, y1, y2 = R.gens()
    with pytest.raises(EmptyScheme):
        gin_structure_report(Ideal(R, [x0, y0, R.one()]))
