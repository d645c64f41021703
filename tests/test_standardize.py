import random

from mdeg.determinantal import build_determinantal
from mdeg.fields import GF32003
from mdeg.groebner import Ideal
from mdeg.monomial import MonomialIdeal
from mdeg.orders import grevlex, lex, weight_order
from mdeg.ring import make_ring
from mdeg.standardize import (
    cs_check,
    standardize,
    standardize_ideal,
    verify_standardization,
)


def test_standard_ring_gets_identity_map():
    R = make_ring(["x", "y"], [(1, 0), (0, 1)])
    m = standardize(R)
    assert m.source is m.target is R
    assert m.phi_exponents((2, 3)) == (2, 3)


def test_fine_matrix_grading_splits_into_two_copies():
    R, _ = build_determinantal(2, 3, 2)
    m = standardize(R)
    assert m.target is not m.source
    assert m.target.n == 2 * R.n
    assert m.target.is_standard
    # each x_{i,j} of degree e_i + f_j gets one copy per block it touches
    for i in range(R.n):
        assert len(m.copy_index[i]) == 2
        di, dj = (m.target.degrees[j] for j in m.copy_index[i])
        assert tuple(a + b for a, b in zip(di, dj)) == R.degrees[i]


def test_name_clash_resolved_with_primes():
    R = make_ring(["x", "x_1"], [(2,), (1,)])
    m = standardize(R)
    assert len(set(m.target.names)) == 3


def test_phi_multiplicativity():
    R = make_ring(["x", "y", "z"], [(1,), (1,), (2,)])
    m = standardize(R)
    x, y, z = R.gens()
    f = x * y - z
    img = m.phi(f * f)
    assert img == m.phi(f) * m.phi(f)


def test_verify_standardization_binomial_weighted():
    R = make_ring(["x", "y", "z"], [(1,), (1,), (2,)])
    x, y, z = R.gens()
    I = Ideal(R, [x * y - z])
    assert all(verify_standardization(I).values())


def test_verify_standardization_two_block_weighted():
    R = make_ring(["a", "b", "c"], [(1, 0), (0, 1), (1, 1)])
    a, b, c = R.gens()
    I = Ideal(R, [a * b - c])
    assert all(verify_standardization(I).values())


def test_verify_standardization_determinantal_fine():
    _, I = build_determinantal(2, 3, 2)
    assert all(verify_standardization(I).values())


def test_verify_standardization_random_monomial_batch():
    rng = random.Random(5)
    for _ in range(10):
        p = rng.randrange(1, 3)
        n = rng.randrange(2, 5)
        degs = []
        for _ in range(n):
            d = tuple(rng.randrange(0, 3) for _ in range(p))
            degs.append(d if any(d) else (1,) * p)
        R = make_ring([f"w{i}" for i in range(n)], degs)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(0, 3) for _ in range(n))
            if any(e):
                gens.append(e)
        if not gens:
            continue
        I = MonomialIdeal(R, gens)
        rep = verify_standardization(I)
        assert all(rep.values()), (degs, gens, rep)


def test_verify_standardization_random_binomial_batch():
    rng = random.Random(11)
    count = 0
    while count < 10:
        n = rng.randrange(3, 5)
        degs = [(rng.randrange(1, 3),) for _ in range(n)]
        R = make_ring([f"w{i}" for i in range(n)], degs)
        # pair up two random monomials of equal total weight
        e1 = tuple(rng.randrange(0, 3) for _ in range(n))
        e2 = tuple(rng.randrange(0, 3) for _ in range(n))
        w = lambda e: sum(a * d[0] for a, d in zip(e, degs))
        if e1 == e2 or w(e1) != w(e2) or not any(e1):
            continue
        from mdeg.ring import Polynomial

        f = Polynomial(R, {e1: R.field.one, e2: R.field.neg(R.field.one)})
        rep = verify_standardization(Ideal(R, [f]))
        assert all(rep.values()), (degs, e1, e2, rep)
        count += 1


def test_standardize_ideal_of_monomial_input_is_monomial():
    R = make_ring(["x", "y"], [(2,), (1,)])
    I = MonomialIdeal(R, [(1, 1)])
    J, m = standardize_ideal(I)
    assert isinstance(J, MonomialIdeal)
    assert J.gens == frozenset({m.phi_exponents((1, 1))})


def test_cs_positive_maximal_minors():
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        _, I = build_determinantal(m, n, m, GF32003)
        v = cs_check(I)
        assert v.is_cs, (m, n, v.detail)
        assert v.gin.is_squarefree()


def test_cs_negative_submaximal_minors():
    _, I = build_determinantal(3, 3, 2, GF32003)
    v = cs_check(I)
    assert not v.is_cs


def test_cs_negative_fat_point():
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, _ = R.gens()
    v = cs_check(Ideal(R, [x * x]))
    assert not v.is_cs
    assert "non-squarefree" in v.detail


def test_cs_paranoid_agrees():
    _, I = build_determinantal(2, 3, 2, GF32003)
    v = cs_check(I, paranoid=True)
    assert v.is_cs


def test_cs_positive_has_squarefree_initial_under_sampled_orders():
    _, I = build_determinantal(2, 3, 2, GF32003)
    J, _ = standardize_ideal(I)
    S = J.ring
    rng = random.Random(3)
    orders = [
        grevlex(S),
        lex(S),
        weight_order(S, [tuple(rng.randrange(1, 9) for _ in range(S.n))]),
    ]
    for o in orders:
        assert J.initial_ideal(o).is_squarefree()
