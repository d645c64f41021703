import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    evaluate,
    ge_coefficientwise,
    int_one,
    int_product,
    int_variable,
    series_expansion,
    total_degree_part,
)
from mdeg.determinantal import build_determinantal
from mdeg.hilbert import k_polynomial
from mdeg.intpoly import IntegerPolynomial


def P(p, d):
    return IntegerPolynomial(p, d)


def test_one_minus_t_substitution():
    # K = 1 - t1*t2 -> 1 - (1-t1)(1-t2) = t1 + t2 - t1*t2
    k = P(2, {(0, 0): 1, (1, 1): -1})
    s = k.substitute_one_minus_t()
    assert s == P(2, {(1, 0): 1, (0, 1): 1, (1, 1): -1})


def test_substitution_is_involution():
    k = P(2, {(2, 0): 3, (1, 1): -1, (0, 0): 2})
    assert k.substitute_one_minus_t().substitute_one_minus_t() == k


def test_only_an_integer_scales():
    f = P(2, {(1, 0): 2, (0, 0): -1})
    assert 3 * f == f * 3 == P(2, {(1, 0): 6, (0, 0): -3})
    for other in (f, 1.5, "2"):
        with pytest.raises(TypeError):
            f * other


def test_total_degree_part_and_support():
    f = P(2, {(1, 0): 1, (0, 1): 2, (1, 1): -5})
    assert total_degree_part(f, 1) == P(2, {(1, 0): 1, (0, 1): 2})
    assert f.min_total_degree() == 1


def test_ge_coefficientwise():
    a = P(1, {(1,): 3, (2,): 1})
    b = P(1, {(1,): 2})
    assert ge_coefficientwise(a, b)
    assert not ge_coefficientwise(b, a)


def test_series_expansion_polynomial_ring():
    # K = 1 over k[x, y] with deg x = (1,0), deg y = (0,1):
    # HF(a, b) = 1 everywhere
    table = series_expansion(int_one(2), [(1, 0), (0, 1)], (3, 3))
    assert all(v == 1 for v in table.values())
    assert len(table) == 16


def test_series_expansion_principal():
    # S/(x^2) in one standard block of two variables
    k = P(1, {(0,): 1, (2,): -1})
    table = series_expansion(k, [(1,), (1,)], (5,))
    assert [table[(d,)] for d in range(6)] == [1, 2, 2, 2, 2, 2]


def test_json_canonical_order():
    f = P(2, {(1, 1): -1, (0, 0): 1})
    assert f.to_json_obj() == [
        {"exp": [0, 0], "coeff": "1"},
        {"exp": [1, 1], "coeff": "-1"},
    ]


coeffs = st.integers(-9, 9)
terms = st.dictionaries(st.tuples(coeffs.map(abs), coeffs.map(abs)), coeffs, max_size=5)


@given(terms, terms)
def test_ring_axioms(da, db):
    a, b = P(2, da), P(2, db)
    assert a + b == b + a
    assert int_product(a, b) == int_product(b, a)
    assert (a - a).terms == {}
    assert (a + b).substitute_one_minus_t() == a.substitute_one_minus_t() + b.substitute_one_minus_t()


@given(terms, terms)
def test_substitution_multiplicative(da, db):
    a, b = P(2, da), P(2, db)
    sa, sb = a.substitute_one_minus_t(), b.substitute_one_minus_t()
    assert int_product(a, b).substitute_one_minus_t() == int_product(sa, sb)


def _substitute_one_minus_t_reference(f):
    """The term-by-term kernel the per-variable passes replaced: each term
    c*t^e becomes c * prod (1 - t_i)^e_i, added to the running sum."""
    # cache (1-t_i)^k powers as they recur across terms
    powers = [{} for _ in range(f.p)]

    def pw(i, k):
        cache = powers[i]
        if k not in cache:
            if k == 0:
                cache[k] = int_one(f.p)
            else:
                lin = int_one(f.p) - int_variable(f.p, i)
                cache[k] = int_product(pw(i, k - 1), lin)
        return cache[k]

    out = IntegerPolynomial(f.p)
    for e, c in f.terms.items():
        term = IntegerPolynomial(f.p, {(0,) * f.p: c})
        for i, k in enumerate(e):
            if k:
                term = int_product(term, pw(i, k))
        out = out + term
    return out


@st.composite
def polys(draw, max_terms=6):
    p = draw(st.integers(0, 7))
    exps = st.tuples(*[st.integers(0, 4)] * p)
    return P(p, draw(st.dictionaries(exps, st.integers(-50, 50), max_size=max_terms)))


@settings(deadline=None)
@given(polys())
@example(P(3, {}))
@example(P(0, {(): -4}))
@example(P(4, {(0, 0, 0, 0): 7}))
@example(P(1, {(4,): -3, (0,): 2}))
def test_substitution_matches_reference(f):
    assert f.substitute_one_minus_t() == _substitute_one_minus_t_reference(f)


@settings(deadline=None)
@given(polys(max_terms=12), st.lists(st.integers(-6, 6), min_size=7, max_size=7))
def test_substitution_evaluates_at_one_minus_t(f, v):
    v = v[: f.p]
    assert evaluate(f.substitute_one_minus_t(), v) == evaluate(f, [1 - x for x in v])


# the det jobs of the benchmark: three r = 2 shapes and every maximal-minor
# shape up to 4x4
DET_SHAPES = [(3, 4, 2), (3, 3, 2), (2, 5, 2)] + [
    (m, n, m) for n in range(1, 5) for m in range(1, n + 1)
]


def test_substitution_of_determinantal_k_polynomials():
    rng = random.Random(0)
    for m, n, r in DET_SHAPES:
        K = k_polynomial(build_determinantal(m, n, r)[1])
        sub = K.substitute_one_minus_t()
        assert sub == _substitute_one_minus_t_reference(K), (m, n, r)
        for _ in range(3):
            v = [rng.randint(-5, 5) for _ in range(K.p)]
            assert evaluate(sub, v) == evaluate(K, [1 - x for x in v]), (m, n, r, v)
