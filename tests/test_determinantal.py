import pytest

from conftest import int_monomial, int_one, int_product, int_variable
from mdeg.determinantal import (
    build_determinantal,
    closed_formulas,
    determinantal_ring,
    diagonal_initial,
    k_polynomial_formula,
    minor,
    multidegree_formula,
)
from mdeg.errors import BadShape
from mdeg.hilbert import k_polynomial, multidegree_C
from mdeg.intpoly import IntegerPolynomial
from mdeg.monomial import MonomialIdeal
from mdeg.orders import lex


def test_shape_guards():
    with pytest.raises(BadShape):
        determinantal_ring(3, 2)
    with pytest.raises(BadShape):
        build_determinantal(2, 3, 3)
    with pytest.raises(BadShape):
        multidegree_formula(0, 1)


def test_ring_grading():
    R = determinantal_ring(2, 3)
    assert R.n == 6 and R.p == 5
    assert R.degrees[R._index["x1_2"]] == (1, 0, 0, 1, 0)
    assert R.degrees[R._index["x2_3"]] == (0, 1, 0, 0, 1)


def test_minor_expansion():
    R = determinantal_ring(2, 2)
    f = minor(R, (1, 2), (1, 2))
    a = R.variable("x1_1") * R.variable("x2_2")
    b = R.variable("x1_2") * R.variable("x2_1")
    assert f == a - b


def test_generator_count():
    _, I = build_determinantal(2, 4, 2)
    assert len(I.gens) == 6


def test_diagonal_initial_2x3_explicit():
    R, J = diagonal_initial(2, 3)
    idx = R._index

    def m(*names):
        e = [0] * R.n
        for nm in names:
            e[idx[nm]] = 1
        return tuple(e)

    assert J.gens == frozenset(
        {m("x1_1", "x2_2"), m("x1_1", "x2_3"), m("x1_2", "x2_3")}
    )


def test_diagonal_initial_is_initial_of_minors():
    R, I = build_determinantal(2, 3, 2)
    _, J = diagonal_initial(2, 3)
    assert I.initial_ideal(lex(R)) == J


def _embed_monomial(J, m_src, n_src, ring, n):
    """J_{m_src,n_src} reindexed into the ring of an m x n matrix."""
    gens = []
    for g in J.gens:
        e = [0] * ring.n
        for i in range(m_src):
            for j in range(n_src):
                e[i * n + j] = g[i * n_src + j]
        gens.append(tuple(e))
    return MonomialIdeal(ring, gens)


@pytest.mark.parametrize(
    "m,n", [(m, n) for n in range(3, 7) for m in range(2, n)]
)
def test_diagonal_initial_recursion(m, n):
    # J = x_{m,n} J' + J'' with J' = J_{m-1,n-1}, J'' = J_{m,n-1},
    # equivalently J : x_{m,n} = J' and J + (x_{m,n}) = J'' + (x_{m,n})
    ring, J = diagonal_initial(m, n)
    x = tuple(int(k == (m - 1) * n + (n - 1)) for k in range(ring.n))
    Jp = _embed_monomial(diagonal_initial(m - 1, n - 1)[1], m - 1, n - 1, ring, n)
    Js = _embed_monomial(diagonal_initial(m, n - 1)[1], m, n - 1, ring, n)
    assert J.colon_monomial(x) == Jp
    assert J.add_monomial(x) == Js.add_monomial(x)


def test_multidegree_formula_term_count_and_values():
    H = multidegree_formula(2, 3)
    assert len(H.terms) == 12
    assert all(c == 1 for c in H.terms.values())
    assert all(sum(e) == 2 for e in H.terms)
    # squarefree in the column variables
    assert all(max(e[2:]) <= 1 for e in H.terms)


def test_square_case_multidegree():
    # for a square matrix the single maximal minor is a hypersurface:
    # C is the sum of all m + m variables
    H = multidegree_formula(3, 3)
    assert H == IntegerPolynomial(
        6, {tuple(int(i == j) for i in range(6)): 1 for j in range(6)}
    )


def test_row_case_k_polynomial_factors():
    # I_1 of a 1 x n matrix is generated by all entries:
    # K = prod_j (1 - t s_j)
    n = 4
    K = k_polynomial_formula(1, n)
    acc = int_one(1 + n)
    for j in range(n):
        e = [0] * (1 + n)
        e[0] = 1
        e[1 + j] = 1
        acc = int_product(acc, int_one(1 + n) - int_monomial(tuple(e)))
    assert K == acc


def test_formulas_match_groebner_computation():
    for m, n in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        _, I = build_determinantal(m, n, m)
        H, K = closed_formulas(m, n)
        assert multidegree_C(I) == H, (m, n)
        assert k_polynomial(I) == K, (m, n)


def _embed(poly, m_src, n_src, m, n):
    """Reindex a (m_src + n_src)-variable polynomial into m + n variables,
    keeping t_1..t_{m_src} and s_1..s_{n_src}."""
    out = {}
    for e, c in poly.terms.items():
        t = e[:m_src] + (0,) * (m - m_src)
        s = e[m_src:] + (0,) * (n - n_src)
        out[t + s] = c
    return IntegerPolynomial(m + n, out)


def test_recursions_asserted_on_larger_shapes():
    # the defining recursions of H = H_{m,n} and K = K(R/I_m), with
    # a = (m, n - 1), b = (m - 1, n - 1):
    #   H = (s_n + t_m) H_a + H_b,  K = (1 - t_m s_n) K_a + t_m s_n K_b
    for n in range(3, 6):
        for m in range(2, n):
            p = m + n
            tm, sn = int_variable(p, m - 1), int_variable(p, p - 1)
            H, K = closed_formulas(m, n)
            Ha = _embed(multidegree_formula(m, n - 1), m, n - 1, m, n)
            Hb = _embed(multidegree_formula(m - 1, n - 1), m - 1, n - 1, m, n)
            assert H == int_product(sn, Ha) + int_product(tm, Ha) + Hb, (m, n)
            Ka = _embed(k_polynomial_formula(m, n - 1), m, n - 1, m, n)
            Kb = _embed(k_polynomial_formula(m - 1, n - 1), m - 1, n - 1, m, n)
            one = int_one(p)
            tmsn = int_product(tm, sn)
            assert K == int_product(one - tmsn, Ka) + int_product(tmsn, Kb), (m, n)
