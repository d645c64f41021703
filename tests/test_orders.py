import pytest
from hypothesis import given, strategies as st

from mdeg.errors import MdegError
from mdeg.orders import MonomialOrder, elimination_order, grevlex, lex, weight_order
from mdeg.ring import make_ring
from tuple_kernel import compare, order_key

R3 = make_ring(["x", "y", "z"], [(1,), (1,), (1,)])


def test_grevlex_classics():
    o = grevlex(R3)
    # y^2 > xz in grevlex (same degree; smallest last exponent wins)
    assert compare(o, (0, 2, 0), (1, 0, 1)) == 1
    assert compare(o, (1, 1, 0), (1, 0, 1)) == 1
    assert compare(o, (0, 0, 1), (0, 0, 0)) == 1


def test_lex_classics():
    o = lex(R3)
    assert compare(o, (1, 0, 0), (0, 5, 5)) == 1
    assert compare(o, (0, 1, 0), (0, 0, 7)) == 1


def test_elimination_order_blocks():
    o = elimination_order(R3.n, [0])
    # any monomial containing x beats any x-free monomial
    assert compare(o, (1, 0, 0), (0, 9, 9)) == 1


def test_well_order_guard():
    with pytest.raises(MdegError):
        MonomialOrder(2, [(-1, 0)])
    # a negative weight below a positive row is fine
    MonomialOrder(2, [(1, 1), (-1, 0)])


def test_full_weight_rows_reproduce_order():
    for o in (grevlex(R3), lex(R3), weight_order(R3, [(2, 1, 1)])):
        full = MonomialOrder(3, o.full_weight_rows(), "lex")
        pairs = [
            ((1, 2, 0), (0, 1, 3)),
            ((2, 0, 0), (1, 1, 0)),
            ((0, 0, 2), (0, 1, 1)),
            ((1, 1, 1), (3, 0, 0)),
        ]
        for a, b in pairs:
            assert compare(o, a, b) == compare(full, a, b)


exps = st.tuples(*[st.integers(0, 6)] * 3)


@given(exps, exps, exps)
def test_order_multiplicative(a, b, c):
    o = grevlex(R3)
    cmp = compare(o, a, b)
    shifted = compare(
        o, tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c))
    )
    assert cmp == shifted


@given(exps, exps)
def test_order_total_and_antisymmetric(a, b):
    o = lex(R3)
    assert compare(o, a, b) == -compare(o, b, a)


def test_diagonal_order_leads_with_diagonal():
    from mdeg.determinantal import determinantal_ring, minor

    ring = determinantal_ring(2, 3)
    o = lex(ring)
    f = minor(ring, (1, 2), (1, 3))  # x11*x23 - x13*x21
    lead = max(f.terms, key=order_key(o))
    e = [0] * 6
    e[0] = 1  # x1_1
    e[5] = 1  # x2_3
    assert lead == tuple(e)
