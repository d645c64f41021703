import random

from hypothesis import given, settings, strategies as st

from conftest import SURFACE_CEE_TERMS
from mdeg.intpoly import IntegerPolynomial
from mdeg.polymatroid import (
    exchange_check,
    in_convex_hull,
    newton_polytope_points,
    snp_check,
    support_points,
)


def test_exchange_positive_matroid_bases():
    # graphic matroid of a triangle: bases = edge pairs; and its dual, the
    # rank-1 uniform matroid on 3 elements
    for pts in ({(1, 1, 0), (1, 0, 1), (0, 1, 1)}, {(1, 0, 0), (0, 1, 0), (0, 0, 1)}):
        ok, w = exchange_check(pts)
        assert ok and w is None


def test_exchange_positive_threefold_support():
    ok, w = exchange_check(set(SURFACE_CEE_TERMS))
    assert ok and w is None


def test_exchange_negative_with_witness():
    pts = {(2, 0), (0, 2)}  # missing the middle point (1, 1)
    ok, w = exchange_check(pts)
    assert not ok
    u, v, i = w
    assert u in pts and v in pts and u[i] > v[i]


def test_exchange_rejects_mixed_degrees():
    ok, w = exchange_check({(1, 0), (1, 1)})
    assert not ok
    assert sorted(w) == [(1, 0), (1, 1)]


def test_polymatroid_from_truncated_modular_rank():
    # the 7 bases of the polymatroid of r(J) = min(|J| + 1, 3) on 3 elements
    pts = {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)}
    ok, _ = exchange_check(pts)
    assert ok


def test_minkowski_sum_of_bases_is_bases():
    # {(1, 0), (0, 1)} + {(2, 0), (1, 1), (0, 2)}
    ok, _ = exchange_check({(3, 0), (2, 1), (1, 2), (0, 3)})
    assert ok


def test_hull_membership_exact():
    pts = [(0, 0), (2, 0), (0, 2)]
    assert in_convex_hull((1, 1), pts)
    assert in_convex_hull((0, 1), pts)
    assert not in_convex_hull((2, 1), pts)


def test_newton_polytope_points_triangle():
    pts = newton_polytope_points({(0, 0), (2, 0), (0, 2)})
    assert pts == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)}


def test_snp_positive_and_negative():
    poly = IntegerPolynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    ok, w = snp_check(support_points(poly))
    assert ok and w is None
    ok, w = snp_check({(2, 0), (0, 2)})
    assert not ok
    assert w == (1, 1)


def test_snp_of_threefold_multidegree():
    ok, w = snp_check(set(SURFACE_CEE_TERMS))
    assert ok, w


def test_support_points():
    poly = IntegerPolynomial(2, {(1, 0): 3, (0, 1): -1})
    assert support_points(poly) == {(1, 0), (0, 1)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_exchange_sets_are_snp(seed):
    # a base set satisfying exchange is M-convex, hence hull-saturated
    rng = random.Random(seed)
    p = rng.randrange(2, 4)
    d = rng.randrange(1, 4)
    cand = set()
    for _ in range(rng.randrange(1, 6)):
        q = [0] * p
        for _ in range(d):
            q[rng.randrange(p)] += 1
        cand.add(tuple(q))
    ok, _ = exchange_check(cand)
    if ok:
        sat, w = snp_check(cand)
        assert sat, (cand, w)
