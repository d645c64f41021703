import random
import time
from fractions import Fraction
from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from conftest import SURFACE_CEE_TERMS
from mdeg.intpoly import IntegerPolynomial
from mdeg.polymatroid import (
    _hull_points,
    affine_equations,
    exchange_check,
    in_convex_hull,
    snp_check,
    support_points,
)


def newton_polytope_points(support):
    """All lattice points of the convex hull of the support: the walk that
    snp_check stops at the first missing point, run to its end."""
    return set(_hull_points({tuple(q) for q in support}))


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


def unique_solution(A, b):
    """The one solution of A x = b over QQ, or None when there is none or
    more than one, by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(v) for v in row] + [Fraction(c)] for row, c in zip(A, b)]
    n = len(A[0])
    pivots = []
    for col in range(n):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if r is None:
            return None
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        rows[k] = [v / rows[k][col] for v in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][col]:
                rows[i] = [v - rows[i][col] * w for v, w in zip(rows[i], rows[k])]
        pivots.append(col)
    if any(row[-1] for row in rows[n:]):
        return None
    return [rows[k][-1] for k in range(n)]


def caratheodory_in_hull(q, points):
    """Reference for in_convex_hull: by Caratheodory, q is in the hull
    exactly when it is a convex combination of an affinely independent set
    of at most len(q) + 1 of the points, whose weights are then unique."""
    pts = sorted(points)
    for size in range(1, min(len(pts), len(q) + 1) + 1):
        for sub in combinations(pts, size):
            A = [[v[k] for v in sub] for k in range(len(q))] + [[1] * size]
            x = unique_solution(A, list(q) + [1])
            if x is not None and min(x) >= 0:
                return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda p: st.tuples(
            st.tuples(*[st.integers(-2, 3)] * p),
            st.lists(st.tuples(*[st.integers(-2, 3)] * p), min_size=1, max_size=5),
        )
    )
)
def test_hull_membership_matches_caratheodory(case):
    # negative coordinates too, and the points in either order: the LP once
    # let a column that had left the basis enter again, and answered by the
    # order of the points
    q, points = case
    assert in_convex_hull(q, points) == caratheodory_in_hull(q, points)
    assert in_convex_hull(q, points[::-1]) == caratheodory_in_hull(q, points)


def rank(rows):
    """Rank over QQ of a list of integer rows, by Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is not None:
            rows[r], rows[k] = rows[k], rows[r]
            for i in range(r + 1, len(rows)):
                c = rows[i][col] / rows[r][col]
                rows[i] = [v - c * w for v, w in zip(rows[i], rows[r])]
            r += 1
    return r


@st.composite
def flat_point_sets(draw):
    """1 to 5 lattice points base + sum c_j d_j, in up to p drawn
    directions d_j of Z^p, p <= 3, so that the set is mostly not full
    dimensional, and up to 10 lattice points next to them."""
    p = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * p)
    base = draw(vectors)
    directions = draw(st.lists(vectors, max_size=p))
    points = {base}
    for _ in range(draw(st.integers(0, 4))):
        cs = [draw(st.integers(-2, 2)) for _ in directions]
        points.add(tuple(b + sum(c * d[k] for c, d in zip(cs, directions)) for k, b in enumerate(base)))
    near = st.tuples(st.sampled_from(sorted(points)), st.tuples(*[st.integers(-1, 1)] * p))
    queries = [tuple(map(sum, zip(q, step))) for q, step in draw(st.lists(near, max_size=10))]
    return points, queries


@settings(max_examples=200, deadline=None)
@given(flat_point_sets())
def test_affine_equations_cut_out_the_affine_hull(case):
    """p - dim independent equations that every point satisfies, so that
    they cut out the affine hull; a lattice point near the set that breaks
    one is outside the convex hull, which the LP confirms."""
    points, queries = case
    pts = sorted(points)
    p = len(pts[0])
    equations = affine_equations(points)
    assert all(sum(a_k * x_k for a_k, x_k in zip(a, q)) == b for a, b in equations for q in pts)
    dim = rank([[x - y for x, y in zip(q, pts[0])] for q in pts[1:]])
    assert len(equations) == p - dim and rank([a for a, _ in equations]) == len(equations)
    for q in queries:
        if any(sum(a_k * x_k for a_k, x_k in zip(a, q)) != b for a, b in equations):
            assert not in_convex_hull(q, pts)


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
    # a bounding box of 20001^2 points, whose degree slice holds 20001: the
    # walk stops at the slice's second point, the first one missing
    assert snp_check({(20000, 0), (0, 20000)}) == (False, (1, 19999))
    # a slice of the whole box, whose first 20001 points in lex order are
    # off the line x = y: none of them needs an LP
    start = time.perf_counter()
    assert snp_check({(0, 0), (20000, 20000)}) == (False, (1, 1))
    assert time.perf_counter() - start < 0.5


def box_walk_hull_points(support):
    """Reference: the lattice points of the convex hull of the support, by
    the LP on every point of the bounding box whose total degree is in
    range, as newton_polytope_points walked before it kept to the degree
    slice."""
    pts = [tuple(q) for q in support]
    p = len(pts[0])
    lo = [min(q[k] for q in pts) for k in range(p)]
    hi = [max(q[k] for q in pts) for k in range(p)]
    dlo = min(sum(q) for q in pts)
    dhi = max(sum(q) for q in pts)
    return {
        q
        for q in product(*(range(lo[k], hi[k] + 1) for k in range(p)))
        if dlo <= sum(q) <= dhi and in_convex_hull(q, pts)
    }


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda p: st.sets(st.tuples(*[st.integers(-2, 3)] * p), min_size=1, max_size=5)
    )
)
def test_hull_points_match_the_box_walk(points):
    # mixed total degrees too: the slice is then several hyperplanes thick
    hull = box_walk_hull_points(points)
    assert newton_polytope_points(points) == hull
    missing = sorted(hull - points)
    assert snp_check(points) == (not missing, missing[0] if missing else None)


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
