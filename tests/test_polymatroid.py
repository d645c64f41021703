import importlib.util
import pathlib
import random
import time
from fractions import Fraction
from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from conftest import SURFACE_CEE_TERMS
from mdeg.hilbert import multidegree_C
from mdeg.inputlang import parse_input
from mdeg.intpoly import IntegerPolynomial
from mdeg.polymatroid import _hull_points, exchange_check, hull_rows, snp_check, support_points
from ref_polymatroid import affine_equations, in_convex_hull

JOBS = pathlib.Path(__file__).resolve().parent.parent / "mdegbench" / "jobs.py"


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


def in_rows(q, rows):
    """Is q in the hull whose hull_rows are `rows`?"""
    equations, facets = rows
    v = (1, *q)
    dot = [sum(a * b for a, b in zip(y, v)) for y in equations + facets]
    return not any(dot[: len(equations)]) and min(dot[len(equations) :], default=0) >= 0


def test_hull_membership_exact():
    pts = [(0, 0), (2, 0), (0, 2)]
    rows = hull_rows(pts)
    for q, inside in [((1, 1), True), ((0, 1), True), ((2, 1), False), ((-1, 0), False)]:
        assert in_convex_hull(q, pts) == in_rows(q, rows) == inside
    # x >= 0, y >= 0, x + y <= 2: three facets, no equation
    assert sorted(map(tuple, rows[1])) == [(0, 0, 1), (0, 1, 0), (2, -1, -1)] and rows[0] == []


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
    """Reference for hull membership: by Caratheodory, q is in the hull
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
    inside = caratheodory_in_hull(q, points)
    assert in_convex_hull(q, points) == in_convex_hull(q, points[::-1]) == inside
    assert in_rows(q, hull_rows(sorted(points))) == in_rows(q, hull_rows(sorted(points, reverse=True))) == inside
    assert in_rows(q, hull_rows(points)) == inside


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
def test_hull_rows_cut_out_the_affine_hull(case):
    """The equations of hull_rows are p - dim independent rows that every
    point meets, as those of the oracle affine_equations are, and span the
    same rows; a lattice point near the set is in the hull by the rows
    exactly when the LP says so."""
    points, queries = case
    pts = sorted(points)
    p = len(pts[0])
    equations, facets = rows = hull_rows(pts)
    assert all(sum(a * b for a, b in zip(y, (1, *q))) == 0 for y in equations for q in pts)
    dim = rank([[x - y for x, y in zip(q, pts[0])] for q in pts[1:]])
    assert len(equations) == p - dim and rank(equations) == len(equations)
    oracle = [(-b, *a) for a, b in affine_equations(points)]
    assert len(oracle) == len(equations) and rank(equations + oracle) == len(equations)
    # a facet row is no equation: some point is off its hyperplane
    assert all(any(sum(a * b for a, b in zip(y, (1, *q))) for q in pts) for y in facets)
    for q in queries + pts:
        assert in_rows(q, rows) == in_convex_hull(q, pts)


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
    # off the line x = y: each breaks the one equation row
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


def test_snp_of_a_triangle_of_631_points():
    # (0, 0), (40, 20), (20, 40): x <= 2y, y <= 2x and x + y <= 60
    pts = {(x, y) for x in range(41) for y in range(41) if x <= 2 * y and y <= 2 * x and x + y <= 60}
    assert len(pts) == 631 and snp_check(pts) == (True, None)
    assert snp_check(pts - {(20, 20)}) == (False, (20, 20))


def test_snp_of_the_2_minors_multidegrees():
    # the support of C of a prime is M-convex (Branden-Huh 2020), hence
    # saturated: 432 points for the 3x4 2-minors, 4,096 for the 4x4 ones
    spec = importlib.util.spec_from_file_location("jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    for m, size in [(3, 432), (4, 4096)]:
        I = parse_input(jobs.minors_ring_text(m, 4, 2, random.Random(0))).ideal("I")
        pts = support_points(multidegree_C(I))
        assert len(pts) == size and snp_check(pts) == (True, None)


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
