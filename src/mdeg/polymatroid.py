"""Discrete polymatroids and saturated Newton polytopes.

The support of the multidegree of a prime is expected to be the base set
of a discrete polymatroid; exchange_check tests the M-convex exchange
axiom directly and returns a witness on failure.  snp_check compares a
set of lattice points, such as the support of a polynomial, with the
lattice points of its convex hull up to the first one missing, using an
exact rational feasibility LP for hull membership, run only on points
that satisfy the integer equations of the set's affine hull.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def support_points(poly):
    """Support of an IntegerPolynomial as a set of lattice points."""
    return set(poly.terms)


def exchange_check(points):
    """M-convex exchange axiom on a finite set of lattice points.

    All points must share their total degree (a base set).  For every u, v
    and every i with u_i > v_i there must be j with u_j < v_j such that
    u - e_i + e_j stays in the set.  Returns (True, None), or (False, w)
    with a witness w: a pair (u, v) of points of different total degrees,
    or a triple (u, v, i) whose exchange fails.
    """
    pts = {tuple(q) for q in points}
    degs = {sum(q) for q in pts}
    if len(degs) > 1:
        a = next(iter(pts))
        return False, (a, next(q for q in pts if sum(q) != sum(a)))
    for u in pts:
        for v in pts:
            for i in range(len(u)):
                if u[i] <= v[i]:
                    continue
                ok = False
                for j in range(len(u)):
                    if u[j] < v[j]:
                        w = list(u)
                        w[i] -= 1
                        w[j] += 1
                        if tuple(w) in pts:
                            ok = True
                            break
                if not ok:
                    return False, (u, v, i)
    return True, None


def _simplex_feasible(A, b):
    """Is {x >= 0 : A x = b} nonempty?  Exact phase-1 simplex, Bland's rule.

    A: a nonempty list of rows (lists of Fractions), b: list of Fractions.
    """
    m = len(A)
    n = len(A[0])
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    # tableau with artificial basis; columns 0..n-1 real, n..n+m-1 artificial
    T = [A[i] + [Fraction(int(k == i)) for k in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # objective: minimize sum of artificials; cost row in terms of nonbasic
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for k in range(n + m + 1):
            cost[k] += T[i][k]
    total = n + m
    while True:
        # only real columns enter: the cost row sums the rows, which is an
        # artificial column's reduced cost plus 1
        enter = -1
        for k in range(n):
            if k not in basis and cost[k] > 0:
                enter = k
                break
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][total] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            break  # unbounded cannot happen for phase 1; safety
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                c = T[i][enter]
                T[i] = [v - c * w for v, w in zip(T[i], T[leave])]
        c = cost[enter]
        cost = [v - c * w for v, w in zip(cost, T[leave])]
        basis[leave] = enter
    return cost[total] == 0


def in_convex_hull(q, points):
    """Exact test: is q a convex combination of the given lattice points?"""
    pts = [tuple(v) for v in points]
    p = len(q)
    A = [[Fraction(v[k]) for v in pts] for k in range(p)]
    A.append([Fraction(1)] * len(pts))
    b = [Fraction(x) for x in q] + [Fraction(1)]
    return _simplex_feasible(A, b)


def affine_equations(points):
    """Integer equations (a, b), each a . x = b, that cut out the affine
    hull of the nonempty set `points`, p - dim of them: one per free
    column of the differences from one point, brought to reduced echelon
    form by integer row operations."""
    base, *rest = points
    rows = [[x - y for x, y in zip(q, base)] for q in rest]
    pivots = []  # the pivot column of each row of the echelon form so far
    for col in range(len(base)):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                row = [pivot[col] * v - row[col] * w for v, w in zip(row, pivot)]
                g = gcd(*row) or 1
                rows[i] = [v // g for v in row]
        pivots.append(col)
    # row r reads rows[r][c_r] x_{c_r} + (its free columns) = 0
    scale = lcm(*(row[col] for row, col in zip(rows, pivots)))
    equations = []
    for free in (col for col in range(len(base)) if col not in pivots):
        a = [0] * len(base)
        a[free] = scale
        for row, col in zip(rows, pivots):
            a[col] = -row[free] * scale // row[col]
        g = gcd(*a)
        a = [v // g for v in a]
        equations.append((a, sum(map(mul, a, base))))
    return equations


def _hull_points(support):
    """The lattice points of the convex hull of the set `support`, in lex
    order: each point of the bounding box whose total degree is in the
    support's range and that is in the support, or that lies on the
    support's affine hull and passes the exact LP."""
    lo = [min(c) for c in zip(*support)]
    hi = [max(c) for c in zip(*support)]
    dlo, dhi = min(map(sum, support)), max(map(sum, support))
    equations = affine_equations(support)

    def walk(prefix, k):
        # only values the later coordinates can complete to a degree in range
        total = sum(prefix)
        first = max(lo[k], dlo - total - sum(hi[k + 1 :]))
        last = min(hi[k], dhi - total - sum(lo[k + 1 :]))
        for x in range(first, last + 1):
            q = prefix + (x,)
            if k + 1 < len(lo):
                yield from walk(q, k + 1)
            elif q in support or (
                all(sum(map(mul, a, q)) == b for a, b in equations) and in_convex_hull(q, support)
            ):
                yield q

    return walk((), 0)


def snp_check(points):
    """Saturated Newton polytope: the lattice points `points`, such as
    support_points of a polynomial, are all the lattice points of their
    convex hull.  Returns (True, None) or (False, witness) with the first
    missing lattice point in lexicographic order; the walk stops there.
    """
    supp = {tuple(q) for q in points}
    if not supp:
        return True, None
    missing = next((q for q in _hull_points(supp) if q not in supp), None)
    return missing is None, missing
