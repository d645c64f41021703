"""The LP hull membership and the affine-hull equations that snp_check
used before it read the hull off an H-representation: reference oracles
for mdeg.polymatroid.hull_rows."""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def simplex_feasible(A, b):
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
    return simplex_feasible(A, b)


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
