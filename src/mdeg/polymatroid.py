"""Discrete polymatroids and saturated Newton polytopes.

The support of the multidegree of a prime is expected to be the base set
of a discrete polymatroid; exchange_check tests the M-convex exchange
axiom directly and returns a witness on failure.  snp_check compares a
set of lattice points, such as the support of a polynomial, with the
lattice points of its convex hull up to the first one missing.  Hull
membership reads one exact H-representation of the hull, integer
equations and facet inequalities that hull_rows works out by double
description once per check, and only when a point outside the set needs
it.
"""

from math import gcd
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


def _primitive(v):
    """The nonzero int vector v divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v]


def hull_rows(points):
    """Integer rows (equations, facets) of the convex hull of the nonempty
    list `points`: q lies in the hull exactly when y . (1, q) is 0 for every
    equation y and >= 0 for every facet y.  They are a lineality basis and
    the extreme rays of the cone {y : y . (1, q) >= 0 for q in points}, by
    double description on ints (Fukuda-Prodon 1996), one point at a time
    in the order given; two rays combine only when adjacent, as read off
    bit masks of the points each ray is tight at."""
    n = len(points[0]) + 1
    lineality = [[int(i == j) for j in range(n)] for i in range(n)]
    rays = []  # (mask of the points the ray is tight at, ray)
    for bit, q in enumerate(points):
        a = (1, *q)
        dots = [sum(map(mul, a, l)) for l in lineality]
        k = next((i for i, c in enumerate(dots) if c), None)
        if k is not None:
            # a lineality vector that a does not meet at 0 turns into the ray
            # l with a . l > 0 (times c, then primitive: no sign test); the
            # other rows are moved along l into the hyperplane a . y = 0
            c = dots.pop(k)
            l = _primitive([c * v for v in lineality.pop(k)])
            d = sum(map(mul, a, l))
            lineality = [_primitive([d * v - e * w for v, w in zip(m, l)]) for m, e in zip(lineality, dots)]
            rays = [
                (mask | 1 << bit, _primitive([d * v - sum(map(mul, a, r)) * w for v, w in zip(r, l)]))
                for mask, r in rays
            ]
            rays.append(((1 << bit) - 1, l))
            continue
        signs = [sum(map(mul, a, r)) for _, r in rays]
        pos = [(mask, r, s) for (mask, r), s in zip(rays, signs) if s > 0]
        neg = [(mask, r, s) for (mask, r), s in zip(rays, signs) if s < 0]
        # two rays are adjacent when their common tight points can have rank
        # n - len(lineality) - 2 and no third ray is tight at all of them
        need = n - len(lineality) - 2
        masks = [mask for mask, _ in rays]
        new = []
        for mask, r, s in pos:
            for other, t, u in neg:
                z = mask & other
                if z.bit_count() >= need and not any(z & m == z for m in masks if m != mask and m != other):
                    new.append((z | 1 << bit, _primitive([s * w - u * v for v, w in zip(r, t)])))
        rays = [(mask | (s == 0) << bit, r) for (mask, r), s in zip(rays, signs) if s >= 0] + new
    return lineality, [r for _, r in rays]


def _hull_points(support):
    """The lattice points of the convex hull of the set `support`, in lex
    order: each point of the bounding box whose total degree is in the
    support's range and that is in the support, or that meets the rows of
    hull_rows, worked out when the walk first meets a point outside the
    support."""
    lo = [min(c) for c in zip(*support)]
    hi = [max(c) for c in zip(*support)]
    dlo, dhi = min(map(sum, support)), max(map(sum, support))
    rows = None

    def in_hull(q):
        nonlocal rows
        equations, facets = rows = rows or hull_rows(sorted(support))
        v = (1, *q)
        return all(sum(map(mul, y, v)) == 0 for y in equations) and all(sum(map(mul, y, v)) >= 0 for y in facets)

    def walk(prefix, k):
        # only values the later coordinates can complete to a degree in range
        total = sum(prefix)
        first = max(lo[k], dlo - total - sum(hi[k + 1 :]))
        last = min(hi[k], dhi - total - sum(lo[k + 1 :]))
        for x in range(first, last + 1):
            q = prefix + (x,)
            if k + 1 < len(lo):
                yield from walk(q, k + 1)
            elif q in support or in_hull(q):
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
