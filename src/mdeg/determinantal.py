"""Generic determinantal ideals under the fine N^m + N^n grading.

The ring has one variable x_{i,j} per matrix entry with degree e_i + f_j;
I_r is generated by the r-minors, which are built multihomogeneous.  For
maximal minors the multidegree and K-polynomial are sums of h_j(t) e_k(s),
and the diagonal (row-major lex) order gives the main-diagonal initial
ideal.  The tests check the formulas' recursions and the diagonal ideals.
"""

from itertools import combinations, combinations_with_replacement, permutations

from .errors import BadShape
from .fields import QQ
from .groebner import Ideal
from .intpoly import IntegerPolynomial
from .monomial import MonomialIdeal
from .ring import GradedRing, Polynomial


def determinantal_ring(m, n, field=QQ):
    """k[x_{i,j}] with deg x_{i,j} = e_i + f_j in N^(m+n), rows first."""
    if m < 1 or n < 1 or m > n:
        raise BadShape(f"need 1 <= m <= n, got ({m}, {n})")
    names, degrees = [], []
    p = m + n
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            names.append(f"x{i}_{j}")
            d = [0] * p
            d[i - 1] = 1
            d[m + j - 1] = 1
            degrees.append(tuple(d))
    return GradedRing(names, degrees, field)


def minor(ring, rows, cols):
    """Determinant of the submatrix on the given 1-based rows and columns:
    one signed squarefree monomial per permutation, each of degree
    sum(e_i for rows) + sum(f_j for cols), with coefficient +-1."""
    r = len(rows)
    F = ring.field
    index = ring._index
    terms = {}
    for perm in permutations(range(r)):
        sign = 1
        # count inversions for the permutation sign
        for a in range(r):
            for b in range(a + 1, r):
                if perm[a] > perm[b]:
                    sign = -sign
        e = [0] * ring.n
        for a in range(r):
            e[index[f"x{rows[a]}_{cols[perm[a]]}"]] = 1
        terms[tuple(e)] = F.coerce(sign)
    return Polynomial._of(ring, terms)


def build_determinantal(m, n, r, field=QQ):
    """(ring, I_r) for the r-minors of the generic m x n matrix."""
    ring = determinantal_ring(m, n, field)
    if r < 1 or r > m:
        raise BadShape(f"need 1 <= r <= m = {m}")
    gens = []
    for rows in combinations(range(1, m + 1), r):
        for cols in combinations(range(1, n + 1), r):
            gens.append(minor(ring, rows, cols))
    return ring, Ideal._of(ring, gens)


# ---------------------------------------------------------------------------
# closed formulas for maximal minors


def _h_e_sum(m, n, pairs, shift):
    """The term dict of t^shift * sum c * h_j(t) * e_k(s) over (c, j, k) in
    `pairs`, of distinct j, in Z[t_1..t_m, s_1..s_n].  h_j(t) and e_k(s)
    share no variable, so each product term is one exponent list, a
    multiset of j t's beside a set of k s's, and no two terms meet."""
    out = {}
    for c, j, k in pairs:
        for pick in combinations_with_replacement(range(m), j):
            for picked in combinations(range(m, m + n), k):
                e = list(shift)
                for i in pick + picked:
                    e[i] += 1
                out[tuple(e)] = c
    return out


def multidegree_formula(m, n):
    """H_{m,n} = sum_j h_j(t) e_{d-j}(s) over j = 0..d, d = n - m + 1: the
    sum of t^a s^b over a in N^m, b in {0,1}^n with |a| + |b| = d."""
    if m < 1 or n < m:
        raise BadShape(f"need 1 <= m <= n, got ({m}, {n})")
    d = n - m + 1
    pairs = [(1, j, d - j) for j in range(d + 1)]
    return IntegerPolynomial(m + n, _h_e_sum(m, n, pairs, (0,) * (m + n)))


def k_polynomial_formula(m, n):
    """K(R/I_m) = 1 - t_1..t_m * sum_j (-1)^j h_j(t) e_{m+j}(s)."""
    if m < 1 or n < m:
        raise BadShape(f"need 1 <= m <= n, got ({m}, {n})")
    pairs = [((-1) ** (j + 1), j, m + j) for j in range(n - m + 1)]
    terms = _h_e_sum(m, n, pairs, (1,) * m + (0,) * n)
    return IntegerPolynomial(m + n, {(0,) * (m + n): 1, **terms})


def closed_formulas(m, n):
    """(C, K) closed formulas for maximal minors."""
    return multidegree_formula(m, n), k_polynomial_formula(m, n)


# ---------------------------------------------------------------------------
# diagonal initial ideal


def diagonal_initial(m, n, field=QQ):
    """J_{m,n}: the main diagonals of the maximal minors, which generate
    the initial ideal of I_m under the diagonal (row-major lex) order."""
    ring = determinantal_ring(m, n, field)
    gens = []
    for cols in combinations(range(1, n + 1), m):
        e = [0] * ring.n
        for i, j in enumerate(cols, start=1):
            e[(i - 1) * n + (j - 1)] = 1
        gens.append(tuple(e))
    return ring, MonomialIdeal(ring, gens)
