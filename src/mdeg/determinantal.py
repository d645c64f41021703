"""Generic determinantal ideals under the fine N^m + N^n grading.

The ring has one variable x_{i,j} per matrix entry with degree e_i + f_j;
I_r is generated by the r-minors.  For maximal minors the multidegree and
K-polynomial have closed forms, and the diagonal (row-major lex) order
gives the main-diagonal initial ideal.  The defining recursions of both
formulas and of the diagonal initial ideals are checked by the tests.
"""

from itertools import combinations, permutations

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
    one signed squarefree monomial per permutation."""
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
    return Polynomial(ring, terms)


def build_determinantal(m, n, r, field=QQ):
    """(ring, I_r) for the r-minors of the generic m x n matrix."""
    ring = determinantal_ring(m, n, field)
    if r < 1 or r > m:
        raise BadShape(f"need 1 <= r <= m = {m}")
    gens = []
    for rows in combinations(range(1, m + 1), r):
        for cols in combinations(range(1, n + 1), r):
            gens.append(minor(ring, rows, cols))
    return ring, Ideal(ring, gens)


# ---------------------------------------------------------------------------
# closed formulas for maximal minors


def multidegree_formula(m, n):
    """H_{m,n}: sum of t^a s^b over a in N^m, b in {0,1}^n with
    |a| + |b| = n - m + 1."""
    if m < 1 or n < m:
        raise BadShape(f"need 1 <= m <= n, got ({m}, {n})")
    p = m + n
    d = n - m + 1
    out = {}

    def avecs(i, left, cur):
        if i == m:
            yield tuple(cur), left
            return
        for e in range(left + 1):
            cur.append(e)
            yield from avecs(i + 1, left - e, cur)
            cur.pop()

    for a, rem in avecs(0, d, []):
        used = d - rem
        k = d - used  # remaining goes into the squarefree s part
        if k > n:
            continue
        for cols in combinations(range(n), k):
            b = [0] * n
            for j in cols:
                b[j] = 1
            out[a + tuple(b)] = out.get(a + tuple(b), 0) + 1
    return IntegerPolynomial(p, out)


def _h_complete(m, n, j):
    """Complete homogeneous symmetric polynomial of degree j in t_1..t_m,
    as an (m+n)-variable polynomial."""
    p = m + n
    out = {}

    def rec(i, left, cur):
        if i == m:
            if left == 0:
                out[tuple(cur) + (0,) * n] = 1
            return
        for e in range(left + 1):
            cur.append(e)
            rec(i + 1, left - e, cur)
            cur.pop()

    rec(0, j, [])
    return IntegerPolynomial(p, out)


def _e_elementary(m, n, j):
    """Elementary symmetric polynomial of degree j in s_1..s_n."""
    p = m + n
    out = {}
    for cols in combinations(range(n), j):
        e = [0] * n
        for c in cols:
            e[c] = 1
        out[(0,) * m + tuple(e)] = 1
    return IntegerPolynomial(p, out)


def k_polynomial_formula(m, n):
    """K(R/I_m) = 1 - t_1..t_m * sum_j (-1)^j h_j(t) e_{m+j}(s)."""
    if m < 1 or n < m:
        raise BadShape(f"need 1 <= m <= n, got ({m}, {n})")
    p = m + n
    tprod = IntegerPolynomial.monomial((1,) * m + (0,) * n)
    acc = IntegerPolynomial.zero(p)
    for j in range(n - m + 1):
        term = _h_complete(m, n, j) * _e_elementary(m, n, m + j)
        acc = acc + (term if j % 2 == 0 else -term)
    return IntegerPolynomial.one(p) - tprod * acc


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
