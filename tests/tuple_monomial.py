"""Monomial ideals on exponent tuples, as they were before their minimal
generators were packed into ints: the oracles of monomial.MonomialIdeal
and hilbert.k_polynomial_monomial (tests/test_monomial.py).

A tuple ideal is a frozenset of exponent tuples, its minimal generators;
every operation below takes and returns one, with divisibility, colons,
lcms and the K-polynomial recursion done with zip over the tuples.
"""

from conftest import int_monomial, int_one, int_product
from mdeg.intpoly import IntegerPolynomial


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize(gens):
    """Unique minimal generating set: drop multiples of other generators."""
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for g in gens:
        if not any(divides(h, g) for h in out):
            out.append(g)
    return frozenset(out)


def contains(gens, mono):
    return any(divides(g, mono) for g in gens)


def contains_ideal(gens, other):
    return all(contains(gens, g) for g in other)


def radical(gens):
    return minimalize(tuple(int(e > 0) for e in g) for g in gens)


def minimal_covers(gens):
    """The minimal primes that monomial.minimal_primes found before it read
    them off the irreducible decomposition of the radical: the minimal sets
    of variables that meet the support of every generator, by a search
    over covers, sorted by size and then by their indices."""
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    covers = set()

    def rec(idx, chosen):
        if any(chosen >= c for c in covers):
            return
        while idx < len(supports) and supports[idx] & chosen:
            idx += 1
        if idx == len(supports):
            covers.add(frozenset(chosen))
            return
        for v in sorted(supports[idx]):
            rec(idx + 1, chosen | {v})

    rec(0, frozenset())
    return sorted(
        (c for c in covers if not any(o < c for o in covers)),
        key=lambda c: (len(c), sorted(c)),
    )


def add_monomial(gens, mono):
    return minimalize(set(gens) | {tuple(mono)})


def intersect(gens, other):
    return minimalize(
        tuple(max(a, b) for a, b in zip(g, h)) for g in gens for h in other
    )


def colon_monomial(gens, mono):
    return minimalize(tuple(max(a - b, 0) for a, b in zip(g, mono)) for g in gens)


def saturate_variable(gens, i):
    return minimalize(tuple(0 if j == i else e for j, e in enumerate(g)) for g in gens)


def pick_pivot(gens, n):
    counts = [0] * n
    for g in gens:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    return max(range(n), key=lambda i: (counts[i], -i))


def _supports_pairwise_coprime(gens):
    seen = set()
    for g in gens:
        s = {i for i, e in enumerate(g) if e}
        if s & seen:
            return False
        seen |= s
    return True


def k_polynomial_monomial(ring, gens, _memo=None):
    """K(S/I; t) for the ideal of the ring with minimal generators gens."""
    if _memo is None:
        _memo = {}
    p = ring.p
    cached = _memo.get(gens)
    if cached is not None:
        return cached
    if (0,) * ring.n in gens:
        out = IntegerPolynomial(p)
    elif _supports_pairwise_coprime(gens):
        out = int_one(p)
        for g in gens:
            out = int_product(out, int_one(p) - int_monomial(ring.monomial_degree(g)))
    else:
        i = pick_pivot(gens, ring.n)
        x = tuple(int(j == i) for j in range(ring.n))
        tdeg = int_monomial(ring.degrees[i])
        out = k_polynomial_monomial(ring, add_monomial(gens, x), _memo) + int_product(
            tdeg, k_polynomial_monomial(ring, colon_monomial(gens, x), _memo)
        )
    _memo[gens] = out
    return out
