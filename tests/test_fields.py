"""The primality test of PrimeField: Miller-Rabin at the primes up to 41,
against trial division and on the composites that pass it at fewer
bases.  And rank_mod_p, the one Gaussian elimination modulo a prime,
which gives the homology ranks of monomial.reisner_cm_check: full rank
against a nonzero determinant."""

import pytest
from hypothesis import given, settings, strategies as st

from mdeg.errors import BadArgument, NonPrimeModulus
from mdeg.fields import MODULUS_LIMIT, PrimeField, _is_prime, rank_mod_p


def trial_division(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(100_000) if _is_prime(n)] == [
        n for n in range(100_000) if trial_division(n)
    ]


@pytest.mark.parametrize(
    "n, prime",
    [
        (2**31 - 1, True),
        (2**61 - 1, True),
        # the largest prime the test accepts
        (MODULUS_LIMIT - 168, True),
        # the least composites that pass Miller-Rabin at every prime base
        # up to 7, 23 and 37 respectively
        (3215031751, False),
        (3825123056546413051, False),
        (318665857834031151167461, False),
        (1000000000039 * 1000000000061, False),
    ],
)
def test_is_prime_on_large_numbers(n, prime):
    assert _is_prime(n) is prime


def test_prime_field_modulus():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    for n in (0, 1, 4, 3215031751):
        with pytest.raises(NonPrimeModulus):
            PrimeField(n)
    # MODULUS_LIMIT itself is a composite that every base lets pass
    for n in (MODULUS_LIMIT, MODULUS_LIMIT + 2, 10**30):
        with pytest.raises(BadArgument):
            PrimeField(n)


def _det_nonzero(M, F):
    """Reference: whether the square matrix M over F is invertible, by
    triangularization with field method calls; the oracle for rank_mod_p."""
    k = len(M)
    M = [row[:] for row in M]
    for col in range(k):
        piv = None
        for r in range(col, k):
            if M[r][col] != F.zero:
                piv = r
                break
        if piv is None:
            return False
        M[col], M[piv] = M[piv], M[col]
        inv = F.inv(M[col][col])
        for r in range(col + 1, k):
            c = F.mul(M[r][col], inv)
            if c == F.zero:
                continue
            for cc in range(col, k):
                M[r][cc] = F.add(M[r][cc], F.neg(F.mul(c, M[col][cc])))
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 32003]), st.data())
def test_full_rank_iff_nonzero_determinant(p, data):
    # small entries make singular matrices common even modulo 32003
    k = data.draw(st.integers(0, 4))
    M = data.draw(
        st.lists(st.lists(st.integers(0, 6), min_size=k, max_size=k), min_size=k, max_size=k)
    )
    F = PrimeField(p)
    M = [[F.coerce(v) for v in row] for row in M]
    assert (rank_mod_p([dict(enumerate(row)) for row in M], p) == k) == _det_nonzero(M, F)
