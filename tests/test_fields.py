"""The primality test of PrimeField: Miller-Rabin at the primes up to 41,
against trial division and on the composites that pass it at fewer
bases."""

import pytest

from mdeg.errors import BadArgument, NonPrimeModulus
from mdeg.fields import MODULUS_LIMIT, PrimeField, _is_prime


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
