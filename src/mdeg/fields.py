"""Coefficient fields: the rationals and word-size prime fields, and the
one Gaussian elimination modulo a prime (rank_mod_p).

Elements are plain Python objects, so the Groebner inner loops stay
allocation-light: an element of QQ is an int when it is integral and a
Fraction otherwise, and an element of a prime field is an int in [0, p).
QQ's coerce and inv return an int for an integral value, so integer input
stays on int arithmetic; its add and mul are the plain operators, so a
sum or product of Fractions stays a Fraction even when it is integral,
which is the same value: it compares, hashes and prints as that int.
Every element is falsy exactly at zero: code tests a coefficient with `if c:`.
"""

from fractions import Fraction
from operator import index

from .errors import BadArgument, NonPrimeModulus

#: The Miller-Rabin bases of _is_prime: the primes up to 41.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The least composite that passes Miller-Rabin at every base of _BASES
#: (Sorenson and Webster, Math. Comp. 86, 2017): _is_prime is exact below
#: it, so a PrimeField modulus must be smaller.
MODULUS_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Whether n < MODULUS_LIMIT is prime, by Miller-Rabin at _BASES."""
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """Exact rational arithmetic on ints and fractions.Fraction."""

    p = 0  # characteristic

    zero = 0
    one = 1

    def __repr__(self):
        return "QQ"

    def coerce(self, a):
        a = Fraction(a)
        return a.numerator if a.denominator == 1 else a

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        a = Fraction(a.denominator, a.numerator)
        return a.numerator if a.denominator == 1 else a

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Arithmetic modulo a prime, elements represented as ints in [0, p)."""

    def __init__(self, p):
        if p >= MODULUS_LIMIT:
            raise BadArgument(
                f"modulus {p} is not below {MODULUS_LIMIT}, the limit of the primality test"
            )
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"GF({self.p})"

    def coerce(self, a):
        """The residue of the int a, TypeError for any other number: a
        quotient is a product with inv."""
        return index(a) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def rank_mod_p(rows, p):
    """Rank of a sparse integer matrix modulo p (rows: list of dicts)."""
    pivots = {}  # column -> row dict with pivot 1 at that column
    for r in rows:
        r = {j: v % p for j, v in r.items() if v % p}
        while r:
            j = min(r)
            if j not in pivots:
                inv = pow(r[j], -1, p)
                pivots[j] = {jj: v * inv % p for jj, v in r.items()}
                break
            c = r[j]
            for jj, v in pivots[j].items():
                nv = (r.get(jj, 0) - c * v) % p
                if nv:
                    r[jj] = nv
                elif jj in r:
                    del r[jj]
    return len(pivots)


QQ = Rationals()

#: Default prime field for randomized (gin) computations; large enough to
#: emulate an infinite field at desk scale.
GF32003 = PrimeField(32003)
