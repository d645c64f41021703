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

from .errors import NonPrimeModulus


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"GF({self.p})"

    def coerce(self, a):
        if isinstance(a, Fraction):
            if a.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return a.numerator * pow(a.denominator, -1, self.p) % self.p
        return a % self.p

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
