"""The rationals as fields.Rationals held them before it kept integral
elements as ints: every element a fractions.Fraction.  The oracle of the
int-or-Fraction QQ in tests/test_ring.py.
"""

from fractions import Fraction


class FractionRationals:
    """Exact rational arithmetic via fractions.Fraction."""

    p = 0  # characteristic

    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"

    def coerce(self, a):
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def eq(self, a, b):
        return a == b

    def __eq__(self, other):
        return isinstance(other, FractionRationals)

    def __hash__(self):
        return hash("FractionQQ")


FRACTION_QQ = FractionRationals()
