"""Integer polynomials in Z[t_1..t_p]: K-polynomials and multidegrees.

IntegerPolynomial has the arithmetic that hilbert and determinantal use:
sums, products, the lowest total degree and the substitution t -> 1 - t.
"""

from math import comb
from operator import add, eq, mul

from .ring import _monomial_str


class _Integers:
    """The integers, with the add/mul/eq/zero of a coefficient field, for
    the term kernel ring._add_mul."""

    zero = 0
    add = staticmethod(add)
    mul = staticmethod(mul)
    eq = staticmethod(eq)


ZZ = _Integers()


class IntegerPolynomial:
    """Sparse polynomial with integer coefficients over p grading variables."""

    __slots__ = ("p", "terms")

    def __init__(self, p, terms=None):
        self.p = p
        # the keys of a dict are distinct, so no two terms need adding
        self.terms = {tuple(e): c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, p):
        return cls(p)

    @classmethod
    def one(cls, p):
        return cls(p, {(0,) * p: 1})

    @classmethod
    def monomial(cls, e, c=1):
        return cls(len(e), {tuple(e): c})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntegerPolynomial(self.p, out)

    def __neg__(self):
        return IntegerPolynomial(self.p, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntegerPolynomial(self.p, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntegerPolynomial(self.p, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, IntegerPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def min_total_degree(self):
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def substitute_one_minus_t(self):
        """Exact substitution t_i -> 1 - t_i, one binomial pass per variable.

        Pass i replaces every term c*t^e with e_i = k by the k + 1 terms
        (-1)^j * C(k, j) * c * t^(e with e_i = j), j = 0..k, summed into a
        fresh dict whose zero coefficients are then dropped.  The cost is
        one dict update per output term of each pass: the sum over the p
        passes, and over the terms entering each pass, of k + 1.  No
        polynomial products are formed and no partial sum is copied.
        """
        terms = self.terms
        for i in range(self.p):
            out = {}
            for e, c in terms.items():
                k = e[i]
                if not k:
                    out[e] = out.get(e, 0) + c
                    continue
                head, tail = e[:i], e[i + 1:]
                for j in range(k + 1):
                    f = head + (j,) + tail
                    b = comb(k, j) * c
                    out[f] = out.get(f, 0) + (-b if j & 1 else b)
            terms = {e: c for e, c in out.items() if c}
        return IntegerPolynomial(self.p, terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def to_json_obj(self):
        """Canonical JSON form: exponent-sorted list with string coefficients."""
        return [{"exp": list(e), "coeff": str(c)} for e, c in self.sorted_terms()]

    def __str__(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = [f"t{i + 1}" for i in range(self.p)]
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = _monomial_str(names, e)
            ac = abs(c)
            if mono == "1":
                body = str(ac)
            elif ac == 1:
                body = mono
            else:
                body = f"{ac}*{mono}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({self})"

