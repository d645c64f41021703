"""Integer polynomials in Z[t_1..t_p]: K-polynomials and multidegrees.

IntegerPolynomial has the arithmetic that hilbert uses: sums, integer
multiples, the lowest total degree and the substitution t -> 1 - t.
"""

from math import comb
from operator import index

from .ring import _sum_str


class IntegerPolynomial:
    """Sparse polynomial with integer coefficients over p grading variables."""

    __slots__ = ("p", "terms")

    def __init__(self, p, terms=None):
        self.p = p
        # the keys of a dict are distinct, so no two terms need adding
        self.terms = {tuple(e): c for e, c in terms.items() if c} if terms else {}

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

    def __mul__(self, k):
        """The multiple by an integer k: any other operand raises TypeError."""
        k = index(k)
        return IntegerPolynomial(self.p, {e: c * k for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, IntegerPolynomial) and self.terms == other.terms

    def min_total_degree(self):
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
        if names is None:
            names = [f"t{i + 1}" for i in range(self.p)]
        return _sum_str(names, sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])))

    def __repr__(self):
        return f"IntPoly({self})"

