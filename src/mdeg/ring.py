"""Multigraded polynomial rings and exact polynomials.

A GradedRing fixes variable names, an N^p degree vector for each variable
(positive grading: no variable of degree zero) and a coefficient field.
Polynomials are immutable dicts mapping exponent tuples to nonzero field
elements; the canonical storage order used for printing is plain lex on
exponent vectors, independent of any monomial order.
"""

from fractions import Fraction

from .errors import (
    DuplicateVariableName,
    NotHomogeneous,
    RingMismatch,
    ZeroDegreeVariable,
    ZeroPolynomial,
)
from .fields import QQ


class GradedRing:
    """A positively N^p-graded polynomial ring over an exact field."""

    def __init__(self, names, degrees, field=QQ):
        names = tuple(names)
        degrees = tuple(tuple(d) for d in degrees)
        if len(set(names)) != len(names):
            raise DuplicateVariableName(f"repeated variable in {names}")
        if len(degrees) != len(names):
            raise ValueError("one degree vector per variable required")
        p = len(degrees[0]) if degrees else 0
        for nm, d in zip(names, degrees):
            if len(d) != p:
                raise ValueError(f"degree of {nm} has wrong length")
            if all(c == 0 for c in d) or any(c < 0 for c in d):
                raise ZeroDegreeVariable(f"deg({nm}) = {d} is not in N^p \\ {{0}}")
        self.names = names
        self.degrees = degrees
        self.p = p
        self.field = field
        self.n = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}

    @property
    def is_standard(self):
        return all(sum(d) == 1 for d in self.degrees)

    def block_variables(self, k):
        """Indices of the variables of degree e_{k+1} in a standard ring."""
        return [i for i in range(self.n) if sum(self.degrees[i]) == 1 and self.degrees[i][k] == 1]

    def subring(self, keep, coords=None):
        """The ring on the variables with indices `keep`, each degree vector
        cut to the grading coordinates `coords` (all of them by default)."""
        if coords is None:
            coords = range(self.p)
        return GradedRing(
            [self.names[i] for i in keep],
            [tuple(self.degrees[i][k] for k in coords) for i in keep],
            self.field,
        )

    def variable(self, name):
        i = self._index[name]
        e = [0] * self.n
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def gens(self):
        return [self.variable(nm) for nm in self.names]

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.n: self.field.one})

    def constant(self, c):
        c = self.field.coerce(c)
        if self.field.eq(c, self.field.zero):
            return self.zero()
        return Polynomial(self, {(0,) * self.n: c})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.n:
            raise ValueError("exponent length mismatch")
        c = self.field.coerce(coeff)
        if self.field.eq(c, self.field.zero):
            return self.zero()
        return Polynomial(self, {exps: c})

    def monomial_degree(self, exps):
        """Multidegree in N^p of the monomial with the given exponents."""
        d = [0] * self.p
        for e, dv in zip(exps, self.degrees):
            if e:
                for k in range(self.p):
                    d[k] += e * dv[k]
        return tuple(d)

    def __eq__(self, other):
        return (
            isinstance(other, GradedRing)
            and self.names == other.names
            and self.degrees == other.degrees
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.names, self.degrees, self.field))

    def __repr__(self):
        return f"GradedRing({','.join(self.names)}; p={self.p}; {self.field!r})"


def make_ring(names, degrees, field=QQ):
    """Validated ring constructor (rejects zero degrees, duplicate names)."""
    return GradedRing(names, degrees, field)


def _monomial_str(ring, exps):
    parts = []
    for nm, e in zip(ring.names, exps):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


def _add_mul(acc, c, shift, g, field, skip=None):
    """acc += c * x^shift * g in place, leaving out g's term at `skip`.

    The one loop that combines two term dicts (Polynomial arithmetic,
    substitution, Buchberger).  c must be nonzero, so no new term is zero;
    returns the exponents that were new to acc.
    """
    new = []
    for eg, cg in g.items():
        if eg == skip:
            continue
        e = tuple(x + y for x, y in zip(eg, shift))
        prev = acc.get(e)
        delta = field.mul(c, cg)
        if prev is None:
            acc[e] = delta
            new.append(e)
        else:
            nv = field.add(prev, delta)
            if field.eq(nv, field.zero):
                del acc[e]
            else:
                acc[e] = nv
    return new


class Polynomial:
    """Immutable exact polynomial over a GradedRing."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not ring.field.eq(c, ring.field.zero)}
        self._hash = None

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("operands live in different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        _add_mul(out, self.ring.field.one, (0,) * self.ring.n, other.terms, self.ring.field)
        return Polynomial(self.ring, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        small, big = sorted((self.terms, other.terms), key=len)
        out = {}
        for e, c in small.items():
            _add_mul(out, c, e, big, self.ring.field)
        return Polynomial(self.ring, out)

    def __pow__(self, k):
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c):
        F = self.ring.field
        c = F.coerce(c)
        return Polynomial(self.ring, {e: F.mul(c, v) for e, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self):
        """Terms in the canonical (descending lex on exponents) print order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = _monomial_str(self.ring, e)
            neg = False
            if isinstance(c, Fraction):
                neg = c < 0
                c = -c if neg else c
            cs = str(c)
            if mono == "1":
                body = cs
            elif cs == "1":
                body = mono
            else:
                body = f"{cs}*{mono}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def multidegree_of(f):
    """Common N^p degree of a homogeneous polynomial.

    Raises NotHomogeneous (naming two offending terms) when terms disagree,
    ZeroPolynomial on zero input.
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no multidegree")
    ring = f.ring
    deg = None
    first = None
    for e in f.terms:
        d = ring.monomial_degree(e)
        if deg is None:
            deg, first = d, e
        elif d != deg:
            raise NotHomogeneous(
                f"terms {_monomial_str(ring, first)} (degree {deg}) and "
                f"{_monomial_str(ring, e)} (degree {d}) disagree"
            )
    return deg


def is_homogeneous(f):
    if f.is_zero():
        return True
    try:
        multidegree_of(f)
        return True
    except NotHomogeneous:
        return False
