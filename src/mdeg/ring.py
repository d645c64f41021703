"""Multigraded polynomial rings and exact polynomials.

A GradedRing fixes variable names, an N^p degree vector for each variable
(positive grading: no variable of degree zero) and a coefficient field.
Polynomials are immutable dicts mapping exponent tuples to nonzero field
elements; the canonical storage order used for printing is plain lex on
exponent vectors, independent of any monomial order.

Arithmetic runs on packed exponents (Monagan-Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  A
_Packing stores an exponent vector as one int: each variable has a field
of B bits (8, 16, 32, ...) whose top bit is a guard, clear in every valid
exponent.  A monomial product is one int add, and a | b is
`not (b - a) & GUARD`, since a field with a_i > b_i borrows into its own
guard.  Packed for a monomial order, the fields above the variables hold
the total degree (grevlex only) and then the weight rows, first row
highest, as signed fields wide enough for any valid exponent, so the
order's sort key is one int: P ^ LOW for grevlex, where x_n sits in the
top variable field and LOW masks the variable fields, and P itself for
lex, where x_1 sits in the top variable field.  pack is additive, so a
product of monomials packed in any layout is the sum of their packings.
_add_mul, the one loop that combines two term dicts, works its
coefficients out inline, modulo p or with the plain operators, and raises
_Overflow when a new exponent has a guard bit set; its caller widens B
and reruns, so results stay exact for any exponent size.  Polynomial +,
- and * pack at their boundary, with fields wide enough for the result.

The same packing, in its plain layout (lex, no rows: x_1 in the top
field, so int order is lex order on exponent tuples and a proper divisor
is a smaller int), stores the minimal generators of every
monomial.MonomialIdeal, at the narrowest B that holds their exponents;
the fieldwise max(b - a, 0) of `_Packing.excess` gives its colons and,
through `_Packing.lcm`, its intersections.
"""

from functools import lru_cache
from itertools import chain
from operator import lshift, mul

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
            if not any(d) or min(d) < 0:
                raise ZeroDegreeVariable(f"deg({nm}) = {d} is not in N^p \\ {{0}}")
        self.names = names
        self.degrees = degrees
        self.p = p
        self.field = field
        self.n = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}
        self._columns = tuple(zip(*degrees))  # the degrees' k-th coordinates

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

    def monomial_degree(self, exps):
        """Multidegree in N^p of the monomial with the given exponents."""
        return tuple([sum(map(mul, exps, column)) for column in self._columns])

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


def _monomial_str(names, exps):
    """The monomial with these exponents in the named variables, as
    x*y^2; "1" for the empty product."""
    parts = [nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def _sum_str(names, terms):
    """The signed sum of the (exponents, coefficient) pairs `terms`, in
    their order, as 1 - 2*x + x^2; "0" for no terms."""
    parts = []
    for e, c in terms:
        mono = _monomial_str(names, e)
        cs = str(abs(c))
        if mono == "1":
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = f"{cs}*{mono}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) or "0"


class _Overflow(Exception):
    """A new packed exponent set a guard bit: widen the fields and rerun."""


def _field_bits(m):
    """Bits per variable field, 8 doubled as often as needed for the
    value bits below the guard to hold the exponent m."""
    bits = 8
    while m >> (bits - 1):
        bits *= 2
    return bits


def _max_exponent(dicts):
    """Largest exponent in the exponent tuples of some term dicts."""
    return max(chain.from_iterable(chain.from_iterable(dicts)), default=0)


class _Packing:
    """Exponent tuples of n variables as ints, `bits` bits per variable
    field, laid out for grevlex or lex refined from the weight `rows` (see
    the module docstring); lex with no rows is the plain layout of
    Polynomial arithmetic.

    `guard` holds the guard bits, `vmask` the variable fields and `flip`
    what a packed exponent is XORed with to give its order key; pack is
    additive, and `above[k]` is what a unit in the k-th variable field from
    the bottom adds to the fields above the variables (groebner._new_pairs).
    """

    def __init__(self, n, bits, rows=(), grevlex=False):
        top = (1 << (bits - 1)) - 1  # the largest exponent a field holds
        nv = n * bits
        self.bits = bits
        self.vmask = (1 << nv) - 1
        self.guard = self.vmask // ((1 << bits) - 1) << (bits - 1)
        self.flip = self.vmask if grevlex else 0
        # fields above the variables, lowest first: (row, shift), where
        # row None is the total degree; a field's width covers the values
        # of the row on every valid exponent
        self._high = []
        shift = nv
        for row in ([None] if grevlex else []) + list(reversed(rows)):
            self._high.append((row, shift))
            shift += (top * (n if row is None else sum(map(abs, row)))).bit_length()
        # the bit offset of each variable's field; field k holds variable fields[k]
        fields = range(n) if grevlex else range(n - 1, -1, -1)
        self._shifts = [k * bits for k in fields]
        self._fmask = (1 << bits) - 1
        self.above = [sum((1 if r is None else r[i]) << h for r, h in self._high) for i in fields]

    def pack(self, e):
        p = sum(map(lshift, e, self._shifts))
        for row, shift in self._high:
            p += (sum(e) if row is None else sum(map(mul, row, e))) << shift
        return p

    def unpack(self, p):
        fmask = self._fmask
        return tuple([p >> s & fmask for s in self._shifts])

    def pack_dict(self, d):
        pack = self.pack
        return {pack(e): c for e, c in d.items()}

    def unpack_dict(self, d):
        unpack = self.unpack
        return {unpack(e): c for e, c in d.items()}

    def excess(self, a, b):
        """The variable fields of max(b - a, 0), fieldwise, for two packed
        exponents: each field of (b | GUARD) - a keeps its guard exactly
        where b_i >= a_i, and those fields keep their value bits."""
        d = ((b & self.vmask) | self.guard) - (a & self.vmask)
        g = d & self.guard  # the guards of the fields where b_i >= a_i
        return d & (g - (g >> (self.bits - 1)))

    def lcm(self, a, b):
        """lcm of two exponents packed in a layout with no fields above the
        variables (the plain one): a plus the fieldwise excess of b.  In
        an order's layout a + excess gets the lcm's variable fields right,
        and the excess's fields times `above` add the fields above
        (groebner._new_pairs)."""
        return a + self.excess(a, b)


@lru_cache(maxsize=128)
def _packing(n, bits, rows=(), grevlex=False):
    """The _Packing for these arguments, made once: Polynomial arithmetic
    asks for one on every operation."""
    return _Packing(n, bits, rows, grevlex)


def _add_mul(acc, c, shift, g, field, guard, skip=None):
    """acc += c * x^shift * g in place, leaving out g's term at `skip`.

    The one loop that combines two term dicts (Polynomial arithmetic,
    substitution, Buchberger, and with intpoly.ZZ and guard 0 the
    K-polynomials of hilbert), on packed exponents with guard bits
    `guard`; raises _Overflow on a new exponent that sets one.  The
    coefficient arithmetic is written out, with no method call per term:
    modulo field.p for a prime field, the plain + and * of ints and
    Fractions for QQ and ZZ, whose p is 0.  c must be nonzero, so no new
    term is zero; returns the exponents that were new to acc.
    """
    new = []
    p = field.p
    if p:
        for eg, cg in g.items():
            if eg == skip:
                continue
            e = eg + shift
            prev = acc.get(e)
            if prev is None:
                if e & guard:
                    raise _Overflow
                acc[e] = c * cg % p
                new.append(e)
            else:
                nv = (prev + c * cg) % p
                if nv:
                    acc[e] = nv
                else:
                    del acc[e]
        return new
    for eg, cg in g.items():
        if eg == skip:
            continue
        e = eg + shift
        prev = acc.get(e)
        if prev is None:
            if e & guard:
                raise _Overflow
            acc[e] = c * cg
            new.append(e)
        else:
            nv = prev + c * cg
            if nv:
                acc[e] = nv
            else:
                del acc[e]
    return new


def _times(f, g, field, guard):
    """The product of two packed term dicts: one _add_mul per term of the
    smaller."""
    small, big = sorted((f, g), key=len)
    out = {}
    for e, c in small.items():
        _add_mul(out, c, e, big, field, guard)
    return out


class Polynomial:
    """Immutable exact polynomial over a GradedRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def _of(cls, ring, terms):
        """The polynomial on `terms` as given, for kernel results, which
        hold no zero coefficient; the caller must not change the dict."""
        p = cls.__new__(cls)
        p.ring, p.terms = ring, terms
        return p

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("operands live in different rings")

    def __add__(self, other):
        self._check(other)
        F = self.ring.field
        pk = _packing(self.ring.n, _field_bits(_max_exponent((self.terms, other.terms))))
        out = pk.pack_dict(self.terms)
        _add_mul(out, F.one, 0, pk.pack_dict(other.terms), F, pk.guard)
        return Polynomial._of(self.ring, pk.unpack_dict(out))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.ring.field
        # fields that hold twice the largest exponent hold every product
        pk = _packing(self.ring.n, _field_bits(2 * _max_exponent((self.terms, other.terms))))
        out = _times(pk.pack_dict(self.terms), pk.pack_dict(other.terms), F, pk.guard)
        return Polynomial._of(self.ring, pk.unpack_dict(out))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
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

    def sorted_terms(self):
        """Terms in the canonical (descending lex on exponents) print order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self):
        return _sum_str(self.ring.names, self.sorted_terms())

    def __repr__(self):
        return f"Poly({self})"


def multidegree_of(f):
    """Common N^p degree of a homogeneous polynomial.

    Raises NotHomogeneous (naming two offending terms) when terms disagree,
    ZeroPolynomial on zero input.
    """
    if not f:
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
                f"terms {_monomial_str(ring.names, first)} (degree {deg}) and "
                f"{_monomial_str(ring.names, e)} (degree {d}) disagree"
            )
    return deg


def is_homogeneous(f):
    """Whether all terms of f have one multidegree; the zero polynomial has."""
    try:
        f and multidegree_of(f)
    except NotHomogeneous:
        return False
    return True
