"""Combinatorics of monomial ideals.

Minimal generators and minimal primes, irreducible and primary
decomposition, localization at a monomial prime, standard monomials,
Borel-fixedness and the Reisner Cohen-Macaulayness test all live here;
everything is exact and field-free except the homology ranks, which are
computed modulo a prime.

A MonomialIdeal stores its minimal generators as ints, packed by the one
exponent packing of ring._Packing in its plain layout: a field of B bits
per variable with a guard bit on top, x_i in field i from the bottom.
Ints compare as their exponent tuples read from x_n down, a proper
divisor is a smaller int, and a | b is `not (b - a) & GUARD`.  So the
minimal generators are found by sorting the ints and keeping each one
that no kept one divides (ring._minimal); a
colon is the fieldwise max(g - m, 0) of `_Packing.excess`, an
intersection the generators of each ideal that the other holds and the
lcm of each pair of the rest, a variable saturation and the radical are
field masks, and the standard monomials a walk over packed exponents.
An irreducible component is its exponent vector, the packed sum of its
pure powers, so the irredundancy filter of irreducible_decomposition
compares two ints with two guard-bit tests.  B is the narrowest of 8,
16, 32, ... bits that holds every exponent of the minimal generators
(_field_bits), so two equal ideals have the same B and the same ints.
Exponent tuples are only read and written at the public boundary: the
constructor, `gens` (unpacked once, on first use), the tuple arguments
of contains, add_monomial and colon_monomial, and the tuples
standard_monomials returns.
"""

from bisect import bisect_right
from functools import reduce
from operator import add, gt, or_

from .errors import (
    BadArgument,
    NotSquarefree,
    NotStandardGraded,
    RingMismatch,
    TooManyVertices,
)
from .fields import rank_mod_p
from .ring import _field_bits, _max_exponent, _minimal, _monomial_str, _packing


#: Most vertices reisner_cm_check accepts in a complex's core: it walks every face.
MAX_CORE_VERTICES = 25


def _has_divisor(ints, p, guard):
    """Whether one of the ascending packed exponents `ints` divides p."""
    for g in ints:
        if g > p:
            return False
        if not (p - g) & guard:
            return True
    return False


def _exponents(n, mono):
    """`mono` as an exponent tuple of n variables, or ValueError."""
    e = tuple(mono)
    if len(e) != n:
        raise ValueError("exponent length mismatch")
    if e and min(e) < 0:
        raise ValueError("negative exponent")
    return e


def _pack_minimal(n, gens):
    """(pk, ascending ints) of the minimal generators among exponent
    tuples of n variables, pk the narrowest plain packing that holds them."""
    gens = {_exponents(n, g) for g in gens}
    pk = _packing(n, _field_bits(_max_exponent([gens])))
    return pk, _minimal(sorted(map(pk.pack, gens)), pk.guard)


def minimalize(gens):
    """Unique minimal generating set of exponent tuples of one length:
    drop multiples of other generators."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return frozenset()
    pk, ints = _pack_minimal(len(gens[0]), gens)
    return frozenset(map(pk.unpack, ints))


class MonomialIdeal:
    """Monomial ideal stored by its unique minimal generators, packed (see
    the module docstring); `gens` is their frozenset of exponent tuples."""

    __slots__ = ("ring", "_pk", "_ints", "_gens", "_hash")

    def __init__(self, ring, gens):
        self._set(ring, *_pack_minimal(ring.n, gens))

    @classmethod
    def _of(cls, ring, pk, ints):
        """The ideal minimally generated by the ascending ints, packed by
        pk = _packing(ring.n, bits)."""
        I = cls.__new__(cls)
        I._set(ring, pk, ints)
        return I

    def _set(self, ring, pk, ints):
        ints = tuple(ints)
        if pk.bits > 8:
            # narrow to the canonical width: a field of the OR of the ints
            # has the bit length of the largest exponent in it
            bits = _field_bits(max(pk.unpack(reduce(or_, ints, 0)), default=0))
            if bits < pk.bits:
                wide, pk = pk, _packing(ring.n, bits)
                ints = tuple(pk.pack(wide.unpack(g)) for g in ints)
        self.ring = ring
        self._pk = pk
        self._ints = ints
        self._gens = None
        self._hash = None

    @property
    def gens(self):
        if self._gens is None:
            self._gens = frozenset(map(self._pk.unpack, self._ints))
        return self._gens

    def _at(self, bits):
        """(packing, ints) of the generators at `bits` or the ideal's own
        width, whichever is wider."""
        pk = self._pk
        if bits <= pk.bits:
            return pk, self._ints
        wide = _packing(self.ring.n, bits)
        return wide, tuple(wide.pack(pk.unpack(g)) for g in self._ints)

    def _with(self, other):
        """(packing, own ints, other's ints) at the wider of two widths;
        RingMismatch for ideals of different rings."""
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatch("ideals live in different rings")
        bits = max(self._pk.bits, other._pk.bits)
        pk, mine = self._at(bits)
        return pk, mine, other._at(bits)[1]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self._ints == other._ints
            and self._pk.bits == other._pk.bits
            and self.ring == other.ring
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self._pk.bits, self._ints))
        return self._hash

    def __repr__(self):
        names = self.ring.names
        gs = sorted(self.gens, key=lambda e: (sum(e), e))
        return f"MonomialIdeal({', '.join(_monomial_str(names, g) for g in gs) or 0})"

    def is_zero(self):
        return not self._ints

    def is_unit(self):
        return self._ints[:1] == (0,)

    def initial_ideal(self, order=None):
        """A monomial ideal is its own initial ideal under every order."""
        return self

    def _pack_capped(self, mono):
        """The packed exponent tuple `mono`, each entry capped at the
        largest a field holds.  No generator has a larger entry, so the
        cap changes neither which generators divide the monomial nor the
        colon by it."""
        e = _exponents(self.ring.n, mono)
        top = (1 << (self._pk.bits - 1)) - 1
        if e and max(e) > top:
            e = [min(x, top) for x in e]
        return self._pk.pack(e)

    def contains(self, mono):
        return _has_divisor(self._ints, self._pack_capped(mono), self._pk.guard)

    def has_finite_colength(self):
        """Whether S/I has finite length: I is the unit ideal or a pure
        power of every variable is among its minimal generators."""
        pure = 0
        for s in self._supports():
            if not s & (s - 1):
                pure |= s
        return pure == self._pk.guard or self.is_unit()

    def is_squarefree(self):
        pk = self._pk
        high = pk.vmask ^ (pk.guard >> (pk.bits - 1))  # all but each field's 1 bit
        return not any(g & high for g in self._ints)

    def support_vars(self):
        """Indices of variables occurring in some minimal generator."""
        top = self._pk.unpack(reduce(or_, self._ints, 0))
        return {i for i, e in enumerate(top) if e}

    def _supports(self):
        """Each generator's nonzero fields, marked by their guard bits."""
        pk = self._pk
        guard = pk.guard
        up = guard - (guard >> (pk.bits - 1))  # 2^(B-1) - 1 per field
        return [(g + up) & guard for g in self._ints]

    def _derived(self, ints):
        """The ideal generated by packed exponents under the same packing."""
        pk = self._pk
        return MonomialIdeal._of(self.ring, pk, _minimal(sorted(set(ints)), pk.guard))

    def radical(self):
        shift = self._pk.bits - 1
        return self._derived(s >> shift for s in self._supports())

    def add_monomial(self, mono):
        e = _exponents(self.ring.n, mono)
        pk, ints = self._at(_field_bits(max(e, default=0)))
        return self._plus_packed(pk, ints, pk.pack(e))

    def _plus_packed(self, pk, ints, p):
        """I + (x^p), for p and the generators `ints` packed by pk: I itself
        when one of the generators below p divides it, else the generators
        with p in and its multiples, all above it, out."""
        guard = pk.guard
        k = bisect_right(ints, p)
        if _has_divisor(ints[:k], p, guard):
            return self
        out = ints[:k] + (p,) + tuple(g for g in ints[k:] if (g - p) & guard)
        return MonomialIdeal._of(self.ring, pk, out)

    def intersect(self, other):
        """I cap J.  A generator of one ideal that the other holds lies in
        I cap J, and every lcm with it is a multiple of it, so such
        generators go in as they are and only the pairs of the rest are
        lcm'd."""
        pk, mine, theirs = self._with(other)
        guard, lcm = pk.guard, pk.lcm
        out, rest = [], []
        for gens, others in ((mine, theirs), (theirs, mine)):
            left = []
            for g in gens:
                (out if _has_divisor(others, g, guard) else left).append(g)
            rest.append(left)
        out += [lcm(g, h) for g in rest[0] for h in rest[1]]
        return MonomialIdeal._of(self.ring, pk, _minimal(sorted(set(out)), guard))

    def colon_monomial(self, mono):
        return self._colon_packed(self._pack_capped(mono))

    def _colon_packed(self, p):
        excess = self._pk.excess
        return self._derived(excess(p, g) for g in self._ints)

    def saturate_variable(self, i):
        """(I : x_i^infinity): zero out the x_i exponent of every generator."""
        keep = ~((1 << self._pk.bits * i) * ((1 << self._pk.bits) - 1))
        return self._derived(g & keep for g in self._ints)

    def _pivot_split(self):
        """None when the minimal generators have pairwise disjoint
        supports; otherwise (i, I + (x_i), I : x_i) for x_i the variable
        in the most generators, the first of those on a tie."""
        supports = self._supports()
        seen = 0
        for s in supports:
            if s & seen:
                break
            seen |= s
        else:
            return None
        pk = self._pk
        shift = pk.bits - 1
        # a field sums the marks of at most 2^B - 1 generators, so sum in
        # chunks of that many
        chunk = (1 << pk.bits) - 1
        counts = [0] * self.ring.n
        for k in range(0, len(supports), chunk):
            total = sum(s >> shift for s in supports[k : k + chunk])
            counts = [a + b for a, b in zip(counts, pk.unpack(total))]
        i = max(range(self.ring.n), key=lambda i: (counts[i], -i))
        x = 1 << pk.bits * i  # x_i
        return i, self._plus_packed(pk, self._ints, x), self._colon_packed(x)

    def _split(self):
        """None when every minimal generator is a pure power; otherwise
        (I + (u), I + (v)) for the first generator g = u*v in ascending int
        order (the exponent tuples compared from x_n down) that has two
        variables, u the power of its last variable, which sits in the
        highest nonzero field of g."""
        pk = self._pk
        bits = pk.bits
        fmask = (1 << bits) - 1
        for g in self._ints:
            top = (g.bit_length() - 1) // bits * bits if g else 0
            u = g & (fmask << top)
            v = g ^ u
            if v:
                return (
                    self._plus_packed(pk, self._ints, u),
                    self._plus_packed(pk, self._ints, v),
                )
        return None

    def standard_monomials(self, bound):
        """The monomials outside the ideal of degree <= bound componentwise,
        as exponent tuples: a walk that raises one variable at a time and
        stops at a multiple of a generator or past the bound.  No variable
        has degree 0, so no exponent passes max(bound) + 1, which the
        fields are widened to hold."""
        n, degrees = self.ring.n, self.ring.degrees
        pk, ints = self._at(_field_bits(max(bound, default=0) + 1))
        guard = pk.guard
        units = [1 << pk.bits * i for i in range(n)]
        e, out = [0] * n, []

        def walk(i, p, deg):
            """Whether e, packed as p, of degree deg and 0 from x_i on, is
            standard of degree <= bound; if so, add each such monomial
            that agrees with e before x_i."""
            if any(map(gt, deg, bound)) or _has_divisor(ints, p, guard):
                return False
            if i == n:
                out.append(tuple(e))
                return True
            while walk(i + 1, p, deg):
                p += units[i]
                e[i] += 1
                deg = tuple(map(add, deg, degrees[i]))
            e[i] = 0
            return True

        walk(0, 0, (0,) * self.ring.p)
        return out


def from_polynomial_gens(ring, polys):
    """Monomial ideal from single-term generators."""
    gens = []
    for f in polys:
        if len(f.terms) != 1:
            raise BadArgument(f"{f} is not a monomial")
        gens.append(next(iter(f.terms)))
    return MonomialIdeal(ring, gens)


def prime_ideal(ring, variables):
    """The monomial prime of the variables of the indices `variables`:
    their exponents packed in 8-bit fields, x_i in field i, with no two
    dividing each other."""
    units = sorted(1 << 8 * i for i in set(variables))
    return MonomialIdeal._of(ring, _packing(ring.n, 8), units)


# ---------------------------------------------------------------------------
# minimal primes


def minimal_primes(I):
    """Minimal primes as frozensets of variable indices: the supports of
    the irreducible components of the radical, which are generated by
    variables; none for the unit ideal and the empty set for the zero
    ideal."""
    supports = (
        frozenset(i for g in P.gens for i, e in enumerate(g) if e)
        for P in irreducible_decomposition(I.radical())
    )
    return sorted(supports, key=lambda c: (len(c), sorted(c)))


# ---------------------------------------------------------------------------
# irreducible / primary decomposition


def irreducible_decomposition(I):
    """Irredundant decomposition into irreducible (pure-power) ideals.

    Each ideal of the split tree with a generator g = u*v of two or more
    variables splits into I + (u) and I + (v), at the first such g in
    ascending int order of the minimal generators (their exponent tuples
    compared from x_n down) and with u the power of g's last variable, so
    the tree and the order of the result depend on I alone.  Irreducible
    monomial ideals are strongly irreducible: if J contains an
    intersection of monomial ideals K_1, ..., K_r, then J contains some
    K_i (take the lcm of witnesses m_i in K_i outside J).
    So a component is redundant exactly when it contains another one, and
    the result is the inclusion-minimal components in the order the
    depth-first split tree, I + (v) first, reaches them.

    A component (x_i^a_i : a_i > 0) is fixed by its exponent vector a,
    the sum of its generators, and it contains (x_i^b_i : b_i > 0)
    exactly when supp b lies in supp a and a_i <= b_i on supp b: two
    guard-bit tests on the vectors, packed at the widest width among the
    components, since one decomposition can mix 8- and 16-bit fields.
    """
    if I.is_unit():
        return []
    done = []
    todo = [I]
    seen = set()
    while todo:
        J = todo.pop()
        if J in seen:
            continue
        seen.add(J)
        sp = J._split()
        if sp is None:
            done.append(J)
        else:
            todo.extend(sp)
    bits = max(J._pk.bits for J in done)
    guard = _packing(I.ring.n, bits).guard
    up = guard - (guard >> (bits - 1))  # 2^(B-1) - 1 per field
    comps = []  # (a, supp a marked by guard bits, the value bits of supp a)
    for J in done:
        a = sum(J._at(bits)[1])
        s = (a + up) & guard
        comps.append((a, s, s - (s >> (bits - 1))))
    return [
        J
        for J, (a, s, _) in zip(done, comps)
        if not any(b != a and not t & ~s and not (b - (a & m)) & guard for b, t, m in comps)
    ]


class PrimaryComponent:
    """One primary component together with its prime."""

    def __init__(self, prime, component):
        self.prime = frozenset(prime)
        self.component = component

    def __repr__(self):
        return f"PrimaryComponent(prime={sorted(self.prime)}, {self.component!r})"


def primary_decomposition(I):
    """Irredundant primary decomposition via merged irreducibles.

    Grouping an irredundant irreducible decomposition by radical is already
    irredundant: if the merged component Q_P contained the intersection of
    the other groups, every irreducible J of P's group would contain it too,
    hence (strong irreducibility) contain an irreducible of another group,
    which the irredundancy of irreducible_decomposition rules out.
    """
    by_prime = {}
    for J in irreducible_decomposition(I):
        by_prime.setdefault(frozenset(J.support_vars()), []).append(J)
    return [
        PrimaryComponent(prime, reduce(MonomialIdeal.intersect, by_prime[prime]))
        for prime in sorted(by_prime, key=lambda P: (len(P), sorted(P)))
    ]


def localize_at(I, prime):
    """Set the variables outside `prime` to 1 and re-minimalize.

    Returns a MonomialIdeal in the subring on the prime's variables
    (GradedRing.subring), which keeps their degree vectors whole.
    """
    keep = sorted(prime)
    return MonomialIdeal(
        I.ring.subring(keep), [tuple(g[i] for i in keep) for g in I.gens]
    )


# ---------------------------------------------------------------------------
# Borel-fixedness


def _block_layout(ring):
    if not ring.is_standard:
        raise NotStandardGraded("operation requires a standard N^p-graded ring")
    return [ring.block_variables(k) for k in range(ring.p)]


def borel_fixed_check(I):
    """Characteristic-zero Borel exchange test, per grading block.

    Within each block the declaration order is read as x_{i,0} > x_{i,1} > ...;
    the test asks that x_{i,j-1} * m / x_{i,j} stays in the ideal.
    """
    blocks = _block_layout(I.ring)
    for g in I.gens:
        for block in blocks:
            for pos in range(1, len(block)):
                j = block[pos]
                if g[j] > 0:
                    prev = block[pos - 1]
                    m = list(g)
                    m[j] -= 1
                    m[prev] += 1
                    if not I.contains(tuple(m)):
                        return False
    return True


def borel_prime_exponent(prime, ring):
    """If `prime` is generated by leading segments of each block, return the
    segment-length vector a (so prime == P_a); otherwise None."""
    blocks = _block_layout(ring)
    a = []
    prime = set(prime)
    for block in blocks:
        k = 0
        while k < len(block) and block[k] in prime:
            k += 1
        if any(v in prime for v in block[k:]):
            return None
        a.append(k)
    return tuple(a)


# ---------------------------------------------------------------------------
# Stanley-Reisner / Reisner criterion


class SimplicialComplex:
    """Finite simplicial complex given by its facets, at least one, on
    integer vertices: the complex of a squarefree ideal other than the
    unit ideal, and each link in it, since every face lies in a facet."""

    def __init__(self, vertices, facets):
        self.vertices = sorted(set(vertices))
        facets = {frozenset(f) for f in facets}
        self.facets = sorted(
            (f for f in facets if not any(f < g for g in facets)),
            key=lambda f: (len(f), sorted(f)),
        )

    def dim(self):
        return max(len(f) for f in self.facets) - 1

    def faces(self):
        seen = set()
        for f in self.facets:
            f = sorted(f)
            for mask in range(1 << len(f)):
                face = frozenset(f[i] for i in range(len(f)) if mask >> i & 1)
                seen.add(face)
        return seen

    def link(self, face):
        face = frozenset(face)
        facets = [f - face for f in self.facets if face <= f]
        return SimplicialComplex(set().union(*facets), facets)

    def cone_points(self):
        common = set(self.facets[0])
        for f in self.facets[1:]:
            common &= f
        return common

    def core(self):
        """Strip cone vertices (CM is preserved in both directions)."""
        cp = self.cone_points()
        if not cp:
            return self
        return SimplicialComplex(
            [v for v in self.vertices if v not in cp],
            [f - cp for f in self.facets],
        )


def stanley_reisner_complex(I):
    """Complex whose minimal non-faces are the generators of squarefree I:
    its facets are the complements of the minimal primes of I."""
    if not I.is_squarefree():
        raise NotSquarefree("Stanley-Reisner complex requires a squarefree ideal")
    n = I.ring.n
    verts = [i for i in range(n) if not I.contains(tuple(int(j == i) for j in range(n)))]
    return SimplicialComplex(verts, [frozenset(range(n)) - P for P in minimal_primes(I)])


def reduced_homology_ranks(complex_, p):
    """Ranks of the reduced homology groups over F_p, indexed by dimension."""
    faces = complex_.faces()
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for d in by_dim:
        by_dim[d].sort()
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in by_dim.items()}
    top = max(by_dim)
    # boundary_d : C_d -> C_{d-1}; include d = 0 (reduced: C_{-1} = span(empty))
    ranks = {}
    bd_rank = {}
    for d in range(0, top + 1):
        rows = []
        lower = index.get(d - 1, {})
        for f in by_dim.get(d, []):
            row = {}
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                row[lower[sub]] = (-1) ** i
            rows.append(row)
        bd_rank[d] = rank_mod_p(rows, p)
    bd_rank[top + 1] = 0
    for d in range(-1, top + 1):
        nfaces = len(by_dim.get(d, []))
        ranks[d] = nfaces - bd_rank.get(d, 0) - bd_rank.get(d + 1, 0)
    return ranks


def reisner_cm_check(I, p):
    """Cohen-Macaulayness over F_p of the Stanley-Reisner ring of I, a
    squarefree ideal other than the unit ideal (gin-report raises
    EmptyScheme on a unit gin before it asks).

    Checks that every face link has vanishing reduced homology below its
    dimension.  Cone vertices are stripped first; this keeps the desk-scale
    bound honest for Borel-fixed radicals whose core is small.
    """
    complex_ = stanley_reisner_complex(I).core()
    if len(complex_.vertices) > MAX_CORE_VERTICES:
        raise TooManyVertices(
            f"{len(complex_.vertices)} vertices exceeds the limit {MAX_CORE_VERTICES}"
        )
    # non-pure complexes are never CM
    if len({len(f) for f in complex_.facets}) > 1:
        return False
    for face in complex_.faces():
        link = complex_.link(face)
        d = link.dim()
        if d <= 0:
            # a (-1)- or 0-dimensional link is CM iff it is nonempty, which
            # holds by construction; 0-dim needs reduced H_{-1} = 0, automatic
            continue
        ranks = reduced_homology_ranks(link, p)
        if any(ranks.get(i, 0) for i in range(-1, d)):
            return False
    return True
