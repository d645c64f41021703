"""K-polynomials, multidegrees and the multiplicity table.

The K-polynomial of S/I is the numerator of the multigraded Hilbert series
over prod(1 - t^deg(x)).  For monomial ideals it is computed by the
variable-splitting recursion, on dicts from t-exponents packed into ints
(ring._Packing, one field per grading coordinate) to coefficients;
general homogeneous ideals go through their initial ideal, which has the
same Hilbert function.  The multidegree C is the lowest-degree part of
K(S/I; 1 - t).  multidegree_C walks the same pivot tree without
expanding K(1 - t): each node keeps only its codimension and lowest
part.  Every lowest part has positive coefficients and the factor
(1 - t)^deg(x) of a split starts with 1, so a split adds its children's
lowest parts without cancellation.  The other invariants are read off
K(1 - t).
HilbertHint carries K(S/I) into Buchberger runs on ideals with that
Hilbert function, and takes their leading terms as packed ints.
hilbert_function_oracle counts standard monomials instead, as an
independent check of K (the hf-oracle command).
"""

from functools import reduce
from math import comb, prod
from operator import add, gt, mul

from .errors import BadArgument, BoundTooLarge, EmptyScheme, NotStandardGraded
from .groebner import saturate_irrelevant, saturate_var_block
from .intpoly import ZZ, IntegerPolynomial
from .monomial import (
    MonomialIdeal,
    _has_divisor,
    codim_of,
    localize_at,
    minimalize,
    primary_decomposition,
)
from .ring import _add_mul, _field_bits, _packing, _times

#: Largest componentwise bound hilbert_function_oracle enumerates up to.
ORACLE_BOUND_LIMIT = 8


def k_polynomial_monomial(I):
    """K(S/I; t) for a monomial ideal, by the colon/sum recursion.

    Splits off one variable: with x the variable in the most minimal
    generators, K(S/I) = K(S/(I + (x))) + t^deg(x) * K(S/(I : x)).
    Generators with pairwise disjoint supports form a regular sequence,
    giving the base case prod(1 - t^deg(g)).  The recursion runs on
    {packed t-exponent: coefficient} dicts (_k_packed), t packed by the
    plain ring._Packing of p fields wide enough for deg(lcm of the
    generators); that bounds every node, because the pivot x divides the
    lcm, and so do lcm(I + (x)) and lcm(I : x) * x.
    """
    ring = I.ring
    pk = I._pk
    top = ring.monomial_degree(pk.unpack(reduce(pk.lcm, I._ints, 0)))
    tpk = _packing(ring.p, _field_bits(max(top, default=0)))
    terms = _k_packed(I, [tpk.pack(d) for d in ring.degrees])
    return IntegerPolynomial(ring.p, tpk.unpack_dict(terms))


def _k_packed(I, tdeg):
    """K(S/I) as a dict from packed t-exponent to nonzero coefficient,
    tdeg[i] the packed degree of the ring's variable x_i."""
    if I.is_unit():
        return {}
    split = I._pivot_split()
    if split is None:
        out = {0: 1}
        unpack = I._pk.unpack
        for g in I._ints:
            _add_mul(out, -1, sum(map(mul, unpack(g), tdeg)), dict(out), ZZ, 0)
        return out
    i, plus, quot = split
    out = _k_packed(plus, tdeg)
    _add_mul(out, 1, tdeg[i], _k_packed(quot, tdeg), ZZ, 0)
    return out


def k_polynomial(I, order=None):
    """K(S/I; t) for a homogeneous ideal or a MonomialIdeal."""
    return k_polynomial_monomial(I.initial_ideal(order))


class HilbertHint:
    """K(S/I) of an ideal I of a standard graded ring S, as a stopping rule
    for Buchberger on an ideal J with the Hilbert function of I, such as
    g(I) for a block change of coordinates g (groebner.buchberger).

    The monomial ideal L of the leading terms found so far lies in in(J),
    so HF(S/L, d) >= HF(S/J, d) = HF(S/I, d) at every multidegree d, with
    equality exactly when L_d = in(J)_d.  `saturated` reports that
    equality at the degree of a monomial: every element of J of that
    degree then reduces to zero, S-polynomials included.  `complete`
    reports K(S/L) = K(S/I), which means L = in(J).  Both work on the
    excess K(S/L) - K(S/I): HF(S/L, d) - HF(S/I, d) is the sum over its
    terms c*t^a of c times the number of monomials of degree d - a.

    The hint is the state of one Buchberger run at a time: `start` sets L
    to 0 for the run's packing, and `add` feeds it each new leading term,
    packed by that packing.  The excess is a dict from packed t-exponent
    to coefficient, kept by K(S/(L + m)) = K(S/L) - t^deg(m) * K(S/(L : m)).
    """

    def __init__(self, I):
        ring = I.ring
        if not ring.is_standard:
            raise NotStandardGraded("a Hilbert hint needs a standard grading")
        self.ring = ring
        self.k = k_polynomial(I)
        self._sizes = [len(ring.block_variables(k)) for k in range(ring.p)]

    def start(self, pk):
        """Begin a run whose exponents pk packs, with L = 0."""
        ring = self.ring
        n = ring.n
        # a block degree of a monomial pk holds is at most n times the
        # largest exponent a field holds
        top = n * ((1 << (pk.bits - 1)) - 1)
        kmax = max((max(e, default=0) for e in self.k.terms), default=0)
        tpk = _packing(ring.p, _field_bits(max(top, kmax)))
        self._pk = pk
        self._tpk = tpk
        self._tdeg = [tpk.pack(d) for d in ring.degrees]
        self._L = MonomialIdeal(ring, ())
        self._excess = {0: 1}
        _add_mul(self._excess, -1, 0, tpk.pack_dict(self.k.terms), ZZ, 0)
        self._saturated = {}  # packed degree -> saturated for the current L

    def add(self, lt):
        """Put the packed leading term lt, which L does not hold, into L."""
        L, e = self._L, self._pk.unpack(lt)
        quot, self._L = L.colon_monomial(e), L.add_monomial(e)
        shift = sum(map(mul, e, self._tdeg))
        _add_mul(self._excess, -1, shift, _k_packed(quot, self._tdeg), ZZ, 0)
        self._saturated = {}

    def complete(self):
        """K(S/L) = K(S/I)."""
        return not self._excess

    def saturated(self, mono):
        """HF(S/L, d) = HF(S/I, d) at d = deg(mono), mono packed."""
        d = sum(map(mul, self._pk.unpack(mono), self._tdeg))
        hit = self._saturated.get(d)
        if hit is None:
            guard = self._tpk.guard
            hit = not sum(
                c * self._count(d - a)
                for a, c in self._excess.items()
                if not (d - a) & guard
            )
            self._saturated[d] = hit
        return hit

    def _count(self, d):
        """Number of monomials of the packed degree d >= 0: per block of
        n_k variables C(d_k + n_k - 1, n_k - 1), and for an empty block 1
        if d_k = 0."""
        out = 1
        for dk, nk in zip(self._tpk.unpack(d), self._sizes):
            if nk:
                out *= comb(dk + nk - 1, nk - 1)
            elif dk:
                return 0
        return out


def codimension(I, order=None):
    return codim_of(I.initial_ideal(order))


def multidegree_C(I, order=None):
    """The multidegree C(S/I): the lowest-degree part of K(S/I; 1 - t),
    0 for the unit ideal and 1 for the zero ideal, read off the initial
    ideal of I (I itself for a MonomialIdeal).

    Computed on the pivot tree of k_polynomial_monomial, where each node
    keeps only (codim, lowest part) (Miller-Sturmfels, Combinatorial
    Commutative Algebra, ch. 8):
    - generators with pairwise disjoint supports are a regular sequence,
      of codim their number and C = prod <deg g, t>;
    - at a split, K(S/I; 1 - t) = K(S/(I + x); 1 - t)
      + (1 - t)^deg(x) K(S/(I : x); 1 - t), and (1 - t)^deg(x) starts
      with 1, so the node's codim is the smaller child's and its C that
      child's C, or the sum of both children's C on a tie.
    By induction each node's C is nonzero with positive coefficients, so
    that sum never cancels.
    """
    I = I.initial_ideal(order)
    ring = I.ring
    # C has total degree codim I <= n, so no t-exponent passes n
    tpk = _packing(ring.p, _field_bits(ring.n))
    units = [tpk.pack([int(j == k) for j in range(ring.p)]) for k in range(ring.p)]
    return IntegerPolynomial(ring.p, tpk.unpack_dict(_c_packed(I, units)[1]))


def _c_packed(I, units):
    """(codim I, C(S/I)) for a monomial ideal by multidegree_C's
    recursion, C as a dict from packed t-exponent to coefficient, units[k]
    the packed t_k; the unit ideal gets codim n + 1, as in
    monomial.codim_of, and C = 0."""
    if I.is_unit():
        return I.ring.n + 1, {}
    split = I._pivot_split()
    if split is None:
        out = {0: 1}
        degree, unpack = I.ring.monomial_degree, I._pk.unpack
        for g in I._ints:
            form = {u: d for u, d in zip(units, degree(unpack(g))) if d}
            out = _times(out, form, ZZ, 0)
        return len(I._ints), out
    _, plus, quot = split
    c, C = _c_packed(plus, units)
    cq, Cq = _c_packed(quot, units)
    if cq < c:
        return cq, Cq
    if cq == c:
        _add_mul(C, 1, 0, Cq, ZZ, 0)
    return c, C


def multidegree_G(I, order=None):
    """G-multidegree: terms of K(1-t) minimal in the divisibility order."""
    sub = k_polynomial(I, order).substitute_one_minus_t()
    keep = minimalize(sub.terms)
    return IntegerPolynomial(sub.p, {e: c for e, c in sub.terms.items() if e in keep})


def cee_of_quotient_prime(ring, prime):
    """C(S/P) for a monomial prime given as a variable index set."""
    J = MonomialIdeal(
        ring,
        [tuple(int(j == i) for j in range(ring.n)) for i in prime],
    )
    return multidegree_C(J)


def finite_length(k, ring):
    """Length of a graded module M of finite length over `ring`, from its
    K-polynomial k = K(M; t).

    K(M; t) = H(M; t) * prod (1 - t^deg x_i), where the Hilbert series
    H(M; t) is a polynomial with H(M; 1) = length(M).  After t -> 1 - t
    each factor 1 - (1 - t)^deg(x_i) starts in total degree 1 with
    <deg x_i, t>, so the lowest part, of total degree ring.n, is
    length(M) * prod <deg x_i, t>; at t = 1 it reads length(M) times the
    product of the |deg x_i|.
    """
    top = sum(
        c for e, c in k.substitute_one_minus_t().terms.items() if sum(e) == ring.n
    )
    return top // prod(sum(d) for d in ring.degrees)


def arithmetic_multidegree(I):
    """A(S/I) = sum over associated primes P of the local H^0 length times
    the multidegree of S/P.  Monomial ideals only.  At a minimal prime that
    length is the component's length_at_prime.  At an embedded prime, with
    loc = I with the variables outside P set to 1, and sat = loc : m^infinity
    for the ideal m of the variables of P, it is the length of sat/loc,
    which finite_length reads off K(S/loc) - K(S/sat).
    """
    if not isinstance(I, MonomialIdeal):
        raise TypeError("arithmetic multidegree requires a monomial ideal")
    ring = I.ring
    p = ring.p
    out = IntegerPolynomial.zero(p)
    for comp in primary_decomposition(I):
        prime = comp.prime
        length = comp.length_at_prime
        if length is None:
            loc = localize_at(I, prime)
            sat = saturate_var_block(loc, range(loc.ring.n))
            # H^0 at the prime is sat/loc, of finite length since it is
            # annihilated by a power of every variable
            length = finite_length(
                k_polynomial_monomial(loc) - k_polynomial_monomial(sat), loc.ring
            )
        if length:
            out = out + length * cee_of_quotient_prime(ring, prime)
    return out


class MultiplicityTable:
    """Mixed multiplicities e(n) of a saturated standard multigraded ideal."""

    def __init__(self, ring, dim, entries, msupp, cee):
        self.ring = ring
        self.dim = dim  # multiprojective dimension
        self.entries = entries  # dict n -> positive int
        self.msupp = msupp  # list of maximal support profiles
        self.cee = cee

    def __repr__(self):
        rows = ", ".join(f"e({n})={v}" for n, v in sorted(self.entries.items()))
        return f"MultiplicityTable(dim={self.dim}, {rows})"


def geometric_multidegrees(I, order=None):
    """Multiplicity table of the scheme cut out by I (always saturates).

    Requires a standard N^p-graded ring.  e(n) is the coefficient of
    t^(m - n) in C of the saturation, m the block dimension vector; the
    support MSupp collects the n with e(n) != 0.
    """
    ring = I.ring
    if not ring.is_standard:
        raise NotStandardGraded("multiplicity table needs a standard grading")
    sat_ideal = saturate_irrelevant(I)
    if sat_ideal.is_unit():
        raise EmptyScheme("the ideal cuts out the empty scheme")
    cee = multidegree_C(sat_ideal, order)
    m = [max(len(ring.block_variables(k)) - 1, 0) for k in range(ring.p)]
    total_m = sum(m)
    dim = total_m - cee.min_total_degree()
    entries = {}
    for e, c in cee.terms.items():
        n = tuple(mk - ek for mk, ek in zip(m, e))
        if any(v < 0 for v in n):
            continue
        entries[n] = c
    msupp = sorted(n for n in entries if entries[n])
    return MultiplicityTable(ring, dim, entries, msupp, cee)


def hilbert_function_oracle(I, bound, order=None):
    """Exact Hilbert function values for all multidegrees <= bound.

    Counts standard monomials of the initial ideal degree by degree, so
    it does not depend on the K-polynomial recursion; the componentwise
    bound is capped at ORACLE_BOUND_LIMIT because the enumeration is
    exponential in it.  Returns a dict nu -> dim_k (S/I)_nu.
    """
    ring = I.ring
    bound = tuple(bound)
    if len(bound) != ring.p:
        raise BadArgument("bound length must equal the number of blocks")
    if any(b < 0 for b in bound):
        raise BadArgument("bound must be componentwise non-negative")
    if any(b > ORACLE_BOUND_LIMIT for b in bound):
        raise BoundTooLarge(f"componentwise bound above {ORACLE_BOUND_LIMIT}")
    mono = I.initial_ideal(order)
    n, degrees = ring.n, ring.degrees
    # every variable has a nonzero degree, so no exponent of the walk
    # passes ORACLE_BOUND_LIMIT + 1, which a field of any width holds: the
    # walk adds packed unit vectors to a packed exponent
    ints, guard = mono._ints, mono._pk.guard
    units = [mono._unit_vector(i) for i in range(n)]
    counts = {}

    def rec(i, p, deg):
        """Count the standard monomials of degree <= bound whose exponents
        before variable i are those of the packed p, of degree deg."""
        if i == n:
            counts[deg] = counts.get(deg, 0) + 1
            return
        step = degrees[i]
        while not (any(map(gt, deg, bound)) or _has_divisor(ints, p, guard)):
            rec(i + 1, p, deg)
            p += units[i]
            deg = tuple(map(add, deg, step))

    rec(0, 0, (0,) * ring.p)
    return counts
