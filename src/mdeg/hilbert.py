"""K-polynomials, multidegrees and the multiplicity table.

The K-polynomial of S/I is the numerator of the multigraded Hilbert series
over prod(1 - t^deg(x)).  For monomial ideals it is computed by the
variable-splitting recursion (MonomialIdeal._pivot_split), on dicts from
t-exponents packed into ints (ring._Packing, one field per grading
coordinate) to coefficients, whose leaves read exponent tuples; general
homogeneous ideals go through their initial ideal, which has the same
Hilbert function.  The multidegree C is the lowest-degree part of
K(S/I; 1 - t).  multidegree_C walks the same pivot tree without
expanding K(1 - t): each node keeps only its codimension and lowest
part, and codimension is the root's.  Every lowest part has positive
coefficients and the factor (1 - t)^deg(x) of a split starts with 1, so
a split adds its children's lowest parts without cancellation.  The
other invariants are read off K(1 - t).  finite_length reads the length
of a finite-length module off its K-polynomial; local_length, the length
of H^0 of S/I at a monomial prime, is the weight of each associated prime
in the arithmetic multidegree and the component length of the gin report.
HilbertHint carries K(S/I) into Buchberger runs on ideals with that
Hilbert function, and takes their leading terms as packed ints; it is a
tree of the states those leading terms reach, shared by the trials of
one gin, so a trial that meets the leading terms of an earlier one finds
each state computed.
hilbert_function_oracle counts MonomialIdeal.standard_monomials of the
initial ideal instead, as an independent check of K (hf-oracle).
"""

from collections import Counter
from math import comb, prod
from operator import mul

from .errors import BadArgument, BoundTooLarge, EmptyScheme, NotStandardGraded
from .fields import QQ
from .groebner import saturate_irrelevant, saturate_var_block
from .intpoly import IntegerPolynomial
from .monomial import MonomialIdeal, localize_at, minimalize, primary_decomposition
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
    top = ring.monomial_degree([max(column) for column in zip(*I.gens)])
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
        for g in I.gens:
            _add_mul(out, -1, sum(map(mul, g, tdeg)), dict(out), QQ, 0)
        return out
    i, plus, quot = split
    out = _k_packed(plus, tdeg)
    _add_mul(out, 1, tdeg[i], _k_packed(quot, tdeg), QQ, 0)
    return out


def k_polynomial(I, order=None):
    """K(S/I; t) for a homogeneous ideal or a MonomialIdeal."""
    return k_polynomial_monomial(I.initial_ideal(order))


class _State:
    """A node of HilbertHint's tree, for the leading terms on its path:
    L, the monomial ideal they generate; the excess K(S/L) - K(S/I), a dict
    from packed t-exponent to coefficient; the saturation answers found at
    it, by packed degree; and, per leading term t that has joined L here,
    the child for L + (t) and the new pairs groebner._update_pairs keeps
    when t joins."""

    __slots__ = ("L", "excess", "saturated", "children", "new_pairs")

    def __init__(self, L, excess):
        self.L, self.excess = L, excess
        self.saturated, self.children, self.new_pairs = {}, {}, {}


class HilbertHint:
    """K(S/I) of an ideal I of a standard graded ring S, as a stopping rule
    for Buchberger on ideals J with the Hilbert function of I, such as the
    g(I) of the trials of genin.gin, for block changes of coordinates g
    (groebner.gin_trial).

    The monomial ideal L of the leading terms found so far lies in in(J),
    so HF(S/L, d) >= HF(S/J, d) = HF(S/I, d) at every multidegree d, with
    equality exactly when L_d = in(J)_d.  `saturated` reports that
    equality at the degree of a monomial: every element of J of that
    degree then reduces to zero, S-polynomials included.  `complete`
    reports K(S/L) = K(S/I), which means L = in(J).  Both work on the
    excess K(S/L) - K(S/I): HF(S/L, d) - HF(S/I, d) is the sum over its
    terms c*t^a of c times the number of monomials of degree d - a.

    The hint is a tree of states (_State) keyed by packed leading terms,
    with one root per packing.  A run's `start` takes the root for its
    packing, where L = 0, and `add` feeds it each new leading term, packed
    by that packing, and moves to the child for that term.  A node's L,
    excess, saturation answers and new pairs depend only on the leading
    terms on its path, so a child is computed the first time a run reaches
    it, the excess by K(S/(L + m)) = K(S/L) - t^deg(m) * K(S/(L : m)), and
    is taken as it stands by every later run that meets the same leading
    terms, as the trials of one gin usually do.  A run that leaves the
    path grows a branch.
    """

    def __init__(self, I):
        ring = I.ring
        if not ring.is_standard:
            raise NotStandardGraded("a Hilbert hint needs a standard grading")
        self.ring = ring
        self.k = k_polynomial(I)
        self._sizes = [len(ring.block_variables(k)) for k in range(ring.p)]
        self._roots = {}  # packing -> (root, t-exponent packing, packed variable degrees)

    def start(self, pk):
        """Begin a run whose exponents pk packs, at the root, where L = 0."""
        if pk not in self._roots:
            ring = self.ring
            # a block degree of a monomial pk holds is at most n times the
            # largest exponent a field holds
            top = ring.n * ((1 << (pk.bits - 1)) - 1)
            kmax = max((max(e, default=0) for e in self.k.terms), default=0)
            tpk = _packing(ring.p, _field_bits(max(top, kmax)))
            excess = {0: 1}
            _add_mul(excess, -1, 0, tpk.pack_dict(self.k.terms), QQ, 0)
            root = _State(MonomialIdeal(ring, ()), excess)
            self._roots[pk] = root, tpk, [tpk.pack(d) for d in ring.degrees]
        self._pk = pk
        self._node, self._tpk, self._tdeg = self._roots[pk]

    def add(self, lt):
        """Put the packed leading term lt, which L does not hold, into L."""
        node = self._node
        child = node.children.get(lt)
        if child is None:
            L, e = node.L, self._pk.unpack(lt)
            excess = dict(node.excess)
            shift = sum(map(mul, e, self._tdeg))
            _add_mul(excess, -1, shift, _k_packed(L.colon_monomial(e), self._tdeg), QQ, 0)
            child = node.children[lt] = _State(L.add_monomial(e), excess)
        self._node = child

    @property
    def new_pairs(self):
        """The current node's dict from a packed leading term to the new
        pairs kept when it joins L, for groebner._update_pairs."""
        return self._node.new_pairs

    def complete(self):
        """K(S/L) = K(S/I)."""
        return not self._node.excess

    def saturated(self, mono):
        """HF(S/L, d) = HF(S/I, d) at d = deg(mono), mono packed."""
        node = self._node
        d = sum(map(mul, self._pk.unpack(mono), self._tdeg))
        hit = node.saturated.get(d)
        if hit is None:
            guard = self._tpk.guard
            hit = not sum(
                c * self._count(d - a)
                for a, c in node.excess.items()
                if not (d - a) & guard
            )
            node.saturated[d] = hit
        return hit

    def _count(self, d):
        """Number of monomials of the packed degree d >= 0: per block of
        n_k variables C(d_k + n_k - 1, n_k - 1), and 1 for an empty block,
        where every degree of the ring, and so d, is 0."""
        out = 1
        for dk, nk in zip(self._tpk.unpack(d), self._sizes):
            if nk:
                out *= comb(dk + nk - 1, nk - 1)
        return out


def codimension(I):
    """codim I, which _c_packed finds on in(I) as the total degree of every
    term of C(S/I); n + 1 for the unit ideal, whose C is 0."""
    return min(map(sum, multidegree_C(I).terms), default=I.ring.n + 1)


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
    tpk, units = _c_units(I.ring)
    return IntegerPolynomial(I.ring.p, tpk.unpack_dict(_c_packed(I, units)[1]))


def _c_units(ring):
    """(tpk, units): the packing of C's t-exponents, which never pass n,
    since C has total degree codim <= n, and units[k] the packed t_k."""
    tpk = _packing(ring.p, _field_bits(ring.n))
    return tpk, [tpk.pack([int(j == k) for j in range(ring.p)]) for k in range(ring.p)]


def _forms_product(degrees, units):
    """The product of the linear forms <d, t> = sum_k d_k t_k over the
    degree vectors d, as a dict from packed t-exponent to coefficient,
    units[k] the packed t_k: C of a regular sequence of monomials of
    those degrees."""
    out = {0: 1}
    for d in degrees:
        out = _times(out, {u: c for u, c in zip(units, d) if c}, QQ, 0)
    return out


def _c_packed(I, units):
    """(codim I, C(S/I)) for a monomial ideal by multidegree_C's
    recursion, C as a dict from packed t-exponent to coefficient, units[k]
    the packed t_k; the unit ideal gets codim n + 1, one more than any
    proper ideal's, and C = 0."""
    if I.is_unit():
        return I.ring.n + 1, {}
    split = I._pivot_split()
    if split is None:
        return len(I.gens), _forms_product(map(I.ring.monomial_degree, I.gens), units)
    _, plus, quot = split
    c, C = _c_packed(plus, units)
    cq, Cq = _c_packed(quot, units)
    if cq < c:
        return cq, Cq
    if cq == c:
        _add_mul(C, 1, 0, Cq, QQ, 0)
    return c, C


def multidegree_G(I):
    """G-multidegree: terms of K(1-t) minimal in the divisibility order."""
    sub = k_polynomial(I).substitute_one_minus_t()
    keep = minimalize(sub.terms)
    return IntegerPolynomial(sub.p, {e: c for e, c in sub.terms.items() if e in keep})


def cee_of_quotient_prime(ring, prime):
    """C(S/P) for the monomial prime P of the variable indices `prime`:
    its variables are a regular sequence, so C is the product of the
    forms <deg x_i, t> over i in P, as at a leaf of multidegree_C."""
    tpk, units = _c_units(ring)
    C = _forms_product((ring.degrees[i] for i in prime), units)
    return IntegerPolynomial(ring.p, tpk.unpack_dict(C))


def finite_length(k, ring):
    """Length of a graded module M of finite length over `ring`, from its
    K-polynomial k = K(M; t).

    K(M; t) = H(M; t) * prod (1 - t^deg x_i), where the Hilbert series
    H(M; t) is a polynomial with H(M; 1) = length(M).  Put every t_k equal
    to s: each factor becomes 1 - s^|deg x_i| = (1 - s) [|deg x_i|]_s, so
    K(M; s) = (1 - s)^n H(M; s) prod [|deg x_i|]_s for n = ring.n, and its
    n-th derivative at s = 1 is (-1)^n n! length(M) prod |deg x_i|.  The
    term c t^e of K contributes c s^|e|, whose n-th derivative at 1 is
    n! c C(|e|, n).  So length(M) = (-1)^n sum c C(|e|, n) / prod |deg x_i|,
    with no expansion of K(M; 1 - t).
    """
    n = ring.n
    total = sum(c * comb(sum(e), n) for e, c in k.terms.items())
    return (-1) ** n * total // prod(sum(d) for d in ring.degrees)


def local_length(I, prime):
    """Length of H^0 of (S/I) localized at the monomial prime P of the
    variable indices `prime`: positive exactly when P is an associated
    prime of the monomial ideal I, and 0 otherwise.

    With loc = localize_at(I, P), in the ring T on P's variables, and
    sat = loc : m^infinity for m the ideal of T's variables, H^0 is
    sat/loc, of finite length since a power of every variable annihilates
    it, and finite_length reads it off K(T/loc) - K(T/sat).  sat is the
    unit ideal, whose K is 0, exactly when loc holds a power of every
    variable (MonomialIdeal.has_finite_colength), as at a minimal prime
    of I or when loc is the unit ideal; then the length is that of T/loc
    and nothing is saturated.  At the empty prime T is the field and
    m = 0, so sat is the unit ideal, not the loc that saturate_var_block
    returns for no variables: the length is 1 for the zero ideal and 0
    otherwise.
    """
    prime = frozenset(prime)
    if not prime <= set(range(I.ring.n)):
        raise BadArgument(f"{sorted(prime)} is not a set of variable indices")
    if not prime:
        return int(I.is_zero())
    loc = localize_at(I, prime)
    k = k_polynomial_monomial(loc)
    if not loc.has_finite_colength():
        k = k - k_polynomial_monomial(saturate_var_block(loc, range(loc.ring.n)))
    return finite_length(k, loc.ring)


def arithmetic_multidegree(I):
    """A(S/I) = sum over the associated primes P of I of local_length(I, P)
    times the multidegree of S/P.  Monomial ideals only."""
    if not isinstance(I, MonomialIdeal):
        raise TypeError("arithmetic multidegree requires a monomial ideal")
    out = IntegerPolynomial(I.ring.p)
    for comp in primary_decomposition(I):
        out = out + local_length(I, comp.prime) * cee_of_quotient_prime(I.ring, comp.prime)
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


def geometric_multidegrees(I):
    """Multiplicity table of the scheme cut out by I (always saturates).

    Requires a standard N^p-graded ring.  e(n) is the coefficient of
    t^(m - n) in C of the saturation, m the block dimension vector; the
    support MSupp collects the n with e(n) != 0: all of them, since C
    holds no zero coefficient.  Every n is >= 0: no associated prime of
    the saturation holds a whole block, so no component's C has a t_k
    exponent above m_k.
    """
    ring = I.ring
    if not ring.is_standard:
        raise NotStandardGraded("multiplicity table needs a standard grading")
    sat_ideal = saturate_irrelevant(I)
    if sat_ideal.is_unit():
        raise EmptyScheme("the ideal cuts out the empty scheme")
    cee = multidegree_C(sat_ideal)
    m = [max(len(ring.block_variables(k)) - 1, 0) for k in range(ring.p)]
    total_m = sum(m)
    dim = total_m - cee.min_total_degree()
    entries = {tuple(mk - ek for mk, ek in zip(m, e)): c for e, c in cee.terms.items()}
    msupp = sorted(entries)
    return MultiplicityTable(ring, dim, entries, msupp, cee)


def hilbert_function_oracle(I, bound):
    """Exact Hilbert function values at the multidegrees <= bound.

    Counts the standard monomials of the initial ideal
    (MonomialIdeal.standard_monomials) degree by degree, so it does not
    depend on the K-polynomial recursion; the componentwise bound is
    capped at ORACLE_BOUND_LIMIT because the enumeration is exponential in
    it.  Returns a dict nu -> dim_k (S/I)_nu of the nonzero values: a
    missing nu <= bound has value 0, as HF(0, 1) of (z) in k[x, y | z].
    """
    ring = I.ring
    bound = tuple(bound)
    if len(bound) != ring.p:
        raise BadArgument("bound length must equal the number of blocks")
    if any(b < 0 for b in bound):
        raise BadArgument("bound must be componentwise non-negative")
    if any(b > ORACLE_BOUND_LIMIT for b in bound):
        raise BoundTooLarge(f"componentwise bound above {ORACLE_BOUND_LIMIT}")
    tpk = _packing(ring.p, _field_bits(max(bound, default=0)))  # holds each degree counted
    tdeg = [tpk.pack(d) for d in ring.degrees]
    standard = I.initial_ideal().standard_monomials(bound)
    return tpk.unpack_dict(Counter(sum(map(mul, e, tdeg)) for e in standard))
