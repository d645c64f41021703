"""K-polynomials, multidegrees and the multiplicity table.

The K-polynomial of S/I is the numerator of the multigraded Hilbert series
over prod(1 - t^deg(x)).  For monomial ideals it is computed by the
variable-splitting recursion; general homogeneous ideals go through their
initial ideal, which has the same Hilbert function.  HilbertHint carries
K(S/I) into Buchberger runs on ideals with that Hilbert function.
"""

from math import comb, prod

from .errors import (
    BadArgument,
    BoundTooLarge,
    EmptyScheme,
    LowerDegreeTermsPresent,
    NotStandardGraded,
)
from .groebner import saturate_irrelevant, saturate_var_block
from .intpoly import IntegerPolynomial, series_expansion
from .monomial import (
    MonomialIdeal,
    codim_of,
    dimension_filtration,
    localize_at,
    minimalize,
    primary_decomposition,
)

#: Largest componentwise bound hilbert_function_oracle enumerates up to.
ORACLE_BOUND_LIMIT = 8


def k_polynomial_monomial(I, _memo=None):
    """K(S/I; t) for a monomial ideal, by the colon/sum recursion.

    Splits off one variable: with x the variable in the most minimal
    generators, K(S/I) = K(S/(I + (x))) + t^deg(x) * K(S/(I : x)).
    Generators with pairwise disjoint supports form a regular sequence,
    giving the base case prod(1 - t^deg(g)).
    """
    if _memo is None:
        _memo = {}
    ring = I.ring
    p = ring.p
    cached = _memo.get(I.gens)
    if cached is not None:
        return cached
    if I.is_unit():
        out = IntegerPolynomial.zero(p)
    elif (split := I._pivot_split()) is None:
        out = IntegerPolynomial.one(p)
        for g in I.gens:
            out = out * (
                IntegerPolynomial.one(p)
                - IntegerPolynomial.monomial(ring.monomial_degree(g))
            )
    else:
        i, plus, quot = split
        tdeg = IntegerPolynomial.monomial(ring.degrees[i])
        out = k_polynomial_monomial(plus, _memo) + tdeg * k_polynomial_monomial(
            quot, _memo
        )
    _memo[I.gens] = out
    return out


def k_polynomial(I, order=None):
    """K(S/I; t) for a homogeneous ideal or a MonomialIdeal."""
    if isinstance(I, MonomialIdeal):
        return k_polynomial_monomial(I)
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
    difference K(S/L) - K(S/I), recomputed when the leading terms change:
    HF(S/L, d) - HF(S/I, d) is the sum over its terms c*t^a of c times the
    number of monomials of degree d - a.
    """

    def __init__(self, I):
        ring = I.ring
        if not ring.is_standard:
            raise NotStandardGraded("a Hilbert hint needs a standard grading")
        self.ring = ring
        self.k = k_polynomial(I)
        self._sizes = [len(ring.block_variables(k)) for k in range(ring.p)]
        self._lts = None  # the leading terms L and _excess belong to
        self._L = None
        self._excess = None  # K(S/L) - K(S/I)
        self._saturated = {}  # degree -> saturated for the current L

    def _excess_for(self, lts):
        """K(S/L) - K(S/I); when lts extends the previous call's by one
        monomial m, by K(S/(L + m)) = K(S/L) - t^deg(m) * K(S/(L : m))."""
        lts = tuple(lts)
        if lts == self._lts:
            return self._excess
        if self._lts is not None and lts[:-1] == self._lts:
            m = lts[-1]
            step = IntegerPolynomial.monomial(self.ring.monomial_degree(m))
            quot = k_polynomial_monomial(self._L.colon_monomial(m))
            self._excess = self._excess - step * quot
            self._L = self._L.add_monomial(m)
        else:
            self._L = MonomialIdeal(self.ring, lts)
            self._excess = k_polynomial_monomial(self._L) - self.k
        self._lts = lts
        self._saturated = {}
        return self._excess

    def complete(self, lts):
        """K(S/L) = K(S/I) for L generated by the exponent tuples lts."""
        return not self._excess_for(lts)

    def saturated(self, lts, mono):
        """HF(S/L, d) = HF(S/I, d) at d = deg(mono)."""
        excess = self._excess_for(lts)
        d = self.ring.monomial_degree(mono)
        hit = self._saturated.get(d)
        if hit is None:
            hit = not sum(
                c * self._count(tuple(x - y for x, y in zip(d, a)))
                for a, c in excess.terms.items()
                if all(y <= x for x, y in zip(d, a))
            )
            self._saturated[d] = hit
        return hit

    def _count(self, d):
        """Number of monomials of degree d >= 0: per block of n_k variables
        C(d_k + n_k - 1, n_k - 1), and for an empty block 1 if d_k = 0."""
        out = 1
        for dk, nk in zip(d, self._sizes):
            if nk:
                out *= comb(dk + nk - 1, nk - 1)
            elif dk:
                return 0
        return out


def codimension(I, order=None):
    if isinstance(I, MonomialIdeal):
        return codim_of(I)
    return codim_of(I.initial_ideal(order))


def multidegree_C(I, order=None):
    """The multidegree: codimension part of K(S/I; 1 - t).

    K(1-t) has no terms below the codimension; if the input data violates
    that (it cannot for a true K-polynomial) LowerDegreeTermsPresent is
    raised rather than silently truncating.
    """
    k = k_polynomial(I, order)
    c = codimension(I, order)
    sub = k.substitute_one_minus_t()
    mind = sub.min_total_degree()
    if mind is not None and mind < c:
        raise LowerDegreeTermsPresent(
            f"terms of total degree {mind} below the codimension {c}"
        )
    return sub.total_degree_part(c)


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


def truncation_multidegree(I, i):
    """[C(R^i)]_i where R^i = Q_i/I is the dimension filtration quotient."""
    Qi = dimension_filtration(I, i)
    diff = k_polynomial_monomial(I) - k_polynomial_monomial(Qi)
    return diff.substitute_one_minus_t().total_degree_part(i)


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
    dim = total_m - codimension(sat_ideal, order)
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

    Counts standard monomials of the initial ideal degree by degree; the
    componentwise bound is capped at ORACLE_BOUND_LIMIT because the
    enumeration is exponential in it.  Returns a dict nu -> dim_k (S/I)_nu.
    """
    ring = I.ring
    bound = tuple(bound)
    if len(bound) != ring.p:
        raise BadArgument("bound length must equal the number of blocks")
    if any(b < 0 for b in bound):
        raise BadArgument("bound must be componentwise non-negative")
    if any(b > ORACLE_BOUND_LIMIT for b in bound):
        raise BoundTooLarge(f"componentwise bound above {ORACLE_BOUND_LIMIT}")
    mono = I if isinstance(I, MonomialIdeal) else I.initial_ideal(order)
    counts = {}

    def within(d):
        return all(a <= b for a, b in zip(d, bound))

    def rec(i, exps, deg):
        if i == ring.n:
            counts[deg] = counts.get(deg, 0) + 1
            return
        e = 0
        while True:
            d = tuple(
                a + e * b for a, b in zip(deg, ring.degrees[i])
            ) if e else deg
            if not within(d):
                break
            exps.append(e)
            if not mono.contains(tuple(exps) + (0,) * (ring.n - i - 1)):
                rec(i + 1, exps, d)
            exps.pop()
            e += 1
        return

    rec(0, [], (0,) * ring.p)
    return counts


def hilbert_series_table(I, bound, order=None):
    """Series expansion of K / prod(1 - t^deg x), for cross-checking."""
    k = k_polynomial(I, order)
    return series_expansion(k, list(I.ring.degrees), bound)
