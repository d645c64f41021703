"""Standardization of non-standard positive multigradings, and the
Cartwright-Sturmfels test.

phi sends each variable x_i of degree (a_1,..,a_p) to a product of
sum(a_k) new variables, a_1 of degree e_1 first, then a_2 of degree e_2
and so on.  The substitution preserves codimension, K-polynomial and
multidegree (all three read off initial ideals), and carries initial
ideals to initial ideals under the lifted order; verify_standardization
checks all of that on a concrete ideal.

cs_check asks whether I is Cartwright-Sturmfels (CS): whether its
standardization has the multigraded Hilbert series of a radical
Borel-fixed ideal (Conca, De Negri and Gorla, J. Comb. Algebra 2, 2018,
and IMRN 2020).  In a standard N^p-graded ring those ideals are the
J_A = cap_{a in A} P_a, for A an antichain of N^p and P_a the prime
generated by the first a_k variables of each block k.  K(S/P_a) = u^a in
u = 1 - t, P_a + P_b = P_max(a,b), and monomial ideals form a
distributive lattice, so by inclusion-exclusion K(S/J_A; 1 - u) is the
sum of (-1)^(|B| + 1) u^max(B) over the nonempty B in A.  Each u^a, a in
A, has coefficient 1 and every other exponent lies strictly above some a,
so A is the set of minimal exponents of K(S/J_A; 1 - u): at most one
J_A has a given Hilbert series.  K is kept by standardization, and the
gin of a CS ideal is the radical Borel-fixed ideal with its Hilbert
series, so K(S/I) alone gives both the verdict and the gin J_A, with no
change of coordinates.
"""

from functools import cached_property, reduce

from .errors import BadArgument
from .genin import check_gin_field, gin
from .groebner import Ideal
from .hilbert import codimension, k_polynomial, k_polynomial_monomial, multidegree_C
from .monomial import MonomialIdeal, minimalize, prime_ideal
from .orders import grevlex, lift_order_phi
from .ring import GradedRing, Polynomial


class StandardizationMap:
    """The substitution x_i -> y_{i,1} * ... * y_{i,l_i}."""

    def __init__(self, source, target, copy_index):
        self.source = source
        self.target = target
        # copy_index[i] = list of target variable indices for x_i, in order
        self.copy_index = copy_index

    def first_copy(self, i):
        return self.copy_index[i][0]

    def phi_exponents(self, exps):
        out = [0] * self.target.n
        for i, e in enumerate(exps):
            if e:
                for j in self.copy_index[i]:
                    out[j] = e
        return tuple(out)

    def phi(self, f):
        """Image of a polynomial of the source ring.  phi_exponents is
        injective and keeps degrees, so the image has f's coefficients and
        is multihomogeneous when f is."""
        return Polynomial._of(
            self.target, {self.phi_exponents(e): c for e, c in f.terms.items()}
        )


def standardize(ring):
    """Standardization map of a positively graded ring.

    Standard rings get the identity map.  The copies of x are named x_1,
    x_2, ...: the digits after the last underscore give back the copy
    number and the rest the source name, so no two copies share a name.
    """
    if ring.is_standard:
        return StandardizationMap(ring, ring, [[i] for i in range(ring.n)])
    names, degrees, copy_index = [], [], []
    for i, d in enumerate(ring.degrees):
        copies = []
        serial = 0
        for k in range(ring.p):
            for _ in range(d[k]):
                serial += 1
                copies.append(len(names))
                names.append(f"{ring.names[i]}_{serial}")
                degrees.append(tuple(int(j == k) for j in range(ring.p)))
        copy_index.append(copies)
    target = GradedRing(names, degrees, ring.field)
    return StandardizationMap(ring, target, copy_index)


def standardize_ideal(I, std_map=None):
    """The image ideal phi(I) under std_map, standardize(I.ring) by default."""
    if std_map is None:
        std_map = standardize(I.ring)
    if isinstance(I, MonomialIdeal):
        return MonomialIdeal(std_map.target, [std_map.phi_exponents(g) for g in I.gens])
    return Ideal._of(std_map.target, [std_map.phi(g) for g in I.gens])


def verify_standardization(I, std_map=None):
    """Exact checks that standardization preserves the invariants.

    Returns a dict of clause name -> bool covering codimension, the
    K-polynomial, the multidegree and the initial-ideal compatibility
    in_{>'}(phi(I)) = phi(in_>(I)) under grevlex > and its lift >'.  The
    unit ideal passes the codimension clause: its image is the unit ideal,
    though hilbert.codimension gives each the number of its ring's
    variables plus 1.
    """
    order = grevlex(I.ring)
    if std_map is None:
        std_map = standardize(I.ring)
    J = standardize_ideal(I, std_map)
    report = {}
    report["codim"] = codimension(I) == codimension(J) or I.is_unit()
    report["k_polynomial"] = k_polynomial(I) == k_polynomial(J)
    report["multidegree"] = multidegree_C(I) == multidegree_C(J)
    lifted = lift_order_phi(order, std_map)
    inI = I.initial_ideal(order)
    inJ = J.initial_ideal(lifted)
    image = MonomialIdeal(
        std_map.target, [std_map.phi_exponents(g) for g in inI.gens]
    )
    report["initial_ideal"] = inJ == image
    return report


class CsVerdict:
    """cs_check's answer: is_cs, the field, the detail line and `gin`, the
    gin of the standardization, which the function find_gin of no argument
    works out on the first read."""

    def __init__(self, is_cs, find_gin, field, detail):
        self.is_cs = is_cs
        self._find_gin = find_gin
        self.field = field
        self.detail = detail

    @cached_property
    def gin(self):
        return self._find_gin()

    def __repr__(self):
        return f"CsVerdict({self.is_cs}, {self.detail})"


def _radical_borel(ring, A):
    """J_A = cap_{a in A} P_a in the standard graded `ring`, P_a generated
    by the first a_k variables of each block k; the unit ideal for A empty.
    Each P_a is built packed (monomial.prime_ideal) and met with the
    intersection so far by MonomialIdeal.intersect, which puts in as they
    are the generators that P_a holds."""
    blocks = [ring.block_variables(k) for k in range(ring.p)]
    primes = (
        prime_ideal(ring, [i for ak, block in zip(a, blocks) for i in block[:ak]]) for a in A
    )
    return reduce(MonomialIdeal.intersect, primes, MonomialIdeal(ring, [(0,) * ring.n]))


def _cs_gin(M, ring):
    """J_A when the monomial ideal M has the Hilbert series of a J_A of the
    standard graded `ring`, and None otherwise (cs_check's steps 1-4)."""
    C = multidegree_C(M)
    if any(c != 1 for c in C.terms.values()):
        return None
    K = k_polynomial_monomial(M)
    A0 = frozenset(C.terms)
    J = _radical_borel(ring, A0)
    if k_polynomial_monomial(J) == K:
        return J
    A = minimalize(K.substitute_one_minus_t().terms)
    if A != A0:
        J = _radical_borel(ring, A)
        if k_polynomial_monomial(J) == K:
            return J
    return None


def cs_check(I, trials=2, seed=0):
    """Cartwright-Sturmfels detection from the Hilbert series (see the
    module docstring): is K(S/I) that of a radical Borel-fixed ideal J_A of
    the standardized ring T, and so gin of the standardization squarefree?

    K(S/I) and C(S/I) are read off M = in(I) in I's own ring, so the two
    share the one cached Groebner basis of I:
    1. C is the part of least total degree of K(S/I; 1 - u), and that of
       K(S/J_A; 1 - u) is a sum of u^a's, so a coefficient of C other
       than 1 means not CS.
    2. A0 = supp C gives the candidate J_A0, an intersection of P_a's.
    3. If K(S/J_A0) = K(S/I), I is CS and J_A0 is its gin.
    4. Otherwise the one candidate left is A, the minimal exponents of
       K(S/I; 1 - u).  A holds A0, and more when I is CS but not
       equidimensional, as (xy, xz) = P_(1,0) cap P_(0,2) in k[x | y, z].
       If A differs from A0, I is CS exactly when K(S/J_A) = K(S/I).
    Each candidate a has a_k <= n_k, the size of block k of T, so P_a
    exists: a Stanley decomposition of T/in(phi(I)) into pieces
    x^m k[x_s] writes K(S/I; 1 - u) as the sum over the pieces of
    (1 - u)^deg(m) u^b, b the sum of the degrees of the variables not in
    s.  Every exponent lies above some piece's b, and a minimal b keeps
    as coefficient the number of pieces with that b, so the minimal
    exponents are minimal b's.

    The verdict and the text output (the verdict and the detail line)
    need only these steps.  `gin` of a CS verdict is J_A; that of a
    non-CS verdict is gin of the standardization, worked out by
    genin.gin with `trials` and `seed` only when it is read, as --json
    reads it.  Fewer than 1 trial, QQ and a small prime field are
    refused as gin refuses them (check_gin_field), so that gin can always
    be read.
    """
    if trials < 1:
        raise BadArgument("at least one trial required")
    check_gin_field(I.ring.field)
    J = _cs_gin(I.initial_ideal(), standardize(I.ring).target)
    if J is not None:
        return CsVerdict(True, lambda: J, I.ring.field, "gin of standardization is squarefree")
    return CsVerdict(
        False,
        lambda: gin(standardize_ideal(I), trials=trials, seed=seed).ideal,
        I.ring.field,
        "gin of standardization has a non-squarefree generator",
    )
