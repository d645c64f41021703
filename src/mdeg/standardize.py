"""Standardization of non-standard positive multigradings.

phi sends each variable x_i of degree (a_1,..,a_p) to a product of
sum(a_k) new variables, a_1 of degree e_1 first, then a_2 of degree e_2
and so on.  The substitution preserves codimension, K-polynomial and
multidegree (all three read off initial ideals), and carries initial
ideals to initial ideals under the lifted order; verify_standardization
checks all of that on a concrete ideal.  cs_check then asks whether the
standardized ideal has squarefree generic initial ideal.
"""

from .genin import gin
from .groebner import Ideal
from .hilbert import codimension, k_polynomial, multidegree_C
from .monomial import MonomialIdeal
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
    def __init__(self, is_cs, gin_ideal, field, detail):
        self.is_cs = is_cs
        self.gin = gin_ideal
        self.field = field
        self.detail = detail

    def __repr__(self):
        return f"CsVerdict({self.is_cs}, {self.detail})"


def cs_check(I, trials=2, seed=0):
    """Cartwright-Sturmfels detection: is gin of the standardization
    squarefree?

    A positive verdict means every initial ideal of the standardized ideal
    is radical and the multidegree is multiplicity-free.  The verdict is
    relative to the coefficient field (a large prime field is required for
    the underlying gin), whose trials must agree on one gin.
    """
    J = standardize_ideal(I)
    res = gin(J, trials=trials, seed=seed)
    sq = res.ideal.is_squarefree()
    detail = "gin of standardization is squarefree" if sq else (
        "gin of standardization has a non-squarefree generator"
    )
    return CsVerdict(sq, res.ideal, I.ring.field, detail)
