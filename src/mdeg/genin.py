"""Multigraded generic initial ideals via random block coordinate changes.

gin(I) is computed as in(u(I)) for a random unitriangular block change u:
x_i maps to x_i plus random multiples of the earlier variables of its
block.  That is exact because gin takes only orders that refine
x_1 > x_2 > ... in each block (_check_order_refines_blocks): under them a
change b sending x_i to c*x_i plus later variables of its block keeps
every initial term, and a generic block change g is u followed by such a
b, so in(g(I)) = in(u(I)) = gin(I) (Bayer-Stillman, Invent. Math. 87,
1987; Eisenbud, Commutative Algebra, 15.9).  u is invertible whatever its
entries.  Several trials must agree, and the consensus ideal is checked
to be Borel-fixed per block.  u preserves the multigraded Hilbert series,
so K(S/I) drives every trial's Buchberger run (hilbert.HilbertHint); the
trials share that one hint, a tree of the states their leading terms
reach, so a later trial that meets the leading terms of an earlier one in
the same order takes the hint's states and the new pairs of the
Gebauer-Moller update from the tree.  Each trial is one call of
groebner.gin_trial, which substitutes u into the packed layout of the
monomial order and masks the leading terms it finds to plain ints.  The
structure report computes one gin, whose contractions are the gins of the
contractions of I, and reads its minimal primes off the associated primes
of its primary decomposition, so its radical is decomposed once, for its
Stanley-Reisner complex.
"""

import random

from .errors import BadArgument, EmptyScheme, FieldTooSmall, NotStandardGraded, Unstable
from .groebner import Ideal, contract, gin_trial
from .hilbert import HilbertHint, local_length
from .monomial import (
    MonomialIdeal,
    borel_fixed_check,
    borel_prime_exponent,
    minimal_primes,
    primary_decomposition,
    reisner_cm_check,
)
from .orders import grevlex
from .ring import Polynomial


MIN_FIELD_SIZE = 10007

#: Prime over which the Reisner test of gin-report computes homology.
HOMOLOGY_PRIME = 32003


def check_gin_field(F):
    """Raise FieldTooSmall unless F is a prime field of at least
    MIN_FIELD_SIZE elements, so that random choices are generic."""
    if F.p < MIN_FIELD_SIZE:
        small = f"field of size {F.p} is below {MIN_FIELD_SIZE}"
        raise FieldTooSmall(small if F.p else "use a large prime field for gin computations")


def random_block_change(ring, seed):
    """Seeded random unitriangular block change of coordinates.

    Returns the variable images: x_i maps to x_i plus random nonzero
    multiples of the earlier variables of its grading block, keeping its
    degree, as groebner.gin_trial requires.  It gives gin(I) under the
    orders _check_order_refines_blocks admits (see the module docstring).
    The field must be large (check_gin_field) so random choices are generic.
    """
    if not ring.is_standard:
        raise NotStandardGraded("generic initial ideals need a standard grading")
    F = ring.field
    check_gin_field(F)
    rng = random.Random(seed)
    units = [tuple(int(j == i) for j in range(ring.n)) for i in range(ring.n)]
    images = [None] * ring.n
    for k in range(ring.p):
        block = ring.block_variables(k)
        for r, i in enumerate(block):
            terms = {units[j]: rng.randrange(1, F.p) for j in block[:r]}
            terms[units[i]] = F.one
            images[i] = Polynomial._of(ring, terms)
    return images


def _check_order_refines_blocks(ring, order):
    """No block variable's weight column may be lexicographically below the
    next one's: on equal columns both tie-breaks rank x_a > x_b for a < b."""
    for k in range(ring.p):
        block = ring.block_variables(k)
        for a, b in zip(block, block[1:]):
            if [r[a] for r in order.weight_rows] < [r[b] for r in order.weight_rows]:
                raise BadArgument(
                    "order must refine the per-block variable order "
                    f"({ring.names[a]} > {ring.names[b]} fails)"
                )


class GinResult:
    def __init__(self, ideal, trials, seed, borel):
        self.ideal = ideal
        self.trials = trials
        self.seed = seed
        self.borel = borel

    def __repr__(self):
        return f"GinResult({self.ideal!r}, trials={self.trials}, borel={self.borel})"


def gin(I, order=None, trials=2, seed=0):
    """Multigraded generic initial ideal with stability consensus.

    Runs `trials` independent random changes of coordinates; all resulting
    initial ideals must coincide, otherwise Unstable is raised (retry with
    a different seed or more trials).  Unstable is also raised by a trial
    whose initial ideal does not have the K-polynomial of I.  A
    MonomialIdeal is taken as the Ideal of its generators, as one-term
    polynomials.
    """
    ring = I.ring
    if isinstance(I, MonomialIdeal):
        I = Ideal._of(ring, [Polynomial._of(ring, {g: ring.field.one}) for g in I.gens])
    if order is None:
        order = grevlex(ring)
    _check_order_refines_blocks(ring, order)
    if trials < 1:
        raise BadArgument("at least one trial required")
    changes = [random_block_change(ring, seed + k) for k in range(trials)]
    hint = HilbertHint(I)
    results = [gin_trial(I, images, order, hint) for images in changes]
    first = results[0]
    if any(r != first for r in results[1:]):
        raise Unstable(
            f"initial ideals disagree across {trials} trials (seed {seed})"
        )
    return GinResult(first, trials, seed, borel_fixed_check(first))


class GinReport:
    """Structure report for a generic initial ideal of a prime ideal."""

    def __init__(self):
        self.gin = None
        self.contraction_mlength = {}
        self.clauses = {}

    def ok(self):
        return all(self.clauses.values())


def gin_structure_report(I, order=None, trials=2, seed=0):
    """Compute gin(I) and verify the structure expected when I is prime.

    Primality cannot be certified here; the caller asserts it and this
    routine validates the consequences: the gin is Borel-fixed per block;
    its radical is Cohen-Macaulay (Reisner criterion); every associated
    prime is generated by leading segments of the blocks; the minimal
    primes are equidimensional; and for every nonempty block subset J,
    MLength(gin(I_(J))) <= MLength(gin(I)) with each minimal component
    length of gin(I_(J)) dividing the length of some minimal component of
    gin(I).  Any failed clause flags the report (and exit code 4 in the
    CLI), which is exactly what non-prime inputs produce.  A unit ideal
    raises EmptyScheme.

    One gin is computed: gin(I_(J)) is contract(gin(I), J).  Degrees lie
    in N^p minus 0 and the blocks are separable, so a monomial of a degree
    d supported on J lies in k[x_J] and I_d = (I_(J))_d; so under any
    order in(I_(J)) = in(I) cap k[x_J], whose minimal generators are those
    of in(I) that avoid the dropped variables.  A block change g maps
    k[x_J] onto itself, so g(I)_(J) = g_J(I_(J)) for g_J its restriction
    to the J blocks, which is generic when g is (both conditions hold on a
    nonempty open set) and unitriangular when g is.  So gin(I)_(J) =
    gin(I_(J)) under `order` restricted to x_J, grevlex of k[x_J] for
    grevlex.  A zero contraction has only the empty minimal prime, where
    local_length is 1.
    """
    rep = GinReport()
    res = gin(I, order=order, trials=trials, seed=seed)
    G = res.ideal
    if G.is_unit():
        raise EmptyScheme("the ideal cuts out the empty scheme")
    rep.gin = res
    rep.clauses["borel_fixed"] = bool(res.borel)
    rep.clauses["radical_cohen_macaulay"] = bool(
        reisner_cm_check(G.radical(), HOMOLOGY_PRIME)
    )
    associated = [c.prime for c in primary_decomposition(G)]
    rep.clauses["associated_primes_are_block_segments"] = all(
        borel_prime_exponent(P, G.ring) is not None for P in associated
    )
    # every associated prime contains a minimal one, and these come sorted
    # as minimal_primes sorts them
    minimal = [P for P in associated if not any(Q < P for Q in associated)]
    rep.clauses["minimal_primes_equidimensional"] = len({len(P) for P in minimal}) <= 1

    p = G.ring.p
    base_lengths = [local_length(G, P) for P in minimal]
    base_ml = max(base_lengths)
    rep.contraction_mlength[tuple(range(1, p + 1))] = base_ml
    ml_ok = True
    div_ok = True
    for mask in range(1, (1 << p) - 1):
        J = tuple(k + 1 for k in range(p) if mask >> k & 1)
        GJ = contract(G, J)
        lengths = [local_length(GJ, P) for P in minimal_primes(GJ)]
        ml = max(lengths)
        rep.contraction_mlength[J] = ml
        if ml > base_ml:
            ml_ok = False
        if not all(any(b % l == 0 for b in base_lengths) for l in lengths):
            div_ok = False
    rep.clauses["contraction_mlength_monotone"] = ml_ok
    rep.clauses["component_length_divisibility"] = div_ok
    return rep
