"""Multigraded generic initial ideals via random block coordinate changes.

gin(I) is computed as in(g(I)) for a random block-diagonal change of
coordinates g; several independent trials must agree before the result is
accepted, and the consensus ideal is checked to be Borel-fixed per block.
g preserves the multigraded Hilbert series, so K(S/I) is computed once and
drives every trial's Buchberger run (hilbert.HilbertHint).  Each trial is
one call of groebner.gin_trial, which substitutes g into the packed layout
of the monomial order and unpacks only the leading terms it finds.  The
structure report reads the minimal primes of the gin off the associated
primes of its primary decomposition, so the radical of the gin is
decomposed once, for its Stanley-Reisner complex.
"""

import random

from .errors import BadArgument, EmptyScheme, FieldTooSmall, NotStandardGraded, Unstable
from .fields import rank_mod_p
from .groebner import contract, gin_trial
from .hilbert import HilbertHint, local_length
from .monomial import (
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


def _random_invertible(F, k, rng):
    """Random invertible k x k matrix over F (resampled until of full rank)."""
    while True:
        M = [[F.coerce(rng.randrange(F.p)) for _ in range(k)] for _ in range(k)]
        if rank_mod_p([dict(enumerate(row)) for row in M], F.p) == k:
            return M


def random_block_change(ring, seed):
    """Seeded random block-diagonal change of coordinates.

    Returns the list of variable images: linear forms mixing each grading
    block, so each image is homogeneous of its variable's degree, as
    groebner.gin_trial requires.  The field must be large
    (p >= 10007) so random choices behave generically.
    """
    if not ring.is_standard:
        raise NotStandardGraded("generic initial ideals need a standard grading")
    F = ring.field
    if F.p < MIN_FIELD_SIZE:
        small = f"field of size {F.p} is below {MIN_FIELD_SIZE}"
        raise FieldTooSmall(small if F.p else "use a large prime field for gin computations")
    rng = random.Random(seed)
    images = [None] * ring.n
    for k in range(ring.p):
        block = ring.block_variables(k)
        M = _random_invertible(F, len(block), rng)
        for r, i in enumerate(block):
            terms = {}
            for c, j in enumerate(block):
                if M[r][c]:
                    e = [0] * ring.n
                    e[j] = 1
                    terms[tuple(e)] = M[r][c]
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
    whose initial ideal does not have the K-polynomial of I.
    """
    ring = I.ring
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
        IJ = contract(I, J)
        if IJ.is_zero():
            rep.contraction_mlength[J] = 1
            continue
        GJ = gin(IJ, trials=trials, seed=seed).ideal
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
