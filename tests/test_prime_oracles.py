"""The paper's theorems as oracles, on ideals whose answers the program
computes in only one way.

- CS implies multiplicity-free, on every ideal: a CS verdict means the gin
  of the standardization is squarefree, and it is Borel-fixed, so its
  minimal primes are block segments P_a, one per exponent vector a, each
  adding t^a to C; standardization keeps C.  So C(S/I) of a CS ideal has
  no coefficient above 1.  Checked on the input of every cs-check golden
  transcript that gives a verdict and on acceptance criterion 8's ideals.
- On random toric primes P: every clause of the gin structure report
  holds, as the paper proves for the gin of a prime, and the support of
  C(S/P) is M-convex, since the multidegrees of an irreducible variety
  are Lorentzian (Branden-Huh, Ann. of Math. 192, 2020), so
  exchange_check passes.
- Positivity, on the nonzero toric primes and on the threefold P: the
  support MSupp of the multidegrees of X = V(P) is the set of n with
  |n| = dim X and sum_{j in J} n_j <= dim pi_J(X) for every set J of
  blocks (Castillo, Cid-Ruiz, Li, Montano, Zhang, "When are multidegrees
  positive?", Adv. Math. 374, 2020, Theorem A).  geom computes the left
  side; contract and geom give each dim pi_J(X) on the right.
- Brion's converse, on the nonzero toric primes: C(S/P) is
  multiplicity-free exactly when gin(P) is squarefree, exactly when
  cs_check gives a CS verdict (M. Brion, Contemp. Math. 331, 2003, which
  the paper reproves).  C comes from in(P), with no gin, so this checks
  the change of coordinates of gin too.  PAPER.md holds only the
  abstract, so the exact hypotheses, the characteristic among them, are
  not checked here: the test encodes the equivalence as observed over
  GF(32003), on every prime of the draw.
"""

import functools
import itertools
import json
import pathlib
import random

import pytest

from conftest import block_ring, surface_prime, three_block_ring, toric_kernel
from mdeg.determinantal import build_determinantal
from mdeg.fields import GF32003, QQ
from mdeg.genin import gin, gin_structure_report
from mdeg.groebner import Ideal, contract
from mdeg.hilbert import geometric_multidegrees, multidegree_C
from mdeg.inputlang import parse_input
from mdeg.polymatroid import exchange_check, support_points
from mdeg.ring import make_ring
from mdeg.standardize import cs_check
import test_cli


def cs_golden_inputs():
    """(case name, file key, ideal name) of each cs-check golden transcript
    that gives a verdict (exit 0)."""
    expected = json.loads(test_cli.GOLDEN.read_text())
    out = []
    for name, argv in sorted(test_cli.GOLDEN_CASES.items()):
        if argv[0] == "cs-check" and expected[name]["rc"] == 0:
            out.append((name, argv[1].strip("{}"), argv[argv.index("--ideal") + 1]))
    return out


def criterion_8_ideals():
    """(name, ideal) of acceptance criterion 8's inputs: the maximal minors
    of the generic m x n matrices, m <= n <= 4, the 2-minors of the 3 x 3
    one, and (x^2), all over GF(32003)."""
    out = [
        (f"{m}x{n} maximal minors", build_determinantal(m, n, m, GF32003)[1])
        for m in range(1, 5)
        for n in range(m, 5)
    ]
    out.append(("3x3 2-minors", build_determinantal(3, 3, 2, GF32003)[1]))
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, _ = R.gens()
    out.append(("x^2", Ideal(R, [x * x])))
    return out


def assert_cs_is_multiplicity_free(I):
    if cs_check(I).is_cs:
        assert set(multidegree_C(I).terms.values()) <= {1}


def test_the_cs_check_goldens_are_found():
    assert [name for name, _, _ in cs_golden_inputs()] == [
        "cs-check-3x4-2-minors-text",
        "cs-check-cs-json",
        "cs-check-cs-text",
        "cs-check-embedded-component-json",
        "cs-check-embedded-component-text",
        "cs-check-json",
        "cs-check-not-equidimensional-json",
        "cs-check-standard-json",
        "cs-check-text",
        "cs-check-unit-ideal-json",
        "cs-check-weighted-cs-json",
        "cs-check-zero-ideal-json",
    ]


@pytest.mark.parametrize("name, key, ideal", cs_golden_inputs(), ids=lambda v: str(v))
def test_a_cs_golden_input_is_multiplicity_free(name, key, ideal):
    if key in test_cli.GOLDEN_FILES:
        text = test_cli.GOLDEN_FILES[key]
    else:
        text = pathlib.Path(test_cli.FIXTURE_FILES[key]).read_text()
    assert_cs_is_multiplicity_free(parse_input(text).ideal(ideal))


@pytest.mark.parametrize("name, I", criterion_8_ideals(), ids=[n for n, _ in criterion_8_ideals()])
def test_a_criterion_8_ideal_that_is_cs_is_multiplicity_free(name, I):
    assert_cs_is_multiplicity_free(I)


# The draw of the random toric primes, stated up front: 150 draws, each
# with 1-3 blocks of 2-3 variables, at most MAX_VARIABLES in all, over
# GF(32003).  x_{k,i} maps to u_k * prod_j s_j^a_{k,i,j}, with one
# parameter u_k per block (its exponent is the block degree, so the
# kernel is multihomogeneous), 1 to MAX_S parameters s_j, and each a
# drawn from 0..MAX_EXPONENT.  The kernel of a monomial map into a domain
# is prime.  The whole test takes about 2 s; with up to 8 variables and 3
# parameters s_j, some draws take minutes (see CHANGES.md).
TORIC_DRAWS = 150
MAX_BLOCKS, BLOCK_SIZES, MAX_VARIABLES, MAX_S, MAX_EXPONENT = 3, (2, 3), 6, 2, 3


def random_toric_prime(rng):
    p = rng.randint(1, MAX_BLOCKS)
    sizes = [rng.randint(*BLOCK_SIZES) for _ in range(p)]
    while sum(sizes) > MAX_VARIABLES:
        sizes[sizes.index(max(sizes))] -= 1
    q = rng.randint(1, MAX_S)
    R = block_ring(sizes, GF32003)
    params = [f"u{k}" for k in range(p)] + [f"s{j}" for j in range(q)]
    images = []
    for k, size in enumerate(sizes):
        for _ in range(size):
            image = {f"u{k}": 1}
            for j in range(q):
                a = rng.randint(0, MAX_EXPONENT)
                if a:
                    image[f"s{j}"] = a
            images.append(image)
    return toric_kernel(R, params, images)


@functools.cache
def toric_primes():
    """(seed, P) for each draw: the draw is shared by the tests of this
    file and by the differential test of the change of coordinates in
    tests/test_genin.py."""
    return [(seed, random_toric_prime(random.Random(seed))) for seed in range(TORIC_DRAWS)]


def nonzero_toric_primes():
    return [(seed, P) for seed, P in toric_primes() if P.gens]


def test_random_toric_primes_satisfy_the_gin_structure_theorem():
    for seed, P in toric_primes():
        report = gin_structure_report(P)
        assert report.ok(), (seed, P, report.clauses)
        assert exchange_check(support_points(multidegree_C(P)))[0], (seed, P)
    # most draws are not the zero ideal, so the clauses are tested
    assert len(nonzero_toric_primes()) >= 100


def projection_dimensions(P):
    """dim pi_J(X) of X = V(P) for each nonempty tuple J of blocks
    (1-based): the dim of the contraction's table, or of the whole
    product of the J blocks when the contraction is zero."""
    R = P.ring
    dims = {}
    for mask in range(1, 1 << R.p):
        J = tuple(k + 1 for k in range(R.p) if mask >> k & 1)
        PJ = contract(P, J)
        if not PJ.gens:
            dims[J] = sum(len(R.block_variables(j - 1)) - 1 for j in J)
        else:
            dims[J] = geometric_multidegrees(PJ).dim
    return dims


def degree_slice(R, d):
    """The n in the box of the block dimensions of R with |n| = d."""
    box = [range(len(R.block_variables(k))) for k in range(R.p)]
    return [n for n in itertools.product(*box) if sum(n) == d]


def positive_support(P):
    """The n of Theorem A, sorted: |n| = dim X and sum_{j in J} n_j <=
    dim pi_J(X) for every J; J the set of all blocks gives dim X."""
    R = P.ring
    dims = projection_dimensions(P)
    return [
        n
        for n in degree_slice(R, dims[tuple(range(1, R.p + 1))])
        if all(sum(n[j - 1] for j in J) <= d for J, d in dims.items())
    ]


def test_the_support_of_the_threefold_is_cut_out_by_its_projections():
    # acceptance criteria 1 and 2: P and its six projections
    P = surface_prime(three_block_ring(QQ))
    assert projection_dimensions(P) == {
        (1,): 1, (2,): 2, (3,): 3, (1, 2): 2, (1, 3): 3, (2, 3): 3, (1, 2, 3): 3
    }
    support = [(0, 0, 3), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1)]
    assert geometric_multidegrees(P).msupp == positive_support(P) == support


def test_the_support_of_a_toric_prime_is_cut_out_by_its_projections():
    cut = 0
    for seed, P in nonzero_toric_primes():
        table = geometric_multidegrees(P)
        support = positive_support(P)
        assert table.msupp == support, (seed, P)
        cut += support != degree_slice(P.ring, table.dim)
    # on some draws a projection cuts points from the box
    assert cut


def test_brions_converse_on_the_toric_primes():
    # as observed over GF(32003), not derived: see the module docstring
    free = 0
    for seed, P in nonzero_toric_primes():
        multiplicity_free = set(multidegree_C(P).terms.values()) <= {1}
        squarefree = gin(P).ideal.is_squarefree()
        assert multiplicity_free == squarefree == cs_check(P).is_cs, (seed, P)
        free += multiplicity_free
    # both sides of the equivalence occur
    assert 0 < free < len(nonzero_toric_primes())
