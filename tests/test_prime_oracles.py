"""The paper's theorems as oracles, on ideals whose answers the program
computes in only one way.

- CS implies multiplicity-free, on every ideal: a CS verdict means the gin
  of the standardization is squarefree, and it is Borel-fixed, so its
  minimal primes are block segments P_a, one per exponent vector a, each
  adding t^a to C; standardization keeps C.  So C(S/I) of a CS ideal has
  no coefficient above 1.  Checked on the input of every cs-check golden
  transcript and on acceptance criterion 8's ideals.
- On random toric primes P: every clause of the gin structure report
  holds, as the paper proves for the gin of a prime, and the support of
  C(S/P) is M-convex, since the multidegrees of an irreducible variety
  are Lorentzian (Branden-Huh, Ann. of Math. 192, 2020), so
  exchange_check passes.
"""

import pathlib
import random

import pytest

from conftest import block_ring, toric_kernel
from mdeg.determinantal import build_determinantal
from mdeg.fields import GF32003
from mdeg.genin import gin_structure_report
from mdeg.groebner import Ideal
from mdeg.hilbert import multidegree_C
from mdeg.inputlang import parse_input
from mdeg.polymatroid import exchange_check, support_points
from mdeg.ring import make_ring
from mdeg.standardize import cs_check
import test_cli


def cs_golden_inputs():
    """(case name, file key, ideal name) of each cs-check golden transcript."""
    out = []
    for name, argv in sorted(test_cli.GOLDEN_CASES.items()):
        if argv[0] == "cs-check":
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
        "cs-check-json",
        "cs-check-standard-json",
        "cs-check-text",
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


def test_random_toric_primes_satisfy_the_gin_structure_theorem():
    nonzero = 0
    for seed in range(TORIC_DRAWS):
        P = random_toric_prime(random.Random(seed))
        nonzero += not P.is_zero()
        report = gin_structure_report(P)
        assert report.ok(), (seed, P, report.clauses)
        assert exchange_check(support_points(multidegree_C(P)))[0], (seed, P)
        assert_cs_is_multiplicity_free(P)
    # most draws are not the zero ideal, so the clauses are tested
    assert nonzero >= 100
