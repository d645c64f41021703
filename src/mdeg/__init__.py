"""mdeg: multidegrees of ideals in positively multigraded polynomial rings.

The main entry points:

- :class:`GradedRing` / :func:`make_ring` and :class:`Ideal` build the data,
- :func:`k_polynomial`, :func:`multidegree_C`, :func:`multidegree_G`,
  :func:`arithmetic_multidegree`, :func:`geometric_multidegrees` compute
  the invariants,
- :func:`gin` / :func:`gin_structure_report` handle generic initial ideals,
- :func:`standardize` / :func:`cs_check` cover non-standard gradings,
- :mod:`mdeg.determinantal` has the closed formulas for maximal minors.

Every function and statement of the package is run by a command, demo
or README example, or is kept for a reason that tests/test_imports.py
names; code that only the tests call lives in the tests.
"""

from .errors import MdegError
from .fields import GF32003, QQ, PrimeField, Rationals
from .genin import GinReport, gin, gin_structure_report, random_block_change
from .groebner import (
    Ideal,
    contract,
    intersect,
    saturate_irrelevant,
    saturate_var_block,
)
from .hilbert import (
    arithmetic_multidegree,
    geometric_multidegrees,
    hilbert_function_oracle,
    k_polynomial,
    local_length,
    multidegree_C,
    multidegree_G,
)
from .inputlang import Session, format_ring_file, parse_input
from .intpoly import IntegerPolynomial
from .monomial import (
    MonomialIdeal,
    borel_fixed_check,
    minimal_primes,
    primary_decomposition,
    reisner_cm_check,
)
from .orders import (
    MonomialOrder,
    elimination_order,
    grevlex,
    lex,
    lift_order_phi,
    weight_order,
)
from .polymatroid import exchange_check, snp_check, support_points
from .ring import GradedRing, Polynomial, is_homogeneous, make_ring, multidegree_of
from .standardize import (
    CsVerdict,
    StandardizationMap,
    cs_check,
    standardize,
    standardize_ideal,
    verify_standardization,
)

__version__ = "0.1.0"
