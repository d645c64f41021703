import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dimension_filtration,
    random_monomial_ideal,
    random_positive_ring,
    random_standard_ring,
)
from mdeg.errors import EmptyScheme, NotMinimalPrime, NotSquarefree, TooManyVertices
from mdeg.groebner import contract
from mdeg.monomial import (
    MonomialIdeal,
    PrimaryComponent,
    borel_fixed_check,
    borel_prime_exponent,
    codim_of,
    irreducible_decomposition,
    length_at_minimal_prime,
    localize_at,
    minimal_primes,
    minimalize,
    mlength,
    primary_decomposition,
    reisner_cm_check,
    stanley_reisner_complex,
)
from mdeg.hilbert import k_polynomial_monomial
from mdeg.ring import make_ring
import tuple_monomial


def std_ring(n, p=1):
    if p == 1:
        return make_ring([f"x{i}" for i in range(n)], [(1,)] * n)
    raise ValueError


def test_minimal_generators_normalized():
    R = std_ring(2)
    I = MonomialIdeal(R, [(1, 0), (1, 1), (2, 0)])
    assert I.gens == frozenset({(1, 0)})


def test_dimension_and_minimal_primes():
    R = std_ring(3)
    # (xy, xz) = (x) cap (y, z)
    I = MonomialIdeal(R, [(1, 1, 0), (1, 0, 1)])
    assert R.n - codim_of(I) == 2
    assert sorted(sorted(P) for P in minimal_primes(I)) == [[0], [1, 2]]


def test_unit_and_zero_edge_cases():
    R = std_ring(2)
    unit = MonomialIdeal(R, [(0, 0)])
    assert unit.is_unit()
    assert R.n - codim_of(unit) == -1 and minimal_primes(unit) == []
    zero = MonomialIdeal(R, [])
    assert R.n - codim_of(zero) == 2 and minimal_primes(zero) == [frozenset()]
    assert irreducible_decomposition(zero) == [zero]
    (comp,) = primary_decomposition(zero)
    assert (comp.prime, comp.component, comp.length_at_prime) == (frozenset(), zero, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_length_at_minimal_prime_accepts_exactly_the_minimal_primes(seed):
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    unit = MonomialIdeal(R, [(0,) * R.n])
    for I in (random_monomial_ideal(rng, R), MonomialIdeal(R, []), unit):
        minimal = minimal_primes(I)
        for mask in range(1 << R.n):
            P = frozenset(i for i in range(R.n) if mask >> i & 1)
            if P in minimal:
                box = localize_at(I, P).standard_monomials()
                assert length_at_minimal_prime(I, P) == len(box)
            else:
                with pytest.raises(NotMinimalPrime):
                    length_at_minimal_prime(I, P)
        with pytest.raises(NotMinimalPrime):
            length_at_minimal_prime(I, {R.n})


def test_irreducible_decomposition():
    R = std_ring(2)
    # (x^2, xy) = (x) cap (x^2, y)
    I = MonomialIdeal(R, [(2, 0), (1, 1)])
    comps = {frozenset(c.gens) for c in irreducible_decomposition(I)}
    assert comps == {
        frozenset({(1, 0)}),
        frozenset({(2, 0), (0, 1)}),
    }


def test_primary_decomposition_merges_by_radical():
    R = std_ring(3)
    # (x) cap (y^2, z): distinct radicals stay separate components
    I = MonomialIdeal(R, [(1, 0, 0)]).intersect(
        MonomialIdeal(R, [(0, 2, 0), (0, 0, 1)])
    )
    comps = primary_decomposition(I)
    primes = sorted(sorted(c.prime) for c in comps)
    assert primes == [[0], [1, 2]]
    by_prime = {frozenset(c.prime): c for c in comps}
    assert by_prime[frozenset({0})].length_at_prime == 1
    assert by_prime[frozenset({1, 2})].length_at_prime == 2


def test_lengths():
    R = std_ring(1)
    I = MonomialIdeal(R, [(2,)])
    assert length_at_minimal_prime(I, {0}) == 2
    with pytest.raises(NotMinimalPrime):
        length_at_minimal_prime(I, set())


def test_mlength_example_component():
    # the fattest component of a gin computed elsewhere: length 4
    R = make_ring(
        ["x0", "x1", "y0", "y1", "z0", "z1"],
        [(1, 0, 0)] * 2 + [(0, 1, 0)] * 2 + [(0, 0, 1)] * 2,
    )
    I = MonomialIdeal(
        R,
        [
            (1, 0, 0, 0, 0, 0),
            (0, 2, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 2, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
        ],
    )
    assert mlength(I) == 4


def test_radical_ideal_mlength_one():
    R = std_ring(3)
    I = MonomialIdeal(R, [(1, 1, 0), (0, 1, 1)])
    assert mlength(I) == 1


def test_mlength_of_unit_ideal_is_empty_scheme():
    # no minimal primes, so no maximal length
    with pytest.raises(EmptyScheme):
        mlength(MonomialIdeal(std_ring(2), [(0, 0)]))


def test_borel_fixed():
    R = make_ring(["x0", "x1", "x2"], [(1,)] * 3)
    assert borel_fixed_check(MonomialIdeal(R, [(1, 0, 0), (0, 2, 0)]))
    assert not borel_fixed_check(MonomialIdeal(R, [(0, 1, 0)]))
    # two-block version must only exchange within blocks
    R2 = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)])
    assert borel_fixed_check(MonomialIdeal(R2, [(0, 0, 1)]))


def test_borel_prime_exponent():
    R = make_ring(["x0", "x1", "y0"], [(1, 0), (1, 0), (0, 1)])
    assert borel_prime_exponent({0, 2}, R) == (1, 1)
    assert borel_prime_exponent({0, 1, 2}, R) == (2, 1)
    assert borel_prime_exponent({1}, R) is None


def test_dimension_filtration():
    R = std_ring(3)
    # (x) cap (x^2, y, z): codims 1 and 3
    I = MonomialIdeal(R, [(1, 0, 0)]).intersect(MonomialIdeal(R, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert dimension_filtration(I, 0).is_unit()
    assert dimension_filtration(I, 1).is_unit()
    assert dimension_filtration(I, 2) == MonomialIdeal(R, [(1, 0, 0)])
    assert dimension_filtration(I, 3) == MonomialIdeal(R, [(1, 0, 0)])
    # beyond every codim the filtration returns I itself
    assert dimension_filtration(I, 4) == I


def test_stanley_reisner_and_reisner():
    R = std_ring(4)
    # boundary of a square: x0x2, x1x3 -> circle, CM of dim 1
    I = MonomialIdeal(R, [(1, 0, 1, 0), (0, 1, 0, 1)])
    c = stanley_reisner_complex(I)
    assert len(c.facets) == 4
    assert reisner_cm_check(I, 2)
    assert reisner_cm_check(I, 32003)
    with pytest.raises(NotSquarefree):
        stanley_reisner_complex(MonomialIdeal(R, [(2, 0, 0, 0)]))


def test_reisner_negative():
    R = std_ring(4)
    # two disjoint edges: not connected, dim 1 -> not CM
    I = MonomialIdeal(
        R, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    )
    assert not reisner_cm_check(I, 2)
    assert not reisner_cm_check(I, 32003)


def test_reisner_field_dependence_projective_plane():
    # minimal triangulation of RP^2 on 6 vertices: CM over F_32003, not F_2
    R = std_ring(6)
    facets = [
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
        (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
    ]
    faces = {frozenset(f) for f in facets}
    nonfaces = []
    from itertools import combinations

    for trip in combinations(range(6), 3):
        if frozenset(trip) not in faces:
            ok = all(
                any(set(pair) <= f for f in faces)
                for pair in combinations(trip, 2)
            )
            if ok:
                nonfaces.append(tuple(int(i in trip) for i in range(6)))
    I = MonomialIdeal(R, nonfaces)
    assert not reisner_cm_check(I, 2)
    assert reisner_cm_check(I, 32003)


def test_reisner_cone_stripping_and_vertex_cap():
    R = std_ring(30)
    gens = [tuple(int(i in (a, b)) for i in range(30)) for a, b in [(0, 1)]]
    I = MonomialIdeal(R, gens)
    # 28 cone vertices are stripped, so the cap is not hit
    assert reisner_cm_check(I, 2)
    with pytest.raises(TooManyVertices):
        reisner_cm_check(I, 2, max_vertices=1)


def test_contract_blocks_monomial():
    R = make_ring(
        ["x0", "x1", "y0", "y1"], [(1, 0), (1, 0), (0, 1), (0, 1)]
    )
    I = MonomialIdeal(R, [(2, 0, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)])
    J = contract(I, [2])
    assert J.ring.names == ("y0", "y1")
    assert J.ring.p == 1
    assert J == MonomialIdeal(J.ring, [(1, 1)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_length_at_minimal_prime_counts_standard_monomials(seed):
    # the zero ideal has the empty minimal prime, localized to a ring
    # without variables
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    for I in (random_monomial_ideal(rng, R), MonomialIdeal(R, [])):
        for P in minimal_primes(I):
            loc = localize_at(I, P)
            assert length_at_minimal_prime(I, P) == len(loc.standard_monomials())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_primary_decomposition_intersects_back(seed):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5)
    I = random_monomial_ideal(rng, R)
    if I.is_unit():
        return
    comps = primary_decomposition(I)
    assert comps
    back = comps[0].component
    for c in comps[1:]:
        back = back.intersect(c.component)
    assert back == I
    mins = {frozenset(P) for P in minimal_primes(I)}
    assert mins <= {c.prime for c in comps}


# The intersection-based pruning that irreducible_decomposition and
# primary_decomposition used before pruning by pairwise containment; kept
# as a differential oracle for the new kernel.


def _intersection_of(ideals):
    out = ideals[0]
    for other in ideals[1:]:
        out = out.intersect(other)
    return out


def _split_generator(J):
    """The first generator, in ascending (lex) order, with two variables,
    split into the power of its first variable and the rest; or None."""
    for g in sorted(J.gens):
        supp = [i for i, e in enumerate(g) if e]
        if len(supp) > 1:
            i = supp[0]
            u = tuple(e if j == i else 0 for j, e in enumerate(g))
            v = tuple(0 if j == i else e for j, e in enumerate(g))
            return u, v
    return None


def _old_irreducible_decomposition(I):
    if I.is_unit() or I.is_zero():
        return []
    done, todo, seen = [], [I], set()
    while todo:
        J = todo.pop()
        if J in seen:
            continue
        seen.add(J)
        sp = _split_generator(J)
        if sp is None:
            done.append(J)
        else:
            todo.append(J.add_monomial(sp[0]))
            todo.append(J.add_monomial(sp[1]))
    done = list(dict.fromkeys(done))
    changed = True
    while changed:
        changed = False
        for k, J in enumerate(done):
            rest = done[:k] + done[k + 1 :]
            if rest and J.contains_ideal(_intersection_of(rest)):
                done.pop(k)
                changed = True
                break
    return done


def _old_primary_decomposition(I):
    by_prime = {}
    for J in _old_irreducible_decomposition(I):
        by_prime.setdefault(frozenset(J.support_vars()), []).append(J)
    comps = [(P, _intersection_of(parts)) for P, parts in by_prime.items()]
    changed = True
    while changed:
        changed = False
        for k, (_, J) in enumerate(comps):
            rest = [c for i, c in enumerate(comps) if i != k]
            if rest and J.contains_ideal(_intersection_of([c for _, c in rest])):
                comps.pop(k)
                changed = True
                break
    minimal = {frozenset(P) for P in minimal_primes(I)} if not I.is_zero() else set()
    return [
        PrimaryComponent(P, Q, length_at_minimal_prime(I, P) if P in minimal else None)
        for P, Q in sorted(comps, key=lambda c: (len(c[0]), sorted(c[0])))
    ]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_decompositions_match_intersection_pruning(seed):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5)
    I = random_monomial_ideal(rng, R)
    irr = irreducible_decomposition(I)
    assert irr == _old_irreducible_decomposition(I)
    assert not any(
        J.contains_ideal(K) for J in irr for K in irr if K is not J
    )
    new = [(c.prime, c.component, c.length_at_prime) for c in primary_decomposition(I)]
    old = [(c.prime, c.component, c.length_at_prime) for c in _old_primary_decomposition(I)]
    assert new == old


# ---------------------------------------------------------------------------
# Packed generators against the tuple code they replaced (tests/tuple_monomial.py).


def _random_exponents(rng, n, big):
    """An exponent tuple of entries 0-3, where with `big` each entry is
    128-300 with probability 1/4, which needs 16-bit fields."""
    return tuple(
        rng.randrange(128, 301) if big and rng.random() < 0.25 else rng.randrange(4)
        for _ in range(n)
    )


def _random_gens(rng, n, big):
    return [_random_exponents(rng, n, big) for _ in range(rng.randrange(0, 6))]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.booleans())
def test_packed_operations_match_tuple_oracle(seed, big_i, big_j):
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    gi, gj = _random_gens(rng, R.n, big_i), _random_gens(rng, R.n, big_j)
    I, J = MonomialIdeal(R, gi), MonomialIdeal(R, gj)
    ti, tj = tuple_monomial.minimalize(gi), tuple_monomial.minimalize(gj)
    assert (I.gens, J.gens) == (ti, tj)
    assert I.is_zero() == (not ti)
    assert I.is_unit() == ((0,) * R.n in ti)
    assert I.is_squarefree() == all(max(g, default=0) <= 1 for g in ti)
    assert I.support_vars() == {i for g in ti for i, e in enumerate(g) if e}
    assert I.radical().gens == tuple_monomial.radical(ti)
    for _ in range(3):
        m = _random_exponents(rng, R.n, rng.random() < 0.5)
        assert I.contains(m) == tuple_monomial.contains(ti, m)
        assert I.add_monomial(m).gens == tuple_monomial.add_monomial(ti, m)
        assert I.colon_monomial(m).gens == tuple_monomial.colon_monomial(ti, m)
    for i in range(R.n):
        assert I.saturate_variable(i).gens == tuple_monomial.saturate_variable(ti, i)
    # ideals of different widths meet, compare and hash as their tuples do
    IJ = I.intersect(J)
    assert IJ.gens == tuple_monomial.intersect(ti, tj)
    assert IJ == J.intersect(I) and hash(IJ) == hash(J.intersect(I))
    assert I.contains_ideal(J) == tuple_monomial.contains_ideal(ti, tj)
    assert J.contains_ideal(I) == tuple_monomial.contains_ideal(tj, ti)
    assert (I == J) == (ti == tj)
    for K in (I, J, IJ):
        again = MonomialIdeal(R, list(K.gens))
        assert again == K and hash(again) == hash(K)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_colon_that_lowers_the_largest_exponent_narrows_the_fields(seed):
    # generators with exponents >= 128 need 16-bit fields; a colon that
    # brings every exponent below 128 gives an ideal equal to, and hashing
    # as, the same ideal built from its tuples in 8-bit fields
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    gens = [_random_exponents(rng, R.n, True) for _ in range(rng.randrange(1, 5))]
    I = MonomialIdeal(R, gens)
    m = tuple(max(max(g[i] for g in gens) - rng.randrange(128), 0) for i in range(R.n))
    Q = I.colon_monomial(m)
    narrow = MonomialIdeal(R, tuple_monomial.colon_monomial(I.gens, m))
    assert max((max(g) for g in narrow.gens), default=0) < 128
    assert Q == narrow and hash(Q) == hash(narrow)
    assert Q.contains_ideal(narrow) and narrow.contains_ideal(Q)
    # and the sum with a monomial of the 8-bit ideal widens back
    back = narrow.add_monomial(max(gens))
    assert back.gens == tuple_monomial.add_monomial(narrow.gens, max(gens))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_irreducible_decomposition_in_16_bit_fields(seed):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5)
    gens = _random_gens(rng, R.n, True) or [(200,) + (0,) * (R.n - 1)]
    I = MonomialIdeal(R, gens)
    assert irreducible_decomposition(I) == _old_irreducible_decomposition(I)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_k_polynomial_matches_tuple_recursion(seed, big):
    rng = random.Random(seed)
    R = random_positive_ring(rng, max_vars=4)
    gens = [
        tuple(
            rng.randrange(128, 134) if big and rng.random() < 0.2 else rng.randrange(4)
            for _ in range(R.n)
        )
        for _ in range(rng.randrange(0, 5))
    ]
    I = MonomialIdeal(R, gens)
    oracle = tuple_monomial.k_polynomial_monomial(R, tuple_monomial.minimalize(gens))
    assert k_polynomial_monomial(I) == oracle


@pytest.mark.parametrize("top", [25, 26, 127, 128])
def test_k_polynomial_with_degrees_past_the_exponent_fields(top):
    # the t-exponents of K reach deg(lcm) = (2 * top + 3 * top, top): from
    # top = 26 on they need 16-bit fields, although up to top = 127 every
    # exponent fits 8 bits
    R = make_ring(["x", "y", "z"], [(2, 0), (3, 0), (0, 1)])
    gens = [(top, top - 1, 0), (top - 1, top, 0), (1, 0, top), (0, 1, top - 2)]
    oracle = tuple_monomial.k_polynomial_monomial(R, tuple_monomial.minimalize(gens))
    assert k_polynomial_monomial(MonomialIdeal(R, gens)) == oracle


@pytest.mark.parametrize(
    "mono", [(1,), (1, 0, 0), (1, -1), (-1, 0)], ids=["short", "long", "neg", "neg-first"]
)
def test_wrong_length_or_negative_exponents_are_rejected(mono):
    R = std_ring(2)
    I = MonomialIdeal(R, [(1, 0)])
    for call in (
        lambda: MonomialIdeal(R, [mono]),
        lambda: I.contains(mono),
        lambda: I.add_monomial(mono),
        lambda: I.colon_monomial(mono),
    ):
        with pytest.raises(ValueError):
            call()
    # a correct tuple of the same ring still works
    assert not I.contains((0, 5))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_minimalize_matches_tuple_oracle(seed, big):
    rng = random.Random(seed)
    n = rng.randrange(0, 5)
    gens = _random_gens(rng, n, big)
    assert minimalize(gens) == tuple_monomial.minimalize(gens)
    with pytest.raises(ValueError):
        minimalize([(0,) * n, (0,) * (n + 1)])


def test_pivot_counts_more_generators_than_a_field_holds():
    # the 280 monomials x^a y^b z^c of degree 24 with c <= 15: x and y
    # lie in 264 of them, more than an 8-bit field counts, and z in 255,
    # so the pivot is x, which a count that overflowed would miss
    R = std_ring(3)
    gens = [(a, 24 - a - c, c) for c in range(16) for a in range(25 - c)]
    I = MonomialIdeal(R, gens)
    i, plus, quot = I._pivot_split()
    assert i == tuple_monomial.pick_pivot(I.gens, R.n) == 0
    assert plus == I.add_monomial((1, 0, 0)) and quot == I.colon_monomial((1, 0, 0))
