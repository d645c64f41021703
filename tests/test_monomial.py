import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_monomial_ideal, random_positive_ring, random_standard_ring
from mdeg.errors import EmptyScheme, NotMinimalPrime, NotSquarefree, TooManyVertices
from mdeg.groebner import contract
from mdeg.monomial import (
    MonomialIdeal,
    PrimaryComponent,
    _split_generator,
    alexander_dual,
    borel_fixed_check,
    borel_prime_exponent,
    dimension_and_minimal_primes,
    dimension_filtration,
    irreducible_decomposition,
    length_at_minimal_prime,
    localize_at,
    minimal_primes,
    mlength,
    polarize,
    primary_decomposition,
    reisner_cm_check,
    stanley_reisner_complex,
)
from mdeg.ring import make_ring


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
    dim, primes = dimension_and_minimal_primes(I)
    assert dim == 2
    assert sorted(sorted(P) for P in primes) == [[0], [1, 2]]


def test_unit_and_zero_edge_cases():
    R = std_ring(2)
    unit = MonomialIdeal(R, [(0, 0)])
    assert unit.is_unit()
    assert dimension_and_minimal_primes(unit) == (-1, [])
    zero = MonomialIdeal(R, [])
    assert dimension_and_minimal_primes(zero) == (2, [frozenset()])
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


def test_alexander_dual_small():
    R = std_ring(3)
    I = MonomialIdeal(R, [(1, 1, 0), (0, 1, 1)])
    D = alexander_dual(I)
    assert D == MonomialIdeal(R, [(0, 1, 0), (1, 0, 1)])
    with pytest.raises(NotSquarefree):
        alexander_dual(MonomialIdeal(R, [(2, 0, 0)]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_alexander_dual_involution(seed):
    rng = random.Random(seed)
    R = std_ring(rng.randrange(2, 6))
    gens = []
    for _ in range(rng.randrange(1, 5)):
        e = tuple(rng.randrange(0, 2) for _ in range(R.n))
        if any(e):
            gens.append(e)
    if not gens:
        return
    I = MonomialIdeal(R, gens)
    assert alexander_dual(alexander_dual(I)) == I


def test_polarize():
    R = std_ring(2)
    I = MonomialIdeal(R, [(2, 1)])
    J, provenance = polarize(I)
    assert J.ring.n == 3
    assert J.is_squarefree()
    # polarized copies keep the original multidegree
    assert all(J.ring.degrees[i] == R.degrees[provenance[i][0]] for i in provenance)


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
