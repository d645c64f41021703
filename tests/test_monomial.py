import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cee_of_quotient_prime_by_ideal,
    codim_of,
    contains_ideal,
    dimension_filtration,
    local_length_by_saturation,
    mlength,
    random_monomial_ideal,
    random_positive_ring,
    random_standard_ring,
)
from mdeg.errors import EmptyScheme, NotSquarefree, RingMismatch, TooManyVertices
from mdeg import monomial
from mdeg.groebner import contract
from mdeg.monomial import (
    MonomialIdeal,
    PrimaryComponent,
    borel_fixed_check,
    borel_prime_exponent,
    irreducible_decomposition,
    minimal_primes,
    minimalize,
    primary_decomposition,
    reisner_cm_check,
    stanley_reisner_complex,
)
from mdeg.hilbert import (
    cee_of_quotient_prime,
    codimension,
    k_polynomial_monomial,
    local_length,
)
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
    assert R.n - codim_of(I) == 2 == R.n - codimension(I)
    assert sorted(sorted(P) for P in minimal_primes(I)) == [[0], [1, 2]]


def test_unit_and_zero_edge_cases():
    R = std_ring(2)
    unit = MonomialIdeal(R, [(0, 0)])
    assert unit.is_unit()
    assert R.n - codim_of(unit) == -1 == R.n - codimension(unit) and minimal_primes(unit) == []
    zero = MonomialIdeal(R, [])
    assert R.n - codim_of(zero) == 2 == R.n - codimension(zero) and minimal_primes(zero) == [frozenset()]
    assert irreducible_decomposition(zero) == [zero]
    (comp,) = primary_decomposition(zero)
    assert (comp.prime, comp.component, local_length(zero, comp.prime)) == (frozenset(), zero, 1)


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
    assert [local_length(I, P) for P in sorted(by_prime, key=len)] == [1, 2]


def test_lengths():
    R = std_ring(1)
    I = MonomialIdeal(R, [(2,)])
    assert local_length(I, {0}) == 2
    assert local_length(I, set()) == 0


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


def test_reisner_cone_stripping_and_vertex_cap(monkeypatch):
    R = std_ring(30)
    gens = [tuple(int(i in (a, b)) for i in range(30)) for a, b in [(0, 1)]]
    I = MonomialIdeal(R, gens)
    # 28 cone vertices are stripped, so the cap is not hit
    assert reisner_cm_check(I, 2)
    monkeypatch.setattr(monomial, "MAX_CORE_VERTICES", 1)
    with pytest.raises(TooManyVertices):
        reisner_cm_check(I, 2)


def test_contract_blocks_monomial():
    R = make_ring(
        ["x0", "x1", "y0", "y1"], [(1, 0), (1, 0), (0, 1), (0, 1)]
    )
    I = MonomialIdeal(R, [(2, 0, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)])
    J = contract(I, [2])
    assert J.ring.names == ("y0", "y1")
    assert J.ring.p == 1
    assert J == MonomialIdeal(J.ring, [(1, 1)])


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
    # the minimal primes are the inclusion-minimal associated primes, in
    # the same order: gin-report reads them off its primary decomposition
    associated = [c.prime for c in comps]
    assert minimal_primes(I) == [P for P in associated if not any(Q < P for Q in associated)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_minimal_primes_are_the_minimal_covers(seed):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=6)
    I = random_monomial_ideal(rng, R, max_gens=6)
    assert minimal_primes(I) == tuple_monomial.minimal_covers(I.gens)


# The intersection-based pruning that irreducible_decomposition and
# primary_decomposition used before pruning by pairwise containment; kept
# as a differential oracle for the new kernel.


def _intersection_of(ideals):
    out = ideals[0]
    for other in ideals[1:]:
        out = out.intersect(other)
    return out


def _split_generator(J):
    """The first generator, in ascending order of its exponent tuple read
    from the last variable down, with two variables, split into the power
    of its last variable and the rest; or None."""
    for g in sorted(J.gens, key=lambda g: g[::-1]):
        supp = [i for i, e in enumerate(g) if e]
        if len(supp) > 1:
            i = supp[-1]
            u = tuple(e if j == i else 0 for j, e in enumerate(g))
            v = tuple(0 if j == i else e for j, e in enumerate(g))
            return u, v
    return None


def _split_leaves(I):
    """The irreducible leaves of irreducible_decomposition's split tree,
    in the order its depth-first walk reaches them."""
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
    return done


def _old_irreducible_decomposition(I):
    if I.is_unit() or I.is_zero():
        return []
    done = _split_leaves(I)
    changed = True
    while changed:
        changed = False
        for k, J in enumerate(done):
            rest = done[:k] + done[k + 1 :]
            if rest and contains_ideal(J, _intersection_of(rest)):
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
            if rest and contains_ideal(J, _intersection_of([c for _, c in rest])):
                comps.pop(k)
                changed = True
                break
    return [
        PrimaryComponent(P, Q)
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
        contains_ideal(J, K) for J in irr for K in irr if K is not J
    )
    new = [(c.prime, c.component) for c in primary_decomposition(I)]
    old = [(c.prime, c.component) for c in _old_primary_decomposition(I)]
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
    assert contains_ideal(I, J) == tuple_monomial.contains_ideal(ti, tj)
    assert contains_ideal(J, I) == tuple_monomial.contains_ideal(tj, ti)
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
    assert contains_ideal(Q, narrow) and contains_ideal(narrow, Q)
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


def _irreducible_decomposition_by_containment(I):
    """irreducible_decomposition as it was before it compared exponent
    vectors: the leaves of the same split tree, each kept unless it
    contains another one (contains_ideal)."""
    if I.is_unit():
        return []
    done = _split_leaves(I)
    return [J for J in done if not any(K is not J and contains_ideal(J, K) for K in done)]


def _power(rng, big):
    """An exponent of 1-3, or with `big` one of 128-300 with probability
    1/4, which needs 16-bit fields."""
    return rng.randrange(128, 301) if big and rng.random() < 0.25 else rng.randrange(1, 4)


def _irreducible(n, exponents):
    """The pure powers x_i^e of the dict `exponents` from i to e."""
    return [tuple(e if j == i else 0 for j in range(n)) for i, e in exponents.items()]


def _embedded_pair(rng, n, big):
    """Generators of Q_S cap Q_T for irreducibles Q_S = (x_i^a_i : i in S)
    and Q_T = (x_i^b_i : i in T), S a nonempty proper subset of T and
    b_i > a_i at some i of S: neither holds the other, so P_T is an
    embedded prime of Q_S cap Q_T."""
    T = rng.sample(range(n), rng.randrange(2, n + 1))
    S = T[: rng.randrange(1, len(T))]
    a = {i: _power(rng, big) for i in S}
    b = {i: _power(rng, big) for i in T}
    b[S[0]] = a[S[0]] + rng.randrange(1, 3)
    return tuple_monomial.intersect(_irreducible(n, a), _irreducible(n, b))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.booleans())
def test_skipping_kernels_match_their_old_kernels(seed, big_i, big_j):
    """intersect, the irredundancy filter of irreducible_decomposition,
    local_length and cee_of_quotient_prime against the kernels they
    replaced, on ideals with an embedded prime, with a further random
    irreducible component or generators, in 8- and 16-bit fields."""
    rng = random.Random(seed)
    R = random_positive_ring(rng)
    while R.n < 2:
        R = random_positive_ring(rng)
    pair = MonomialIdeal(R, _embedded_pair(rng, R.n, big_i))
    assert len(primary_decomposition(pair)) == 2 and len(minimal_primes(pair)) == 1
    more = rng.sample(range(R.n), rng.randrange(1, R.n + 1))
    Q = MonomialIdeal(R, _irreducible(R.n, {i: _power(rng, big_i) for i in more}))
    I = pair.intersect(Q)
    J = MonomialIdeal(R, _embedded_pair(rng, R.n, big_j) if rng.random() < 0.5 else _random_gens(rng, R.n, big_j))
    IJ = I.intersect(J)
    assert I.gens == tuple_monomial.intersect(pair.gens, Q.gens)
    assert IJ.gens == tuple_monomial.intersect(I.gens, J.gens)
    for K in (pair, I, J, IJ):
        assert irreducible_decomposition(K) == _irreducible_decomposition_by_containment(K)
        primes = [c.prime for c in primary_decomposition(K)]
        for P in primes + [frozenset(rng.sample(range(R.n), rng.randrange(R.n + 1)))]:
            assert local_length(K, P) == local_length_by_saturation(K, P)
            assert cee_of_quotient_prime(R, P) == cee_of_quotient_prime_by_ideal(R, P)


def test_ideals_of_different_rings_do_not_meet():
    """(x) of k[x, y] and (z) of k[x, y, z] neither meet nor compare, nor
    do ideals of two rings with the same number of variables."""
    xy, xz = make_ring(["x", "y"], [(1,)] * 2), make_ring(["x", "z"], [(1,)] * 2)
    xyz = make_ring(["x", "y", "z"], [(1,)] * 3)
    x, z = MonomialIdeal(xy, [(1, 0)]), MonomialIdeal(xyz, [(0, 0, 1)])
    for I, J in ((x, z), (z, x), (x, MonomialIdeal(xz, [(1, 0)]))):
        with pytest.raises(RingMismatch):
            I.intersect(J)
        with pytest.raises(RingMismatch):
            contains_ideal(I, J)


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
