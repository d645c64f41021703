import pathlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    add_empty_block,
    as_ideal,
    block_ring,
    contraction_mlength_by_gins,
    dense_block_change,
    evaluate,
    ge_coefficientwise,
    random_ideal,
    random_monomial_ideal,
    random_standard_ring,
    surface_prime,
    three_block_ring,
)
from mdeg import genin, groebner, hilbert
from mdeg.determinantal import build_determinantal
from mdeg.errors import EmptyScheme, FieldTooSmall, NotStandardGraded, Unstable
from mdeg.fields import GF32003, PrimeField, QQ
from mdeg.genin import gin, gin_structure_report, random_block_change
from mdeg.groebner import Ideal, contract, gin_trial
from mdeg.hilbert import HilbertHint, arithmetic_multidegree, k_polynomial, local_length
from mdeg.inputlang import parse_input
from mdeg.monomial import MonomialIdeal, minimal_primes, primary_decomposition
from mdeg.orders import MonomialOrder, grevlex, lex, weight_order
from mdeg.ring import Polynomial, make_ring, multidegree_of
from mdeg.standardize import cs_check, standardize_ideal
from test_prime_oracles import nonzero_toric_primes, toric_primes
import test_cli


def two_block_ring(field=GF32003):
    return make_ring(
        ["x0", "x1", "x2", "y0", "y1", "y2"],
        [(1, 0)] * 3 + [(0, 1)] * 3,
        field,
    )


def test_gin_of_borel_monomial_ideal_is_itself():
    R = two_block_ring()
    B = MonomialIdeal(
        R, [(1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    )
    res = gin(as_ideal(B))
    assert res.ideal == B
    assert res.borel


def test_gin_preserves_k_polynomial():
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4, GF32003)
    a, b, c, d = R.gens()
    I = Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])
    res = gin(I)
    assert res.borel
    assert k_polynomial(res.ideal) == k_polynomial(I)


def _random_gin_input(seed, empty_block):
    """(rng, I) for a random ideal I of up to 4 forms of degree up to 3 in
    a standard ring of up to 5 variables over GF(32003), with an empty
    block added when asked; rng goes on from the draw."""
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    if empty_block:
        R = add_empty_block(rng, R)
    return rng, random_ideal(rng, R, max_degree=3, max_gens=4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_gin_has_the_k_polynomial_of_the_ideal(seed, empty_block):
    _, I = _random_gin_input(seed, empty_block)
    res = gin(I, seed=seed)
    assert k_polynomial(res.ideal) == k_polynomial(I)


def _outcome(run):
    """run(), or Unstable when it raises Unstable."""
    try:
        return run()
    except Unstable:
        return Unstable


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
@example(9071, True)
def test_gin_does_not_depend_on_the_order_of_the_generators(seed, empty_block):
    rng, I = _random_gin_input(seed, empty_block)
    R = I.ring
    gens = list(I.gens)
    rng.shuffle(gens)
    if gens == list(I.gens):
        gens.reverse()
    # gin(J), or Unstable: a trial's change of coordinates can be special
    # for J (at seed 9071 one kills the x^2 term of a quadric), and it is
    # then special for every order of J's generators
    shuffled = Ideal(R, gens)
    expected = _outcome(lambda: gin(I, seed=seed).ideal)
    assert _outcome(lambda: gin(shuffled, seed=seed).ideal) == expected


def test_gin_trial_with_another_hilbert_function_is_unstable(monkeypatch):
    # a substitution that loses a generator changes the Hilbert function;
    # the trial's K-polynomial check must catch it
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4, GF32003)
    a, b, c, d = R.gens()
    I = Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])
    real = groebner._substitute

    def lossy(gens, images, pk, field):
        return real(gens, images, pk, field)[:-1]

    monkeypatch.setattr(groebner, "_substitute", lossy)
    with pytest.raises(Unstable):
        gin(I)


def _gin_order(rng, R, kind):
    """grevlex, lex, or a weight order refined by grevlex whose weights fall
    along each block, so that it refines the block order gin needs."""
    if kind == "grevlex":
        return grevlex(R)
    if kind == "lex":
        return lex(R)
    w = [0] * R.n
    for k in range(R.p):
        block = R.block_variables(k)
        for i, v in zip(block, sorted((rng.randrange(1, 9) for _ in block), reverse=True)):
            w[i] = v
    return weight_order(R, [tuple(w)])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.sampled_from(["grevlex", "lex", "weights"]),
    st.booleans(),
)
def test_a_shared_hint_gives_the_answers_of_a_fresh_hint_per_trial(seed, trials, kind, empty_block):
    # gin passes one HilbertHint, a tree of the states its trials reach, to
    # every trial; a fresh hint per trial holds one path, the state of that
    # trial alone
    rng, I = _random_gin_input(seed, empty_block)
    R = I.ring
    order = _gin_order(rng, R, kind)
    changes = [random_block_change(R, seed + k) for k in range(trials)]
    hint = HilbertHint(I)
    shared = [_outcome(lambda: gin_trial(I, g, order, hint)) for g in changes]
    fresh = [_outcome(lambda: gin_trial(I, g, order, HilbertHint(I))) for g in changes]
    assert shared == fresh
    agreed = Unstable not in fresh and all(r == fresh[0] for r in fresh)
    expected = fresh[0] if agreed else Unstable
    assert _outcome(lambda: gin(I, order=order, trials=trials, seed=seed).ideal) == expected


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["grevlex", "lex", "weights"]),
    st.booleans(),
    st.booleans(),
)
def test_a_hint_fed_in_I_and_a_generic_trial_gives_the_answers_of_fresh_hints(
    seed, kind, identity_first, empty_block
):
    # the identity images give in(I), whose leading terms leave the path of
    # a generic trial wherever in(I) and in(g(I)) differ: the second trial
    # grows a branch of the tree the first one built
    rng, I = _random_gin_input(seed, empty_block)
    R = I.ring
    order = _gin_order(rng, R, kind)
    changes = [R.gens(), random_block_change(R, seed)]
    if not identity_first:
        changes.reverse()
    hint = HilbertHint(I)
    shared = [gin_trial(I, g, order, hint) for g in changes]
    assert shared == [gin_trial(I, g, order, HilbertHint(I)) for g in changes]
    assert shared[0 if identity_first else 1] == I.initial_ideal(order)


def _count_calls(monkeypatch, counts, owner, name):
    """Count the calls of owner.name in counts[name]."""
    real = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


HINT_AND_PAIR_WORK = [
    (hilbert, "_k_packed"),
    (MonomialIdeal, "colon_monomial"),
    (groebner, "_new_pairs"),
]


def test_a_second_trial_on_the_same_path_recomputes_no_hint_or_pair_state(monkeypatch):
    # gin P over GF(32003): the second trial meets the leading terms of the
    # first in the same order, so it finds every state of the hint and every
    # new pair in the tree; the first trial computes each of them once, for
    # each of its 24 leading terms, which are the minimal generators of gin P
    text = (pathlib.Path(__file__).parent / "fixtures" / "example46.ring").read_text()
    P = parse_input(text.replace("field QQ", "field Fp 32003")).ideal("P")
    R = P.ring
    hint = HilbertHint(P)
    counts = Counter()
    for owner, name in HINT_AND_PAIR_WORK:
        _count_calls(monkeypatch, counts, owner, name)
    first = gin_trial(P, random_block_change(R, 0), grevlex(R), hint)
    assert counts["colon_monomial"] == counts["_new_pairs"] == len(first.gens) == 24
    assert counts["_k_packed"] >= counts["colon_monomial"]
    counts.clear()
    assert gin_trial(P, random_block_change(R, 1), grevlex(R), hint) == first
    assert [counts[name] for _, name in HINT_AND_PAIR_WORK] == [0, 0, 0]


def test_a_trial_that_leaves_the_path_computes_its_branch(monkeypatch):
    # in((v0_1^2)) = (v0_1^2) under grevlex, while the gin is (v0_0^2): the
    # generic trial leaves the identity trial's path at the root
    R = block_ring([2], GF32003)
    x, y = R.gens()
    I = Ideal(R, [y * y])
    hint = HilbertHint(I)
    counts = Counter()
    for owner, name in HINT_AND_PAIR_WORK:
        _count_calls(monkeypatch, counts, owner, name)
    assert gin_trial(I, R.gens(), grevlex(R), hint) == I.initial_ideal(grevlex(R))
    counts.clear()
    generic = gin_trial(I, random_block_change(R, 0), grevlex(R), hint)
    assert generic == MonomialIdeal(R, [(2, 0)])
    assert counts["colon_monomial"] == counts["_new_pairs"] == 1


def test_a_trial_past_the_fields_starts_a_new_root(monkeypatch):
    # x^127 + c*y^127 and x*y fit 8-bit fields, their S-pairs of degree 128
    # do not: each trial overflows and reruns in 16-bit fields, whose
    # packing has its own root in the shared hint
    R = block_ring([2], GF32003)
    x, y = R.gens()
    I = Ideal(R, [x**127 + (y**127).scale(5), x * y])
    starts, real = [], HilbertHint.start

    def start(self, pk):
        starts.append(pk.bits)
        return real(self, pk)

    monkeypatch.setattr(HilbertHint, "start", start)
    hint = HilbertHint(I)
    changes = [random_block_change(R, seed) for seed in (0, 1)]
    shared = [gin_trial(I, g, grevlex(R), hint) for g in changes]
    assert starts == [8, 16, 8, 16]
    assert [pk.bits for pk in hint._roots] == [8, 16]
    assert shared == [gin_trial(I, g, grevlex(R), HilbertHint(I)) for g in changes]
    assert gin(I).ideal == shared[0]


def _random_block_ring(rng):
    """A standard graded ring over GF(32003): 1-3 blocks of 1-3 variables."""
    return block_ring([rng.randint(1, 3) for _ in range(rng.randint(1, 3))], GF32003)


def test_arithmetic_multidegree_is_upper_semicontinuous_under_gin():
    # gin J is a flat degeneration of g(J) ~ J, so A(J) <= A(gin J)
    # coefficient by coefficient (the paper's multidegree version of
    # Hartshorne's semicontinuity)
    rng = random.Random(2208)
    strict = 0
    for _ in range(200):
        R = _random_block_ring(rng)
        gens = [
            tuple(rng.randint(0, 2) for _ in range(R.n)) for _ in range(rng.randint(1, 4))
        ]
        J = MonomialIdeal(R, gens)
        if J.is_unit():
            continue
        a, b = arithmetic_multidegree(J), arithmetic_multidegree(gin(as_ideal(J)).ideal)
        assert ge_coefficientwise(b, a), (J, a, b)
        strict += a != b
    assert strict


def _first_column(ring, images):
    """Each variable's image's coefficient of the first variable of its
    block."""
    out = []
    for i, g in enumerate(images):
        first = ring.block_variables(ring.degrees[i].index(1))[0]
        out.append(g.terms.get(tuple(int(j == first) for j in range(ring.n)), 0))
    return out


def _principal_gin_is_first_variables_power(R, f):
    """Check in(g f) against x^d = prod_k x_{k,1}^{d_k}, d = deg f, for the
    changes g of gin's two default trials, and gin((f)) = (x^d) when both
    are generic for f; return whether they are.

    x^d is the grevlex-largest monomial of degree d, and its coefficient
    in f(g x) is f at the first columns of g: in(g f) = x^d exactly when
    that value is nonzero."""
    I = Ideal(R, [f])
    d = multidegree_of(f)
    top = [0] * R.n
    for k in range(R.p):
        top[R.block_variables(k)[0]] = d[k]
    xd = MonomialIdeal(R, [tuple(top)])
    generic = True
    for seed in (0, 1):
        images = random_block_change(R, seed)
        value = evaluate(f, _first_column(R, images)) % R.field.p
        trial = gin_trial(I, images, grevlex(R), HilbertHint(I))
        assert (trial == xd) == (value != 0)
        generic = generic and value != 0
    if generic:
        assert gin(I).ideal == xd
    return generic


def test_gin_of_a_principal_ideal_is_a_power_of_the_first_variables():
    rng = random.Random(2208)
    F = GF32003
    for _ in range(200):
        R = _random_block_ring(rng)
        d = [0] * R.p
        while not any(d):
            d = [rng.randint(0, 2) for _ in range(R.p)]
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * R.n
            for k, dk in enumerate(d):
                for _ in range(dk):
                    e[rng.choice(R.block_variables(k))] += 1
            terms[tuple(e)] = F.coerce(rng.randrange(1, F.p))
        _principal_gin_is_first_variables_power(R, Polynomial(R, terms))
    # a form that vanishes at the first columns of the second trial's change:
    # its factor c*v0_0 - v0_1 does, for c the coefficient of v0_0 in that
    # change's image of v0_1; that trial's initial ideal differs, and gin
    # reports the disagreement
    R = block_ring([2, 3, 1], F)
    v = R.gens()
    c = _first_column(R, random_block_change(R, 1))[1]
    f = (v[0].scale(c) - v[1]) * (v[2] * v[3] + (v[4] * v[4]).scale(2504)) * v[5]
    assert not _principal_gin_is_first_variables_power(R, f)
    with pytest.raises(Unstable):
        gin(Ideal(R, [f]))


def dense_gin(I, trials=2, seed=0):
    """gin(I) under grevlex as gin builds it, but from the dense changes of
    conftest.dense_block_change: the trials share one hint and must agree.
    Under an order that refines each block's variable order, generic dense
    and unitriangular changes give the same initial ideal."""
    R = I.ring
    hint = HilbertHint(I)
    results = [
        gin_trial(I, dense_block_change(R, seed + k), grevlex(R), hint) for k in range(trials)
    ]
    assert all(r == results[0] for r in results[1:])
    return results[0]


def test_a_unitriangular_change_gives_the_gin_of_dense_changes_on_toric_primes():
    for seed, P in nonzero_toric_primes():
        assert gin(P).ideal == dense_gin(P), (seed, P)


@pytest.mark.parametrize(
    "m, n, r",
    [(2, 4, 2), (3, 3, 2), (3, 4, 3)],
    ids=["2x4 2-minors", "3x3 2-minors", "3x4 maximal minors"],
)
def test_a_unitriangular_change_gives_the_gin_of_dense_changes_on_cs_check_inputs(m, n, r):
    # the standardization of the r-minors, whose gin cs_check takes
    J = standardize_ideal(build_determinantal(m, n, r, GF32003)[1])
    assert gin(J).ideal == dense_gin(J)


def test_gin_seed_independent():
    R = make_ring(["a", "b", "c", "d"], [(1,)] * 4, GF32003)
    a, b, c, d = R.gens()
    I = Ideal(R, [a * c - b * b, b * d - c * c, a * d - b * c])
    assert gin(I, seed=0).ideal == gin(I, seed=7).ideal == gin(I, trials=3, seed=42).ideal


def test_gin_field_guards():
    Rq = make_ring(["x", "y"], [(1,), (1,)], QQ)
    x, y = Rq.gens()
    with pytest.raises(FieldTooSmall):
        gin(Ideal(Rq, [x * y]))
    Rs = make_ring(["x", "y"], [(1,), (1,)], PrimeField(101))
    x, y = Rs.gens()
    with pytest.raises(FieldTooSmall):
        gin(Ideal(Rs, [x * y]))


def test_gin_rejects_nonstandard_ring():
    R = make_ring(["x", "y"], [(2,), (1,)], GF32003)
    with pytest.raises(NotStandardGraded):
        gin(Ideal(R, []))


def test_gin_order_must_refine_block_order():
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, y = R.gens()
    bad = MonomialOrder(2, [(0, 1), (1, 0)], "lex")  # ranks y above x
    with pytest.raises(ValueError):
        gin(Ideal(R, [x * y]), order=bad)


def test_gin_threefold_component_structure():
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    G = gin(P).ideal
    assert G.is_squarefree() is False
    comps = primary_decomposition(G)
    assert len(comps) == 9
    mins = {frozenset(Q) for Q in minimal_primes(G)}
    min_lengths = sorted(
        local_length(G, c.prime) for c in comps if frozenset(c.prime) in mins
    )
    assert min_lengths == [2, 2, 2, 4, 4]
    embedded = [c for c in comps if frozenset(c.prime) not in mins]
    assert len(embedded) == 4
    assert all(len(c.prime) == 7 for c in embedded)


def test_gin_commutes_with_contraction():
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    Q = contract(P, [2, 3])
    GQ = gin(Q).ideal
    GP = gin(P).ideal
    assert GQ == contract(GP, [2, 3])


def test_gin_of_contracted_threefold_components():
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    Q = contract(P, [2, 3])  # ring y0..y3, z0..z3
    GQ = gin(Q).ideal
    S = GQ.ring

    def m(**kw):
        e = [0] * 8
        for nm, k in kw.items():
            e[S._index[nm]] = k
        return tuple(e)

    C1 = MonomialIdeal(S, [m(y0=1), m(y1=1), m(y2=2)])
    C2 = MonomialIdeal(S, [m(y0=2), m(y0=1, y1=1), m(y1=3), m(z0=1)])
    C3 = MonomialIdeal(S, [m(y0=2), m(z0=1), m(z1=1)])
    assert GQ == C1.intersect(C2).intersect(C3)


def test_gin_report_accepts_prime():
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    rep = gin_structure_report(P)
    assert rep.ok(), rep.clauses
    assert rep.clauses["borel_fixed"]
    assert rep.clauses["radical_cohen_macaulay"]
    # contraction records cover every nonempty block subset
    assert set(rep.contraction_mlength) == {
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
    }


def test_gin_report_flags_nonprime():
    R = two_block_ring()
    x0, x1, x2, y0, y1, y2 = R.gens()
    J = Ideal(R, [x0 * x0, x0 * x1, x1 * y0, y0 * y0 * y0])
    rep = gin_structure_report(J)
    assert not rep.ok()
    assert not rep.clauses["contraction_mlength_monotone"]


def test_gin_report_on_unit_ideal_is_empty_scheme():
    R = two_block_ring()
    x0, x1, x2, y0, y1, y2 = R.gens()
    with pytest.raises(EmptyScheme):
        gin_structure_report(Ideal(R, [x0, y0, R.one()]))


def test_gin_report_computes_one_gin(monkeypatch):
    """The report reads each contraction's gin off gin(I): on the threefold
    P, with three blocks and six proper contractions, gin runs once."""
    calls = []
    real = genin.gin

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(genin, "gin", counted)
    rep = gin_structure_report(surface_prime(three_block_ring(GF32003)))
    assert len(rep.contraction_mlength) == 7
    assert len(calls) == 1


def test_gin_report_saturates_nothing(monkeypatch):
    """Every local_length of the report is taken at a minimal prime, where
    the localization holds a power of every variable: on the threefold P
    no saturate_var_block runs."""
    calls = []
    real = hilbert.saturate_var_block

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hilbert, "saturate_var_block", counted)
    rep = gin_structure_report(surface_prime(three_block_ring(GF32003)))
    assert rep.ok()
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_gin_of_a_monomial_ideal_is_that_of_its_ideal(seed):
    rng = random.Random(seed)
    R = random_standard_ring(rng, max_vars=5, field=GF32003)
    M = random_monomial_ideal(rng, R, max_gens=4, max_exp=2)
    res, oracle = gin(M, seed=seed), gin(as_ideal(M), seed=seed)
    assert (res.ideal, res.borel) == (oracle.ideal, oracle.borel)


def test_cs_verdict_gin_of_a_monomial_ideal():
    """The non-CS verdict of the monomial ideal (x^2) of k[x, y] reads its
    gin, (x^2) itself, from gin of the MonomialIdeal."""
    R = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    M = MonomialIdeal(R, [(2, 0)])
    verdict = cs_check(M)
    assert not verdict.is_cs
    assert verdict.gin == M


def _report_parts(I, order):
    """gin(I), the MLength table and the two contraction clauses of the
    report, or the class of the error it raises."""
    try:
        rep = gin_structure_report(I, order=order)
    except (EmptyScheme, Unstable) as exc:
        return type(exc)
    clauses = {k: rep.clauses[k] for k in ("contraction_mlength_monotone", "component_length_divisibility")}
    return rep.gin.ideal, rep.contraction_mlength, clauses


def _parts_by_gins(I, order):
    try:
        return contraction_mlength_by_gins(I, order)
    except (EmptyScheme, Unstable) as exc:
        return type(exc)


def _assert_report_matches_the_gins_of_the_contractions(label, I, kind, rng):
    """The report and the oracle that runs one gin per contraction agree;
    under grevlex, the order the oracle's contraction gins use, each
    contraction of gin(I) is the gin of that contraction of I."""
    order = _gin_order(rng, I.ring, kind)
    got = _report_parts(I, order)
    assert got == _parts_by_gins(I, order), (label, kind)
    if kind != "grevlex" or isinstance(got, type):
        return
    G, table, _ = got
    for J in table:
        assert contract(G, J) == gin(contract(I, J)).ideal, (label, J)


def test_the_report_matches_the_gins_of_the_contractions_on_toric_primes():
    """Every toric prime of tests/test_prime_oracles.py under grevlex, and
    every fifth under lex and under a weight order along the blocks."""
    rng = random.Random(0)
    for seed, P in toric_primes():
        kinds = ("grevlex", "lex", "weights") if seed % 5 == 0 else ("grevlex",)
        for kind in kinds:
            _assert_report_matches_the_gins_of_the_contractions(seed, P, kind, rng)


def test_the_report_matches_the_gins_of_the_contractions_on_remark_59():
    """The ideals of remark59.ring and of the rmk59_more golden file: a
    prime, the zero ideal, a cone and three that fail clauses."""
    rng = random.Random(0)
    ring_file = parse_input(test_cli.GOLDEN_FILES["rmk59_more"])
    for name in ("J", "Z", "E", "C", "N", "B"):
        for kind in ("grevlex", "lex", "weights"):
            _assert_report_matches_the_gins_of_the_contractions(name, ring_file.ideal(name), kind, rng)


#: Random ideals of the differential test: 2-3 blocks of 1-3 variables.
RANDOM_REPORT_DRAWS = 40


def test_the_report_matches_the_gins_of_the_contractions_on_random_ideals():
    for seed in range(RANDOM_REPORT_DRAWS):
        rng = random.Random(seed)
        R = block_ring([rng.randint(1, 3) for _ in range(rng.randint(2, 3))], GF32003)
        I = random_ideal(rng, R)
        for kind in ("grevlex", "lex", "weights"):
            _assert_report_matches_the_gins_of_the_contractions(seed, I, kind, rng)
