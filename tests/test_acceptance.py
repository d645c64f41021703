"""End-to-end acceptance gate: one pass/fail line per criterion.

Each test prints "ACCEPTANCE <n>: PASS|FAIL" (bypassing capture so the
lines always appear in the run log) and then asserts.
"""

import random
import time

from conftest import (
    SURFACE_CEE_TERMS,
    ge_coefficientwise,
    hilbert_series_table,
    mlength,
    random_monomial_ideal,
    random_standard_ring,
    surface_prime,
    three_block_ring,
    toric_kernel,
    truncation_multidegree,
)
from mdeg.cli import main as cli_main
from mdeg.determinantal import build_determinantal, closed_formulas, multidegree_formula
from mdeg.fields import GF32003, QQ
from mdeg.genin import gin, gin_structure_report
from mdeg.groebner import Ideal, contract
from mdeg.hilbert import (
    arithmetic_multidegree,
    geometric_multidegrees,
    hilbert_function_oracle,
    k_polynomial,
    local_length,
    multidegree_C,
)
from mdeg.intpoly import IntegerPolynomial
from mdeg.monomial import (
    MonomialIdeal,
    minimal_primes,
    primary_decomposition,
    reisner_cm_check,
)
from mdeg.orders import grevlex, lex, weight_order
from mdeg.ring import Polynomial, make_ring
from mdeg.standardize import cs_check, standardize_ideal, verify_standardization


def report(capsys, n, ok, extra=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _mono(ring, *gens):
    idx = ring._index
    out = []
    for g in gens:
        e = [0] * ring.n
        for nm, k in g.items():
            e[idx[nm]] = k
        out.append(tuple(e))
    return MonomialIdeal(ring, out)


def test_criterion_01_multidegree_of_threefold(capsys):
    t0 = time.monotonic()
    R = three_block_ring(QQ)
    P = surface_prime(R)
    C = multidegree_C(P)
    dt = time.monotonic() - t0
    ok = C == IntegerPolynomial(3, SURFACE_CEE_TERMS) and dt < 60
    report(capsys, 1, ok, f"{dt:.2f}s")


def test_criterion_02_projection_table(capsys):
    t0 = time.monotonic()
    R = three_block_ring(QQ)
    P = surface_prime(R)
    expected = {
        (1,): (1, {(2,): 2}),
        (2,): (2, {(1,): 2}),
        (3,): (3, {(0,): 1}),
        (1, 2): (2, {(3, 1): 2, (2, 2): 4}),
        (1, 3): (3, {(3, 0): 2, (2, 1): 2}),
        (2, 3): (3, {(3, 0): 2, (2, 1): 4, (1, 2): 2}),
    }
    ok = True
    detail = []
    for J, (dim, terms) in expected.items():
        IJ = contract(P, list(J))
        table = geometric_multidegrees(IJ)
        good = table.dim == dim and table.cee == IntegerPolynomial(len(J), terms)
        ok = ok and good
        if not good:
            detail.append(f"J={J}")
    dt = time.monotonic() - t0
    ok = ok and dt < 120
    report(capsys, 2, ok, f"{dt:.1f}s" + (" " + ",".join(detail) if detail else ""))


def test_criterion_03_gin_components_and_projection(capsys):
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    G = gin(P, trials=3).ideal
    M1 = _mono(R, {"x0": 1}, {"x1": 1}, {"x2": 2}, {"y0": 1}, {"y1": 1}, {"y2": 1})
    M2 = _mono(
        R, {"x0": 1}, {"x1": 2}, {"x1": 1, "x2": 1}, {"x2": 3},
        {"y0": 1}, {"y1": 1}, {"z0": 1},
    )
    M3 = _mono(R, {"x0": 1}, {"x1": 1}, {"x2": 2}, {"y0": 1}, {"z0": 1}, {"z1": 1})
    M4 = _mono(R, {"x0": 1}, {"x1": 2}, {"y0": 1}, {"y1": 1}, {"y2": 1}, {"z0": 1})
    M5 = _mono(R, {"x0": 1}, {"x1": 2}, {"y0": 1}, {"y1": 2}, {"z0": 1}, {"z1": 1})
    expected = {M1: 2, M2: 4, M3: 2, M4: 2, M5: 4}

    comps = primary_decomposition(G)
    mins = {frozenset(Q) for Q in minimal_primes(G)}
    minimal_comps = {
        c.component: local_length(G, c.prime) for c in comps if frozenset(c.prime) in mins
    }
    ok = minimal_comps == expected
    # informational: embedded component figures under our order convention
    embedded = [c for c in comps if frozenset(c.prime) not in mins]
    info = f"{len(comps)} components, embedded codims {sorted({len(c.prime) for c in embedded})}"

    Q = contract(P, [2, 3])
    GQ = gin(Q, trials=3).ideal
    T = GQ.ring
    C1 = _mono(T, {"y0": 1}, {"y1": 1}, {"y2": 2})
    C2 = _mono(T, {"y0": 2}, {"y0": 1, "y1": 1}, {"y1": 3}, {"z0": 1})
    C3 = _mono(T, {"y0": 2}, {"z0": 1}, {"z1": 1})
    qcomps = primary_decomposition(GQ)
    ok = ok and {c.component for c in qcomps} == {C1, C2, C3}
    ok = ok and GQ == contract(G, [2, 3])
    base_lengths = sorted(expected.values())
    ok = ok and all(
        any(b % local_length(GQ, c.prime) == 0 for b in base_lengths) for c in qcomps
    )
    rep = gin_structure_report(P, trials=3)
    ok = ok and rep.clauses["contraction_mlength_monotone"]
    ok = ok and rep.clauses["component_length_divisibility"]
    report(capsys, 3, ok, info)


def test_criterion_04_radical_gin_cohen_macaulay(capsys):
    R = three_block_ring(GF32003)
    P = surface_prime(R)
    rad = gin(P).ideal.radical()
    ok = reisner_cm_check(rad, 2) and reisner_cm_check(rad, 32003)
    for m in range(1, 4):
        for n in range(m, 4):
            _, I = build_determinantal(m, n, m, GF32003)
            J = standardize_ideal(I)
            radmn = gin(J).ideal.radical()
            a, b = reisner_cm_check(radmn, 2), reisner_cm_check(radmn, 32003)
            ok = ok and a and b and a == b
    report(capsys, 4, ok)


def test_criterion_05_closed_formulas_match_pipeline(capsys):
    cells = [(m, n) for m in range(1, 5) for n in range(m, 5)] + [(2, 5)]
    ok = True
    worst = 0.0
    for m, n in cells:
        t0 = time.monotonic()
        H, K = closed_formulas(m, n)
        ring, I = build_determinantal(m, n, m)
        order = lex(ring)
        good = (
            multidegree_C(I, order) == H
            and all(c == 1 for c in H.terms.values())
            and k_polynomial(I, order) == K
        )
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok = ok and good and dt < 60
    report(capsys, 5, ok, f"worst cell {worst:.2f}s")


def test_criterion_06_submaximal_minor_coefficients(capsys):
    _, I = build_determinantal(3, 3, 2)
    C = multidegree_C(I)
    want2 = [
        (1, 1, 1, 1, 0, 0),  # t1 t2 t3 s1
        (1, 1, 0, 1, 1, 0),  # t1 t2 s1 s2
        (1, 0, 0, 1, 1, 1),  # t1 s1 s2 s3
    ]
    want1 = [
        (2, 2, 0, 0, 0, 0),  # t1^2 t2^2
        (2, 1, 1, 0, 0, 0),  # t1^2 t2 t3
    ]
    ok = all(C.terms.get(e) == 2 for e in want2)
    ok = ok and all(C.terms.get(e) == 1 for e in want1)
    report(capsys, 6, ok)


def test_criterion_07_standardization_invariants(capsys):
    fixtures = []
    for m, n in [(2, 2), (2, 3)]:
        _, I = build_determinantal(m, n, m)
        fixtures.append(I)
    rng = random.Random(7)
    while sum(1 for _ in fixtures) < 7:
        p = rng.randrange(1, 3)
        nv = rng.randrange(2, 5)
        degs = []
        for _ in range(nv):
            d = tuple(rng.randrange(0, 3) for _ in range(p))
            degs.append(d if any(d) else (1,) * p)
        R = make_ring([f"w{i}" for i in range(nv)], degs)
        gens = [
            e
            for e in (
                tuple(rng.randrange(0, 3) for _ in range(nv))
                for _ in range(rng.randrange(1, 4))
            )
            if any(e)
        ]
        if gens:
            fixtures.append(MonomialIdeal(R, gens))
    while len(fixtures) < 11:
        nv = rng.randrange(3, 5)
        degs = [(rng.randrange(1, 3),) for _ in range(nv)]
        R = make_ring([f"w{i}" for i in range(nv)], degs)
        e1 = tuple(rng.randrange(0, 3) for _ in range(nv))
        e2 = tuple(rng.randrange(0, 3) for _ in range(nv))
        wt = lambda e: sum(a * d[0] for a, d in zip(e, degs))
        if e1 == e2 or wt(e1) != wt(e2) or not any(e1):
            continue
        f = Polynomial(R, {e1: R.field.one, e2: R.field.neg(R.field.one)})
        fixtures.append(Ideal(R, [f]))
    ok = len(fixtures) >= 10
    for I in fixtures:
        ok = ok and all(verify_standardization(I).values())
    report(capsys, 7, ok, f"{len(fixtures)} fixtures")


def test_criterion_08_cartwright_sturmfels_detection(capsys):
    ok = True
    positives = []
    for m in range(1, 5):
        for n in range(m, 5):
            _, I = build_determinantal(m, n, m, GF32003)
            v = cs_check(I)
            ok = ok and v.is_cs
            positives.append(I)
    _, I2 = build_determinantal(3, 3, 2, GF32003)
    ok = ok and not cs_check(I2).is_cs
    Rx = make_ring(["x", "y"], [(1,), (1,)], GF32003)
    x, _ = Rx.gens()
    ok = ok and not cs_check(Ideal(Rx, [x * x])).is_cs
    rng = random.Random(8)
    for I in positives:
        J = standardize_ideal(I)
        S = J.ring
        orders = [
            grevlex(S),
            lex(S),
            weight_order(S, [tuple(rng.randrange(1, 9) for _ in range(S.n))]),
        ]
        for o in orders:
            ok = ok and J.initial_ideal(o).is_squarefree()
    report(capsys, 8, ok)


def test_criterion_09_polymatroid_supports(capsys):
    from mdeg.polymatroid import exchange_check, snp_check, support_points

    supports = [set(SURFACE_CEE_TERMS)]
    for m in range(1, 5):
        for n in range(m, 5):
            supports.append(set(multidegree_formula(m, n).terms))
    # toric binomial primes built as kernels of monomial maps
    R1 = make_ring(["a", "b", "c", "d"], [(1,)] * 4)
    cubic = toric_kernel(
        R1, ["s", "t"], [{"s": 3}, {"s": 2, "t": 1}, {"s": 1, "t": 2}, {"t": 3}]
    )
    R2 = make_ring(
        ["x0", "x1", "x2", "y0", "y1"], [(1, 0)] * 3 + [(0, 1)] * 2
    )
    curve = toric_kernel(
        R2,
        ["u", "w1", "w2"],
        [{"w1": 1}, {"u": 1, "w1": 1}, {"u": 2, "w1": 1}, {"w2": 1}, {"u": 1, "w2": 1}],
    )
    supports.append(support_points(multidegree_C(cubic)))
    supports.append(support_points(multidegree_C(curve)))
    ok = True
    for supp in supports:
        exch, _ = exchange_check(supp)
        snp, _ = snp_check(supp)
        ok = ok and exch and snp
    bad_ok, witness = exchange_check({(2, 0), (0, 2)})
    snp_bad, missing = snp_check({(2, 0), (0, 2)})
    ok = ok and not bad_ok and not snp_bad and missing == (1, 1)
    report(capsys, 9, ok)


def test_criterion_10_arithmetic_dominates_multidegree(capsys):
    R = three_block_ring(QQ)
    P = surface_prime(R)
    A = arithmetic_multidegree(P.initial_ideal())
    C = multidegree_C(P)
    ok = ge_coefficientwise(A, C)
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        ring, I = build_determinantal(m, n, m)
        order = lex(ring)
        Amn = arithmetic_multidegree(I.initial_ideal(order))
        ok = ok and ge_coefficientwise(Amn, multidegree_C(I, order))
    # primes generated by variables: arithmetic and classic multidegree agree
    R2 = make_ring(["x0", "x1", "y0", "y1"], [(1, 0)] * 2 + [(0, 1)] * 2)
    for gens in ([(1, 0, 0, 0)], [(1, 0, 0, 0), (0, 0, 1, 0)], [(0, 1, 0, 0)]):
        Pm = MonomialIdeal(R2, gens)
        ok = ok and arithmetic_multidegree(Pm) == multidegree_C(Pm)
    rng = random.Random(10)
    for _ in range(25):
        ring = random_standard_ring(rng, max_vars=5)
        I = random_monomial_ideal(rng, ring)
        if I.is_unit():
            continue
        total = IntegerPolynomial(ring.p)
        for i in range(ring.n + 1):
            total = total + truncation_multidegree(I, i)
        ok = ok and total == arithmetic_multidegree(I)
    report(capsys, 10, ok)


def test_criterion_11_nonprime_negative_control(capsys):
    R = make_ring(
        ["x0", "x1", "x2", "y0", "y1", "y2"],
        [(1, 0)] * 3 + [(0, 1)] * 3,
        GF32003,
    )
    x0, x1, x2, y0, y1, y2 = R.gens()
    J = Ideal(R, [x0 * x0, x0 * x1, x1 * y0, y0 * y0 * y0])
    ml_full = mlength(gin(J).ideal)
    ml_proj = mlength(gin(contract(J, [2])).ideal)
    ok = ml_full == 1 and ml_proj == 3
    import pathlib

    fixture = str(pathlib.Path(__file__).parent / "fixtures" / "remark59.ring")
    rc = cli_main(["gin-report", fixture, "--ideal", "J"])
    capsys.readouterr()
    ok = ok and rc == 4
    report(capsys, 11, ok, f"MLength {ml_full} vs {ml_proj}, exit {rc}")


def test_criterion_12_hilbert_function_oracle_coherence(capsys):
    t0 = time.monotonic()
    rng = random.Random(12)
    ok = True
    for _ in range(50):
        ring = random_standard_ring(rng, max_vars=8)
        I = random_monomial_ideal(rng, ring)
        bound = (6,) * ring.p
        hf = hilbert_function_oracle(I, bound)
        series = hilbert_series_table(I, bound)
        ok = ok and all(hf.get(nu, 0) == v for nu, v in series.items())
        ok = ok and all(series.get(nu, 0) == v for nu, v in hf.items())
    dt = time.monotonic() - t0
    ok = ok and dt < 300
    report(capsys, 12, ok, f"{dt:.1f}s for 50 ideals")
