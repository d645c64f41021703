import contextlib
import itertools
import random
import signal
from fractions import Fraction
from operator import mul

from mdeg.errors import EmptyScheme
from mdeg.fields import QQ, rank_mod_p
from mdeg import groebner
from mdeg.genin import gin
from mdeg.groebner import Ideal, _buchberger, _make_monic, _packed, _reduce_dict, buchberger, contract
from mdeg.hilbert import k_polynomial, k_polynomial_monomial, local_length
from mdeg.intpoly import IntegerPolynomial
from mdeg.monomial import (
    MonomialIdeal,
    minimal_primes,
    primary_decomposition,
)
from mdeg.orders import elimination_order, grevlex
from mdeg.ring import (
    Polynomial,
    _add_mul,
    _field_bits,
    _max_exponent,
    _packing,
    _times,
    make_ring,
)
from mdeg.standardize import CsVerdict, standardize_ideal


def three_block_ring(field=QQ):
    """k[x0..x3][y0..y3][z0..z3] with the standard N^3 grading."""
    names = [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)] + [
        f"z{i}" for i in range(4)
    ]
    degs = [(1, 0, 0)] * 4 + [(0, 1, 0)] * 4 + [(0, 0, 1)] * 4
    return make_ring(names, degs, field)


def surface_prime(ring):
    """The 14-generator prime ideal of the P^3 x P^3 x P^3 threefold fixture."""
    v = {nm: ring.variable(nm) for nm in ring.names}
    x0, x1, x2, x3 = (v[f"x{i}"] for i in range(4))
    y0, y1, y2, y3 = (v[f"y{i}"] for i in range(4))
    z0, z1, z2, z3 = (v[f"z{i}"] for i in range(4))
    return Ideal(
        ring,
        [
            x1 - x2,
            y3 * z0 - y0 * z1 - y2 * z2,
            y2 * z0 - y0 * z2,
            x2 * z0 - x0 * z1,
            y1 * y1 + y2 * y2 - y0 * y3,
            x3 * y0 - x0 * y1,
            x2 * y0 - x3 * y1,
            x0 * x2 - x3 * x3,
            y0 * y2 * z1 + y2 * y2 * z2 - y0 * y3 * z2,
            x3 * y2 * z1 - x2 * y1 * z2,
            x0 * y2 * z1 - x3 * y1 * z2,
            x3 * y1 * z1 - x0 * y3 * z1 + x2 * y2 * z2,
            x3 * y1 * z0 - x0 * y0 * z1,
            x3 * x3 * z0 - x0 * x0 * z1,
        ],
    )


SURFACE_CEE_TERMS = {
    (3, 3, 0): 2,
    (3, 2, 1): 4,
    (3, 1, 2): 2,
    (2, 3, 1): 2,
    (2, 2, 2): 4,
}


def eliminate(ring, dicts, n, drop):
    """Ideal of `ring` cut out of the term dicts, in an n-slot exponent
    space, by eliminating the slots `drop`: an oracle of groebner.contract,
    and the elimination of toric kernels and of saturation by a polynomial.

    Buchberger runs under elimination_order(n, drop); the basis elements
    that avoid the drop slots generate the elimination ideal, and with
    those slots removed they are its generators in `ring`.  On monomials
    that avoid the drop slots the elimination order is grevlex on the kept
    slots, in the same order, so these generators are the reduced grevlex
    basis of the result, already sorted; they are cached as such.
    """
    keep = [k for k in range(n) if k not in drop]
    gens = [
        Polynomial._of(ring, {tuple(e[k] for k in keep): c for e, c in d.items()})
        for d in buchberger(dicts, elimination_order(n, drop), ring.field)
        if not any(e[k] for e in d for k in drop)
    ]
    out = Ideal._of(ring, gens)
    out._gb[grevlex(ring)] = out.gens
    return out


def contract_by_elimination(I, block_indices, keep_grading=False):
    """groebner.contract of an Ideal by elimination of the variables whose
    degree leaves the blocks J, for a J that separates the blocks."""
    ring = I.ring
    jset = {j - 1 for j in block_indices}
    drop = [i for i, d in enumerate(ring.degrees) if any(d[k] for k in range(ring.p) if k not in jset)]
    keep = [i for i in range(ring.n) if i not in drop]
    sub = ring.subring(keep, None if keep_grading else sorted(jset))
    return eliminate(sub, [g.terms for g in I.gens], ring.n, drop)


def toric_kernel(target_ring, param_names, images):
    """Kernel of the monomial map x_i -> images[i], certified prime.

    images are exponent dicts over the parameter variables; the kernel of
    a monomial map into a domain is prime by construction.  Computed by
    eliminating the parameters from (x_i - image_i).
    """
    n_par = len(param_names)
    total = n_par + target_ring.n
    F = target_ring.field
    raw = []
    for i, img in enumerate(images):
        pe = [0] * total
        for pname, k in img.items():
            pe[param_names.index(pname)] = k
        x = tuple(int(k == n_par + i) for k in range(total))
        raw.append({x: F.one, tuple(pe): F.neg(F.one)})
    return Ideal(target_ring, eliminate(target_ring, raw, total, range(n_par)).gens)


def as_ideal(M):
    """The Ideal that the MonomialIdeal M generates."""
    ring = M.ring
    return Ideal._of(ring, [Polynomial._of(ring, {g: ring.field.one}) for g in M.gens])


def random_monomial_ideal(rng, ring, max_gens=5, max_exp=3):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in range(ring.n))
        if any(e):
            gens.append(e)
    if not gens:
        gens = [tuple(1 if i == 0 else 0 for i in range(ring.n))]
    return MonomialIdeal(ring, gens)


def random_standard_ring(rng, max_vars=8, max_blocks=3, field=QQ):
    p = rng.randrange(1, max_blocks + 1)
    sizes = [rng.randrange(1, 4) for _ in range(p)]
    while sum(sizes) > max_vars:
        sizes[sizes.index(max(sizes))] -= 1
    names, degs = [], []
    for k, s in enumerate(sizes):
        for i in range(s):
            names.append(f"v{k}_{i}")
            degs.append(tuple(int(j == k) for j in range(p)))
    return make_ring(names, degs, field)


def block_ring(sizes, field=QQ):
    """The standard graded ring with blocks of the given sizes, variables
    v{k}_{i}."""
    names, degs = [], []
    for k, s in enumerate(sizes):
        for i in range(s):
            names.append(f"v{k}_{i}")
            degs.append(tuple(int(j == k) for j in range(len(sizes))))
    return make_ring(names, degs, field)


def random_positive_ring(rng, max_vars=6, max_blocks=3, field=QQ):
    """A ring of 1..max_vars variables with random nonzero degree vectors
    in N^p, p <= max_blocks, of entries 0-2: so some |deg x| >= 2 and some
    zero coordinates."""
    p = rng.randint(1, max_blocks)
    degs = []
    for _ in range(rng.randint(1, max_vars)):
        d = (0,) * p
        while not any(d):
            d = tuple(rng.randrange(3) for _ in range(p))
        degs.append(d)
    return make_ring([f"v{i}" for i in range(len(degs))], degs, field)


def add_empty_block(rng, ring):
    """The same variables, graded with one more block that holds none of them."""
    k = rng.randrange(ring.p + 1)
    degs = [d[:k] + (0,) + d[k:] for d in ring.degrees]
    return make_ring(ring.names, degs, ring.field)


def random_form(rng, ring, degree):
    """A nonzero multihomogeneous polynomial of 1-3 random terms.

    Its monomials share the multidegree of a product of `degree` random
    variables of the standard graded `ring`.
    """
    support = [rng.randrange(ring.n) for _ in range(degree)]
    deg = ring.monomial_degree(
        tuple(support.count(i) for i in range(ring.n))
    )
    monos = [
        e
        for e in itertools.product(range(degree + 1), repeat=ring.n)
        if ring.monomial_degree(e) == deg
    ]
    F = ring.field
    terms = {
        e: F.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
        for e in rng.sample(monos, min(len(monos), rng.randint(1, 3)))
    }
    return Polynomial(ring, terms)


def random_ideal(rng, ring, max_degree=2, max_gens=3):
    """An Ideal of 1..max_gens random forms of degree 1..max_degree."""
    gens = [
        random_form(rng, ring, rng.randint(1, max_degree))
        for _ in range(rng.randint(1, max_gens))
    ]
    return Ideal(ring, gens)


# Reference helpers: the Hilbert series expansion that the oracle and the
# K-polynomials are compared against, the multidegree C by substitution,
# the truncations [C(R^i)]_i of the dimension filtration that sum to the
# arithmetic multidegree, normal forms and membership for Ideals, MLength,
# the contraction clauses of the gin report by one gin per contraction,
# the CS verdict by the gin of the standardization, monomials of a ring,
# and integer-polynomial parts, monomials, variables, evaluation and
# coefficientwise comparison.


def series_expansion(numerator, denominators, bound):
    """Expand numerator / prod(1 - t^d) as a table up to a componentwise bound.

    `denominators` is a list of degree vectors d (one per ring variable);
    returns a dict mapping exponent tuples nu <= bound to integers.
    """
    bound = tuple(bound)

    def within(e):
        return all(a <= b for a, b in zip(e, bound))

    table = {e: c for e, c in numerator.terms.items() if within(e) and all(a >= 0 for a in e)}
    for d in denominators:
        # multiply the truncated series by 1/(1 - t^d) = sum_k t^{kd}
        out = dict(table)
        frontier = table
        while frontier:
            nxt = {}
            for e, c in frontier.items():
                e2 = tuple(a + b for a, b in zip(e, d))
                if within(e2):
                    nxt[e2] = nxt.get(e2, 0) + c
            for e, c in nxt.items():
                out[e] = out.get(e, 0) + c
            frontier = nxt
        table = out
    return {e: c for e, c in table.items() if c}


def multidegree_C_by_substitution(I, order=None):
    """C(S/I) as the lowest-degree part of the full expansion of
    K(S/I; 1 - t), 0 for the unit ideal: the oracle for the pivot-tree
    recursion of hilbert.multidegree_C."""
    sub = k_polynomial(I, order).substitute_one_minus_t()
    if not sub:
        return sub
    return total_degree_part(sub, sub.min_total_degree())


def dimension_filtration(I, i):
    """Q_i = intersection of the primary components of codimension < i.

    R^i(S/I) is then Q_i/I; the empty intersection is the unit ideal, and
    Q_i = I encodes R^i = 0 (all associated primes have codimension < i).
    """
    if i < 0:
        raise ValueError("i must be non-negative")
    comps = [c for c in primary_decomposition(I) if len(c.prime) < i]
    if not comps:
        return MonomialIdeal(I.ring, [(0,) * I.ring.n])
    out = comps[0].component
    for c in comps[1:]:
        out = out.intersect(c.component)
    return out


def truncation_multidegree(I, i):
    """[C(R^i)]_i where R^i = Q_i/I is the dimension filtration quotient."""
    Qi = dimension_filtration(I, i)
    diff = k_polynomial_monomial(I) - k_polynomial_monomial(Qi)
    return total_degree_part(diff.substitute_one_minus_t(), i)


def hilbert_series_table(I, bound, order=None):
    """Series expansion of K / prod(1 - t^deg x), for cross-checking."""
    k = k_polynomial(I, order)
    return series_expansion(k, list(I.ring.degrees), bound)


def total_degree_part(f, d):
    """The sum of the terms of the IntegerPolynomial f of total degree d."""
    return IntegerPolynomial(f.p, {e: c for e, c in f.terms.items() if sum(e) == d})


def normal_form(I, f, order=None):
    """f reduced by the reduced Groebner basis of the Ideal I under `order`
    (grevlex by default), with the packed reduction of groebner."""
    if order is None:
        order = grevlex(I.ring)

    def reduce(pk, dicts, field):
        f, *gb = dicts
        return pk.unpack_dict(_reduce_dict(f, {next(iter(g)): g for g in gb}, field, pk))

    dicts = [f.terms] + [g.terms for g in I.groebner_basis(order)]
    return Polynomial._of(I.ring, _packed(order, dicts, reduce, I.ring.field))


# ---------------------------------------------------------------------------
# Oracles of groebner.gin_trial: the path it replaced, which substituted in
# the plain layout, unpacked the result into an Ideal and packed it again
# for the order's Hilbert-driven pair loop; the dense block change of
# coordinates that genin.random_block_change drew before its unitriangular
# one; and the lcm of _Packing with its repack of the fields above the
# variables, which groebner._new_pairs replaced with _Packing.above.


def substituted_ideal(I, images):
    """Apply the ring map x_i -> images[i] (Polynomials) to the generators.

    The images are packed once in the plain layout, with fields wide
    enough for every image of a term, and each term's image is multiplied
    out on packed dicts, its last factor straight into one term dict per
    generator; a generator whose image is zero is dropped.  Each image
    must be zero or homogeneous of the degree of its variable."""
    ring = images[0].ring if images else I.ring
    F = ring.field
    tops = [_max_exponent([g.terms]) for g in images]
    bound = max((sum(map(mul, e, tops)) for f in I.gens for e in f.terms), default=0)
    pk = _packing(ring.n, _field_bits(bound))
    packed = [pk.pack_dict(g.terms) for g in images]
    one = {0: F.one}
    out = []
    for f in I.gens:
        acc = {}
        for e, c in f.terms.items():
            factors = [packed[i] for i, k in enumerate(e) for _ in range(k)] or [one]
            head = {0: c}
            for g in factors[:-1]:
                head = _times(head, g, F, pk.guard)
            for el, cl in factors[-1].items():
                _add_mul(acc, cl, el, head, F, pk.guard)
        if acc:
            out.append(Polynomial._of(ring, pk.unpack_dict(acc)))
    return Ideal._of(ring, out)


def dense_block_change(ring, seed):
    """A seeded random invertible block change of coordinates over a prime
    field, dense: per grading block a k x k matrix, drawn again until it
    has full rank, whose rows give the images of the block's variables, so
    an image has up to k terms where a unitriangular one has (k + 1)/2 on
    average."""
    F = ring.field
    rng = random.Random(seed)
    images = [None] * ring.n
    for k in range(ring.p):
        block = ring.block_variables(k)
        while True:
            M = [[F.coerce(rng.randrange(F.p)) for _ in block] for _ in block]
            if rank_mod_p([dict(enumerate(row)) for row in M], F.p) == len(block):
                break
        for row, i in zip(M, block):
            terms = {tuple(int(v == j) for v in range(ring.n)): c for j, c in zip(block, row) if c}
            images[i] = Polynomial._of(ring, terms)
    return images


def hinted_initial_ideal(J, order, hint):
    """in(J) under `order` from the Hilbert-driven pair loop on the
    generators of J, with the hint of an ideal of J's Hilbert function:
    only the leading terms of its basis are unpacked."""
    dicts = [f.terms for f in J.gens]
    pk, basis = _packed(order, dicts, _buchberger, J.ring.field, hint)
    return MonomialIdeal(J.ring, [pk.unpack(next(iter(d))) for d in basis])


def trial_substitution(I, images, order):
    """The generators of g(I), x_i -> images[i], as gin_trial substitutes
    them into the order's layout (groebner._substitute), unpacked."""
    F = I.ring.field
    gens = [f.terms for f in I.gens]

    def run(pk, packed):
        return pk, groebner._substitute(gens, packed, pk, F)

    pk, out = _packed(order, [g.terms for g in images], run)
    return tuple(Polynomial._of(I.ring, pk.unpack_dict(d)) for d in out)


def order_lcm(pk, a, b):
    """lcm of two exponents packed by pk in any layout: a plus the
    fieldwise excess of b, whose fields above the variables are packed
    again from its unpacked tuple."""
    x = pk.excess(a, b)
    if x:
        x = pk.pack(pk.unpack(x))
    return a + x


# ---------------------------------------------------------------------------
# Oracles of groebner's pair bookkeeping: the Gebauer-Moller update that
# called _Packing.excess per candidate and unpacked and packed again the lcm
# of every kept pair, and the interreduction that built the other kept
# elements' dict once per element and made each result monic again.


def update_pairs(pairs, lts, t, pk, memo=None):
    """groebner._update_pairs as it was: the same pairs, in the same order."""
    guard, vmask, excess = pk.guard, pk.vmask, pk.excess
    stale = []
    for ab, (_, _, l) in pairs.items():
        if not (l - t) & guard:
            a, b = ab
            lv = l & vmask
            if lv != (a & vmask) + excess(a, t) and lv != (b & vmask) + excess(b, t):
                stale.append(ab)
    for ab in stale:
        del pairs[ab]
    new = None if memo is None else memo.get(t)
    if new is None:
        new = new_pairs(lts, t, pk)
        if memo is not None:
            memo[t] = new
    pairs.update(new)


def new_pairs(lts, t, pk):
    """groebner._new_pairs as it was: candidate lcms through
    _Packing.excess, and each kept lcm unpacked and packed again."""
    guard, vmask = pk.guard, pk.vmask
    fresh = {a: (a & vmask) + pk.excess(a, t) for a in lts}
    tv = t & vmask
    chosen, new = [], []
    for a in sorted(lts, key=fresh.__getitem__):
        l = fresh[a]
        if any(not (l - m) & guard for m in chosen):
            continue
        chosen.append(l)
        if l != (a & vmask) + tv:
            u = pk.unpack(l)
            l = pk.pack(u)
            new.append(((a, t), (sum(u), l ^ pk.flip, l)))
    return new


def reduce_basis(basis, field, pk):
    """groebner._reduce_basis as it was: each kept element fully reduced
    against the others, then made monic."""
    guard, flip = pk.guard, pk.flip
    keep = []
    for a in sorted(basis, key=lambda a: a & pk.vmask):
        if all((a - b) & guard for b in keep):
            keep.append(a)
    keep.sort(key=lambda a: a ^ flip)
    out = []
    for a in keep:
        others = {b: basis[b] for b in keep if b != a}
        out.append(_make_monic(_reduce_dict(basis[a], others, field, pk), field)[1])
    return out


def ideal_contains(I, f):
    """Whether the Ideal I holds the polynomial f."""
    return not normal_form(I, f)


def codim_of(I):
    """codim of the monomial ideal I from its minimal primes, n + 1 for the
    unit ideal: the oracle of hilbert.codimension, which multidegree_C's
    recursion finds."""
    if I.is_unit():
        return I.ring.n + 1
    return min(len(P) for P in minimal_primes(I))


def mlength(I):
    """Maximal length of the minimal primary components of the monomial
    ideal I."""
    primes = minimal_primes(I)
    if not primes:
        raise EmptyScheme("the ideal cuts out the empty scheme")
    return max(local_length(I, P) for P in primes)


def contraction_mlength_by_gins(I, order=None, trials=2, seed=0):
    """The contraction clauses of genin.gin_structure_report by the route
    it took before it read each contraction's gin off gin(I): one gin of
    each proper contraction I_(J), under grevlex whatever `order` is, and
    MLength 1 for a zero contraction.  Returns gin(I) under `order`, the
    MLength table of every nonempty J and the two contraction clauses."""
    G = gin(I, order=order, trials=trials, seed=seed).ideal
    if G.is_unit():
        raise EmptyScheme("the ideal cuts out the empty scheme")
    base_lengths = [local_length(G, P) for P in minimal_primes(G)]
    base_ml = max(base_lengths)
    p = G.ring.p
    table = {tuple(range(1, p + 1)): base_ml}
    ml_ok = div_ok = True
    for mask in range(1, (1 << p) - 1):
        J = tuple(k + 1 for k in range(p) if mask >> k & 1)
        IJ = contract(I, J)
        if not IJ.gens:
            table[J] = 1
            continue
        GJ = gin(IJ, trials=trials, seed=seed).ideal
        lengths = [local_length(GJ, P) for P in minimal_primes(GJ)]
        table[J] = max(lengths)
        if table[J] > base_ml:
            ml_ok = False
        if not all(any(b % l == 0 for b in base_lengths) for l in lengths):
            div_ok = False
    clauses = {"contraction_mlength_monotone": ml_ok, "component_length_divisibility": div_ok}
    return G, table, clauses


def cs_check_by_gin(I, trials=2, seed=0):
    """standardize.cs_check by the route it took before it read the
    verdict off K(S/I): I is CS when the gin of its standardization, over
    `trials` trials from `seed`, is squarefree."""
    res = gin(standardize_ideal(I), trials=trials, seed=seed)
    sq = res.ideal.is_squarefree()
    detail = "gin of standardization is squarefree" if sq else (
        "gin of standardization has a non-squarefree generator"
    )
    return CsVerdict(sq, lambda: res.ideal, I.ring.field, detail)


def field_element(F, c):
    """The element of the field F that the int or Fraction c names: over
    GF(p), the numerator times the inverse of the denominator, and
    ZeroDivisionError when p divides the denominator.  The parser divides
    with F.inv, so only the tests need this."""
    c = Fraction(c)
    if not F.p:
        return F.coerce(c)
    if c.denominator % F.p == 0:
        raise ZeroDivisionError(f"denominator divisible by {F.p}")
    return c.numerator * pow(c.denominator, -1, F.p) % F.p


def monomial(ring, exps, c=1):
    """The polynomial c * x^exps of `ring`, zero when c is."""
    return Polynomial(ring, {tuple(exps): field_element(ring.field, c)})


def constant(ring, c):
    """The constant polynomial c of `ring`."""
    return monomial(ring, (0,) * ring.n, c)


def int_monomial(e, c=1):
    """The IntegerPolynomial c * t^e."""
    return IntegerPolynomial(len(e), {tuple(e): c})


def int_one(p):
    """The IntegerPolynomial 1 in p variables."""
    return int_monomial((0,) * p)


def int_variable(p, i):
    """The IntegerPolynomial t_{i+1} in p variables."""
    return int_monomial(tuple(int(j == i) for j in range(p)))


def int_product(f, g):
    """The product of the IntegerPolynomials f and g, term by term: the
    program multiplies an IntegerPolynomial only by an integer."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return IntegerPolynomial(f.p, out)


def evaluate(f, values):
    """The IntegerPolynomial f at integer (or Fraction) arguments."""
    total = 0
    for e, c in f.terms.items():
        v = c
        for x, k in zip(values, e):
            v *= x**k
        total += v
    return total


def ge_coefficientwise(f, g):
    """f >=_c g for IntegerPolynomials: every coefficient dominates."""
    keys = set(f.terms) | set(g.terms)
    return all(f.terms.get(e, 0) >= g.terms.get(e, 0) for e in keys)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body after `seconds` (POSIX only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
