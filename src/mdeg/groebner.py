"""Buchberger engine and ideal operations.

Buchberger runs on packed exponents (ring._Packing): `buchberger` packs
its input for the monomial order and unpacks the basis it returns, and
every step in between works on ints.  The layout gives each variable a
field of B bits with a guard bit on top; the total degree (grevlex) and
the weight rows, first row highest, sit above the variable fields, so the
order key of a packed exponent P is P ^ LOW (grevlex, x_n in the top
variable field, LOW masking the variable fields) or P itself (lex, x_1 in
the top variable field).  A monomial product is one int add, a | b is
`not (b - a) & GUARD`, and a new exponent with a guard bit set widens B
and reruns (`_packed`), so answers stay exact for any exponent size.
Normal forms use the same packing.

Polynomials are reduced with a lazy-deletion heap of order keys, so each
term is touched once and the normal form comes out in descending order:
every basis element lists its leading term first.  Every subtraction of a
term multiple (reduction, S-polynomial) and the products
of a substitution go through the one term kernel, ring._add_mul.
Critical pairs are pruned with the Gebauer-Moller update, on lcms found
on the variable fields alone; only a kept pair's lcm is unpacked, once,
and packed again with the order's fields.  Pairs are picked smallest lcm
first, which makes the reduced basis of a homogeneous input
deterministic.

A gin trial, in(g(I)) for a block change of coordinates g (gin_trial),
stays packed from substitution to leading terms.  _Packing.pack is
additive, so the images of the variables are packed once in the order's
own layout and each generator is substituted straight into it; the
packed dicts go to the pair loop, and only the leading terms of its basis
are unpacked.  That loop stops by the Hilbert function: with a
hilbert.HilbertHint holding K(S/I), fed each new packed leading term, it
skips pairs whose lcm degree is already saturated and stops once the
leading terms have the K-polynomial of I.  Only leading terms count
there, so each new element is top-reduced (reduced until its leading
term is irreducible) and its tail is left as it stands, neither sorted
nor reduced; the leading terms still lie in in(g(I)), which is all the
hint's rules need.  An exponent past the fields, in the substitution or
in the loop, doubles them and reruns the whole trial.
Intersection and contraction to a variable subring are one elimination
helper, _eliminate, which runs on raw term dicts (the auxiliary-variable
construction of an intersection is not multihomogeneous) and caches the
result's reduced grevlex basis.
Saturation by a block of variables, which the geometric multidegrees
need, eliminates nothing: by Bayer's lemma, each I : x_i^infinity of a
multihomogeneous I is read off one homogeneous basis of I under a degree
order with x_i last (_saturate_variable), walking each block from its
last variable, whose order in a standard grading is grevlex itself.
Ideal checks the generators a caller passes; the ideals built here
(eliminations, saturations) are multihomogeneous by construction and are
wrapped by Ideal._of without a second check.
"""

from heapq import heapify, heappop, heappush

from .errors import (
    BadArgument,
    BlocksNotSeparable,
    NotHomogeneous,
    NotStandardGraded,
    RingMismatch,
    Unstable,
)
from .monomial import MonomialIdeal
from .orders import elimination_order, grevlex, weight_order
from .ring import (
    Polynomial,
    _add_mul,
    _field_bits,
    _max_exponent,
    _Overflow,
    _packing,
    _times,
    is_homogeneous,
)


def _packed(order, dicts, run, *args):
    """run(pk, the term dicts packed by pk, *args) for the narrowest
    _Packing pk for `order` that holds their exponents; while a new
    exponent overflows its field, the fields are doubled and run reruns."""
    bits = _field_bits(_max_exponent(dicts))
    grevlex_tie = order.tiebreak == "grevlex"
    while True:
        pk = _packing(order.n, bits, order.weight_rows, grevlex_tie)
        try:
            return run(pk, [pk.pack_dict(d) for d in dicts], *args)
        except _Overflow:
            bits *= 2


def _reduce_dict(f, basis, field, pk, top=False):
    """Full normal form of the packed term dict f against `basis`, a dict
    from leading term to monic element; its terms come out in descending
    order.  With `top`, f is reduced only until its leading term is
    irreducible: that term comes first, the rest of f as it stands."""
    flip, guard = pk.flip, pk.guard
    work = dict(f)
    heap = [-(e ^ flip) for e in work]
    heapify(heap)
    out = {}
    while heap:
        e = -heappop(heap) ^ flip
        c = work.pop(e, None)
        if c is None:
            continue
        for lt in basis:
            if not (e - lt) & guard:
                break
        else:
            if top:
                return {e: c, **work}
            out[e] = c
            continue
        for e2 in _add_mul(work, field.neg(c), e - lt, basis[lt], field, guard, lt):
            heappush(heap, -(e2 ^ flip))
    return out


def _make_monic(terms, field):
    """(leading term, monic multiple) of a packed term dict whose leading
    term comes first.  The leading coefficient is set to one, since over
    QQ inv(c) * c may come out as Fraction(1) rather than the int 1."""
    lt = next(iter(terms))
    c = terms[lt]
    if c == 1:
        return lt, terms
    inv, p = field.inv(c), field.p
    # _add_mul's arithmetic written out, modulo p or plain, with no call per term
    monic = {e: inv * v % p if p else inv * v for e, v in terms.items()}
    monic[lt] = field.one
    return lt, monic


def _update_pairs(pairs, lts, t, pk):
    """Gebauer-Moller pair update for the packed leading term t joining
    the leading terms lts.

    `pairs` maps (a, b), two leading terms, to (total degree, order key,
    lcm) of their lcm.  Each candidate lcm is found on the variable fields
    alone, (a & vmask) + excess(a, t), which is all that divisibility and
    equality look at; only a pair that is kept has its lcm unpacked, once,
    for the total degree, and packed again with the fields above the
    variables, which the order key and the S-polynomial's shifts need.
    """
    guard, vmask = pk.guard, pk.vmask
    fresh = {a: (a & vmask) + pk.excess(a, t) for a in lts}
    # drop old pairs whose lcm is strictly reducible by the new element
    stale = [
        ab
        for ab, (_, _, l) in pairs.items()
        if not (l - t) & guard and l & vmask not in (fresh[ab[0]], fresh[ab[1]])
    ]
    for ab in stale:
        del pairs[ab]
    # among the new pairs keep one representative per minimal lcm; a proper
    # divisor has smaller variable fields, so it is met first
    tv = t & vmask
    chosen = []
    for a in sorted(lts, key=fresh.__getitem__):
        l = fresh[a]
        if any(not (l - m) & guard for m in chosen):
            continue
        chosen.append(l)
        if l != (a & vmask) + tv:  # Buchberger's first criterion: a, t not coprime
            u = pk.unpack(l)
            l = pk.pack(u)
            pairs[(a, t)] = (sum(u), l ^ pk.flip, l)


def buchberger(gen_dicts, order, field):
    """The reduced Groebner basis of the given term dicts, sorted by
    leading term, each element monic with its terms in descending order,
    so that its leading term comes first."""
    pk, basis = _packed(order, gen_dicts, _buchberger, field, None)
    return [pk.unpack_dict(d) for d in basis]


def _buchberger(pk, gens, field, hilbert):
    """(pk, the packed basis) for `buchberger`, or, with `hilbert`, for
    gin_trial.

    `hilbert` is a hilbert.HilbertHint for an ideal with the Hilbert
    function of the input: a pair is then skipped when the hint finds the
    leading terms so far saturated at the degree of its lcm, and the loop
    stops as soon as they have the hint's K-polynomial.  Each new element
    is then only top-reduced: it lists its leading term first, and its
    tail is neither sorted nor reduced.  The basis is not minimal either,
    but its leading terms generate the initial ideal.  If the pairs run
    out first, the hint does not fit the input and Unstable is raised.
    """
    flip, guard = pk.flip, pk.guard
    basis = {}  # leading term -> monic element, in the order found
    pairs = {}
    hinted = hilbert is not None
    if hinted:
        hilbert.start(pk)

    def add(d):
        """Append d, reduced, if it does not reduce to zero; report whether
        it was appended."""
        r = _reduce_dict(d, basis, field, pk, top=hinted)
        if not r:
            return False
        lt, monic = _make_monic(r, field)
        _update_pairs(pairs, basis, lt, pk)
        basis[lt] = monic
        if hinted:
            hilbert.add(lt)
        return True

    gens = [d for d in gens if d]
    gens.sort(key=lambda d: max(e ^ flip for e in d))
    for d in gens:
        add(d)
    done = hinted and hilbert.complete()
    minus_one = field.neg(field.one)
    while pairs and not done:
        a, b = min(pairs, key=pairs.__getitem__)
        l = pairs.pop((a, b))[2]
        if hinted and hilbert.saturated(l):
            continue
        s = {}
        _add_mul(s, field.one, l - a, basis[a], field, guard)
        _add_mul(s, minus_one, l - b, basis[b], field, guard)
        if add(s) and hinted:
            done = hilbert.complete()
    if not hinted:
        out = _reduce_basis(basis, field, pk)
    elif done:
        out = basis.values()
    else:
        raise Unstable(
            "the leading terms of a complete Groebner basis do not have "
            "the K-polynomial of the Hilbert hint"
        )
    return pk, list(out)


def _reduce_basis(basis, field, pk):
    """Minimalize leading terms, then tail-reduce: the reduced basis,
    sorted by leading term.

    No two leading terms are equal, since each was reduced against the
    earlier ones, so the kept elements are those whose leading terms are
    minimal generators of the monomial ideal they span; a proper divisor
    has smaller variable fields, so it is kept before its multiples are met.
    """
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


class Ideal:
    """A multihomogeneous ideal with cached reduced Groebner bases.

    Ideal(ring, gens) checks that each generator is a multihomogeneous
    Polynomial of `ring`, and drops the zero ones."""

    def __init__(self, ring, gens):
        self.ring = ring
        clean = []
        for f in gens:
            if not isinstance(f, Polynomial):
                raise TypeError("generators must be Polynomials")
            if f.ring != ring:
                raise RingMismatch("generator from a different ring")
            if not f:
                continue
            if not is_homogeneous(f):
                raise NotHomogeneous(f"generator {f} is not multihomogeneous")
            clean.append(f)
        self.gens = tuple(clean)
        self._gb = {}

    @classmethod
    def _of(cls, ring, gens):
        """The ideal on `gens` as given, unchecked: for nonzero
        multihomogeneous Polynomials of `ring` that the program built, such
        as elimination results, minors or images under a map that keeps
        degrees."""
        I = cls.__new__(cls)
        I.ring, I.gens, I._gb = ring, tuple(gens), {}
        return I

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return False
        o = grevlex(self.ring)
        return self.groebner_basis(o) == other.groebner_basis(o)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        gb = self.groebner_basis(grevlex(self.ring))
        return len(gb) == 1 and gb[0].terms == {(0,) * self.ring.n: self.ring.field.one}

    def groebner_basis(self, order=None):
        if order is None:
            order = grevlex(self.ring)
        if order not in self._gb:
            dicts = buchberger([f.terms for f in self.gens], order, self.ring.field)
            self._gb[order] = tuple(Polynomial._of(self.ring, d) for d in dicts)
        return self._gb[order]

    def initial_ideal(self, order=None):
        """in(I) under `order`: the leading terms of the cached reduced
        basis, each of whose elements lists its leading term first."""
        if order is None:
            order = grevlex(self.ring)
        lts = [next(iter(g.terms)) for g in self.groebner_basis(order)]
        return MonomialIdeal(self.ring, lts)


def _eliminate(ring, dicts, n, drop):
    """Ideal of `ring` cut out of the term dicts, in an n-slot exponent
    space, by eliminating the slots `drop`.

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


def intersect(I, J):
    """I cap J via t*I + (1-t)*J and elimination of t."""
    if I.ring != J.ring:
        raise RingMismatch("ideals live in different rings")
    ring = I.ring
    F = ring.field
    raw = [{(1,) + e: c for e, c in f.terms.items()} for f in I.gens]
    for g in J.gens:
        d = {(0,) + e: c for e, c in g.terms.items()}
        d.update({(1,) + e: F.neg(c) for e, c in g.terms.items()})
        raw.append(d)
    return _eliminate(ring, raw, ring.n + 1, [0])


def _saturate_variable(I, i):
    """I : x_i^infinity for an Ideal I, by Bayer's lemma; I itself when I
    is already x_i-saturated.

    With w_j the sum of the entries of deg(x_j), every multihomogeneous
    generator is homogeneous for w.  Under the weight rows (w, -e_i)
    refined by grevlex, the leading term of a w-homogeneous f has the
    least x_i exponent among the terms of f, so x_i divides in(f) exactly
    when it divides f.  Dividing each element of the reduced basis by the
    largest power of x_i that divides it then gives a basis of
    I : x_i^infinity (Bayer-Stillman 1987; Eisenbud, Commutative Algebra,
    Prop. 15.12).  If no element is divisible, I is saturated; if one is,
    g / x_i is not in I, since in(g) is a minimal generator of in(I).
    When every w_j is equal and i is the last variable, the order is
    grevlex itself, whose basis I caches for is_unit and __eq__.
    """
    ring = I.ring
    w = tuple(sum(d) for d in ring.degrees)
    if i == ring.n - 1 and len(set(w)) == 1:
        order = grevlex(ring)
    else:
        order = weight_order(ring, (w, tuple(-int(j == i) for j in range(ring.n))))
    gens, divided = [], False
    for g in I.groebner_basis(order):
        k = min(e[i] for e in g.terms)
        if k:
            divided = True
            g = Polynomial._of(
                ring, {e[:i] + (e[i] - k,) + e[i + 1 :]: c for e, c in g.terms.items()}
            )
        gens.append(g)
    return Ideal._of(ring, gens) if divided else I


def saturate_var_block(I, var_indices):
    """Saturate an Ideal or a MonomialIdeal by the ideal of some variables.

    I : m^infinity for m = (x_i : i in var_indices) is the intersection of
    the variable saturations I : x_i^infinity; an empty index set returns
    I.

    For an Ideal, each I : x_i^infinity is one homogeneous Buchberger run
    (_saturate_variable), which relies on the generators being
    multihomogeneous.  Since I <= I : m^infinity <= I : x_i^infinity for
    every i, the first x_i with I : x_i^infinity == I shows that I is
    already saturated, and I is returned at once.  The variables are
    walked from the highest index down, so that in a standard grading the
    first run of the last block is the grevlex basis of I, which its
    callers need anyway.
    """
    out = None
    for i in sorted(var_indices, reverse=True):
        if isinstance(I, MonomialIdeal):
            s, meet = I.saturate_variable(i), MonomialIdeal.intersect
        else:
            s, meet = _saturate_variable(I, i), intersect
            if s is I:
                return I
        out = s if out is None else meet(out, s)
    return I if out is None else out


def saturate_irrelevant(I):
    """Saturate an Ideal or a MonomialIdeal by the irrelevant ideal of a
    standard N^p-graded ring.

    The irrelevant ideal is the intersection of the block ideals, so the
    saturation is computed one block at a time.
    """
    ring = I.ring
    if not ring.is_standard:
        raise NotStandardGraded("irrelevant saturation needs a standard grading")
    cur = I
    for k in range(ring.p):
        cur = saturate_var_block(cur, ring.block_variables(k))
    return cur


def contract(I, block_indices, keep_grading=False):
    """I_(J) for an Ideal or a MonomialIdeal: intersect with the subring of
    the blocks in J (1-based).

    Every variable's degree must be supported inside J or inside its
    complement; the result lives in GradedRing.subring on the kept
    variables, with degree vectors restricted to the J coordinates.  With
    keep_grading the original N^p grading is preserved (blocks outside J
    become empty), which keeps the t_k labels of the multidegree aligned
    with the source.  The generators that avoid the dropped variables are
    kept: from _eliminate, whose result carries its reduced grevlex basis,
    and for a monomial ideal from its minimal generators, which are already
    such a basis.
    """
    ring = I.ring
    J = sorted(set(block_indices))
    if any(j < 1 or j > ring.p for j in J):
        raise BadArgument(f"block indices must lie in 1..{ring.p}")
    jset = {j - 1 for j in J}
    keep, drop = [], []
    for i, d in enumerate(ring.degrees):
        supp = {k for k, c in enumerate(d) if c}
        if supp <= jset:
            keep.append(i)
        elif supp & jset:
            raise BlocksNotSeparable(
                f"deg({ring.names[i]}) = {d} meets blocks both inside and outside {J}"
            )
        else:
            drop.append(i)
    sub = ring.subring(keep, None if keep_grading else sorted(jset))
    if isinstance(I, MonomialIdeal):
        return MonomialIdeal(
            sub,
            [tuple(g[i] for i in keep) for g in I.gens if not any(g[i] for i in drop)],
        )
    return _eliminate(sub, [g.terms for g in I.gens], ring.n, drop)


def _substitute(gens, images, pk, field):
    """The images of the term dicts `gens` under the ring map x_i ->
    images[i], for images packed by pk, as term dicts packed by pk; a zero
    image is dropped.

    pk.pack is additive, so the packed images multiply out in pk's own
    layout, order fields included: each term's image is the product of
    its factors, the last factor added straight into one term dict per
    generator.  An exponent past the fields raises _Overflow."""
    guard = pk.guard
    one = {0: field.one}
    out = []
    for f in gens:
        acc = {}
        for e, c in f.items():
            factors = [images[i] for i, k in enumerate(e) for _ in range(k)] or [one]
            head = {0: c}
            for g in factors[:-1]:
                head = _times(head, g, field, guard)
            for el, cl in factors[-1].items():
                _add_mul(acc, cl, el, head, field, guard)
        if acc:
            out.append(acc)
    return out


def gin_trial(I, images, order, hilbert):
    """in(g(I)) under `order`, for the ring map g: x_i -> images[i] and
    `hilbert`, a hilbert.HilbertHint of I: one trial of genin.gin.

    Each image must be zero or homogeneous of its variable's degree, as
    the block changes of coordinates of genin.random_block_change are:
    g(I) then has the Hilbert function of I and multihomogeneous
    generators, and nothing is checked.  The images are packed once, in
    the order's own layout, each generator of I is substituted into that
    layout (_substitute) and the packed dicts go straight to the
    Hilbert-driven pair loop; while a new exponent overflows its field,
    the fields are doubled and the trial reruns (_packed).  Only the
    leading terms of the basis are unpacked.
    """
    field = I.ring.field
    gens = [f.terms for f in I.gens]

    def run(pk, packed):
        return _buchberger(pk, _substitute(gens, packed, pk, field), field, hilbert)

    pk, basis = _packed(order, [g.terms for g in images], run)
    return MonomialIdeal(I.ring, [pk.unpack(next(iter(d))) for d in basis])
