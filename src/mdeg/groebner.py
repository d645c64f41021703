"""Buchberger engine and ideal operations.

Polynomials are reduced with a lazy-deletion heap so each term is touched
once.  Every subtraction of a term multiple (reduction, S-polynomial, exact
division) and the sums of a substitution go through the one term kernel,
ring._add_mul.  Critical pairs are pruned with the Gebauer-Moller update
and picked smallest lcm first, which makes the reduced basis of a
homogeneous input deterministic.  Initial ideals of g(I), for the block
changes of coordinates g of a gin, are found by Hilbert-driven stopping:
with a hilbert.HilbertHint holding K(S/I), the pair loop skips pairs whose
lcm degree is already saturated and stops once the leading terms have the
K-polynomial of I, without the tail reduction of a reduced basis.
Intersection, saturation and contraction to a variable subring are one
elimination helper, _eliminate, which runs on raw term dicts (the
auxiliary-variable constructions are not multihomogeneous) and caches the
result's reduced grevlex basis; colon is built on intersection.
"""

import heapq

from .errors import (
    BadArgument,
    BlocksNotSeparable,
    NotHomogeneous,
    NotStandardGraded,
    RingMismatch,
    Unstable,
)
from .monomial import MonomialIdeal, minimalize
from .orders import elimination_order, grevlex
from .ring import Polynomial, _add_mul, is_homogeneous


def _neg_key(key):
    return tuple(-x for x in key)


def _reduce_dict(f, lt_exps, polys, order, field):
    """Full normal form of the term dict f against monic (lt, poly) pairs."""
    key = order.key
    work = dict(f)
    heap = [(_neg_key(key(e)), e) for e in work]
    heapq.heapify(heap)
    out = {}
    nred = len(lt_exps)
    while heap:
        _, e = heapq.heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        red = -1
        for i in range(nred):
            lt = lt_exps[i]
            ok = True
            for a, b in zip(lt, e):
                if a > b:
                    ok = False
                    break
            if ok:
                red = i
                break
        if red < 0:
            out[e] = c
            continue
        lt = lt_exps[red]
        shift = tuple(b - a for a, b in zip(lt, e))
        for e2 in _add_mul(work, field.neg(c), shift, polys[red], field, skip=lt):
            heapq.heappush(heap, (_neg_key(key(e2)), e2))
    return out


def _leading(terms, order):
    return max(terms, key=order.key)


def _make_monic(terms, order, field):
    lt = _leading(terms, order)
    c = terms[lt]
    if field.eq(c, field.one):
        return lt, dict(terms)
    inv = field.inv(c)
    return lt, {e: field.mul(inv, v) for e, v in terms.items()}


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _update_pairs(pairs, lts, new_index, order):
    """Gebauer-Moller pair update after appending generator new_index.

    `pairs` maps (i, j) to (total degree, order key, lcm) of the pair's
    lcm, which is computed once, here, when the pair is made.
    """
    t = lts[new_index]
    fresh = [_lcm(lt, t) for lt in lts[:new_index]]
    # drop old pairs whose lcm is strictly reducible by the new element
    stale = [
        (i, j)
        for (i, j), (_, _, l) in pairs.items()
        if all(a <= b for a, b in zip(t, l)) and l != fresh[i] and l != fresh[j]
    ]
    for ij in stale:
        del pairs[ij]
    # among the new pairs keep one representative per minimal lcm
    chosen = []
    for i in sorted(range(new_index), key=lambda i: (sum(fresh[i]), fresh[i])):
        l = fresh[i]
        if any(all(a <= b for a, b in zip(l2, l)) for l2 in chosen):
            continue
        chosen.append(l)
        if not _coprime(lts[i], t):  # Buchberger's first criterion
            pairs[(i, new_index)] = (sum(l), order.key(l), l)


def buchberger(gen_dicts, order, field, hilbert=None):
    """Monic Groebner basis of the given term dicts.

    Without `hilbert` this is the reduced basis.  `hilbert` is a
    hilbert.HilbertHint for an ideal with the Hilbert function of the
    input: a pair is then skipped when the hint finds the leading terms so
    far saturated at the degree of its lcm, and the loop stops as soon as
    they have the hint's K-polynomial.  The basis returned is then neither
    minimal nor tail-reduced, but its leading terms generate the initial
    ideal.  If the pairs run out first, the hint does not fit the input
    and Unstable is raised.
    """
    key = order.key
    lts, polys = [], []
    pairs = {}

    def add(d):
        """Append the normal form of d if it is nonzero; report whether it was."""
        r = _reduce_dict(d, lts, polys, order, field)
        if not r:
            return False
        lt, monic = _make_monic(r, order, field)
        lts.append(lt)
        polys.append(monic)
        _update_pairs(pairs, lts, len(lts) - 1, order)
        return True

    gens = [d for d in gen_dicts if d]
    gens.sort(key=lambda d: key(_leading(d, order)))
    for d in gens:
        add(d)
    done = hilbert is not None and hilbert.complete(lts)
    while pairs and not done:
        i, j = min(pairs, key=pairs.__getitem__)
        l = pairs.pop((i, j))[2]
        if hilbert is not None and hilbert.saturated(lts, l):
            continue
        si = tuple(a - b for a, b in zip(l, lts[i]))
        sj = tuple(a - b for a, b in zip(l, lts[j]))
        s = {tuple(a + b for a, b in zip(e, si)): c for e, c in polys[i].items()}
        _add_mul(s, field.neg(field.one), sj, polys[j], field)
        if add(s) and hilbert is not None:
            done = hilbert.complete(lts)
    if hilbert is None:
        return _reduce_basis(lts, polys, order, field)
    if not done:
        raise Unstable(
            "the leading terms of a complete Groebner basis do not have "
            "the K-polynomial of the Hilbert hint"
        )
    return polys


def _reduce_basis(lts, polys, order, field):
    """Minimalize leading terms, then tail-reduce: the reduced basis.

    No two leading terms are equal, since each was reduced against the
    earlier ones, so the kept elements are those whose leading terms are
    minimal generators of the monomial ideal they span.
    """
    keep = minimalize(lts)
    min_lts = [lt for lt in lts if lt in keep]
    min_polys = [g for lt, g in zip(lts, polys) if lt in keep]
    out = []
    for i in range(len(min_lts)):
        others_lts = min_lts[:i] + min_lts[i + 1 :]
        others_polys = min_polys[:i] + min_polys[i + 1 :]
        r = _reduce_dict(min_polys[i], others_lts, others_polys, order, field)
        _, monic = _make_monic(r, order, field)
        out.append(monic)
    out.sort(key=lambda d: order.key(_leading(d, order)))
    return out


class Ideal:
    """A multihomogeneous ideal with cached reduced Groebner bases."""

    def __init__(self, ring, gens, check_homogeneous=True):
        self.ring = ring
        clean = []
        for f in gens:
            if isinstance(f, Polynomial):
                if f.ring != ring:
                    raise RingMismatch("generator from a different ring")
                if f.is_zero():
                    continue
                if check_homogeneous and not is_homogeneous(f):
                    raise NotHomogeneous(f"generator {f} is not multihomogeneous")
                clean.append(f)
            else:
                raise TypeError("generators must be Polynomials")
        self.gens = tuple(clean)
        self._gb = {}

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
            self._gb[order] = tuple(Polynomial(self.ring, d) for d in dicts)
        return self._gb[order]

    def initial_ideal(self, order=None, hilbert=None):
        """in(I) under `order`, from the cached reduced basis; or, with
        `hilbert`, a hilbert.HilbertHint with the Hilbert function of I,
        from the Hilbert-driven pair loop, whose basis is not cached."""
        if order is None:
            order = grevlex(self.ring)
        if hilbert is None:
            basis = [g.terms for g in self.groebner_basis(order)]
        else:
            basis = buchberger(
                [f.terms for f in self.gens], order, self.ring.field, hilbert
            )
        return MonomialIdeal(self.ring, [_leading(d, order) for d in basis])

    def normal_form(self, f, order=None):
        if order is None:
            order = grevlex(self.ring)
        gb = self.groebner_basis(order)
        lts = [_leading(g.terms, order) for g in gb]
        r = _reduce_dict(f.terms, lts, [g.terms for g in gb], order, self.ring.field)
        return Polynomial(self.ring, r)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)


def as_ideal(I):
    """I itself for an Ideal; for a MonomialIdeal, the Ideal it generates."""
    if isinstance(I, MonomialIdeal):
        ring = I.ring
        return Ideal(ring, [Polynomial(ring, {g: ring.field.one}) for g in I.gens])
    return I


def _eliminate(ring, dicts, n, drop, check_homogeneous=True):
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
        Polynomial(ring, {tuple(e[k] for k in keep): c for e, c in d.items()})
        for d in buchberger(dicts, elimination_order(n, drop), ring.field)
        if not any(e[k] for e in d for k in drop)
    ]
    out = Ideal(ring, gens, check_homogeneous=check_homogeneous)
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


def _divide_exact(g, f):
    """Exact polynomial quotient g / f (remainder must vanish)."""
    ring = g.ring
    order = grevlex(ring)
    F = ring.field
    lt = _leading(f.terms, order)
    lc = f.terms[lt]
    rem = dict(g.terms)
    quo = {}
    while rem:
        e = _leading(rem, order)
        if not all(a <= b for a, b in zip(lt, e)):
            raise ArithmeticError("division is not exact")
        shift = tuple(b - a for a, b in zip(lt, e))
        qc = F.div(rem[e], lc)
        quo[shift] = qc
        _add_mul(rem, F.neg(qc), shift, f.terms, F)
    return Polynomial(ring, quo)


def colon(I, f):
    """(I : f) for a single nonzero polynomial f, via (I cap (f)) / f."""
    ring = I.ring
    if f.is_zero():
        raise ZeroDivisionError("colon by zero")
    inter = intersect(I, Ideal(ring, [f], check_homogeneous=False))
    gens = [_divide_exact(g, f) for g in inter.gens]
    return Ideal(ring, gens, check_homogeneous=False)


def colon_ideal(I, J):
    """(I : J) = cap over generators of J."""
    out = None
    for g in J.gens:
        c = colon(I, g)
        out = c if out is None else intersect(out, c)
    if out is None:
        raise ValueError("colon by the zero ideal")
    return out


def saturate(I, f):
    """(I : f^infinity) as (I + (1 - t*f)) cap k[x], eliminating t."""
    if f.is_zero():
        raise ZeroDivisionError("saturation by zero")
    ring = I.ring
    F = ring.field
    aux = {(1,) + e: F.neg(c) for e, c in f.terms.items()}
    aux[(0,) * (ring.n + 1)] = F.one
    raw = [{(0,) + e: c for e, c in g.terms.items()} for g in I.gens] + [aux]
    return _eliminate(ring, raw, ring.n + 1, [0], check_homogeneous=False)


def saturate_var_block(I, var_indices):
    """Saturate an Ideal or a MonomialIdeal by the ideal of some variables.

    I : m^infinity for m = (x_i : i in var_indices) is the intersection of
    the variable saturations I : x_i^infinity.  Since
    I <= I : m^infinity <= I : x_i^infinity for every i, the first x_i with
    I : x_i^infinity == I shows that I is already saturated, and I is
    returned at once.  An empty index set also returns I.
    """
    ring = I.ring
    out = None
    for i in var_indices:
        if isinstance(I, MonomialIdeal):
            s = I.saturate_variable(i)
            meet = MonomialIdeal.intersect
        else:
            s = saturate(I, ring.variable(ring.names[i]))
            meet = intersect
        if s == I:
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


def substituted_ideal(I, images):
    """Apply the ring map x_i -> images[i] (Polynomials) to the generators,
    multiplying the last factor of each term's image straight into one
    term dict per generator."""
    ring = images[0].ring if images else I.ring
    out = []
    for f in I.gens:
        acc = {}
        for e, c in f.terms.items():
            factors = [images[i] for i, k in enumerate(e) for _ in range(k)]
            head = ring.constant(c)
            for g in factors[:-1]:
                head = head * g
            for el, cl in (factors[-1] if factors else ring.one()).terms.items():
                _add_mul(acc, cl, el, head.terms, ring.field)
        out.append(Polynomial(ring, acc))
    return Ideal(ring, out)
