"""Buchberger engine and ideal operations.

Polynomials are reduced with a lazy-deletion heap so each term is touched
once; critical pairs are pruned with the Gebauer-Moller update and picked
smallest lcm first, which makes the reduced basis of a homogeneous input
deterministic.  Initial ideals of g(I), for the block changes of
coordinates g of a gin, are found by Hilbert-driven stopping: with a
hilbert.HilbertHint holding K(S/I), the pair loop skips pairs whose lcm
degree is already saturated and stops once the leading terms have the
K-polynomial of I, without the tail reduction of a reduced basis.
Contraction to a variable subring, colon, intersection and saturation are
built on elimination orders; the auxiliary-variable tricks are run on raw
generator lists since they are not multihomogeneous.
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
from .monomial import MonomialIdeal
from .orders import elimination_order, grevlex
from .ring import Polynomial, is_homogeneous


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
        for eg, cg in polys[red].items():
            if eg == lt:
                continue
            e2 = tuple(x + y for x, y in zip(eg, shift))
            prev = work.get(e2)
            delta = field.mul(c, cg)
            if prev is None:
                nv = field.neg(delta)
                if not field.eq(nv, field.zero):
                    work[e2] = nv
                    heapq.heappush(heap, (_neg_key(key(e2)), e2))
            else:
                nv = field.sub(prev, delta)
                if field.eq(nv, field.zero):
                    del work[e2]
                else:
                    work[e2] = nv
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
    """Gebauer-Moller pair update after appending generator new_index."""
    t = lts[new_index]
    fresh = {}
    for i in range(new_index):
        fresh[i] = _lcm(lts[i], t)
    # drop old pairs whose lcm is strictly reducible by the new element
    kept = set()
    for (i, j) in pairs:
        lij = _lcm(lts[i], lts[j])
        if (
            all(a <= b for a, b in zip(t, lij))
            and lij != fresh[i]
            and lij != fresh[j]
        ):
            continue
        kept.add((i, j))
    # among the new pairs keep one representative per minimal lcm
    items = sorted(fresh.items(), key=lambda kv: (sum(kv[1]), kv[1]))
    chosen = []
    for i, l in items:
        if any(all(a <= b for a, b in zip(l2, l)) and l2 != l for _, l2 in chosen):
            continue
        if any(l2 == l for _, l2 in chosen):
            continue
        chosen.append((i, l))
    for i, l in chosen:
        if _coprime(lts[i], t):  # Buchberger's first criterion
            continue
        kept.add((i, new_index))
    pairs.clear()
    pairs.update(kept)


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
    pairs = set()

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
        i, j = min(
            pairs,
            key=lambda ij: (
                sum(_lcm(lts[ij[0]], lts[ij[1]])),
                key(_lcm(lts[ij[0]], lts[ij[1]])),
            ),
        )
        pairs.discard((i, j))
        l = _lcm(lts[i], lts[j])
        if hilbert is not None and hilbert.saturated(lts, l):
            continue
        si = tuple(a - b for a, b in zip(l, lts[i]))
        sj = tuple(a - b for a, b in zip(l, lts[j]))
        s = {}
        for e, c in polys[i].items():
            e2 = tuple(a + b for a, b in zip(e, si))
            s[e2] = c
        for e, c in polys[j].items():
            e2 = tuple(a + b for a, b in zip(e, sj))
            prev = s.get(e2)
            if prev is None:
                s[e2] = field.neg(c)
            else:
                nv = field.sub(prev, c)
                if field.eq(nv, field.zero):
                    del s[e2]
                else:
                    s[e2] = nv
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
    """Minimalize leading terms, then tail-reduce: the reduced basis."""
    keep = []
    for i, lt in enumerate(lts):
        if not any(
            j != i
            and all(a <= b for a, b in zip(lts[j], lt))
            and (lts[j] != lt or j < i)
            for j in range(len(lts))
        ):
            keep.append(i)
    min_lts = [lts[i] for i in keep]
    min_polys = [polys[i] for i in keep]
    out = []
    for i in range(len(keep)):
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
        lts = [max(g.terms, key=order.key) for g in gb]
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


# ---------------------------------------------------------------------------
# raw-dict helpers for the auxiliary-variable constructions


def _extend_exps(d, extra_front=0):
    """Prepend extra zero slots to every exponent tuple."""
    return {(0,) * extra_front + e: c for e, c in d.items()}


def _aux_eliminate(ring, raw_dicts, n_aux, check_homogeneous):
    """Ideal of the aux-free part of a GB eliminating n_aux prepended slots.

    Works on raw term dicts in an (n_aux + n)-slot exponent space.  On
    aux-free monomials the elimination order is grevlex, so the aux-free
    part of its reduced basis is the reduced grevlex basis of the result,
    in grevlex order; it is cached as such.
    """
    order = elimination_order(n_aux + ring.n, range(n_aux))
    gb = buchberger(raw_dicts, order, ring.field)
    gens = [
        Polynomial(ring, {e[n_aux:]: c for e, c in d.items()})
        for d in gb
        if all(all(e[k] == 0 for k in range(n_aux)) for e in d)
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
    n = ring.n
    raw = []
    for f in I.gens:
        d = {}
        for e, c in f.terms.items():
            d[(1,) + e] = c  # t * f
        raw.append(d)
    for g in J.gens:
        d = {}
        for e, c in g.terms.items():
            d[(0,) + e] = c
            prev = d.get((1,) + e)
            d[(1,) + e] = F.neg(c) if prev is None else F.sub(prev, c)
        raw.append({e: c for e, c in d.items() if not F.eq(c, F.zero)})
    return _aux_eliminate(ring, raw, 1, check_homogeneous=True)


def _divide_exact(g, f):
    """Exact polynomial quotient g / f (remainder must vanish)."""
    ring = g.ring
    order = grevlex(ring)
    lt, monic = _make_monic(f.terms, order, ring.field)
    F = ring.field
    lc = f.terms[lt]
    rem = dict(g.terms)
    quo = {}
    while rem:
        e = _leading(rem, order)
        c = rem[e]
        if not all(a <= b for a, b in zip(lt, e)):
            raise ArithmeticError("division is not exact")
        shift = tuple(b - a for a, b in zip(lt, e))
        qc = F.div(c, lc)
        quo[shift] = qc
        for ef, cf in f.terms.items():
            e2 = tuple(a + b for a, b in zip(ef, shift))
            prev = rem.get(e2)
            nv = F.sub(prev if prev is not None else F.zero, F.mul(qc, cf))
            if F.eq(nv, F.zero):
                rem.pop(e2, None)
            else:
                rem[e2] = nv
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
    raw = [_extend_exps(g.terms, 1) for g in I.gens] + [aux]
    return _aux_eliminate(ring, raw, 1, check_homogeneous=False)


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
    kept: from a basis under an order eliminating them, and for a monomial
    ideal from its minimal generators, which are already such a basis.
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

    def restrict(e):
        return tuple(e[i] for i in keep)

    def avoids_drop(e):
        return not any(e[i] for i in drop)

    if isinstance(I, MonomialIdeal):
        return MonomialIdeal(sub, [restrict(g) for g in I.gens if avoids_drop(g)])
    gens = [
        Polynomial(sub, {restrict(e): c for e, c in g.terms.items()})
        for g in I.groebner_basis(elimination_order(ring.n, drop))
        if all(avoids_drop(e) for e in g.terms)
    ]
    return Ideal(sub, gens)


def substituted_ideal(I, images, check_homogeneous=True):
    """Apply the ring map x_i -> images[i] (Polynomials) to the generators."""
    ring = images[0].ring if images else I.ring
    out = []
    for f in I.gens:
        acc = ring.zero()
        for e, c in f.terms.items():
            term = ring.constant(c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * images[i]
            acc = acc + term
        out.append(acc)
    return Ideal(ring, out, check_homogeneous=check_homogeneous)
