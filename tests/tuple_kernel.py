"""The term kernel and Buchberger loop on exponent tuples, as they were
before exponents were packed into ints: the oracles of ring._add_mul and
groebner.buchberger (tests/test_kernel.py, tests/test_groebner.py).

`add_mul` combines two tuple-keyed term dicts; `buchberger` takes and
returns tuple-keyed term dicts, with the same pair selection, reducer
choice, Hilbert-driven stopping and, with a hint, top-reduction as the
packed loop, keys from MonomialOrder.key and exponents added and compared
with zip.  With `full` the hinted loop reduces every new element fully,
as the packed loop did before top-reduction.  `HilbertHint` is the hint
on exponent tuples, as it was before leading terms were packed, with
its K-polynomials from the tuple recursion of tests/tuple_monomial.py.
"""

import heapq
from math import comb

from mdeg.errors import NotStandardGraded, Unstable
from mdeg.intpoly import IntegerPolynomial
from mdeg.monomial import MonomialIdeal
import tuple_monomial
from tuple_monomial import minimalize


def add_mul(acc, c, shift, g, field, skip=None):
    """acc += c * x^shift * g in place, leaving out g's term at `skip`;
    returns the exponents that were new to acc."""
    new = []
    for eg, cg in g.items():
        if eg == skip:
            continue
        e = tuple(x + y for x, y in zip(eg, shift))
        prev = acc.get(e)
        delta = field.mul(c, cg)
        if prev is None:
            acc[e] = delta
            new.append(e)
        else:
            nv = field.add(prev, delta)
            if field.eq(nv, field.zero):
                del acc[e]
            else:
                acc[e] = nv
    return new


def _neg_key(key):
    return tuple(-x for x in key)


def reduce_dict(f, lt_exps, polys, order, field, top=False):
    """Full normal form of the term dict f against monic (lt, poly) pairs;
    with `top`, f reduced until its leading term is irreducible, that term
    first and the rest as it stands."""
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
            if all(a <= b for a, b in zip(lt_exps[i], e)):
                red = i
                break
        if red < 0:
            if top:
                return {e: c, **work}
            out[e] = c
            continue
        lt = lt_exps[red]
        shift = tuple(b - a for a, b in zip(lt, e))
        for e2 in add_mul(work, field.neg(c), shift, polys[red], field, skip=lt):
            heapq.heappush(heap, (_neg_key(key(e2)), e2))
    return out


def leading(terms, order):
    return max(terms, key=order.key)


def make_monic(terms, order, field):
    lt = leading(terms, order)
    c = terms[lt]
    if field.eq(c, field.one):
        return lt, dict(terms)
    inv = field.inv(c)
    return lt, {e: field.mul(inv, v) for e, v in terms.items()}


def lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _update_pairs(pairs, lts, new_index, order):
    t = lts[new_index]
    fresh = [lcm(lt, t) for lt in lts[:new_index]]
    stale = [
        (i, j)
        for (i, j), (_, _, l) in pairs.items()
        if all(a <= b for a, b in zip(t, l)) and l != fresh[i] and l != fresh[j]
    ]
    for ij in stale:
        del pairs[ij]
    chosen = []
    for i in sorted(range(new_index), key=lambda i: (sum(fresh[i]), fresh[i])):
        l = fresh[i]
        if any(all(a <= b for a, b in zip(l2, l)) for l2 in chosen):
            continue
        chosen.append(l)
        if not coprime(lts[i], t):
            pairs[(i, new_index)] = (sum(l), order.key(l), l)


def buchberger(gen_dicts, order, field, hilbert=None, full=False):
    """Monic Groebner basis: reduced without `hilbert`, and with it the
    Hilbert-driven basis, top-reduced unless `full`, which raises Unstable
    when the pairs run out before the leading terms have the hint's
    K-polynomial."""
    key = order.key
    lts, polys = [], []
    pairs = {}
    top = hilbert is not None and not full

    def add(d):
        r = reduce_dict(d, lts, polys, order, field, top)
        if not r:
            return False
        lt, monic = make_monic(r, order, field)
        lts.append(lt)
        polys.append(monic)
        _update_pairs(pairs, lts, len(lts) - 1, order)
        return True

    gens = [d for d in gen_dicts if d]
    gens.sort(key=lambda d: key(leading(d, order)))
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
        add_mul(s, field.neg(field.one), sj, polys[j], field)
        if add(s) and hilbert is not None:
            done = hilbert.complete(lts)
    if hilbert is None:
        return _reduce_basis(lts, polys, order, field)
    if not done:
        raise Unstable("the hint does not fit the input")
    return polys


def _reduce_basis(lts, polys, order, field):
    keep = minimalize(lts)
    min_lts = [lt for lt in lts if lt in keep]
    min_polys = [g for lt, g in zip(lts, polys) if lt in keep]
    out = []
    for i in range(len(min_lts)):
        others_lts = min_lts[:i] + min_lts[i + 1 :]
        others_polys = min_polys[:i] + min_polys[i + 1 :]
        r = reduce_dict(min_polys[i], others_lts, others_polys, order, field)
        out.append(make_monic(r, order, field)[1])
    out.sort(key=lambda d: order.key(leading(d, order)))
    return out


class HilbertHint:
    """K(S/I) as the stopping rule of `buchberger`, on exponent tuples:
    `saturated(lts, mono)` and `complete(lts)` take the leading terms
    found so far, and the excess K(S/L) - K(S/I) is recomputed when they
    change, by one colon when they extend the last call's by one."""

    def __init__(self, I):
        ring = I.ring
        if not ring.is_standard:
            raise NotStandardGraded("a Hilbert hint needs a standard grading")
        self.ring = ring
        mono = I if isinstance(I, MonomialIdeal) else I.initial_ideal()
        self.k = self._k(mono.gens)
        self._sizes = [len(ring.block_variables(k)) for k in range(ring.p)]
        self._lts = None  # the leading terms L and _excess belong to
        self._L = None
        self._excess = None  # K(S/L) - K(S/I)
        self._saturated = {}  # degree -> saturated for the current L

    def _k(self, gens):
        return tuple_monomial.k_polynomial_monomial(self.ring, minimalize(gens))

    def _excess_for(self, lts):
        lts = tuple(lts)
        if lts == self._lts:
            return self._excess
        if self._lts is not None and lts[:-1] == self._lts:
            m = lts[-1]
            step = IntegerPolynomial.monomial(self.ring.monomial_degree(m))
            quot = self._k(tuple_monomial.colon_monomial(self._L, m))
            self._excess = self._excess - step * quot
            self._L = tuple_monomial.add_monomial(self._L, m)
        else:
            self._L = minimalize(lts)
            self._excess = self._k(self._L) - self.k
        self._lts = lts
        self._saturated = {}
        return self._excess

    def complete(self, lts):
        return not self._excess_for(lts)

    def saturated(self, lts, mono):
        excess = self._excess_for(lts)
        d = self.ring.monomial_degree(mono)
        hit = self._saturated.get(d)
        if hit is None:
            hit = not sum(
                c * self._count(tuple(x - y for x, y in zip(d, a)))
                for a, c in excess.terms.items()
                if all(y <= x for x, y in zip(d, a))
            )
            self._saturated[d] = hit
        return hit

    def _count(self, d):
        out = 1
        for dk, nk in zip(d, self._sizes):
            if nk:
                out *= comb(dk + nk - 1, nk - 1)
            elif dk:
                return 0
        return out
