"""Combinatorics of monomial ideals.

Minimal generators, dimension and minimal primes, irreducible and primary
decomposition, Borel-fixedness, Alexander duality, polarization, the
dimension filtration and the Reisner Cohen-Macaulayness test all live
here; everything is exact and field-free except the homology ranks, which
are computed modulo a prime.
"""

from .errors import (
    BadArgument,
    EmptyScheme,
    NotMinimalPrime,
    NotSquarefree,
    NotStandardGraded,
    TooManyVertices,
)
from .fields import rank_mod_p
from .ring import GradedRing


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize(gens):
    """Unique minimal generating set: drop multiples of other generators."""
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for g in gens:
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return frozenset(out)


class MonomialIdeal:
    """Monomial ideal stored by its unique minimal generators."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = minimalize(tuple(g) for g in gens)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        names = self.ring.names
        if not self.gens:
            return "MonomialIdeal(0)"
        gs = sorted(self.gens, key=lambda e: (sum(e), e))
        strs = []
        for g in gs:
            parts = [
                nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, g) if e
            ]
            strs.append("*".join(parts) if parts else "1")
        return f"MonomialIdeal({', '.join(strs)})"

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return (0,) * self.ring.n in self.gens

    def contains(self, mono):
        return any(_divides(g, mono) for g in self.gens)

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_squarefree(self):
        return all(max(g) <= 1 for g in self.gens if g)

    def support_vars(self):
        """Indices of variables occurring in some minimal generator."""
        out = set()
        for g in self.gens:
            out.update(i for i, e in enumerate(g) if e)
        return out

    def radical(self):
        return MonomialIdeal(
            self.ring, (tuple(int(e > 0) for e in g) for g in self.gens)
        )

    def add_monomial(self, mono):
        return MonomialIdeal(self.ring, set(self.gens) | {tuple(mono)})

    def intersect(self, other):
        lcms = set()
        for g in self.gens:
            for h in other.gens:
                lcms.add(tuple(max(a, b) for a, b in zip(g, h)))
        return MonomialIdeal(self.ring, lcms)

    def colon_monomial(self, mono):
        mono = tuple(mono)
        return MonomialIdeal(
            self.ring,
            (tuple(max(a - b, 0) for a, b in zip(g, mono)) for g in self.gens),
        )

    def saturate_variable(self, i):
        """(I : x_i^infinity): zero out the x_i exponent of every generator."""
        return MonomialIdeal(
            self.ring,
            (tuple(0 if j == i else e for j, e in enumerate(g)) for g in self.gens),
        )

    def standard_monomials(self):
        """All monomials outside the ideal; requires finite colength."""
        n = self.ring.n
        bounds = [0] * n
        for g in self.gens:
            for i, e in enumerate(g):
                bounds[i] = max(bounds[i], e)
        out = []

        def rec(i, cur):
            if i == n:
                m = tuple(cur)
                if not self.contains(m):
                    out.append(m)
                return
            for e in range(bounds[i] + 1):
                cur.append(e)
                rec(i + 1, cur)
                cur.pop()

        # finite colength means every variable has a pure power in the ideal;
        # detect the contrary to avoid an unbounded enumeration
        for i in range(n):
            if not any(all(j == i or e == 0 for j, e in enumerate(g)) for g in self.gens):
                raise ValueError("ideal does not have finite colength")
        rec(0, [])
        return out


def from_polynomial_gens(ring, polys):
    """Monomial ideal from single-term generators."""
    gens = []
    for f in polys:
        if f.is_zero():
            continue
        if len(f.terms) != 1:
            raise BadArgument(f"{f} is not a monomial")
        gens.append(next(iter(f.terms)))
    return MonomialIdeal(ring, gens)


# ---------------------------------------------------------------------------
# minimal primes / dimension


def minimal_primes(I):
    """Minimal primes as frozensets of variable indices (minimal covers)."""
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in I.gens]
    if any(not s for s in supports):  # unit ideal
        return []
    if not supports:
        return [frozenset()]
    covers = set()

    def rec(idx, chosen):
        if any(chosen >= c for c in covers):
            return
        while idx < len(supports) and supports[idx] & chosen:
            idx += 1
        if idx == len(supports):
            covers.add(frozenset(chosen))
            return
        for v in sorted(supports[idx]):
            rec(idx + 1, chosen | {v})

    rec(0, frozenset())
    return sorted(
        (c for c in covers if not any(o < c for o in covers)),
        key=lambda c: (len(c), sorted(c)),
    )


def dimension_and_minimal_primes(I):
    """(Krull dimension of S/I, minimal primes as variable index sets)."""
    if I.is_unit():
        return (-1, [])
    primes = minimal_primes(I)
    codim = min(len(P) for P in primes)
    return (I.ring.n - codim, primes)


def codim_of(I):
    if I.is_zero():
        return 0
    if I.is_unit():
        return I.ring.n + 1
    return min(len(P) for P in minimal_primes(I))


# ---------------------------------------------------------------------------
# irreducible / primary decomposition


def _split_generator(I):
    """Find a generator with two coprime nontrivial parts, or None."""
    for g in I.gens:
        supp = [i for i, e in enumerate(g) if e]
        if len(supp) > 1:
            i = supp[0]
            u = tuple(e if j == i else 0 for j, e in enumerate(g))
            v = tuple(0 if j == i else e for j, e in enumerate(g))
            return u, v
    return None


def irreducible_decomposition(I):
    """Irredundant decomposition into irreducible (pure-power) ideals.

    Irreducible monomial ideals are strongly irreducible: if J contains an
    intersection of monomial ideals K_1, ..., K_r, then J contains some K_i
    (take the lcm of witnesses m_i in K_i outside J).  So a component is
    redundant exactly when it contains another one, and the result is the
    inclusion-minimal components in the order the split tree found them.
    """
    if I.is_unit():
        return []
    done = []
    todo = [I]
    seen = set()
    while todo:
        J = todo.pop()
        if J in seen:
            continue
        seen.add(J)
        sp = _split_generator(J)
        if sp is None:
            done.append(J)
        else:
            u, v = sp
            todo.append(J.add_monomial(u))
            todo.append(J.add_monomial(v))
    done = list(dict.fromkeys(done))
    return [
        J for J in done if not any(K is not J and J.contains_ideal(K) for K in done)
    ]


class PrimaryComponent:
    """One primary component together with its prime and, when the prime is
    minimal, the localized length."""

    def __init__(self, prime, component, length_at_prime=None):
        self.prime = frozenset(prime)
        self.component = component
        self.length_at_prime = length_at_prime

    def __repr__(self):
        return f"PrimaryComponent(prime={sorted(self.prime)}, {self.component!r})"


def primary_decomposition(I):
    """Irredundant primary decomposition via merged irreducibles.

    Grouping an irredundant irreducible decomposition by radical is already
    irredundant: if the merged component Q_P contained the intersection of
    the other groups, every irreducible J of P's group would contain it too,
    hence (strong irreducibility) contain an irreducible of another group,
    which the irredundancy of irreducible_decomposition rules out.
    """
    irr = irreducible_decomposition(I)
    by_prime = {}
    for J in irr:
        by_prime.setdefault(frozenset(J.support_vars()), []).append(J)
    comps = []
    for prime, parts in by_prime.items():
        comp = parts[0]
        for other in parts[1:]:
            comp = comp.intersect(other)
        comps.append((prime, comp))
    out = []
    for prime, comp in sorted(comps, key=lambda c: (len(c[0]), sorted(c[0]))):
        minimal = not any(other < prime for other in by_prime)
        length = length_at_minimal_prime(I, prime) if minimal else None
        out.append(PrimaryComponent(prime, comp, length))
    return out


def associated_primes(I):
    return [c.prime for c in primary_decomposition(I)]


def localize_at(I, prime):
    """Set the variables outside `prime` to 1 and re-minimalize.

    Returns a MonomialIdeal in the subring on the prime's variables
    (GradedRing.subring), which keeps their degree vectors whole.
    """
    keep = sorted(prime)
    return MonomialIdeal(
        I.ring.subring(keep), [tuple(g[i] for i in keep) for g in I.gens]
    )


def length_at_minimal_prime(I, prime):
    """length of (S/I) localized at a minimal prime (a variable subset).

    That is the length of T/loc, for T the ring on the prime's variables
    and loc = localize_at(I, prime); hilbert.finite_length reads it off
    K(T/loc).  The prime is minimal over I exactly when loc is proper (I
    lies in the prime) and has finite colength (no smaller prime holds
    I), that is, when loc contains a pure power of each of its variables.
    """
    from .hilbert import finite_length, k_polynomial_monomial

    prime = frozenset(prime)
    if prime <= set(range(I.ring.n)):
        loc = localize_at(I, prime)
        pure = {i for g in loc.gens for i, e in enumerate(g) if e and sum(g) == e}
        if not loc.is_unit() and len(pure) == loc.ring.n:
            return finite_length(k_polynomial_monomial(loc), loc.ring)
    raise NotMinimalPrime(f"{sorted(prime)} is not a minimal prime")


def mlength(I):
    """Maximal length of the minimal primary components."""
    primes = minimal_primes(I)
    if not primes:
        raise EmptyScheme("the ideal cuts out the empty scheme")
    return max(length_at_minimal_prime(I, P) for P in primes)


# ---------------------------------------------------------------------------
# Borel-fixedness


def _block_layout(ring):
    if not ring.is_standard:
        raise NotStandardGraded("operation requires a standard N^p-graded ring")
    return [ring.block_variables(k) for k in range(ring.p)]


def borel_fixed_check(I):
    """Characteristic-zero Borel exchange test, per grading block.

    Within each block the declaration order is read as x_{i,0} > x_{i,1} > ...;
    the test asks that x_{i,j-1} * m / x_{i,j} stays in the ideal.
    """
    blocks = _block_layout(I.ring)
    for g in I.gens:
        for block in blocks:
            for pos in range(1, len(block)):
                j = block[pos]
                if g[j] > 0:
                    prev = block[pos - 1]
                    m = list(g)
                    m[j] -= 1
                    m[prev] += 1
                    if not I.contains(tuple(m)):
                        return False
    return True


def borel_prime_exponent(prime, ring):
    """If `prime` is generated by leading segments of each block, return the
    segment-length vector a (so prime == P_a); otherwise None."""
    blocks = _block_layout(ring)
    a = []
    prime = set(prime)
    for block in blocks:
        k = 0
        while k < len(block) and block[k] in prime:
            k += 1
        if any(v in prime for v in block[k:]):
            return None
        a.append(k)
    if sum(a) != len(prime):
        return None
    return tuple(a)


# ---------------------------------------------------------------------------
# Alexander dual and polarization


def alexander_dual(I):
    """Dual of a squarefree ideal: generators <-> minimal primes."""
    if not I.is_squarefree():
        raise NotSquarefree("Alexander dual requires a squarefree ideal")
    n = I.ring.n
    gens = []
    for P in minimal_primes(I):
        gens.append(tuple(int(i in P) for i in range(n)))
    return MonomialIdeal(I.ring, gens)


def polarize(I):
    """Standard polarization into an enlarged ring.

    Returns (ideal, provenance) where provenance maps each new variable
    index to the (original variable index, copy number) pair.  Copies keep
    the multidegree of the original variable.
    """
    n = I.ring.n
    copies = [1] * n
    for g in I.gens:
        for i, e in enumerate(g):
            copies[i] = max(copies[i], e)
    names, degrees, provenance = [], [], {}
    index_of = {}
    for i in range(n):
        for c in range(copies[i]):
            idx = len(names)
            nm = I.ring.names[i] if copies[i] == 1 else f"{I.ring.names[i]}({c + 1})"
            names.append(nm)
            degrees.append(I.ring.degrees[i])
            provenance[idx] = (i, c)
            index_of[(i, c)] = idx
    big = GradedRing(names, degrees, I.ring.field)
    gens = []
    for g in I.gens:
        e = [0] * big.n
        for i, k in enumerate(g):
            for c in range(k):
                e[index_of[(i, c)]] = 1
        gens.append(tuple(e))
    return MonomialIdeal(big, gens), provenance


# ---------------------------------------------------------------------------
# dimension filtration R^i


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


# ---------------------------------------------------------------------------
# Stanley-Reisner / Reisner criterion


class SimplicialComplex:
    """Finite simplicial complex given by facets on integer vertices."""

    def __init__(self, vertices, facets):
        self.vertices = sorted(set(vertices))
        facets = {frozenset(f) for f in facets}
        self.facets = sorted(
            (f for f in facets if not any(f < g for g in facets)),
            key=lambda f: (len(f), sorted(f)),
        )

    def dim(self):
        if not self.facets:
            return -2  # void complex
        return max(len(f) for f in self.facets) - 1

    def faces(self):
        seen = set()
        for f in self.facets:
            f = sorted(f)
            for mask in range(1 << len(f)):
                face = frozenset(f[i] for i in range(len(f)) if mask >> i & 1)
                seen.add(face)
        if self.facets:
            seen.add(frozenset())
        return seen

    def link(self, face):
        face = frozenset(face)
        facets = [f - face for f in self.facets if face <= f]
        if not facets:
            return SimplicialComplex([], [])
        verts = set().union(*facets) if facets else set()
        return SimplicialComplex(verts, facets)

    def cone_points(self):
        if not self.facets:
            return set()
        common = set(self.facets[0])
        for f in self.facets[1:]:
            common &= f
        return common

    def core(self):
        """Strip cone vertices (CM is preserved in both directions)."""
        cp = self.cone_points()
        if not cp:
            return self
        return SimplicialComplex(
            [v for v in self.vertices if v not in cp],
            [f - cp for f in self.facets],
        )


def stanley_reisner_complex(I):
    """Complex whose minimal non-faces are the generators of squarefree I."""
    if not I.is_squarefree():
        raise NotSquarefree("Stanley-Reisner complex requires a squarefree ideal")
    n = I.ring.n
    verts = [i for i in range(n) if not I.contains(tuple(int(j == i) for j in range(n)))]
    facets = [frozenset(range(n)) - frozenset(P) for P in minimal_primes(I)]
    if I.is_zero():
        facets = [frozenset(range(n))]
    return SimplicialComplex(verts, facets)


def reduced_homology_ranks(complex_, p):
    """Ranks of the reduced homology groups over F_p, indexed by dimension."""
    faces = complex_.faces()
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for d in by_dim:
        by_dim[d].sort()
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in by_dim.items()}
    top = max(by_dim)
    # boundary_d : C_d -> C_{d-1}; include d = 0 (reduced: C_{-1} = span(empty))
    ranks = {}
    bd_rank = {}
    for d in range(0, top + 1):
        rows = []
        lower = index.get(d - 1, {})
        for f in by_dim.get(d, []):
            row = {}
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                row[lower[sub]] = (-1) ** i
            rows.append(row)
        bd_rank[d] = rank_mod_p(rows, p)
    bd_rank[top + 1] = 0
    for d in range(-1, top + 1):
        nfaces = len(by_dim.get(d, []))
        ranks[d] = nfaces - bd_rank.get(d, 0) - bd_rank.get(d + 1, 0)
    return ranks


def reisner_cm_check(I, p, max_vertices=25):
    """Cohen-Macaulayness over F_p of the Stanley-Reisner ring of I.

    Checks that every face link has vanishing reduced homology below its
    dimension.  Cone vertices are stripped first; this keeps the desk-scale
    bound honest for Borel-fixed radicals whose core is small.
    """
    complex_ = stanley_reisner_complex(I).core()
    if len(complex_.vertices) > max_vertices:
        raise TooManyVertices(
            f"{len(complex_.vertices)} vertices exceeds the limit {max_vertices}"
        )
    # non-pure complexes are never CM
    if complex_.facets and len({len(f) for f in complex_.facets}) > 1:
        return False
    for face in complex_.faces():
        link = complex_.link(face)
        d = link.dim()
        if d <= 0:
            # a (-1)- or 0-dimensional link is CM iff it is nonempty, which
            # holds by construction; 0-dim needs reduced H_{-1} = 0, automatic
            continue
        ranks = reduced_homology_ranks(link, p)
        if any(ranks.get(i, 0) for i in range(-1, d)):
            return False
    return True
