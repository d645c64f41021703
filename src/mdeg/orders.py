"""Monomial orders as weight matrices with a named tie-break.

Every order is a list of integer weight rows followed by Lex or GrevLex on
the ring's declared variable sequence.  Elimination orders and the
standardization-compatible lifted order are instances.  Lex on the
row-major variables of a generic matrix is the diagonal order of
determinantal ideals: every minor leads with its main diagonal.

Comparisons run on ring._Packing, which packs an order's packing_rows
above the variable fields, so that its key is one int;
tests/tuple_kernel.py keeps the tuple key as oracle.
"""

from .errors import BadArgument


class MonomialOrder:
    """Weight rows + tie-break; must be a well-order (1 minimal)."""

    def __init__(self, n, weight_rows=(), tiebreak="grevlex"):
        if tiebreak not in ("lex", "grevlex"):
            raise BadArgument(f"unknown tiebreak {tiebreak!r}")
        self.n = n
        self.weight_rows = tuple(tuple(r) for r in weight_rows)
        for r in self.weight_rows:
            if len(r) != n:
                raise BadArgument("weight row has wrong length")
        self.tiebreak = tiebreak
        self._check_well_order()

    def _check_well_order(self):
        # every variable must compare above 1: first nonzero weight in its
        # column positive, or all zero (tie-break, which always ranks x > 1)
        for j in range(self.n):
            for r in self.weight_rows:
                if r[j] > 0:
                    break
                if r[j] < 0:
                    raise BadArgument(f"not a well-order: variable {j} below 1")

    def full_weight_rows(self):
        """Weight-matrix form with the tie-break expanded into rows."""
        rows = list(self.weight_rows)
        if self.tiebreak == "lex":
            for j in range(self.n):
                rows.append(tuple(int(i == j) for i in range(self.n)))
        else:
            rows.append((1,) * self.n)
            for j in range(self.n - 1, 0, -1):
                rows.append(tuple(-int(i == j) for i in range(self.n)))
        return rows

    def packing_rows(self):
        """The rows of ring._Packing, first row highest: grevlex's weight
        rows and the all-ones row, whose ties the flipped variable fields
        break, or lex's full weight rows, whose unit rows leave no tie."""
        if self.tiebreak == "lex":
            return tuple(self.full_weight_rows())
        return self.weight_rows + ((1,) * self.n,)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.n == other.n
            and self.weight_rows == other.weight_rows
            and self.tiebreak == other.tiebreak
        )

    def __hash__(self):
        return hash((self.n, self.weight_rows, self.tiebreak))

    def __repr__(self):
        return f"MonomialOrder(rows={self.weight_rows}, tiebreak={self.tiebreak})"


def grevlex(ring):
    """Default order: graded reverse lex on the declaration order."""
    return MonomialOrder(ring.n, (), "grevlex")


def lex(ring):
    return MonomialOrder(ring.n, (), "lex")


def weight_order(ring, rows):
    """Weight rows refined by grevlex."""
    return MonomialOrder(ring.n, rows, "grevlex")


def elimination_order(n, eliminate):
    """Order on n variables that puts the given indices heaviest (to eliminate)."""
    row = tuple(int(i in set(eliminate)) for i in range(n))
    return MonomialOrder(n, (row,), "grevlex")


def lift_order_phi(order, std_map):
    """Lift an order along the standardization x_i -> y_{i,1}...y_{i,l_i}.

    Each full weight row of the source order sends its x_i-weight to
    y_{i,1} and 0 to the other copies; the lex tie-break on the y's then
    refines ties exactly as lex on the x's does, so phi is order-compatible:
    f > g implies phi(f) >' phi(g).
    """
    src = std_map.source
    tgt = std_map.target
    rows = []
    for r in order.full_weight_rows():
        row = [0] * tgt.n
        for i in range(src.n):
            row[std_map.first_copy(i)] = r[i]
        rows.append(tuple(row))
    return MonomialOrder(tgt.n, tuple(rows), "lex")
