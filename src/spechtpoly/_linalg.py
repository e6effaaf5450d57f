"""Small exact linear algebra over Q: one fraction-free echelon and a certified rank."""

from __future__ import annotations

from math import gcd, lcm

from .polyring import QQ

_ZERO = QQ(0)
_ONE = QQ(1)

Vector = list
Matrix = list


def _integral_row(row: Vector) -> list[int]:
    """The row times the lcm of its denominators, divided by its content."""
    scale = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    g = gcd(*ints)
    return ints if g in (0, 1) else [v // g for v in ints]


def _sparse(row: Vector) -> dict[int, int]:
    """The zero-free dict form of ``_integral_row(row)`` that ``Echelon.insert`` takes."""
    return {j: v for j, v in enumerate(_integral_row(row)) if v}


class Echelon:
    """The reduced row echelon form of the rows inserted so far, kept in ints.

    A pivot row is a positive integer ``lead[p]`` at its pivot column p
    plus ``tail[p]``, its entries in the non-pivot columns, with the
    content of the whole row divided out.  No pivot column appears in any
    tail, so row p of the reduced row echelon form over Q is 1 at p and
    ``tail[p][c] / lead[p]`` at c.  A row is eliminated by
    cross-multiplying with gcd cofactors instead of dividing by the pivot
    (Bareiss 1968); a new pivot is eliminated from the tails that hold its
    column (``_owners``), which keeps the form reduced.
    """

    __slots__ = ("lead", "tail", "_owners")

    def __init__(self) -> None:
        self.lead: dict[int, int] = {}
        self.tail: dict[int, dict[int, int]] = {}
        self._owners: dict[int, set[int]] = {}

    def insert(self, acc: dict[int, int]) -> bool:
        """Reduce a sparse integer row with no zero entries; whether it added a pivot.

        The row is consumed: it is reduced in place and may become a tail.
        """
        pivot_lead, pivot_tail, owners = self.lead, self.tail, self._owners
        for c in sorted(acc):
            coeff = acc.get(c)
            if not coeff:
                continue
            tail = pivot_tail.get(c)
            if tail is None:
                continue
            del acc[c]
            lead = pivot_lead[c]
            if lead != 1:
                g = gcd(coeff, lead)
                scale = lead // g
                coeff //= g
                if scale != 1:
                    for col in acc:
                        acc[col] *= scale
            for col, v in tail.items():
                nv = acc.get(col, 0) - coeff * v
                if nv:
                    acc[col] = nv
                else:
                    del acc[col]
        if not acc:
            return False
        p = min(acc)
        lead = acc.pop(p)
        g = gcd(lead, *acc.values())
        if lead < 0:
            g = -g  # a positive lead keeps the cofactor scale at 1 for unit pivots
        if g != 1:
            lead //= g
            for c in acc:
                acc[c] //= g
        tail = acc
        for q in list(owners.get(p, ())):
            qtail = pivot_tail[q]
            coeff = qtail.pop(p)
            owners[p].discard(q)
            qlead = pivot_lead[q]
            if lead != 1:
                g = gcd(coeff, lead)
                scale = lead // g
                coeff //= g
                if scale != 1:
                    qlead *= scale
                    for c in qtail:
                        qtail[c] *= scale
            for c, v in tail.items():
                cur = qtail.get(c)
                nv = (0 if cur is None else cur) - coeff * v
                if nv:
                    if cur is None:
                        owners.setdefault(c, set()).add(q)
                    qtail[c] = nv
                elif cur is not None:
                    del qtail[c]
                    owners[c].discard(q)
            g = gcd(qlead, *qtail.values())
            if g != 1:
                qlead //= g
                for c in qtail:
                    qtail[c] //= g
            pivot_lead[q] = qlead
        pivot_lead[p] = lead
        pivot_tail[p] = tail
        for c in tail:
            owners.setdefault(c, set()).add(p)
        return True

    def null_vector(self, f: int, ncols: int) -> Vector:
        """The null vector that is 1 at the non-pivot column f, 0 at the other
        non-pivot columns and ``-tail[p][f] / lead[p]`` at each pivot p."""
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for p, tail in self.tail.items():
            v = tail.get(f)
            if v:
                vec[p] = QQ(-v, self.lead[p])
        return vec


def kernel_basis(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right null space of the matrix with the given rows.

    One ``Echelon.null_vector`` per non-pivot column, in column order.
    """
    ech = Echelon()
    for row in rows:
        ech.insert(_sparse(row))
    return [ech.null_vector(f, ncols) for f in range(ncols) if f not in ech.lead]


def solve_in_span(columns: Matrix, targets: Matrix) -> list[Vector] | None:
    """Express each target vector as a combination of the given columns.

    ``columns`` and ``targets`` are lists of equal-length vectors.  Returns
    one coefficient vector per target (aligned with ``columns``), or None
    when some target lies outside the span.  The rows of [columns |
    targets] go through one ``Echelon``; the coefficient of column p in
    target t is ``tail[p][t] / lead[p]`` at a pivot p and 0 elsewhere.
    The reduced row echelon form is unique, so this equals elimination
    over Q.
    """
    ncols = len(columns)
    vectors = list(columns) + list(targets)
    height = len(vectors[0]) if vectors else 0
    if any(len(v) != height for v in vectors):
        raise ValueError("inconsistent vector lengths")
    ech = Echelon()
    for i in range(height):
        ech.insert(_sparse([v[i] for v in vectors]))
    # any pivot inside the target block means that target is independent
    if any(p >= ncols for p in ech.lead):
        return None
    out = []
    for t in range(ncols, len(vectors)):
        coeffs = [_ZERO] * ncols
        for p, tail in ech.tail.items():
            v = tail.get(t)
            if v:
                coeffs[p] = QQ(v, ech.lead[p])
        out.append(coeffs)
    return out


# The word-size prime of the rank certificate (Dumas, Giorgi & Pernet 2008).
_P = 2**31 - 1


def dependent_rows(rows: Matrix) -> list[int]:
    """Positions of the rows that lie in the span of the rows before them.

    Exact; the rank is len(rows) minus their number.  The rows are first
    eliminated modulo _P.  When no denominator is divisible by _P, that is
    a ring map, so rank mod _P <= rank over Q: rows independent mod _P are
    independent over Q.  Otherwise the rows, scaled to primitive integers,
    go through one ``Echelon``.  Entries are ints or QQs; an int is
    reduced without a modular inverse.
    """
    try:
        residues = [
            [
                x % _P if type(x) is int
                else x.numerator * pow(x.denominator, -1, _P) % _P
                for x in row
            ]
            for row in rows
        ]
    except ValueError:  # a denominator divisible by _P has no inverse mod _P
        residues = None
    if residues is not None and not _dependent_mod_p(residues):
        return []
    ech = Echelon()
    return [pos for pos, row in enumerate(rows) if not ech.insert(_sparse(row))]


def _dependent_mod_p(rows: Matrix) -> list[int]:
    """Positions of the rows dependent on earlier ones over F_p, p = _P.

    Leftmost-pivot elimination on rows of ints, which are reduced mod _P
    only where a value is read, with sparse monic pivot rows.  The rows
    are consumed.
    """
    dependent: list[int] = []
    pivots: list[tuple[int, list[tuple[int, int]]]] = []
    for pos, row in enumerate(rows):
        for pcol, prow in pivots:
            c = row[pcol] % _P
            if c:
                for j, v in prow:
                    row[j] -= c * v
        lead = next((j for j, v in enumerate(row) if v % _P), None)
        if lead is None:
            dependent.append(pos)
            continue
        inv = pow(row[lead], -1, _P)
        pivots.append((lead, [(j, v * inv % _P) for j, v in enumerate(row) if v % _P]))
    return dependent
