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


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (reduced nonzero rows, pivot columns).

    Entries may be ints or QQ.  The rows, scaled to primitive integers,
    go through one ``Echelon``, and each pivot row is divided by its lead
    only when it is emitted.  The RREF of a matrix is unique, so this
    equals elimination over Q.
    """
    ncols = len(rows[0]) if rows else 0
    ech = Echelon()
    for row in rows:
        ech.insert(_sparse(row))
    pivots = sorted(ech.lead)
    reduced: Matrix = []
    for p in pivots:
        out = [_ZERO] * ncols
        out[p] = _ONE
        lead = ech.lead[p]
        for c, v in ech.tail[p].items():
            out[c] = QQ(v, lead)
        reduced.append(out)
    return reduced, pivots


def kernel_basis(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right null space of the matrix with the given rows."""
    if not rows:
        return [[_ONE if i == j else _ZERO for j in range(ncols)] for i in range(ncols)]
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: Matrix = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for prow, pcol in zip(reduced, pivots):
            if prow[free]:
                vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def solve_in_span(
    columns: Matrix, targets: Matrix
) -> list[Vector] | None:
    """Express each target vector as a combination of the given columns.

    ``columns`` and ``targets`` are lists of equal-length vectors.  Returns
    one coefficient vector per target (aligned with ``columns``), or None
    when some target lies outside the span.
    """
    ncols = len(columns)
    ntargets = len(targets)
    height = len(columns[0]) if columns else (len(targets[0]) if targets else 0)
    for v in list(columns) + list(targets):
        if len(v) != height:
            raise ValueError("inconsistent vector lengths")
    aug = [
        [columns[j][i] for j in range(ncols)] + [targets[t][i] for t in range(ntargets)]
        for i in range(height)
    ]
    reduced, pivots = rref(aug)
    # any pivot inside the target block means that target is independent
    if any(p >= ncols for p in pivots):
        return None
    out: list[Vector] = []
    for t in range(ntargets):
        coeffs = [_ZERO] * ncols
        for prow, pcol in zip(reduced, pivots):
            coeffs[pcol] = prow[ncols + t]
        out.append(coeffs)
    return out


# The word-size prime of the rank certificate (Dumas, Giorgi & Pernet 2008).
_P = 2**31 - 1


def dependent_rows(rows: Matrix) -> list[int]:
    """Positions of the rows that lie in the span of the rows before them.

    Exact; the rank is len(rows) minus their number.  The rows are first
    eliminated modulo _P.  When no denominator is divisible by _P, that is
    a ring map, so rank mod _P <= rank over Q: rows independent mod _P are
    independent over Q.  Otherwise the rows are eliminated again over Q.
    Entries are ints or QQs; an int is reduced without a modular inverse.
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
    if residues is not None and not _eliminate(residues, _P):
        return []
    return _eliminate(rows, 0)


def _eliminate(rows: Matrix, p: int) -> list[int]:
    """Leftmost-pivot elimination; positions of the dependent rows.

    Over F_p on rows of ints, which are reduced mod p only where a value is
    read, with sparse monic pivot rows.  When p is 0, over Q: the rows
    scaled to primitive integers go through one ``Echelon``.
    """
    if not p:
        ech = Echelon()
        return [pos for pos, row in enumerate(rows) if not ech.insert(_sparse(row))]
    dependent: list[int] = []
    pivots: list[tuple[int, list[tuple[int, int]]]] = []
    for pos, row in enumerate(rows):
        for pcol, prow in pivots:
            c = row[pcol] % p
            if c:
                for j, v in prow:
                    row[j] -= c * v
        lead = next((j for j, v in enumerate(row) if v % p), None)
        if lead is None:
            dependent.append(pos)
            continue
        inv = pow(row[lead], -1, p)
        pivots.append((lead, [(j, v * inv % p) for j, v in enumerate(row) if v % p]))
    return dependent
