"""Small exact linear algebra over Q: fraction-free leftmost-pivot RREF and a certified rank."""

from __future__ import annotations

from math import gcd, lcm

from .polyring import QQ

_ZERO = QQ(0)
_ONE = QQ(1)

Vector = list
Matrix = list


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g in (0, 1) else [v // g for v in row]


def _integral_row(row: Vector) -> list[int]:
    """The row times the lcm of its denominators, divided by its content."""
    scale = lcm(*(int(x.denominator) for x in row))
    return _primitive([int(x.numerator) * (scale // int(x.denominator)) for x in row])


def _cancel(row: list[int], pcol: int, prow: list[int]) -> list[int]:
    """An integer multiple of row minus a multiple of prow with a zero at pcol.

    The multiples are the gcd cofactors of the two entries at pcol, so no
    division is needed (Bareiss 1968).
    """
    lead = prow[pcol]
    g = gcd(row[pcol], lead)
    a, b = lead // g, row[pcol] // g
    if a == 1:
        return [x - b * y for x, y in zip(row, prow)]
    return [a * x - b * y for x, y in zip(row, prow)]


def _reduce(row: list[int], pivots) -> list[int]:
    """Cancel row at each (pivot column, pivot row) in turn, fraction-free."""
    for pcol, prow in pivots:
        if row[pcol]:
            row = _cancel(row, pcol, prow)
    return row


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (reduced nonzero rows, pivot columns).

    Entries may be ints or QQ.  Elimination is fraction-free over the
    rows scaled to primitive integers: every kept row is an integer
    multiple of its reduced row, with a positive entry at its pivot, and
    is divided by that entry only when the result is emitted.  The RREF
    of a matrix is unique, so this equals elimination over Q.
    """
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    reduced: list[list[int]] = []
    for row in map(_integral_row, rows):
        row = _reduce(row, zip(pivots, reduced))
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is None:
            continue
        row = _primitive(row if row[lead] > 0 else [-v for v in row])
        # back-eliminate the new pivot from earlier rows
        for idx, prow in enumerate(reduced):
            if prow[lead]:
                reduced[idx] = _primitive(_cancel(prow, lead, row))
        # keep rows ordered by pivot column
        at = next((idx for idx, pc in enumerate(pivots) if pc > lead), len(pivots))
        reduced.insert(at, row)
        pivots.insert(at, lead)
    return [
        [QQ(v, prow[pcol]) if v else _ZERO for v in prow]
        for prow, pcol in zip(reduced, pivots)
    ], pivots


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
                else int(x.numerator) * pow(int(x.denominator), -1, _P) % _P
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
    read, with sparse monic pivot rows.  When p is 0, over Q: fraction-free
    on the rows scaled to primitive integers, as in ``rref`` but forward
    only.
    """
    dependent: list[int] = []
    if not p:
        reduced: list[tuple[int, list[int]]] = []
        for pos, row in enumerate(map(_integral_row, rows)):
            row = _reduce(row, reduced)
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                dependent.append(pos)
            else:
                reduced.append((lead, _primitive(row)))
        return dependent
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
