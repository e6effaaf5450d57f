"""Small exact linear algebra over Q: leftmost-pivot RREF and a certified rank."""

from __future__ import annotations

from .polyring import QQ

_ZERO = QQ(0)
_ONE = QQ(1)

Vector = list
Matrix = list


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (reduced nonzero rows, pivot columns)."""
    work = [[QQ(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    reduced: Matrix = []
    for row in work:
        for prow, pcol in zip(reduced, pivots):
            c = row[pcol]
            if c:
                for j in range(pcol, ncols):
                    row[j] = row[j] - c * prow[j]
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is None:
            continue
        inv = _ONE / row[lead]
        row = [x * inv for x in row]
        # back-eliminate the new pivot from earlier rows
        for prow in reduced:
            c = prow[lead]
            if c:
                for j in range(lead, ncols):
                    prow[j] = prow[j] - c * row[j]
        # keep rows ordered by pivot column
        at = next((idx for idx, pc in enumerate(pivots) if pc > lead), len(pivots))
        reduced.insert(at, row)
        pivots.insert(at, lead)
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
        [QQ(columns[j][i]) for j in range(ncols)]
        + [QQ(targets[t][i]) for t in range(ntargets)]
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
    """
    try:
        residues = [
            [int(x.numerator) * pow(int(x.denominator), -1, _P) % _P for x in row]
            for row in rows
        ]
    except ValueError:  # a denominator divisible by _P has no inverse mod _P
        residues = None
    if residues is not None and not _eliminate(residues, _P):
        return []
    return _eliminate([list(row) for row in rows], 0)


def _eliminate(rows: Matrix, p: int) -> list[int]:
    """Leftmost-pivot elimination in place; positions of the dependent rows.

    Over Q when p is 0, else over F_p on rows of ints, which are reduced
    mod p only where a value is read.  Pivot rows are kept sparse.
    """
    reduce = (lambda v: v % p) if p else (lambda v: v)
    pivots: list[tuple[int, list]] = []
    dependent: list[int] = []
    for pos, row in enumerate(rows):
        for pcol, prow in pivots:
            c = reduce(row[pcol])
            if c:
                for j, v in prow:
                    row[j] -= c * v
        lead = next((j for j, v in enumerate(row) if reduce(v)), None)
        if lead is None:
            dependent.append(pos)
            continue
        inv = pow(row[lead], -1, p) if p else _ONE / row[lead]
        pivots.append((lead, [(j, reduce(v * inv)) for j, v in enumerate(row) if reduce(v)]))
    return dependent
