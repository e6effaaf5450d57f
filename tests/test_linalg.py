"""The exact kernels of ``_linalg`` and the use of the rank in verify_basis.

``solve_in_span``, ``kernel_basis`` and the exact pass of ``dependent_rows``
read one fraction-free ``Echelon`` over integers; all three are checked
against a dense rational elimination kept here as the reference, which
shares no code with ``_linalg``, and against sympy when it is installed.
``dependent_rows`` eliminates modulo a word-size prime first and falls
back to exact rationals when that cannot certify independence.  These
tests pin the fallback triggers and compare every rank it reports against
the reference (and against sympy).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spechtpoly import _linalg
from spechtpoly._linalg import _P, _dependent_mod_p, dependent_rows, kernel_basis, solve_in_span
from spechtpoly.polyring import QQ, Poly
from spechtpoly.quotient import GradedQuotient, build_ideal, verify_basis
from spechtpoly.specht import build_basis_family

try:
    import sympy
except ImportError:  # pragma: no cover
    sympy = None


def reference_rref(rows):
    """Dense leftmost-pivot RREF over QQ, dividing by each pivot as it is found."""
    work = [[QQ(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    reduced: list = []
    for row in work:
        for prow, pcol in zip(reduced, pivots):
            c = row[pcol]
            if c:
                for j in range(pcol, ncols):
                    row[j] = row[j] - c * prow[j]
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is None:
            continue
        inv = QQ(1) / row[lead]
        row = [x * inv for x in row]
        for prow in reduced:
            c = prow[lead]
            if c:
                for j in range(lead, ncols):
                    prow[j] = prow[j] - c * row[j]
        at = next((idx for idx, pc in enumerate(pivots) if pc > lead), len(pivots))
        reduced.insert(at, row)
        pivots.insert(at, lead)
    return reduced, pivots


def exact_rank(rows) -> int:
    return len(reference_rref(rows)[1])


def prefix_dependent(rows) -> list[int]:
    """Positions whose row does not raise the rank of the rows before it."""
    return [i for i in range(len(rows)) if exact_rank(rows[: i + 1]) == exact_rank(rows[:i])]


# -- the kernel ------------------------------------------------------------------


def exact_pass(rows):
    """``dependent_rows`` with the mod-p certificate made to fail, so the exact pass decides."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_linalg, "_dependent_mod_p", lambda residues: [0])
        return dependent_rows(rows)


@pytest.fixture
def passes(monkeypatch):
    """The passes dependent_rows runs: _P for the mod-p certificate, 0 for the exact one."""
    seen = []

    def mod_p(rows):
        seen.append(_P)
        return _dependent_mod_p(rows)

    class CountingEchelon(_linalg.Echelon):
        def __init__(self):
            seen.append(0)
            super().__init__()

    monkeypatch.setattr(_linalg, "_dependent_mod_p", mod_p)
    monkeypatch.setattr(_linalg, "Echelon", CountingEchelon)
    return seen


def test_independent_rows_are_certified_mod_p(passes):
    assert dependent_rows([[QQ(1, 2), QQ(3)], [QQ(0), QQ(-7, 5)]]) == []
    assert passes == [_P]


def test_singular_mod_p_but_regular_over_q(passes):
    rows = [[1, 0], [0, _P]]
    assert _dependent_mod_p([list(row) for row in rows]) == [1]
    assert dependent_rows(rows) == []
    assert passes == [_P, 0]  # the certificate fails, the exact pass finds rank 2


def test_denominator_divisible_by_p_takes_exact_path(passes):
    assert dependent_rows([[QQ(1, _P), QQ(1)], [QQ(0), QQ(1)]]) == []
    assert dependent_rows([[QQ(1, _P), QQ(1)], [QQ(2, _P), QQ(2)]]) == [1]
    # row 2 is _P times row 1; dropping the denominator would make the
    # rows look independent mod _P
    assert dependent_rows([[QQ(1, _P), QQ(1)], [QQ(1), QQ(_P)]]) == [1]
    assert passes == [0, 0, 0]


def test_duplicated_rows_are_pinpointed():
    a = [QQ(1), QQ(2), QQ(0)]
    b = [QQ(0), QQ(1, 3), QQ(5)]
    a_plus_b = [x + y for x, y in zip(a, b)]
    assert dependent_rows([a, b, a_plus_b, a]) == [2, 3]
    assert dependent_rows([[QQ(0), QQ(0)], a[:2]]) == [0]
    assert dependent_rows([[], []]) == [0, 1]
    assert dependent_rows([]) == []


def test_rows_are_not_modified():
    rows = [[QQ(2), QQ(4)], [QQ(1), QQ(2)], [QQ(0), QQ(1)]]
    copy = [list(row) for row in rows]
    assert dependent_rows(rows) == [1]
    assert rows == copy


def test_random_matrices_against_rref(rng):
    for _ in range(60):
        nrows, ncols, inner = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nrows)]
        right = [
            [QQ(rng.randint(-5, 5), rng.choice((1, 2, 3, _P))) for _ in range(ncols)]
            for _ in range(inner)
        ]
        rows = [
            [sum((left[i][t] * right[t][j] for t in range(inner)), QQ(0)) for j in range(ncols)]
            for i in range(nrows)
        ]
        assert dependent_rows(rows) == prefix_dependent(rows), rows


_ENTRIES = st.one_of(
    st.just(QQ(0)),
    st.integers(-4, 4).map(QQ),
    st.builds(QQ, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 7))),
)


@st.composite
def matrices(draw):
    """Rational matrices, wide or tall, with zero, duplicate and multiple rows mixed in."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "duplicate", "multiple")))
        if kind == "zero" or not rows:
            extra = [QQ(0)] * ncols
        else:
            source = rows[draw(st.integers(0, len(rows) - 1))]
            factor = QQ(1) if kind == "duplicate" else draw(_ENTRIES)
            extra = [factor * x for x in source]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@given(matrices())
def test_exact_pass_matches_rational_reference(rows):
    copy = [list(row) for row in rows]
    assert exact_pass(rows) == prefix_dependent(rows)
    assert rows == copy


def test_exact_pass_zero_entries_and_zero_rows():
    # int and QQ zeros never reach the echelon as entries
    assert exact_pass([[0, 2, 0], [0, 0, 0], [0, 4, 0], [1, 0, 0]]) == [1, 2]
    assert exact_pass([[0, 0], [QQ(0), QQ(0)]]) == [0, 1]
    assert exact_pass([[0, QQ(1, 2), 0], [3, 0, 0], [3, QQ(1), 0]]) == [2]
    assert exact_pass([[1, 0, 0], [0, 0, 1], [0, -2, 0], [0, 0, 0]]) == [3]


def test_echelon_holds_the_reduced_form():
    ech = _linalg.Echelon()
    assert ech.insert({1: 2, 2: -4})
    assert (ech.lead, ech.tail) == ({1: 1}, {1: {2: -2}})
    assert ech.insert({0: -3, 2: 6, 3: 9})
    assert ech.insert({2: 6})  # back-eliminates column 2 from both tails
    assert (ech.lead, ech.tail) == ({0: 1, 1: 1, 2: 1}, {0: {3: -3}, 1: {}, 2: {}})
    assert not ech.insert({0: 2, 3: -6})
    assert not ech.insert({})


def reference_solve(columns, targets):
    """``solve_in_span`` read off ``reference_rref`` of [columns | targets]."""
    ncols = len(columns)
    vectors = list(columns) + list(targets)
    reduced, pivots = reference_rref([list(row) for row in zip(*vectors)])
    if any(p >= ncols for p in pivots):
        return None
    out = []
    for t in range(ncols, len(vectors)):
        coeffs = [QQ(0)] * ncols
        for prow, p in zip(reduced, pivots):
            coeffs[p] = prow[t]
        out.append(coeffs)
    return out


def _cut(ncols):
    """Where a drawn matrix splits into [columns | targets]: the last one or two are targets."""
    return max(1, ncols - (1 + ncols % 2))


def _split(rows):
    """The columns of a drawn matrix as (columns, targets)."""
    vectors = [list(col) for col in zip(*rows)]
    return vectors[: _cut(len(vectors))], vectors[_cut(len(vectors)):]


@given(matrices())
def test_kernel_and_solve_match_rational_reference(rows):
    copy = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 3
    kernel = kernel_basis(rows, ncols)
    assert all(isinstance(x, QQ) for vec in kernel for x in vec)
    for vec in kernel:
        assert all(sum(x * v for x, v in zip(row, vec)) == 0 for row in rows)
    pivots = reference_rref(rows)[1]
    assert len(kernel) == ncols - len(pivots)
    # the kernel is in reduced form: 1 at its own non-pivot column, 0 at the others
    free = [c for c in range(ncols) if c not in pivots]
    assert [[vec[c] for c in free] for vec in kernel] == [
        [QQ(int(c == f)) for c in free] for f in free
    ]
    if rows:
        columns, targets = _split(rows)
        solution = solve_in_span(columns, targets)
        assert solution == reference_solve(columns, targets)
        if solution is not None:
            assert all(isinstance(x, QQ) for vec in solution for x in vec)
        # integer entries take the same path as their QQ values
        ints = [[int(x.numerator) for x in row] for row in rows]
        assert solve_in_span(*_split(ints)) == reference_solve(*_split(ints))
    assert rows == copy


def _sympy_rows(sympy, rows):
    return [[sympy.Rational(int(x.numerator), int(x.denominator)) for x in row] for row in rows]


@given(matrices())
def test_kernel_and_solve_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    if not rows:
        assert solve_in_span([], []) == []
        return
    matrix = sympy.Matrix(_sympy_rows(sympy, rows))
    want = [list(v) for v in matrix.nullspace()]
    assert _sympy_rows(sympy, kernel_basis(rows, len(rows[0]))) == want
    cut = _cut(len(rows[0]))
    solution = solve_in_span(*_split(rows))
    if matrix[:, :cut].rank() != matrix.rank():
        assert solution is None
        return
    # the solution with zeros at the non-pivot columns of [columns | targets]
    reduced, pivots = matrix.rref()
    want = [[0] * cut for _ in range(cut, matrix.cols)]
    for i, p in enumerate(pivots):
        for t in range(cut, matrix.cols):
            want[t - cut][p] = reduced[i, t]
    assert _sympy_rows(sympy, solution) == want


def test_kernel_and_solve_shapes():
    half = QQ(1, 2)
    # wide: one row
    assert kernel_basis([[QQ(0), QQ(2), QQ(3)]], 3) == [
        [QQ(1), QQ(0), QQ(0)], [QQ(0), QQ(-3, 2), QQ(1)]
    ]
    # no rows: the identity
    assert kernel_basis([], 2) == [[QQ(1), QQ(0)], [QQ(0), QQ(1)]]
    assert kernel_basis([[QQ(0), QQ(0)]], 2) == [[QQ(1), QQ(0)], [QQ(0), QQ(1)]]
    assert kernel_basis([[1, 2], [3, 4]], 2) == []
    # tall: one column with a zero entry and a duplicate
    assert solve_in_span([[QQ(0), half, half]], [[QQ(0), QQ(1), QQ(1)]]) == [[QQ(2)]]
    assert solve_in_span([[QQ(0), half, half]], [[QQ(1), QQ(1), QQ(1)]]) is None
    assert solve_in_span([[1, 0], [0, 1]], []) == []
    assert solve_in_span([], [[0, 0]]) == [[]]
    assert solve_in_span([], [[0, 1]]) is None
    # a negative pivot and entries that only divide out at the end
    assert solve_in_span([[-3, 6], [1, 4]], [[1, 0], [0, 1]]) == reference_solve(
        [[-3, 6], [1, 4]], [[1, 0], [0, 1]]
    )
    with pytest.raises(ValueError):
        solve_in_span([[1, 2]], [[1]])


# -- verify_basis against an independent exact rank ------------------------------


def _differential_cases():
    cases = [
        ("Rn", "Bn", {"n": 4}),
        ("Rnk", "Bnk", {"n": 4, "k": 2}),
        ("Rnks", "Bnks", {"n": 4, "k": 3, "s": 1}),
        ("Rmu", "Bmu", {"mu": (2, 1, 1)}),
        ("Rnkmu", "Bnkmu", {"n": 4, "k": 2, "mu": (3,)}),
    ]
    out = []
    for ring, kind, params in cases:
        out.append((f"{kind}{params}", build_ideal(ring, **params), build_basis_family(kind, **params)))
    spec = build_ideal("Rn", n=3)
    fam = build_basis_family("Bn", n=3)
    degs = [be.degree for be in fam]
    duplicated = list(fam)
    duplicated[len(degs) - 1 - degs[::-1].index(1)] = fam[degs.index(1)]
    out.append(("Bn(3) duplicated", spec, duplicated))
    out.append(("Bn(3) truncated", spec, fam[:-1]))
    return out


@pytest.mark.parametrize(
    "spec,family", [pytest.param(spec, fam, id=name) for name, spec, fam in _differential_cases()]
)
def test_verify_basis_ranks_match_exact_elimination(spec, family):
    quotient = GradedQuotient(spec)
    report = verify_basis(quotient, family)
    dependent = []
    for entry in report["per_degree"]:
        d = entry["d"]
        positions = [idx for idx, be in enumerate(family) if be.degree == d]
        rows = [quotient.coords(family[idx].poly, d) for idx in positions]
        assert entry["rank"] == exact_rank(rows), d
        if sympy is not None and rows and rows[0]:
            matrix = sympy.Matrix(
                [[sympy.Rational(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
            )
            assert entry["rank"] == matrix.rank(), d
        dependent += [(d, positions[i]) for i in prefix_dependent(rows)]
    reported = [(f["d"], f["position"]) for f in report["failures"] if f["kind"] == "dependent"]
    assert reported == dependent


def _as_rationals(be):
    """The element with every coefficient cast to QQ, bypassing the int-first rule."""
    terms = {e: QQ(c) for e, c in be.poly.terms.items()}
    return be._replace(poly=Poly._raw(be.poly.nvars, terms))


@pytest.mark.parametrize(
    "spec,family", [pytest.param(spec, fam, id=name) for name, spec, fam in _differential_cases()]
)
def test_verify_basis_integer_family_matches_rational_family(spec, family):
    # the families are integral, so the rule gives every coefficient as an int
    assert all(type(c) is int for be in family for c in be.poly.terms.values())
    quotient = GradedQuotient(spec)
    rational = [_as_rationals(be) for be in family]
    assert verify_basis(quotient, family) == verify_basis(quotient, rational)


def test_dependent_rows_mixes_int_and_rational_entries():
    assert dependent_rows([[2, QQ(1, 3)], [QQ(6), 1]]) == [1]
    assert dependent_rows([[2, QQ(1, 3)], [QQ(6), 2]]) == []
    # an int multiple of _P is zero mod _P, so the exact pass decides
    assert dependent_rows([[_P, 1], [0, 1]]) == []
