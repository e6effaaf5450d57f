"""The exact kernels of ``_linalg`` and the use of the rank in verify_basis.

``rref`` and the exact pass of ``dependent_rows`` run on one fraction-free
``Echelon`` over integers; both are checked against a dense rational
elimination kept here as the reference, which shares no code with
``_linalg``, and against sympy when it is installed.  ``dependent_rows``
eliminates modulo a word-size prime first and falls back to exact
rationals when that cannot certify independence.  These tests pin the
fallback triggers and compare every rank it reports against the reference
(and against sympy).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spechtpoly import _linalg
from spechtpoly._linalg import _P, _eliminate, dependent_rows, rref
from spechtpoly.polyring import QQ, Poly
from spechtpoly.quotient import build_ideal, graded_quotient, verify_basis
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


@pytest.fixture
def passes(monkeypatch):
    """The moduli of the elimination passes dependent_rows runs (0: over Q)."""
    seen = []

    def record(rows, p):
        seen.append(p)
        return _eliminate(rows, p)

    monkeypatch.setattr(_linalg, "_eliminate", record)
    return seen


def test_independent_rows_are_certified_mod_p(passes):
    assert dependent_rows([[QQ(1, 2), QQ(3)], [QQ(0), QQ(-7, 5)]]) == []
    assert passes == [_P]


def test_singular_mod_p_but_regular_over_q(passes):
    rows = [[1, 0], [0, _P]]
    assert _eliminate([list(row) for row in rows], _P) == [1]
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
    assert _eliminate(rows, 0) == prefix_dependent(rows)
    assert rows == copy


def test_exact_pass_zero_entries_and_zero_rows():
    # int and QQ zeros never reach the echelon as entries
    assert _eliminate([[0, 2, 0], [0, 0, 0], [0, 4, 0], [1, 0, 0]], 0) == [1, 2]
    assert _eliminate([[0, 0], [QQ(0), QQ(0)]], 0) == [0, 1]
    assert _eliminate([[0, QQ(1, 2), 0], [3, 0, 0], [3, QQ(1), 0]], 0) == [2]
    assert _eliminate([[1, 0, 0], [0, 0, 1], [0, -2, 0], [0, 0, 0]], 0) == [3]


def test_echelon_holds_the_reduced_form():
    ech = _linalg.Echelon()
    assert ech.insert({1: 2, 2: -4})
    assert (ech.lead, ech.tail) == ({1: 1}, {1: {2: -2}})
    assert ech.insert({0: -3, 2: 6, 3: 9})
    assert ech.insert({2: 6})  # back-eliminates column 2 from both tails
    assert (ech.lead, ech.tail) == ({0: 1, 1: 1, 2: 1}, {0: {3: -3}, 1: {}, 2: {}})
    assert not ech.insert({0: 2, 3: -6})
    assert not ech.insert({})


@given(matrices())
def test_rref_matches_rational_reference(rows):
    copy = [list(row) for row in rows]
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == reference_rref(rows)
    assert all(isinstance(x, QQ) for row in reduced for x in row)
    assert rows == copy
    # integer entries take the same path as their QQ values
    ints = [[int(x.numerator) for x in row] for row in rows]
    assert rref(ints) == reference_rref(ints)


def _sympy_rows(sympy, rows):
    return [[sympy.Rational(int(x.numerator), int(x.denominator)) for x in row] for row in rows]


@given(matrices())
def test_rref_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    reduced, pivots = rref(rows)
    if not rows:
        assert (reduced, pivots) == ([], [])
        return
    want, want_pivots = sympy.Matrix(_sympy_rows(sympy, rows)).rref()
    assert pivots == list(want_pivots)
    assert _sympy_rows(sympy, reduced) == [list(want.row(i)) for i in range(len(pivots))]


def test_rref_shapes():
    half = QQ(1, 2)
    # wide: one row
    assert rref([[QQ(0), QQ(2), QQ(3)]]) == ([[QQ(0), QQ(1), QQ(3, 2)]], [1])
    # tall: a column with a zero row and a duplicate
    assert rref([[QQ(0)], [half], [half]]) == ([[QQ(1)]], [0])
    assert rref([[QQ(0), QQ(0)]]) == ([], [])
    assert rref([]) == ([], [])
    # a negative pivot and entries that only divide out at the end
    assert rref([[QQ(-3), QQ(1)], [QQ(6), QQ(4)]]) == reference_rref([[-3, 1], [6, 4]])


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
    quotient = graded_quotient(spec)
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
    return dataclasses.replace(be, poly=Poly._raw(be.poly.nvars, terms))


@pytest.mark.parametrize(
    "spec,family", [pytest.param(spec, fam, id=name) for name, spec, fam in _differential_cases()]
)
def test_verify_basis_integer_family_matches_rational_family(spec, family):
    # the families are integral, so the rule gives every coefficient as an int
    assert all(type(c) is int for be in family for c in be.poly.terms.values())
    quotient = graded_quotient(spec)
    rational = [_as_rationals(be) for be in family]
    assert verify_basis(quotient, family) == verify_basis(quotient, rational)


def test_dependent_rows_mixes_int_and_rational_entries():
    assert dependent_rows([[2, QQ(1, 3)], [QQ(6), 1]]) == [1]
    assert dependent_rows([[2, QQ(1, 3)], [QQ(6), 2]]) == []
    # an int multiple of _P is zero mod _P, so the exact pass decides
    assert dependent_rows([[_P, 1], [0, 1]]) == []
