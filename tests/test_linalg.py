"""The certified rank kernel and its use in verify_basis.

``dependent_rows`` eliminates modulo a word-size prime first and falls back
to exact rationals when that cannot certify independence.  These tests pin
the fallback triggers and compare every rank it reports against exact
elimination by ``rref`` (and against sympy when it is installed).
"""

from __future__ import annotations

import pytest

from spechtpoly import _linalg
from spechtpoly._linalg import _P, _eliminate, dependent_rows, rref
from spechtpoly.polyring import QQ
from spechtpoly.quotient import build_ideal, graded_quotient, verify_basis
from spechtpoly.specht import build_basis_family

try:
    import sympy
except ImportError:  # pragma: no cover
    sympy = None


def exact_rank(rows) -> int:
    return len(rref(rows)[1])


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
