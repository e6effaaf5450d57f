from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtpoly._linalg import Echelon, _integral_row, kernel_basis, solve_in_span
from spechtpoly.families import FAMILIES
from spechtpoly.polyring import QQ, Poly, elementary, monomials_of_degree
from spechtpoly.quotient import (
    GradedQuotient,
    IdealSpec,
    _row_sort_key,
    _times_elementary,
    almost_lower_triangular,
    build_ideal,
    degree_slice,
    gp_recursion_family,
    graded_quotient,
    transition_matrix,
    verify_basis,
    verify_family,
)
from spechtpoly.specht import build_basis_family, higher_specht
from spechtpoly.symfunc import graded_frobenius
from spechtpoly.tableaux import format_tableau, parse_tableau, partitions, standard_tableaux

from conftest import requires_long


def multinomial(mu):
    n = sum(mu)
    out = 1
    for p in mu:
        out *= comb(n, p)
        n -= p
    return out


def _dense_row(poly: Poly, monos) -> list[Fraction]:
    row = []
    for mm in monos:
        c = poly.terms.get(mm)
        row.append(
            Fraction(0) if c is None else Fraction(int(c.numerator), int(c.denominator))
        )
    return row


def _ideal_slice_rows(spec: IdealSpec, d: int, monos) -> list[list[Fraction]]:
    """Dense rows of every monomial multiple of a generator in degree d."""
    rows = []
    for g in spec.generators:
        gd = g.degree()
        if gd > d:
            continue
        for m in monomials_of_degree(spec.nvars, d - gd):
            rows.append(_dense_row(Poly.monomial(m, 1) * g, monos))
    return rows


def _dense_rank(rows: list[list[Fraction]]) -> int:
    rank = 0
    pivots: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        for pcol, prow in pivots:
            if row[pcol]:
                f = row[pcol]
                row = [a - f * b for a, b in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        pivots.append((lead, [v * inv for v in row]))
        rank += 1
    return rank


def brute_hilbert(spec: IdealSpec) -> list[int]:
    """Hilbert function by dense row reduction over Fraction.

    Spans each ideal degree slice with monomial multiples of the
    generators and counts the corank; shares no code with the library's
    incremental construction.
    """
    n = spec.nvars
    out = []
    d = 0
    while True:
        monos = monomials_of_degree(n, d)
        dim = len(monos) - _dense_rank(_ideal_slice_rows(spec, d, monos))
        if dim == 0:
            return out
        out.append(dim)
        d += 1
        assert d <= spec.degree_cap + 1, "runaway brute-force Hilbert loop"


def test_hilbert_r3_r4_frozen():
    assert graded_quotient("Rn", n=3).hilbert == (1, 2, 2, 1)
    assert graded_quotient("Rn", n=4).hilbert == (1, 3, 5, 6, 5, 3, 1)


def test_hilbert_against_dense_row_reduction():
    specs = [build_ideal("Rmu", mu=mu) for mu in partitions(4)]
    specs.append(build_ideal("Rnk", n=3, k=2))
    specs.append(build_ideal("Rnks", n=3, k=2, s=1))
    specs.append(build_ideal("Rnkmu", n=4, k=2, mu=(3,)))
    for spec in specs:
        assert list(GradedQuotient(spec).hilbert) == brute_hilbert(spec), spec.family


def test_dimension_rmu_is_multinomial():
    for n in range(1, 6):
        for mu in partitions(n):
            q = graded_quotient("Rmu", mu=mu)
            assert q.dimension == multinomial(mu), mu


def test_dimension_rnk0_is_k_power_n():
    for n in range(1, 5):
        for k in range(1, 4):
            if k > n:
                continue
            q = graded_quotient("Rnks", n=n, k=k, s=0)
            assert q.dimension == k**n, (n, k)


@pytest.mark.parametrize("ring", sorted(FAMILIES))
def test_dimension_column_is_the_built_dimension(ring):
    # the size guard of build_ideal reads this column before building anything
    row = FAMILIES[ring]
    cases = [params for n in range(1, 6) for params in row.sweep(n)]
    if ring == "Rnkmu":
        cases += [{"n": n, "k": k, "mu": list(mu)} for n, k in ((4, 2), (4, 4), (5, 3))
                  for m in range(n + 1) for mu in partitions(m) if len(mu) <= k]
    for params in cases:
        checked = row.check(params)
        assert row.dimension(**checked) == graded_quotient(ring, **params).dimension


def test_size_guard_accepts_the_rings_up_to_n_9():
    assert build_ideal("Rn", n=9).nvars == 9  # 9! is the dimension cap
    assert all(build_ideal("Rmu", mu=mu).nvars == 9 for mu in partitions(9))
    assert all(build_ideal("Rnkmu", n=n, k=n, mu=(n - 1,)).nvars == n for n in range(2, 10))


def test_rn_hilbert_is_symmetric_and_sums_to_factorial():
    from math import factorial

    for n in range(1, 6):
        h = graded_quotient("Rn", n=n).hilbert
        assert h == tuple(reversed(h))
        assert sum(h) == factorial(n)
        assert len(h) == comb(n, 2) + 1


def test_quotient_cache_is_keyed_by_ring_name(monkeypatch):
    # an empty cache makes the check independent of what earlier tests cached
    cache = {}
    monkeypatch.setattr("spechtpoly.quotient._QUOTIENT_CACHE", cache)
    # a hand-built spec with the generators of Rn 3 is never cached
    rn3 = build_ideal("Rn", n=3)
    GradedQuotient(IdealSpec(rn3.nvars, rn3.generators, rn3.degree_cap))
    assert cache == {}
    # Rmu (1,1,1) and Rn 3 present the same generators, yet each keeps its name
    assert graded_quotient("Rmu", mu=(1, 1, 1)).spec.family == "Rmu"
    assert graded_quotient("Rn", n=3).spec.family == "Rn"
    assert verify_family(graded_quotient("Rn", n=3), "Rn", {"n": 3})["verdict"] is True
    assert graded_quotient("Rnkmu", n=4, k=2, mu=(1, 1)).spec.family == "Rnkmu"
    assert graded_quotient("Rnk", n=4, k=2).spec.family == "Rnk"
    # the key holds the checked parameters, and a hit builds no ideal
    q = graded_quotient("Rmu", mu=[2, 1])

    def built(*args, **kwargs):
        raise AssertionError("a cache hit built an ideal")

    monkeypatch.setattr("spechtpoly.quotient.build_ideal", built)
    assert graded_quotient("Rmu", mu=(2, 1)) is q
    assert graded_quotient("Rmu", mu=[2, 1]) is q


def test_build_ideal_validation():
    with pytest.raises(ValueError):
        build_ideal("Rn", n=0)
    with pytest.raises(ValueError):
        build_ideal("Rnk", n=3, k=4)
    with pytest.raises(ValueError):
        build_ideal("Rnk", n=3, k=0)
    with pytest.raises(ValueError):
        build_ideal("Rnks", n=3, k=2, s=3)
    with pytest.raises(ValueError):
        build_ideal("Rnkmu", n=2, k=2, mu=(2, 1))  # |mu| > n
    with pytest.raises(ValueError):
        build_ideal("Rnkmu", n=4, k=1, mu=(2, 1))  # k < parts of mu
    with pytest.raises(ValueError):
        build_ideal("Rmu", mu=(1, 2))  # not a partition
    with pytest.raises(ValueError):
        build_ideal("Elsewhere", n=3)
    with pytest.raises(TypeError):
        build_ideal("Rn", n=3, k=1)  # stray parameter
    with pytest.raises(TypeError):
        build_ideal("Rnk", n=3)  # missing parameter
    with pytest.raises(TypeError):
        build_ideal("Rn", n=3.0)  # not an int
    with pytest.raises(TypeError):
        build_ideal("Rmu", mu=(2, "1"))  # a part that is not an int


@pytest.mark.parametrize(
    "ring, basis, params",
    [("Rnk", "Bnk", {"n": 3, "k": 0}), ("Rnks", "Bnks", {"n": 3, "k": 0, "s": 0})],
)
def test_ring_and_basis_share_one_check(ring, basis, params):
    with pytest.raises(ValueError):
        build_ideal(ring, **params)
    with pytest.raises(ValueError):
        build_basis_family(basis, **params)


def test_empty_partition_has_a_basis_but_no_ring():
    # gp_recursion_family needs the family of mu = (), the child of mu = (1,)
    (one,) = build_basis_family("Bmu", mu=())
    assert one.poly == Poly.one(0) and one.degree == 0
    for family, params in (("Rmu", {"mu": ()}), ("Rn", {"n": 0}), ("Rnkmu", {"n": 0, "k": 1, "mu": ()})):
        with pytest.raises(ValueError):
            build_ideal(family, **params)


def test_quotient_rejects_bad_generators():
    x1 = Poly.variable(1, 2)
    with pytest.raises(ValueError):
        GradedQuotient(IdealSpec(2, (x1 + Poly.one(2),), 3))
    with pytest.raises(ValueError):
        GradedQuotient(IdealSpec(2, (Poly.one(2),), 3))


def test_quotient_cap_too_small_raises():
    x1, x2 = Poly.variable(1, 2), Poly.variable(2, 2)
    # Q[x1,x2]/<x1^2, x2^2> needs degree 3 to vanish, cap 1 is a bug trap
    with pytest.raises(RuntimeError):
        GradedQuotient(IdealSpec(2, (x1 * x1, x2 * x2), 1))


def test_project_and_membership():
    q = graded_quotient("Rn", n=3)
    e1 = elementary(1, 3)
    x1 = Poly.variable(1, 3)
    assert q.is_zero_in_quotient(e1)
    assert q.is_zero_in_quotient(e1 * x1 * x1)
    assert q.is_zero_in_quotient(elementary(2, 3) + elementary(3, 3))
    assert not q.is_zero_in_quotient(x1 * x1)
    p = x1 * x1 * x1 + x1 + Poly.one(3)
    assert q.project(q.project(p)) == q.project(p)
    # degrees past the top of the quotient project to zero
    assert q.project(x1**4).is_zero
    with pytest.raises(ValueError):
        q.project(Poly.variable(1, 2))


def test_coords_and_reduce_monomial():
    q = graded_quotient("Rn", n=3)
    x3 = Poly.variable(3, 3)
    vec = q.coords(x3, 1)
    assert len(vec) == q.hilbert[1] == 2
    red = q.reduce_monomial((0, 0, 1))
    recon = Poly.zero(3)
    for slot, c in red.items():
        recon = recon + c * Poly.monomial(q.free_monomials(1)[slot], 1)
    assert q.is_zero_in_quotient(x3 - recon)
    with pytest.raises(ValueError):
        q.coords(x3, 2)  # not homogeneous of that degree
    with pytest.raises(ValueError):
        q.coords(Poly.variable(1, 2), 1)  # wrong variable count
    with pytest.raises(ValueError):
        q.coords(Poly.zero(3), -1)  # would index from the top degree


def test_degree_slice():
    q = graded_quotient("Rn", n=3)
    rank, projector = degree_slice(q, 1)
    assert rank == 3 - 2 == 1
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    assert projector(x1 + x2 + x3).is_zero
    with pytest.raises(ValueError):
        projector(x1 * x1)
    with pytest.raises(ValueError):
        degree_slice(q, -1)


def test_verify_basis_accepts_bn():
    q = graded_quotient("Rn", n=3)
    fam = build_basis_family("Bn", n=3)
    report = verify_basis(q, fam, "Bn", {"n": 3})
    assert report["verdict"] is True
    assert report["dimension"] == 6
    assert report["family_size"] == 6
    assert all(entry["ok"] for entry in report["per_degree"])
    assert report["failures"] == []


def test_verify_basis_pinpoints_dependence():
    q = graded_quotient("Rn", n=3)
    fam = build_basis_family("Bn", n=3)
    degs = [be.degree for be in fam]
    i, j = degs.index(1), len(degs) - 1 - degs[::-1].index(1)
    assert i != j
    fam[j] = fam[i]  # same element twice in one degree
    report = verify_basis(q, fam)
    assert report["verdict"] is False
    dep = [f for f in report["failures"] if f["kind"] == "dependent"]
    assert len(dep) == 1
    assert dep[0]["d"] == 1
    assert dep[0]["position"] == j
    assert dep[0]["label"]["degree"] == 1


def test_verify_basis_pinpoints_count():
    q = graded_quotient("Rn", n=3)
    fam = build_basis_family("Bn", n=3)
    dropped = fam[:-1]  # loses the top-degree element
    report = verify_basis(q, dropped)
    assert report["verdict"] is False
    cnt = [f for f in report["failures"] if f["kind"] == "count"]
    assert cnt and cnt[0]["d"] == 3
    assert cnt[0]["expected"] == 1 and cnt[0]["count"] == 0


# -- the isotypic certificate against the per-element check ------------------------


def _bench_module(name: str):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_sweep_cases():
    return [(case["family"], case["params"]) for case in _bench_module("workloads").sweep_cases()]


def test_every_tracer_target_resolves():
    # the bench tracer wraps these by name; a renamed one would drop its span
    for _, module_name, attr in _bench_module("spans").TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr, None)), attr


def _acceptance_corpus():
    """The rings and parameters of acceptance criteria 1, 2, 4 and 8."""
    cases = [("Rn", {"n": n}) for n in range(2, 7)]
    cases += [
        ("Rnks", {"n": n, "k": k, "s": s})
        for n in range(1, 6)
        for k in range(1, n + 1)
        for s in range(k + 1)
    ]
    cases += [("Rmu", {"mu": list(mu)}) for n in range(1, 7) for mu in partitions(n)]
    cases += [
        ("Rnkmu", {"n": n, "k": k, "mu": [n - 1]}) for n in range(2, 7) for k in range(1, n + 1)
    ]
    return cases


def _full_report(quotient, family, params):
    elements = build_basis_family(FAMILIES[family].basis, **params)
    return verify_basis(quotient, elements, family_name=family, params=params)


@pytest.mark.parametrize(
    "family,params",
    [
        pytest.param(family, params, id=f"{corpus}-{family}-{json.dumps(params, sort_keys=True)}")
        for corpus, cases in (("acceptance", _acceptance_corpus()), ("sweep", _bench_sweep_cases()))
        for family, params in cases
    ],
)
def test_verify_family_matches_verify_basis(family, params):
    quotient = graded_quotient(family, **params)
    assert verify_family(quotient, family, params) == _full_report(quotient, family, params)


@pytest.mark.parametrize(
    "family,params,ring,ring_params",
    [
        # counts differ in degrees 1 and 2; degree 3 matches its count but has rank 0
        ("Rn", {"n": 3}, "Rnks", {"n": 3, "k": 2, "s": 0}),
        # degree 2 matches its count, and its representatives are dependent
        ("Rnks", {"n": 3, "k": 2, "s": 1}, "Rnkmu", {"n": 3, "k": 3, "mu": [2]}),
        # counts differ, with dependent elements in the same degree
        ("Rnks", {"n": 4, "k": 2, "s": 2}, "Rmu", {"mu": [2, 1, 1]}),
    ],
)
def test_verify_family_names_each_failure(family, params, ring, ring_params):
    # an S_n-stable quotient of another ring, on which the family is no basis
    quotient = graded_quotient(ring, **ring_params)
    report = verify_family(quotient, family, params)
    assert report["verdict"] is False
    assert report == _full_report(quotient, family, params)
    assert any(f["kind"] == "dependent" for f in report["failures"])


def _mixed_blocks(report: dict, family) -> set:
    """The (degree, S) that have both a dependent and an independent representative."""
    def key(label):
        return label["degree"], label["S"], tuple(label.get("exponents", ()))

    dependent = {key(f["label"]) for f in report["failures"] if f["kind"] == "dependent"}
    independent = {key(be.label()) for be in family} - dependent
    return {k[:2] for k in dependent} & {k[:2] for k in independent}


def test_verify_family_matches_verify_basis_on_every_ring_of_the_same_n():
    # every family on every FAMILIES quotient with n <= 4, most of them no basis there
    mixed = []
    for n in range(1, 5):
        cases = [(name, params) for name, row in FAMILIES.items() for params in row.sweep(n)]
        for family, params in cases:
            elements = build_basis_family(FAMILIES[family].basis, **params)
            for ring, ring_params in cases:
                quotient = graded_quotient(ring, **ring_params)
                report = verify_family(quotient, family, params)
                assert report == verify_basis(quotient, elements, family, params), (
                    family, params, ring, ring_params,
                )
                if _mixed_blocks(report, elements):
                    mixed.append((family, params, ring, ring_params))
    # only an S with a dependent and an independent representative in one
    # failing degree checks that positions run over T, then exponents
    assert ("Rnks", {"n": 3, "k": 3, "s": 0}, "Rnks", {"n": 3, "k": 2, "s": 0}) in mixed


def test_verify_family_rejects_a_ring_outside_its_proof():
    # (x3 - x1) + m^2 is not S_3-stable: degree 1 has the Hilbert count 2 and
    # a nonzero representative, but x3 - x1 = 0 makes the family rank 1
    x1, x3 = Poly.variable(1, 3), Poly.variable(3, 3)
    unstable = GradedQuotient(
        IdealSpec(3, (x3 - x1, *map(Poly.monomial, monomials_of_degree(3, 2))), 2)
    )
    assert _full_report(unstable, "Rn", {"n": 3})["verdict"] is False
    with pytest.raises(ValueError, match="FAMILIES ring"):
        verify_family(unstable, "Rn", {"n": 3})
    with pytest.raises(ValueError, match="variables"):
        verify_family(graded_quotient("Rn", n=4), "Rn", {"n": 3})


def test_elementary_rows_match_coords_of_the_products():
    # NF(e_j * x^f) formed in the quotient against coords of the product built in Q[x],
    # also past the top degree, where both are []
    for n in range(1, 5):
        for ring, row in FAMILIES.items():
            for params in row.sweep(n):
                q = graded_quotient(ring, **params)
                rows: dict = {}
                for d in range(q.max_degree + 1):
                    free = q.free_monomials(d)
                    for j in range(1, n + 1):
                        for slot, f in enumerate(free):
                            unit = [0] * len(free)
                            unit[slot] = 1
                            want = q.coords(elementary(j, n) * Poly.monomial(f), d + j)
                            assert _times_elementary(q, rows, unit, d, j) == want, (
                                ring, params, d, j, f,
                            )


@pytest.mark.parametrize(
    "family, params", [("Rmu", {"mu": (2, 2, 1)}), ("Rnks", {"n": 4, "k": 3, "s": 1})]
)
def test_elementary_product_against_sympy_groebner_reduce(family, params):
    """NF(e_j * p) from the coordinates of p is the remainder of e_j * p on
    division by a grevlex Groebner basis (variables to sympy as x_n, ..., x_1)."""
    sympy = pytest.importorskip("sympy")
    spec = build_ideal(family, **params)
    q = GradedQuotient(spec)
    n = spec.nvars
    xs = sympy.symbols(f"x1:{n + 1}")

    def to_sympy(p: Poly):
        return sum(
            (sympy.Rational(c) * sympy.Mul(*(x**e for x, e in zip(xs, exp)))
             for exp, c in p.terms.items()),
            sympy.Integer(0),
        )

    basis = sympy.groebner(
        [to_sympy(g) for g in spec.generators], *xs[::-1], order="grevlex", domain="QQ"
    )
    rng = random.Random(2018)
    rows: dict = {}
    for d in range(q.max_degree + 1):
        p = Poly.zero(n)
        for _ in range(4):
            exp = rng.choice(monomials_of_degree(n, d))
            p = p + Poly.monomial(exp, QQ(rng.randint(-5, 5), rng.randint(1, 3)))
        for j in range(1, n + 1):
            got = _times_elementary(q, rows, q.coords(p, d), d, j)
            nf = sum(
                (Poly.monomial(f, c) for f, c in zip(q.free_monomials(d + j), got)), Poly.zero(n)
            )
            want = basis.reduce(to_sympy(elementary(j, n) * p))[1]
            assert sympy.expand(to_sympy(nf) - want) == 0, (d, j, p)


@pytest.mark.slow
@requires_long
def test_e_factor_families_match_verify_basis_on_every_ring_of_n5():
    # the families with e-factors on every n = 5 ring, where most degrees fail; a
    # family of more than 600 elements is skipped to bound the run time
    rings = [(name, params) for name, row in FAMILIES.items() for params in row.sweep(5)]
    checked = 0
    for family in ("Rnk", "Rnks", "Rnkmu"):
        for params in FAMILIES[family].sweep(5):
            elements = build_basis_family(FAMILIES[family].basis, **params)
            if len(elements) > 600:
                continue
            for ring, ring_params in rings:
                quotient = graded_quotient(ring, **ring_params)
                assert verify_family(quotient, family, params) == verify_basis(
                    quotient, elements, family, params
                ), (family, params, ring, ring_params)
                checked += 1
    assert checked >= 20 * len(rings)


def test_b2222_degree_5_is_dependent_already_in_the_polynomial_ring():
    """The one failing ring of n = 8: B_(2,2,2,2) has rank 231 of 295 in degree 5.

    Every dependent element has the same S, with every standard T of its
    shape, and the dependence holds before any reduction: for T0 the first
    failing T, the two degree-5 elements of shape (5,2,1) satisfy
    2 F^{S1} + F^{S2} = 0 in Q[x1..x8], with neither polynomial zero.
    """
    mu = [2, 2, 2, 2]
    report = verify_family(graded_quotient("Rmu", mu=mu), "Rmu", {"mu": mu})
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == (
        "1fc73293f9072c9317c5db660930966f27b542f596cc1a9d91ea5b026c9a723c"
    )
    assert [e for e in report["per_degree"] if not e["ok"]] == [
        {"d": 5, "expected": 295, "count": 295, "rank": 231, "ok": False}
    ]
    failures = report["failures"]
    assert len(failures) == 64
    assert {f["kind"] for f in failures} == {"dependent"}
    s2 = "1 1 2 2 4/3 3/4"
    assert all(f["label"]["shape"] == [5, 2, 1] and f["label"]["S"] == s2 for f in failures)
    assert sorted(f["label"]["T"] for f in failures) == sorted(
        map(format_tableau, standard_tableaux((5, 2, 1)))
    )
    assert (failures[0]["position"], failures[0]["label"]["T"]) == (439, "1 4 6 7 8/2 5/3")
    t0 = parse_tableau("1 4 6 7 8/2 5/3")
    f1 = higher_specht(parse_tableau("1 1 2 3 3/2 4/4"), t0)
    f2 = higher_specht(parse_tableau(s2), t0)
    assert len(f1.terms) == len(f2.terms) == 36
    assert f2 == -2 * f1


@pytest.mark.slow
@requires_long
def test_b3222_degree_5_has_rank_460_of_565():
    """The (3,2,2,2) failure of n = 9: 105 = f^(6,2,1) dependent elements,
    every standard T of one S of shape (6,2,1)."""
    mu = [3, 2, 2, 2]  # built outside the quotient cache, so the tables go with the test
    report = verify_family(GradedQuotient(build_ideal("Rmu", mu=mu)), "Rmu", {"mu": mu})
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == (
        "167ad2f58500f7e654d54e80f197a3956537baaf5178f27958e4dd45257fdcb5"
    )
    assert [e for e in report["per_degree"] if not e["ok"]] == [
        {"d": 5, "expected": 565, "count": 565, "rank": 460, "ok": False}
    ]
    failures = report["failures"]
    assert len(failures) == 105 == len(standard_tableaux((6, 2, 1)))
    assert {f["kind"] for f in failures} == {"dependent"}
    assert len({(f["label"]["S"], tuple(f["label"]["shape"])) for f in failures}) == 1
    assert {f["label"]["T"] for f in failures} == set(
        map(format_tableau, standard_tableaux((6, 2, 1)))
    )


def test_gp_recursion_family_shape():
    for n in range(1, 6):
        for mu in partitions(n):
            fam = gp_recursion_family(mu)
            assert len(fam) == multinomial(mu)
            assert all(be.poly.nvars == n for be in fam)
            for be in fam:
                assert be.poly.is_homogeneous()
                assert be.poly.degree() == be.degree
                assert 0 <= be.xpower < len(mu)


def test_gp_recursion_family_spans():
    for mu in ((2, 1), (2, 2), (3, 1)):
        q = graded_quotient("Rmu", mu=mu)
        fam = gp_recursion_family(mu)
        report = verify_basis(q, fam, "Cmu", {"mu": list(mu)})
        assert report["verdict"] is True, mu


def test_transition_degree_zero_frozen():
    res = transition_matrix((2, 1), 0)
    assert res.matrix == [[QQ(3)]]


def test_transition_expresses_rows_over_columns():
    mu = (2, 2)
    q = graded_quotient("Rmu", mu=mu)
    for d in range(len(q.hilbert)):
        res = transition_matrix(mu, d)
        assert len(res.matrix) == len(res.rows) == len(res.cols) == q.hilbert[d]
        for i, rbe in enumerate(res.rows):
            target = q.coords(rbe.poly, d)
            combo = [QQ(0)] * len(target)
            for j, cbe in enumerate(res.cols):
                cvec = q.coords(cbe.poly, d)
                for slot in range(len(combo)):
                    combo[slot] = combo[slot] + res.matrix[i][j] * cvec[slot]
            assert combo == target, (d, i)


@pytest.mark.parametrize("mu", [(3, 1, 1), (2, 2, 1), (3, 2, 1)])
def test_transition_matches_filtered_full_families(mu):
    # transition_matrix builds only the degree-d family elements; filtering
    # the whole families by degree must give the same rows, columns and matrices
    n = sum(mu)
    q = graded_quotient("Rmu", mu=mu)
    full_rows = build_basis_family("Bmu", mu=mu)
    full_cols = gp_recursion_family(mu)
    for d in range(len(q.hilbert) + 1):
        rows = [be for be in full_rows if be.degree == d]
        rows.sort(key=lambda be: _row_sort_key(be, n))
        cols = [be for be in full_cols if be.degree == d]
        raw = solve_in_span(
            [q.coords(be.poly, d) for be in cols], [q.coords(be.poly, d) for be in rows]
        )
        primitive = [
            [raw[i][j] * cols[j].poly.content() / rows[i].poly.content() for j in range(len(cols))]
            for i in range(len(rows))
        ]
        got = transition_matrix(mu, d, "raw")
        assert (got.rows, got.cols, got.matrix) == (rows, cols, raw), d
        assert transition_matrix(mu, d, "primitive").matrix == primitive, d


def test_transition_primitive_rescales():
    raw = transition_matrix((2, 2), 1, "raw")
    prim = transition_matrix((2, 2), 1, "primitive")
    for i, rbe in enumerate(raw.rows):
        rs = rbe.poly.content()
        for j, cbe in enumerate(raw.cols):
            assert prim.matrix[i][j] == raw.matrix[i][j] * cbe.poly.content() / rs


def test_transition_validation():
    with pytest.raises(ValueError):
        transition_matrix((2, 1), 0, "reduced")
    with pytest.raises(ValueError):
        transition_matrix((1, 2), 0)
    with pytest.raises(ValueError):
        transition_matrix((2, 1), -1)


def test_almost_lower_triangular():
    one, zero = QQ(1), QQ(0)
    ok, witness = almost_lower_triangular([[one, zero], [zero, one]])
    assert ok and witness == [[one, zero], [zero, one]]
    ok, witness = almost_lower_triangular([[zero, one], [one, zero]])
    assert not ok and witness is None
    ok, witness = almost_lower_triangular([[one, one], [zero, one]])
    assert ok
    # witness must be upper triangular with unit-ish leading column
    assert witness[1][0] == 0
    with pytest.raises(ValueError):
        almost_lower_triangular([[one, zero]])


def test_almost_lower_triangular_rational_matrix():
    m = [[QQ(1, 2), QQ(1, 3), QQ(0)], [QQ(2, 5), QQ(-1, 7), QQ(3)], [QQ(1), QQ(1, 4), QQ(-2, 9)]]
    ok, witness = almost_lower_triangular(m)
    assert ok
    assert all(v == int(v) for row in witness for v in row)
    for i in range(3):
        for j in range(i, 3):
            entry = sum(m[i][c] * witness[c][j] for c in range(3))
            assert (entry != 0) == (i == j), (i, j)


def reference_almost_lower_triangular(matrix):
    """The witness column by column: for each j, the first kernel basis vector of
    M[0:j, 0:j+1] with a nonzero dot product with row j, as primitive integers."""
    t = len(matrix)
    cols_a = []
    for j in range(t):
        upper = [[matrix[r][c] for c in range(j + 1)] for r in range(j)]
        target = [matrix[j][c] for c in range(j + 1)]
        pick = next(
            (
                vec
                for vec in kernel_basis(upper, j + 1)
                if sum(target[c] * vec[c] for c in range(j + 1))
            ),
            None,
        )
        if pick is None:
            return False, None
        cols_a.append(_integral_row(pick) + [0] * (t - j - 1))
    return True, [[cols_a[j][i] for j in range(t)] for i in range(t)]


@st.composite
def square_matrices(draw):
    """(kind, M): M square of size 0-7 with int or QQ entries.

    "lu" is L*U with triangular factors of nonzero diagonal, so every leading
    minor is nonzero; "dependent" makes the leading block M_k singular for one
    k; "zero rows" zeroes some rows.
    """
    t = draw(st.integers(0, 7))
    entries = draw(
        st.sampled_from(
            [st.integers(-3, 3), st.builds(QQ, st.integers(-3, 3), st.integers(1, 4))]
        )
    )
    kind = draw(st.sampled_from(["free", "lu", "dependent", "zero rows"]))
    if kind == "lu":
        nonzero = entries.filter(bool)
        lower = [[draw(nonzero) if c == r else draw(entries) if c < r else 0 for c in range(t)]
                 for r in range(t)]
        upper = [[draw(nonzero) if c == r else draw(entries) if c > r else 0 for c in range(t)]
                 for r in range(t)]
        return kind, [
            [sum(lower[r][i] * upper[i][c] for i in range(t)) for c in range(t)]
            for r in range(t)
        ]
    m = draw(st.lists(st.lists(entries, min_size=t, max_size=t), min_size=t, max_size=t))
    if kind == "dependent" and t:
        k = draw(st.integers(1, t))
        coeffs = [draw(entries) for _ in range(k - 1)]
        for c in range(k):
            m[k - 1][c] = sum(coeffs[i] * m[i][c] for i in range(k - 1))
    if kind == "zero rows":
        for r in draw(st.sets(st.integers(0, max(t - 1, 0)), max_size=t)):
            m[r] = [0 * x for x in m[r]]
    return kind, m


@given(square_matrices())
def test_witness_matches_per_column_reference(case):
    kind, m = case
    copy = [list(row) for row in m]
    verdict, witness = almost_lower_triangular(m)
    assert (verdict, witness) == reference_almost_lower_triangular(m)
    assert m == copy
    if kind == "lu":
        assert verdict
    if kind == "dependent" and m or kind == "zero rows" and any(not any(row) for row in m):
        assert not verdict
    if verdict:
        assert all(type(v) is int for row in witness for v in row)
        assert all(witness[j][j] > 0 for j in range(len(m)))


# -- the integer builder: rational fallback, integrality and oracles ----------


def brute_in_ideal(spec: IdealSpec, poly: Poly, d: int) -> bool:
    """Whether a homogeneous degree-d polynomial lies in the ideal, by dense rank."""
    monos = monomials_of_degree(spec.nvars, d)
    rows = _ideal_slice_rows(spec, d, monos)
    return _dense_rank(rows + [_dense_row(poly, monos)]) == _dense_rank(rows)


def _check_against_dense(spec: IdealSpec) -> GradedQuotient:
    q = GradedQuotient(spec)
    assert list(q.hilbert) == brute_hilbert(spec)
    n = spec.nvars
    for g in spec.generators:
        for e in range(q.max_degree + 2 - g.degree()):
            for m in monomials_of_degree(n, e):
                assert q.project(Poly.monomial(m, 1) * g).is_zero, (m, g)
    for d in range(q.max_degree + 1):
        free = q.free_monomials(d)
        for m in monomials_of_degree(n, d):
            recon = Poly.zero(n)
            for slot, c in q.reduce_monomial(m).items():
                recon = recon + c * Poly.monomial(free[slot], 1)
            assert brute_in_ideal(spec, Poly.monomial(m, 1) - recon, d), m
    return q


def _table_entries(q: GradedQuotient):
    for d in range(q.max_degree + 1):
        for m in monomials_of_degree(q.nvars, d):
            yield from q.reduce_monomial(m).values()


def _cubes(n: int) -> list[Poly]:
    return [Poly.variable(i, n) ** 3 for i in range(1, n + 1)]


def test_non_unit_pivot_gives_a_rational_table_entry():
    x1, x2 = Poly.variable(1, 3), Poly.variable(2, 3)
    spec = IdealSpec(3, (2 * x1 + 3 * x2, *_cubes(3)), 7)
    q = _check_against_dense(spec)
    # 3*x2 is the leading term (x2 > x1), so x2 = -2/3 * x1 in the quotient
    fractional = [v for v in _table_entries(q) if not isinstance(v, int)]
    assert fractional
    assert QQ(-2, 3) in fractional
    assert all(v.denominator != 1 for v in fractional)


def test_fraction_coefficient_generators():
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    half = QQ(1, 2)
    spec = IdealSpec(3, (half * x1 - x2, half * x2 * x3 + QQ(1, 3) * x1 * x1, *_cubes(3)), 7)
    q = _check_against_dense(spec)
    # the generator is scaled to x1 - 2*x2, whose leading term is -2*x2
    assert q.free_monomials(1)[1] == (1, 0, 0)
    assert q.reduce_monomial((0, 1, 0)) == {1: QQ(1, 2)}


def test_rational_entries_below_an_integral_degree():
    # x2^2 = -3/2 * x1^2; in degree 3 every V entry is an int, but x2^3,
    # outside V, is -3/2 * x1^2*x2, and the generator x2^4 is routed through it
    x1, x2 = Poly.variable(1, 2), Poly.variable(2, 2)
    gens = (3 * x1 * x1 + 2 * x2 * x2, x1 * x2 * x2, x1**4, x2**4)
    q = _check_against_dense(IdealSpec(2, gens, 5))
    assert q.hilbert == (1, 2, 2, 1)
    assert q.free_monomials(3) == [(2, 1)]
    assert q.reduce_monomial((0, 3)) == {0: QQ(-3, 2)}


def test_table_entries_are_integers():
    for spec in (build_ideal("Rn", n=4), build_ideal("Rmu", mu=(2, 2, 1))):
        q = GradedQuotient(spec)
        assert all(type(v) is int for v in _table_entries(q)), spec.family


def test_sparse_rows_never_hold_a_zero(monkeypatch):
    # Echelon.insert takes rows without zero entries: check every row the builder
    # inserts, then every table row, memoised e_j row and projected term once read
    class CheckedEchelon(Echelon):
        def insert(self, acc):
            assert all(acc.values()), acc
            return super().insert(acc)

    monkeypatch.setattr("spechtpoly.quotient.Echelon", CheckedEchelon)
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    y1, y2 = Poly.variable(1, 2), Poly.variable(2, 2)
    rational = [
        IdealSpec(3, (2 * x1 + 3 * x2, *_cubes(3)), 7),
        IdealSpec(3, (QQ(1, 2) * x1 - x2, QQ(1, 2) * x2 * x3 + QQ(1, 3) * x1 * x1, *_cubes(3)), 7),
        IdealSpec(2, (3 * y1 * y1 + 2 * y2 * y2, y1 * y2 * y2, y1**4, y2**4), 5),
    ]
    rings = [
        build_ideal(ring, **params)
        for n in range(1, 5)
        for ring, row in FAMILIES.items()
        for params in row.sweep(n)
    ]
    for spec in rings + rational:
        q = GradedQuotient(spec)
        n = q.nvars
        if spec.family:  # the characters of an S_n-stable ideal
            graded_frobenius(q)
        rows: dict = {}
        for d in range(q.max_degree + 2):
            monos = monomials_of_degree(n, d)
            q.coords(Poly(n, {m: 1 for m in monos}), d)
            size = len(q.free_monomials(d))
            for j in range(1, n + 1):
                for m in monos:
                    assert all(q.project(elementary(j, n) * Poly.monomial(m, 1)).terms.values())
                for slot in range(size):
                    _times_elementary(q, rows, [int(s == slot) for s in range(size)], d, j)
        for data in q._by_degree:
            assert all(all(row.values()) for row in data.red.values()), spec
        assert all(c for memo in rows.values() for row in memo.values() for _, c in row), spec


@st.composite
def small_ideals(draw):
    """A homogeneous ideal in at most 3 variables that contains every x_i^k."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(2, 3))
    gens = [Poly.variable(i, n) ** k for i in range(1, n + 1)]
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        monos = monomials_of_degree(n, d)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
        gens.append(Poly(n, {m: c for m, c in zip(monos, coeffs) if c}))
    return IdealSpec(n, tuple(gens), n * (k - 1) + 1)


@settings(max_examples=50)
@given(small_ideals())
def test_random_ideals_against_dense_row_reduction(spec):
    q = GradedQuotient(spec)
    assert list(q.hilbert) == brute_hilbert(spec)
    for g in spec.generators:
        assert q.project(g).is_zero


def groebner_hilbert(gens, xs) -> tuple[int, ...]:
    """Hilbert function read off the grevlex leading monomials of a Groebner basis."""
    import sympy

    basis = sympy.groebner(gens, *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    out = []
    d = 0
    while True:
        count = sum(
            1
            for m in monomials_of_degree(len(xs), d)
            if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
        )
        if not count:
            return tuple(out)
        out.append(count)
        d += 1


def test_hilbert_against_sympy_groebner():
    sympy = pytest.importorskip("sympy")

    def elem(r, subset):
        return sum(sympy.Mul(*c) for c in combinations(subset, r))

    xs = sympy.symbols("x1:6")
    rn = [elem(r, xs) for r in range(1, 6)]
    assert groebner_hilbert(rn, xs) == graded_quotient("Rn", n=5).hilbert
    for mu in ((2, 2, 1, 1), (3, 1, 1, 1)):
        # Tanisaki generators: e_r(S) for |S| = k and r > k - (sum of the
        # last k parts of the conjugate of mu, padded with zeros to length n)
        n = sum(mu)
        xs = sympy.symbols(f"x1:{n + 1}")
        conj = [sum(1 for p in mu if p > i) for i in range(n)]
        gens = [
            elem(r, subset)
            for k in range(1, n + 1)
            for subset in combinations(xs, k)
            for r in range(max(1, k - sum(conj[n - k :]) + 1), k + 1)
        ]
        expected = graded_quotient("Rmu", mu=mu).hilbert
        assert groebner_hilbert(gens, xs) == expected, mu


@pytest.mark.parametrize(
    "family, params",
    [
        ("Rn", {"n": 4}),
        ("Rmu", {"mu": (2, 2, 1)}),
        ("Rnks", {"n": 4, "k": 3, "s": 1}),
        ("Rnkmu", {"n": 4, "k": 2, "mu": (3,)}),
    ],
)
def test_project_against_sympy_groebner_reduce(family, params):
    """q.project is the remainder on division by a grevlex Groebner basis.

    The builder's free sets are grevlex normal sets with x_n largest, so
    sympy gets the variables in the order x_n, ..., x_1.
    """
    sympy = pytest.importorskip("sympy")
    spec = build_ideal(family, **params)
    q = GradedQuotient(spec)
    n = spec.nvars
    xs = sympy.symbols(f"x1:{n + 1}")

    def to_sympy(p: Poly):
        return sum(
            (sympy.Rational(c) * sympy.Mul(*(x**e for x, e in zip(xs, exp)))
             for exp, c in p.terms.items()),
            sympy.Integer(0),
        )

    gens = [to_sympy(g) for g in spec.generators]
    basis = sympy.groebner(gens, *xs[::-1], order="grevlex", domain="QQ")
    rng = random.Random(2017)
    for d in range(q.max_degree + 2):
        p = Poly.zero(n)
        for _ in range(4):
            exp = rng.choice(monomials_of_degree(n, rng.randint(0, d)))
            p = p + Poly.monomial(exp, QQ(rng.randint(-5, 5), rng.randint(1, 3)))
        want = basis.reduce(to_sympy(p))[1]
        assert sympy.expand(to_sympy(q.project(p)) - want) == 0, (d, p)


# -- border rows, the commutation oracle and the lazy table ---------------------

# The rings of the integer-builder comparison, plus Rn n=6 and Rmu(3,3,2).
CORPUS = [
    *(("Rmu", {"mu": mu}) for mu in (
        (2, 1, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1), (3, 3, 1),
        (3, 2, 1, 1), (3, 2, 2), (4, 1, 1, 1), (2, 2, 1),
    )),
    ("Rn", {"n": 4}),
    ("Rn", {"n": 5}),
    ("Rnks", {"n": 5, "k": 4, "s": 2}),
    ("Rnks", {"n": 5, "k": 4, "s": 3}),
    ("Rnkmu", {"n": 5, "k": 2, "mu": (3, 1)}),
    ("Rnk", {"n": 6, "k": 2}),
]


def _corpus_id(case):
    family, params = case
    values = (",".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in params.values())
    return "-".join((family, *values))


class _AllRowsQuotient(GradedQuotient):
    """The reference build: every degree from every row of every non-free monomial.

    Those rows span x * I_{d-1} on their own, so this build needs no argument
    about border rows or the chain criterion: K(m) is empty, so no row is
    skipped but the ones that are literally zero.
    """

    def _build_degree(self, d, sources):
        free = self._by_degree[d - 1].free_index
        nonfree = [m for m in monomials_of_degree(self.nvars, d - 1) if m not in free]
        return super()._build_degree(d, nonfree)

    def _chain(self, prev, m):
        return []


def _full_table(q: GradedQuotient):
    return [
        (q.free_monomials(d), {m: q.reduce_monomial(m) for m in monomials_of_degree(q.nvars, d)})
        for d in range(q.max_degree + 1)
    ]


def _times_var(m, k):
    return tuple(e + (v == k) for v, e in enumerate(m))


def _times_vector(vec, k, lower_free, rows):
    """x_k times a vector over lower_free, from the rows of the monomials x_k * f."""
    out = {}
    for slot, c in vec.items():
        for s2, c2 in rows(_times_var(lower_free[slot], k)).items():
            out[s2] = out.get(s2, 0) + c * c2
    return {s: c for s, c in out.items() if c}


def brute_commutes(q: GradedQuotient, d: int) -> bool:
    """x_j * NF(x_i f) == x_i * NF(x_j f) for every free f of degree d-2 and all i < j."""
    mid = q.free_monomials(d - 1)
    nf = q.reduce_monomial
    return all(
        _times_vector(nf(_times_var(f, i)), j, mid, nf)
        == _times_vector(nf(_times_var(f, j)), i, mid, nf)
        for f in q.free_monomials(d - 2)
        for j in range(q.nvars)
        for i in range(j)
    )


def _divisors_free(q: GradedQuotient, d: int) -> bool:
    """Whether a free monomial of degree d divided by any of its variables is free."""
    lower = set(q.free_monomials(d - 1))
    return all(
        tuple(e - (v == i) for v, e in enumerate(m)) in lower
        for m in q.free_monomials(d)
        for i, e in enumerate(m)
        if e
    )


@pytest.mark.parametrize("spec", [build_ideal("Rn", n=4), build_ideal("Rmu", mu=(2, 2, 1))])
def test_certificate_rejects_a_corrupted_table_entry(spec):
    """The commutation oracle has teeth: some corrupted V entry breaks it."""
    q = GradedQuotient(spec)
    rejected = 0
    for d in range(2, q.max_degree + 1):
        top = q._by_degree[d]
        assert brute_commutes(q, d)
        for m in top.vlist:
            row = top.red[m]
            saved = dict(row)
            row[0] = row.get(0, 0) + 1 or 1  # in place: the shift rows share the dict
            rejected += not brute_commutes(q, d)
            row.clear()
            row.update(saved)
        assert brute_commutes(q, d)
    assert rejected


@pytest.mark.parametrize("case", CORPUS, ids=_corpus_id)
def test_border_build_matches_all_rows_build(case):
    family, params = case
    spec = build_ideal(family, **params)
    assert _full_table(GradedQuotient(spec)) == _full_table(_AllRowsQuotient(spec))


@settings(max_examples=50)
@given(small_ideals())
def test_random_ideals_border_build_matches_all_rows_build(spec):
    assert _full_table(GradedQuotient(spec)) == _full_table(_AllRowsQuotient(spec))


@st.composite
def dense_ideals(draw):
    """2-5 variables, every x_i^a, and 1-5 generators of degree 1-4 with up to 8 terms.

    Coefficients are ints or QQs; a <= 3 past 3 variables keeps each example fast.
    """
    n = draw(st.integers(2, 5))
    a = draw(st.integers(2, 5 if n <= 3 else 3))
    gens = [Poly.variable(i, n) ** a for i in range(1, n + 1)]
    coeff = st.integers(-4, 4) | st.builds(QQ, st.integers(-4, 4), st.integers(1, 4))
    for _ in range(draw(st.integers(1, 5))):
        monos = monomials_of_degree(n, draw(st.integers(1, 4)))
        picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=8, unique=True))
        gens.append(Poly(n, {m: draw(coeff) for m in picked}))
    return IdealSpec(n, tuple(gens), n * (a - 1) + 1)


@settings(max_examples=100)
@given(dense_ideals())
def test_dense_ideals_commute_and_match_all_rows_build(spec):
    q = GradedQuotient(spec)
    for d in range(1, q.max_degree + 1):
        assert _divisors_free(q, d), d
        assert d < 2 or brute_commutes(q, d), d
    assert _full_table(q) == _full_table(_AllRowsQuotient(spec))


@pytest.mark.parametrize(
    "case", CORPUS + [("Rn", {"n": 6}), ("Rmu", {"mu": (3, 3, 2)})], ids=_corpus_id
)
def test_no_degree_falls_back(case):
    """The rows the criterion keeps give commuting maps and the pivot count of every degree."""
    family, params = case
    q = GradedQuotient(build_ideal(family, **params))
    assert len(q.build_counts) == q.max_degree + 2  # the last degree built is zero
    for d, (rows, pivots) in enumerate(q.build_counts):
        assert d < 2 or brute_commutes(q, d), d
        assert rows >= pivots
        if d <= q.max_degree:
            assert pivots == len(q._by_degree[d].vlist) - q.hilbert[d]


@pytest.mark.parametrize("spec", [build_ideal("Rn", n=5), build_ideal("Rmu", mu=(3, 2, 1))])
def test_lazy_table_matches_eager_fill(spec):
    q = GradedQuotient(spec)
    eager = []
    for d in range(q.max_degree + 1):
        data = q._by_degree[d]
        table = {m: dict(data.red[m]) for m in data.vlist}
        for m in monomials_of_degree(q.nvars, d):
            if m not in table:
                i = max(v for v, e in enumerate(m) if e)
                low = tuple(e - (v == i) for v, e in enumerate(m))
                table[m] = _times_vector(eager[d - 1][low], i, q.free_monomials(d - 1), table.get)
        eager.append(table)
    # read in descending order, so entries are memoised top-down
    for d in reversed(range(q.max_degree + 1)):
        for m in reversed(monomials_of_degree(q.nvars, d)):
            assert q.reduce_monomial(m) == eager[d][m], m
            assert q.reduce_monomial(m) is q.reduce_monomial(m)  # memoised


@pytest.mark.parametrize("spec", [build_ideal("Rn", n=5), build_ideal("Rmu", mu=(3, 2, 1))])
def test_all_rows_reference_inserts_more_rows(spec):
    def total(q):
        return sum(rows for rows, _ in q.build_counts)

    assert total(_AllRowsQuotient(spec)) > total(GradedQuotient(spec))


def test_build_counts_frozen():
    """(rows, pivots) per degree: a weaker or reverted row criterion shows up here."""
    assert GradedQuotient(build_ideal("Rn", n=5)).build_counts == [
        (0, 0), (1, 1), (5, 5), (14, 13), (26, 25), (41, 38),
        (52, 48), (58, 50), (53, 43), (39, 30), (23, 16), (7, 5),
    ]
    assert GradedQuotient(build_ideal("Rmu", mu=(3, 2, 1))).build_counts == [
        (0, 0), (1, 1), (6, 6), (26, 24), (86, 67), (126, 72),
    ]
    counts = GradedQuotient(build_ideal("Rn", n=6)).build_counts
    assert [sum(col) for col in zip(*counts)] == [1991, 1764]
