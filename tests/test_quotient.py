from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from spechtpoly.polyring import QQ, Poly, elementary, monomials_of_degree
from spechtpoly.quotient import (
    GradedQuotient,
    IdealSpec,
    almost_lower_triangular,
    build_ideal,
    degree_slice,
    gp_recursion_family,
    graded_quotient,
    transition_matrix,
    verify_basis,
)
from spechtpoly.specht import build_basis_family
from spechtpoly.tableaux import partitions


def multinomial(mu):
    n = sum(mu)
    out = 1
    for p in mu:
        out *= comb(n, p)
        n -= p
    return out


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
        rows = []
        for g in spec.generators:
            gd = g.degree()
            if gd > d:
                continue
            for m in monomials_of_degree(n, d - gd):
                prod = Poly.monomial(m, 1) * g
                row = []
                for mm in monos:
                    c = prod.terms.get(mm)
                    row.append(
                        Fraction(0)
                        if c is None
                        else Fraction(int(c.numerator), int(c.denominator))
                    )
                rows.append(row)
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
        dim = len(monos) - rank
        if dim == 0:
            return out
        out.append(dim)
        d += 1
        assert d <= spec.degree_cap + 1, "runaway brute-force Hilbert loop"


def test_hilbert_r3_r4_frozen():
    assert graded_quotient(build_ideal("Rn", n=3)).hilbert == (1, 2, 2, 1)
    assert graded_quotient(build_ideal("Rn", n=4)).hilbert == (1, 3, 5, 6, 5, 3, 1)


def test_hilbert_against_dense_row_reduction():
    specs = [build_ideal("Rmu", mu=mu) for mu in partitions(4)]
    specs.append(build_ideal("Rnk", n=3, k=2))
    specs.append(build_ideal("Rnks", n=3, k=2, s=1))
    specs.append(build_ideal("Rnkmu", n=4, k=2, mu=(3,)))
    for spec in specs:
        assert list(graded_quotient(spec).hilbert) == brute_hilbert(spec), spec.family


def test_dimension_rmu_is_multinomial():
    for n in range(1, 6):
        for mu in partitions(n):
            q = graded_quotient(build_ideal("Rmu", mu=mu))
            assert q.dimension == multinomial(mu), mu


def test_dimension_rnk0_is_k_power_n():
    for n in range(1, 5):
        for k in range(1, 4):
            if k > n:
                continue
            q = graded_quotient(build_ideal("Rnks", n=n, k=k, s=0))
            assert q.dimension == k**n, (n, k)


def test_rn_hilbert_is_symmetric_and_sums_to_factorial():
    from math import factorial

    for n in range(1, 6):
        h = graded_quotient(build_ideal("Rn", n=n)).hilbert
        assert h == tuple(reversed(h))
        assert sum(h) == factorial(n)
        assert len(h) == comb(n, 2) + 1


def test_generator_level_cache_sharing():
    # the one-column partition presents the same generators as the full
    # coinvariant ideal, so the cached quotient object is literally shared
    q1 = graded_quotient(build_ideal("Rn", n=3))
    q2 = graded_quotient(build_ideal("Rmu", mu=(1, 1, 1)))
    assert q1 is q2
    q3 = graded_quotient(build_ideal("Rnk", n=4, k=2))
    q4 = graded_quotient(build_ideal("Rnkmu", n=4, k=2, mu=(1, 1)))
    assert q3 is q4
    # and the cache is keyed on content, not on object identity
    assert graded_quotient(build_ideal("Rn", n=3)) is q1


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
    q = graded_quotient(build_ideal("Rn", n=3))
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
    q = graded_quotient(build_ideal("Rn", n=3))
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
    q = graded_quotient(build_ideal("Rn", n=3))
    rank, projector = degree_slice(q, 1)
    assert rank == 3 - 2 == 1
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    assert projector(x1 + x2 + x3).is_zero
    with pytest.raises(ValueError):
        projector(x1 * x1)
    with pytest.raises(ValueError):
        degree_slice(q, -1)


def test_verify_basis_accepts_bn():
    q = graded_quotient(build_ideal("Rn", n=3))
    fam = build_basis_family("Bn", n=3)
    report = verify_basis(q, fam, "Bn", {"n": 3})
    assert report["verdict"] is True
    assert report["dimension"] == 6
    assert report["family_size"] == 6
    assert all(entry["ok"] for entry in report["per_degree"])
    assert report["failures"] == []


def test_verify_basis_pinpoints_dependence():
    q = graded_quotient(build_ideal("Rn", n=3))
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
    q = graded_quotient(build_ideal("Rn", n=3))
    fam = build_basis_family("Bn", n=3)
    dropped = fam[:-1]  # loses the top-degree element
    report = verify_basis(q, dropped)
    assert report["verdict"] is False
    cnt = [f for f in report["failures"] if f["kind"] == "count"]
    assert cnt and cnt[0]["d"] == 3
    assert cnt[0]["expected"] == 1 and cnt[0]["count"] == 0


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
        q = graded_quotient(build_ideal("Rmu", mu=mu))
        fam = gp_recursion_family(mu)
        report = verify_basis(q, fam, "Cmu", {"mu": list(mu)})
        assert report["verdict"] is True, mu


def test_transition_degree_zero_frozen():
    res = transition_matrix((2, 1), 0)
    assert res.matrix == [[QQ(3)]]


def test_transition_expresses_rows_over_columns():
    mu = (2, 2)
    q = graded_quotient(build_ideal("Rmu", mu=mu))
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
