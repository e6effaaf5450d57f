from __future__ import annotations

from math import factorial

import pytest

from spechtpoly.perms import conjugacy_class_size
from spechtpoly.quotient import GradedQuotient, build_ideal, graded_quotient
from spechtpoly.symfunc import (
    GradedSchurExpansion,
    character_table,
    graded_frobenius,
    grfrob_formula_rnk,
    grfrob_formula_rnkmu,
    hall_littlewood_cocharge,
    irreducible_block_check,
    qbinomial,
    qpoly_mul,
)
from spechtpoly.tableaux import parse_tableau, partitions, standard_count


# -- characters -----------------------------------------------------------------


def test_character_table_n3_frozen():
    ct = character_table(3)
    assert ct.shapes == ((3,), (2, 1), (1, 1, 1))
    assert ct.classes == ((3,), (2, 1), (1, 1, 1))
    assert [ct.chi((3,), rho) for rho in ct.classes] == [1, 1, 1]
    assert [ct.chi((1, 1, 1), rho) for rho in ct.classes] == [1, -1, 1]
    assert [ct.chi((2, 1), rho) for rho in ct.classes] == [-1, 0, 2]


def test_character_small_values():
    ct = character_table(2)
    assert ct.chi((2,), (2,)) == 1
    assert ct.chi((1, 1), (2,)) == -1


def test_character_dimension_and_orthogonality():
    for n in range(1, 7):
        ct = character_table(n)
        fact = factorial(n)
        sizes = [conjugacy_class_size(rho) for rho in ct.classes]
        assert sum(sizes) == fact
        for lam in ct.shapes:
            assert ct.chi(lam, (1,) * n) == standard_count(lam)
        for lam in ct.shapes:
            for nu in ct.shapes:
                dot = sum(
                    size * ct.chi(lam, rho) * ct.chi(nu, rho)
                    for size, rho in zip(sizes, ct.classes)
                )
                assert dot == (fact if lam == nu else 0), (lam, nu)


def test_character_sign_and_conjugate():
    from spechtpoly.tableaux import conjugate
    from spechtpoly.perms import from_cycle_type, sign

    ct = character_table(5)
    for lam in ct.shapes:
        for rho in ct.classes:
            eps = sign(from_cycle_type(rho, 5))
            assert ct.chi(conjugate(lam), rho) == eps * ct.chi(lam, rho)


# -- q-binomials ------------------------------------------------------------------


def box_partition_counts(a: int, b: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial via partitions in a box."""
    if b < 0 or a < 0 or b > a:
        return ()
    w, h = a - b, b
    counts = [0] * (w * h + 1)

    def rec(remaining_rows: int, maxpart: int, total: int):
        counts[total] += 1
        if remaining_rows == 0:
            return
        for p in range(1, maxpart + 1):
            rec(remaining_rows - 1, p, total + p)

    rec(h, w, 0)
    return tuple(counts)


def test_qbinomial_frozen_and_oracle():
    assert qbinomial(4, 2) == (1, 1, 2, 1, 1)
    assert qbinomial(3, 0) == (1,)
    assert qbinomial(3, 3) == (1,)
    assert qbinomial(2, 3) == ()
    assert qbinomial(-1, 0) == ()
    for a in range(8):
        for b in range(a + 1):
            got = qbinomial(a, b)
            assert got == box_partition_counts(a, b), (a, b)
            assert got == qbinomial(a, a - b)
            assert got == tuple(reversed(got))
            assert len(got) == b * (a - b) + 1
            assert sum(got) == factorial(a) // (factorial(b) * factorial(a - b))


def test_qpoly_mul():
    assert qpoly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert qpoly_mul((), (1, 2)) == ()
    assert qpoly_mul((2,), (0, 1)) == (0, 2)


# -- the expansion container -------------------------------------------------------


def test_expansion_operations():
    e = GradedSchurExpansion(3)
    e.add_term(0, (3,), 1)
    e.add_term(2, (2, 1), 2)
    e.add_term(2, (2, 1), -2)  # cancels out
    assert e.coeffs == {(0, (3,)): 1}
    e.add_term(1, (2, 1), 1)
    f = e + e
    assert f.coeffs == {(0, (3,)): 2, (1, (2, 1)): 2}
    g = e.scaled((1, 1), shift=1)
    assert g.coeffs == {
        (1, (3,)): 1,
        (2, (3,)): 1,
        (2, (2, 1)): 1,
        (3, (2, 1)): 1,
    }
    assert e.reversed_q().coeffs == {(1, (3,)): 1, (0, (2, 1)): 1}
    assert e.hilbert() == (1, 2)
    assert e.max_degree() == 1
    assert str(e) == "s[3] + q*s[2,1]"
    assert e.to_jsonable() == [
        {"q": 0, "shape": [3], "coeff": 1},
        {"q": 1, "shape": [2, 1], "coeff": 1},
    ]
    with pytest.raises(ValueError):
        e + GradedSchurExpansion(4)
    assert str(GradedSchurExpansion(2)) == "0"


def test_expansion_equality_and_repr():
    e, f = GradedSchurExpansion(3), GradedSchurExpansion(3)
    assert e == f and e != GradedSchurExpansion(4)
    e.add_term(1, [2, 1], 2)
    assert e != f and e != {(1, (2, 1)): 2}
    f.add_term(1, (2, 1), 2)
    assert e == f
    assert repr(e) == "GradedSchurExpansion(n=3, coeffs={(1, (2, 1)): 2})"
    assert GradedSchurExpansion(2).coeffs is not GradedSchurExpansion(2).coeffs
    with pytest.raises(TypeError):
        hash(e)  # mutable


def test_expansion_str_powers():
    e = GradedSchurExpansion(2)
    e.add_term(3, (1, 1), 4)
    assert str(e) == "q^3*4*s[1,1]"


# -- graded Frobenius --------------------------------------------------------------


def test_frobenius_r3_frozen():
    g = graded_frobenius(graded_quotient("Rn", n=3))
    assert g.coeffs == {
        (0, (3,)): 1,
        (1, (2, 1)): 1,
        (2, (2, 1)): 1,
        (3, (1, 1, 1)): 1,
    }


def test_frobenius_degree_zero_is_trivial_rep():
    for spec in (
        build_ideal("Rn", n=4),
        build_ideal("Rnk", n=4, k=2),
        build_ideal("Rmu", mu=(2, 1)),
    ):
        g = graded_frobenius(GradedQuotient(spec))
        n = spec.nvars
        assert g.coeffs[(0, (n,))] == 1


def test_frobenius_hilbert_matches_quotient():
    for spec in (
        build_ideal("Rn", n=4),
        build_ideal("Rnks", n=3, k=2, s=1),
        build_ideal("Rmu", mu=(2, 2)),
    ):
        q = GradedQuotient(spec)
        assert graded_frobenius(q).hilbert() == q.hilbert


def test_hall_littlewood_single_row_and_21():
    for n in range(1, 5):
        h = hall_littlewood_cocharge((n,))
        assert h.coeffs == {(0, (n,)): 1}
    assert hall_littlewood_cocharge((2, 1)).coeffs == {
        (0, (3,)): 1,
        (1, (2, 1)): 1,
    }


def test_hall_littlewood_matches_quotient_frobenius():
    """The cocharge generating function over semistandard tableaux is the
    graded character of the corresponding quotient, for every content."""
    for n in range(1, 6):
        for mu in partitions(n):
            a = hall_littlewood_cocharge(mu)
            b = graded_frobenius(graded_quotient("Rmu", mu=mu))
            assert a.coeffs == b.coeffs, mu


def test_formula_rnk_matches_quotient():
    for n in range(1, 5):
        for k in range(1, n + 1):
            a = graded_frobenius(graded_quotient("Rnk", n=n, k=k))
            b = grfrob_formula_rnk(n, k)
            assert a.coeffs == b.coeffs, (n, k)


def test_formula_rnk_full_k_is_coinvariant_character():
    for n in range(1, 5):
        assert (
            grfrob_formula_rnk(n, n).coeffs
            == hall_littlewood_cocharge((1,) * n).coeffs
        )


def test_formula_rnk_trivial_case():
    assert grfrob_formula_rnk(2, 1).coeffs == {(0, (2,)): 1}
    with pytest.raises(ValueError):
        grfrob_formula_rnk(3, 4)
    with pytest.raises(ValueError):
        grfrob_formula_rnk(3, 0)


def test_formula_rnkmu_matches_quotient():
    for n in range(2, 5):
        for m in range(1, n + 1):
            for mu in partitions(m):
                for k in range(max(1, len(mu)), n + 1):
                    a = graded_frobenius(
                        graded_quotient("Rnkmu", n=n, k=k, mu=mu)
                    )
                    b = grfrob_formula_rnkmu(n, k, mu)
                    assert a.coeffs == b.coeffs, (n, k, mu)


def _same_expansion(a, b) -> bool:
    """Equal as data and in every rendering a report prints."""
    return (a.coeffs, a.to_jsonable(), str(a), a.hilbert()) == (
        b.coeffs, b.to_jsonable(), str(b), b.hilbert()
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_formula_rnkmu_specialises_to_rnk_and_rmu(n):
    """R_{n,k} = R_{n,k,(1^k)} and R_mu = R_{|mu|,l(mu),mu}: the family table
    evaluates the closed formula of R_n, R_{n,k} and R_mu through Griffin's."""
    for k in range(1, n + 1):
        assert _same_expansion(grfrob_formula_rnk(n, k), grfrob_formula_rnkmu(n, k, (1,) * k))
    for mu in partitions(n):
        assert _same_expansion(hall_littlewood_cocharge(mu), grfrob_formula_rnkmu(n, len(mu), mu))


def test_formula_rnkmu_hook_display():
    """For mu = (n-1) the character collapses to
    q^(k-1) H[(n)] + (1 + q + ... + q^(k-2)) H[(n-1,1)]."""
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            got = grfrob_formula_rnkmu(n, k, (n - 1,))
            expected = hall_littlewood_cocharge((n,)).scaled((1,), shift=k - 1)
            if k > 1:
                expected = expected + hall_littlewood_cocharge((n - 1, 1)).scaled(
                    (1,) * (k - 1)
                )
            assert got.coeffs == expected.coeffs, (n, k)


def test_formula_rnkmu_validation():
    with pytest.raises(ValueError):
        grfrob_formula_rnkmu(2, 2, (2, 1))  # |mu| > n
    with pytest.raises(ValueError):
        grfrob_formula_rnkmu(4, 1, (2, 1))  # k below number of parts


# -- block checks -----------------------------------------------------------------


def test_irreducible_block_check_r3():
    q = graded_quotient("Rn", n=3)
    res = irreducible_block_check(parse_tableau("1 1/2"), q)
    assert res["ok"] is True
    assert res["shape"] == [2, 1]
    assert res["dimension"] == res["expected_dimension"] == 2
    # classes come in the partitions(3) order: (3), (2,1), (1,1,1)
    assert res["expected_character"] == [-1, 0, 2]
    assert res["character"] == res["expected_character"]


def test_irreducible_block_check_all_bmu_blocks():
    from spechtpoly.specht import build_basis_family

    for mu in partitions(4):
        q = graded_quotient("Rmu", mu=mu)
        seen = set()
        for be in build_basis_family("Bmu", mu=mu):
            key = be.s.rows
            if key in seen:
                continue
            seen.add(key)
            res = irreducible_block_check(be.s, q)
            assert res["ok"] is True, (mu, be.s.rows)


def test_irreducible_block_check_size_mismatch():
    q = graded_quotient("Rn", n=3)
    with pytest.raises(ValueError):
        irreducible_block_check(parse_tableau("1 1 1 2/2"), q)
