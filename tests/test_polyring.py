from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtpoly.perms import relabeller, sign
from spechtpoly.polyring import (
    QQ,
    Poly,
    elementary,
    extend_variables,
    monomials_of_degree,
    permute_variables,
    vandermonde,
)

x1 = Poly.variable(1, 3)
x2 = Poly.variable(2, 3)
x3 = Poly.variable(3, 3)


def random_poly(draw_coeffs, draw_exps) -> Poly:
    terms = {}
    for c, e in zip(draw_coeffs, draw_exps):
        terms[tuple(e)] = terms.get(tuple(e), 0) + QQ(c)
    return sum(
        (Poly.monomial(e, c) for e, c in terms.items()), Poly.zero(3)
    )


coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=5)
exps = st.lists(
    st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3))),
    min_size=0,
    max_size=5,
)
polys = st.builds(
    random_poly,
    coeffs,
    exps,
)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + Poly.zero(3) == f
    assert f * Poly.one(3) == f
    assert f - f == Poly.zero(3)


@settings(max_examples=40, deadline=None)
@given(polys)
def test_scalar_and_neg(f):
    assert 2 * f == f + f
    assert -1 * f == -f
    assert 0 * f == Poly.zero(3)


def test_zero_and_equality_with_scalars():
    assert Poly.zero(3) == 0
    assert Poly.one(3) == 1
    assert Poly.constant(3, QQ(5, 2)) == QQ(5, 2)
    assert x1 != 0
    assert (x1 - x1).is_zero


def test_monomial_ordering_is_degree_then_ascending_lex():
    # largest term first: x2^2 comes before x1*x2 which comes before x1^2
    f = x1 * x1 + x1 * x2 + x2 * x2
    exponents = [e for e, _ in f.sorted_terms()]
    assert exponents == [(0, 2, 0), (1, 1, 0), (2, 0, 0)]
    # degree dominates
    g = x1 * x1 * x1 + x2
    assert [e for e, _ in g.sorted_terms()] == [(3, 0, 0), (0, 1, 0)]


def test_str_rendering():
    f = -QQ(5, 4) * x1 * x1 * x3 + x2
    assert str(f) == "-5/4*x1^2*x3 + x2"
    assert str(Poly.zero(3)) == "0"
    assert str(x1 - x2) == "-x2 + x1"


def test_degree_and_homogeneity():
    assert Poly.zero(3).degree() == -1
    assert Poly.one(3).degree() == 0
    f = x1 * x2 + x3
    assert f.degree() == 2
    assert not f.is_homogeneous()
    assert (x1 * x2).is_homogeneous()
    parts = f.homogeneous_components()
    assert set(parts) == {1, 2}
    assert parts[2] == x1 * x2
    assert f.homogeneous_component(1) == x3
    assert f.homogeneous_component(5).is_zero


def test_pow():
    f = x1 + x2
    assert f**0 == Poly.one(3)
    assert f**3 == f * f * f
    with pytest.raises(ValueError):
        f ** (-1)


def test_evaluate():
    f = x1 * x1 - 2 * x2 * x3
    assert f.evaluate((QQ(1), QQ(2), QQ(3))) == QQ(1) - QQ(12)
    assert Poly.one(3).evaluate((QQ(0), QQ(0), QQ(0))) == 1


def test_coefficient_lookup():
    f = 3 * x1 * x2 - x3
    assert f.coefficient((1, 1, 0)) == 3
    assert f.coefficient((0, 0, 1)) == -1
    assert f.coefficient((2, 0, 0)) == 0


def test_content_and_primitive_part():
    f = QQ(4, 3) * x1 + QQ(2, 3) * x2
    assert f.content() == QQ(2, 3)
    assert f.primitive_part() == 2 * x1 + x2
    # content is positive even when the leading coefficient is negative
    g = -4 * x1 - 6 * x2
    assert g.content() == 2
    assert g.primitive_part() == -2 * x1 - 3 * x2
    # zero has content 1 by convention so primitive_part is total
    assert Poly.zero(3).content() == 1


def test_monomials_of_degree():
    ms = monomials_of_degree(2, 3)
    assert ms == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(monomials_of_degree(3, 4)) == 15  # C(3+4-1, 4-1) with reps
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]


def test_elementary():
    assert elementary(0, 3) == Poly.one(3)
    assert elementary(1, 3) == x1 + x2 + x3
    assert elementary(2, 3) == x1 * x2 + x1 * x3 + x2 * x3
    assert elementary(3, 3) == x1 * x2 * x3
    assert elementary(4, 3).is_zero
    # restricted to a subset of the variables (1-based indices)
    assert elementary(2, 3, indices=(1, 3)) == x1 * x3
    assert elementary(1, 3, indices=(2,)) == x2


def test_vandermonde():
    v = vandermonde(3)
    assert v == (x1 - x2) * (x1 - x3) * (x2 - x3)
    assert vandermonde(1) == Poly.one(1)


def test_permute_variables():
    f = x1 * x1 + 2 * x2
    # sigma sends position i to sigma[i]; here swap variables 1 and 3
    sigma = (2, 1, 0)
    assert permute_variables(sigma, f) == x3 * x3 + 2 * x2
    # identity fixes everything
    assert permute_variables((0, 1, 2), f) == f


def test_permute_variables_is_action(rng):
    from spechtpoly.perms import all_permutations

    f = x1 * x1 * x2 + 3 * x3 - x2
    for a in all_permutations(3):
        for b in all_permutations(3):
            lhs = permute_variables(a, permute_variables(b, f))
            rhs = permute_variables(tuple(a[i] for i in b), f)  # b first, then a
            assert lhs == rhs


def test_permute_variables_rejects_non_permutations():
    # a repeated image used to overwrite a coefficient: (0, 0, 2) sent x1 + x2 to x1
    for sigma in ((0, 0, 2), (0, 1), (0, 1, 2, 3), (1, 2, 3), (0, 1, -1)):
        with pytest.raises(ValueError):
            permute_variables(sigma, x1 + x2)
    one = Poly.variable(1, 1)
    assert permute_variables((0,), 2 * one) == 2 * one
    assert permute_variables((), Poly.constant(0, 3)) == Poly.constant(0, 3)


def test_relabeller_moves_the_exponent_at_i_to_sigma_i():
    # x1^2 x2 under the transposition (1 2) is x1 x2^2
    assert relabeller((1, 0))((2, 1)) == (1, 2)
    # x1^3 x2 x3^2 under x1 -> x2 -> x3 -> x1 is x2^3 x3 x1^2
    assert relabeller((1, 2, 0))((3, 1, 2)) == (2, 3, 1)
    assert relabeller(())(()) == ()
    assert relabeller((0,))((4,)) == (4,)


def test_relabeller_agrees_with_permute_variables(rng):
    from spechtpoly.perms import all_permutations

    for n in range(5):
        for sigma in all_permutations(n):
            relabel = relabeller(sigma)
            for _ in range(3):
                e = tuple(rng.randrange(4) for _ in range(n))
                moved = permute_variables(sigma, Poly.monomial(e, 3))
                assert moved == Poly.monomial(relabel(e), 3)
                assert type(relabel(e)) is tuple


def test_signed_orbit_sum_matches_the_sum_over_every_permutation(rng):
    from spechtpoly.specht import _signed_orbit_sum

    n = 6
    for groups in (
        [(2, 4, 5)],
        [(1, 2, 3), (4, 6)],
        [(6, 1), (3,), (5, 2, 4)],
        [(1, 2, 3, 4, 5, 6)],
    ):
        for signed in (False, True):
            for _ in range(12):
                terms: dict = {}
                for _ in range(rng.randrange(1, 6)):
                    exp = tuple(rng.randrange(3) for _ in range(n))  # exponents repeat
                    terms[exp] = terms.get(exp, 0) + rng.choice((-3, -1, 1, 2, 5))
                terms = {e: c for e, c in terms.items() if c}
                want: dict = {}
                for images in itertools.product(*(itertools.permutations(g) for g in groups)):
                    sigma = list(range(n))
                    for g, image in zip(groups, images):
                        for a, b in zip(g, image):
                            sigma[a - 1] = b - 1
                    negate = signed and sign(sigma) < 0
                    for exp, c in terms.items():
                        moved = [0] * n
                        for i, e in enumerate(exp):
                            moved[sigma[i]] = e  # x_i -> x_sigma(i)
                        key = tuple(moved)
                        want[key] = want.get(key, 0) + (-c if negate else c)
                want = {e: c for e, c in want.items() if c}
                got = _signed_orbit_sum(dict(terms), groups, n, signed)
                assert got == want, (groups, signed, terms)
                assert all(type(c) is int and c for c in got.values())


def test_extend_variables():
    f = Poly.variable(1, 2) * Poly.variable(2, 2)
    g = extend_variables(f, 4)
    assert g.nvars == 4
    assert g == Poly.variable(1, 4) * Poly.variable(2, 4)
    with pytest.raises(ValueError):
        extend_variables(g, 2)


def test_fraction_coefficients_interoperate():
    # Fraction inputs should be accepted whatever QQ resolves to
    f = Poly.monomial((1, 0, 0), Fraction(1, 2))
    assert f + f == x1


# -- the int-first coefficient rule -----------------------------------------------

_mixed_coeffs = st.one_of(
    st.integers(-9, 9),
    st.builds(QQ, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6))),
)
_mixed_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in range(3))), _mixed_coeffs, max_size=5
).map(lambda terms: Poly(3, terms))


def is_exact(c) -> bool:
    """An int when the value is integral, else a QQ with denominator > 1."""
    return type(c) is int or (isinstance(c, QQ) and c.denominator > 1)


def exact_poly(p: Poly) -> bool:
    return all(is_exact(c) for c in p.terms.values())


def rational_copy(p: Poly) -> Poly:
    """The same polynomial with every coefficient held as a QQ."""
    return Poly._raw(p.nvars, {e: QQ(c) for e, c in p.terms.items()})


def no_float(p: Poly) -> bool:
    return not any(isinstance(c, float) for c in p.terms.values())


@settings(max_examples=80)
@given(
    _mixed_polys,
    _mixed_polys,
    _mixed_coeffs,
    st.integers(0, 3),
    st.tuples(_mixed_coeffs, _mixed_coeffs, _mixed_coeffs),
)
def test_mixed_coefficients_match_rational_arithmetic(f, g, c, k, point):
    assert exact_poly(f) and exact_poly(g)
    qf, qg, qc = rational_copy(f), rational_copy(g), QQ(c)
    pairs = [
        (f + g, qf + qg),
        (f - g, qf - qg),
        (f * g, qf * qg),
        (f**k, qf**k),
        (c * f, qc * qf),
        (f * c, qf * qc),
        (-f, -qf),
        (f.primitive_part(), qf.primitive_part()),
    ]
    for got, want in pairs:
        assert got == want
        assert exact_poly(got)
        assert no_float(want)
    for got, want in ((f.content(), qf.content()), (f.evaluate(point), qf.evaluate(point))):
        assert got == want
        assert is_exact(got)
        assert not isinstance(want, float)


def test_integral_values_become_ints():
    half = Poly.monomial((1, 0, 0), QQ(1, 2))
    assert type((half + half).coefficient((1, 0, 0))) is int
    assert type((2 * half).coefficient((1, 0, 0))) is int
    assert type((half * half * 4).coefficient((2, 0, 0))) is int
    assert type(Poly.constant(3, QQ(6, 3)).coefficient((0, 0, 0))) is int
    assert type(Poly.one(3).evaluate((QQ(1, 2), 0, 0))) is int
    assert (half + x1).coefficient((1, 0, 0)) == QQ(3, 2)
    assert type((3 * x1 + QQ(1, 3) * x2).content()) is QQ
