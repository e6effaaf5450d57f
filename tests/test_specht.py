from __future__ import annotations

import copy
import itertools
from math import factorial

import pytest

from conftest import bijective_fillings, requires_long
from spechtpoly import specht, tableaux
from spechtpoly.families import FAMILIES, MAX_DIMENSION, MAX_NVARS, _bounded_tuples
from spechtpoly.perms import all_permutations
from spechtpoly.polyring import QQ, Poly, elementary, extend_variables, permute_variables
from spechtpoly.quotient import gp_recursion_family
from spechtpoly.specht import (
    BasisElement,
    _s_sort_key,
    apply_symmetrizer,
    bilinear_form,
    build_basis_family,
    dual_specht,
    family_plan,
    family_sort_key,
    garnir_apply,
    higher_specht,
    higher_specht_family,
    specht_classical,
    straighten,
    symmetrizer_bound,
    tagged_monomial,
)
from spechtpoly.tableaux import (
    cocharge,
    cocharge_label_tableau,
    enumerate_tableaux,
    last_letter_key,
    parse_tableau,
    partitions,
    reading_word,
    semistandard_tableaux,
    standard_count,
    standard_tableaux,
)


def x(i, n):
    return Poly.variable(i, n)


def poly_product(factors, n):
    out = Poly.one(n)
    for f in factors:
        out = out * f
    return out


def has_exact_coefficients(p):
    """Each coefficient is an int when integral, else a QQ with denominator > 1."""
    return all(
        type(c) is int or (isinstance(c, QQ) and c.denominator > 1) for c in p.terms.values()
    )


def naive_symmetrizer(t, p):
    """Row-symmetrize then column-antisymmetrize by brute force.

    Independent of the library implementation: builds the two permutation
    groups with itertools and sums explicitly.
    """
    n = p.nvars

    def setwise(groups):
        perms = [()]
        base = list(range(n))
        out = []
        for assignment in itertools.product(
            *[itertools.permutations(g) for g in groups]
        ):
            sigma = base[:]
            for g, image in zip(groups, assignment):
                for a, b in zip(g, image):
                    sigma[a - 1] = b - 1
            out.append(tuple(sigma))
        return out

    def sign(sigma):
        seen = [False] * len(sigma)
        s = 1
        for i in range(len(sigma)):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = sigma[j]
                ln += 1
            if ln % 2 == 0:
                s = -s
        return s

    rows = [tuple(r) for r in t.rows]
    cols = [
        tuple(t.rows[r][c] for r in range(len(t.rows)) if len(t.rows[r]) > c)
        for c in range(len(t.rows[0]))
    ]
    rowed = Poly.zero(n)
    for sigma in setwise(rows):
        rowed = rowed + permute_variables(sigma, p)
    total = Poly.zero(n)
    for sigma in setwise(cols):
        total = total + sign(sigma) * permute_variables(sigma, rowed)
    return total


# -- construction oracles --------------------------------------------------------


def test_symmetrizer_small_frozen():
    # single box column of height 2: x1 |-> x1 + ... antisymmetrized
    t = parse_tableau("1 2/3")
    p = x(1, 3)
    assert apply_symmetrizer(t, p) == x(1, 3) - x(3, 3)


def test_symmetrizer_matches_naive():
    cases = [
        (parse_tableau("1 2/3"), x(1, 3) * x(1, 3) + x(2, 3)),
        (parse_tableau("1 3/2 4"), x(2, 4) * x(4, 4)),
        (parse_tableau("1 2 3/4"), x(4, 4) * x(4, 4) * x(1, 4)),
        # non-integer coefficients: the denominators are cleared and restored
        (
            parse_tableau("1 3/2 4"),
            QQ(1, 2) * x(1, 4) * x(1, 4) - QQ(2, 3) * x(2, 4) * x(3, 4) + 5 * x(4, 4) * x(1, 4),
        ),
    ]
    for t, p in cases:
        got = apply_symmetrizer(t, p)
        assert got == naive_symmetrizer(t, p)
        assert has_exact_coefficients(got)


def test_symmetrizer_matches_naive_on_every_pair_up_to_n4():
    for n in range(1, 5):
        for lam in partitions(n):
            fillings = bijective_fillings(lam)
            semis = [
                s
                for nu in partitions(n)
                for s in enumerate_tableaux(lam, nu)
            ]
            for s in semis:
                for t in fillings:
                    p = tagged_monomial(s, t)
                    got = apply_symmetrizer(t, p)
                    assert got == naive_symmetrizer(t, p), (s.rows, t.rows)
                    assert has_exact_coefficients(got)


def test_symmetrizer_matches_naive_at_the_first_t_for_n5_and_short_shapes_of_n6():
    # past n = 4 rows repeat labels: (6) has the stabilizer 6! on S = 1 1 1 1 1 1
    shapes = list(partitions(5)) + [lam for lam in partitions(6) if len(lam) <= 2]
    for lam in shapes:
        t = standard_tableaux(lam)[0]
        for nu in partitions(sum(lam)):
            for s in enumerate_tableaux(lam, nu):
                p = tagged_monomial(s, t)
                got = apply_symmetrizer(t, p)
                assert got == naive_symmetrizer(t, p), (s.rows, t.rows)
                assert has_exact_coefficients(got)


def test_tagged_monomial_frozen():
    s = parse_tableau("1 2 5/3 4 6/7")
    t = parse_tableau("1 3 6/2 4 7/5")
    m = tagged_monomial(s, t)
    assert m == Poly.monomial((0, 1, 0, 1, 3, 1, 2), 1)


def test_higher_specht_two_cells():
    s = parse_tableau("1/2")
    t = parse_tableau("1/2")
    assert higher_specht(s, t) == x(2, 2) - x(1, 2)


def test_higher_specht_frozen_shape_21():
    s = parse_tableau("1 1/2")
    t = parse_tableau("1 2/3")
    f = higher_specht(s, t)
    assert f == 2 * (x(3, 3) - x(1, 3))


def test_higher_specht_degree_is_cocharge():
    for n in range(2, 6):
        for lam in partitions(n):
            for s in enumerate_tableaux(lam):
                d = cocharge(reading_word(s))
                for t in standard_tableaux(lam):
                    f = higher_specht(s, t)
                    assert not f.is_zero
                    assert f.is_homogeneous()
                    assert f.degree() == d


def test_higher_specht_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        higher_specht(parse_tableau("1 1/2"), parse_tableau("1 2 3"))
    with pytest.raises(ValueError):
        # S content must be a partition
        higher_specht(parse_tableau("1 2/2"), parse_tableau("1 2/3"))


# -- classical Specht polynomials -------------------------------------------------


def test_specht_classical_frozen():
    t = parse_tableau("1 3 6/2 4 7/5")
    n = 7
    expected = poly_product(
        [
            x(2, n) - x(1, n),
            x(5, n) - x(1, n),
            x(5, n) - x(2, n),
            x(4, n) - x(3, n),
            x(7, n) - x(6, n),
        ],
        n,
    )
    assert specht_classical(t) == expected


def test_specht_classical_one_row_and_column():
    assert specht_classical(parse_tableau("1 2 3")) == Poly.one(3)
    t = parse_tableau("1/2/3")
    assert specht_classical(t) == poly_product(
        [x(2, 3) - x(1, 3), x(3, 3) - x(1, 3), x(3, 3) - x(2, 3)], 3
    )


def test_row_superstandard_proportionality():
    """With S having all-i rows, the higher polynomial is the classical one
    scaled by the row group size."""
    for shape in ((2, 1), (3, 2), (2, 2, 1)):
        s = parse_tableau(
            "/".join(" ".join(str(r + 1) for _ in range(ln)) for r, ln in enumerate(shape))
        )
        scale = 1
        for ln in shape:
            scale *= factorial(ln)
        for t in standard_tableaux(shape):
            assert higher_specht(s, t) == scale * specht_classical(t)


def test_two_row_closed_form(rng):
    """Shape (n-d, d): the higher polynomial for the two-letter S factors as
    d!(n-d)! times a product of column differences, for every bijective
    filling, standard or not."""
    for n, d in ((3, 1), (4, 2), (5, 2), (6, 3)):
        shape = (n - d, d)
        s = parse_tableau(
            " ".join("1" for _ in range(n - d)) + "/" + " ".join("2" for _ in range(d))
        )
        scale = factorial(d) * factorial(n - d)
        fillings = bijective_fillings(shape)
        sample = fillings if len(fillings) <= 40 else rng.sample(fillings, 40)
        for t in sample:
            expected = scale * poly_product(
                [x(t.rows[1][i], n) - x(t.rows[0][i], n) for i in range(d)], n
            )
            assert higher_specht(s, t) == expected


# -- Garnir relations and equivariance --------------------------------------------


def all_garnir_moves(shape):
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0])]
    for a in range(1, shape[0] + 1):
        for b in range(a + 1, shape[0] + 1):
            for t in range(1, conj[b - 1] + 1):
                yield a, b, t


def test_garnir_annihilation_exhaustive_small():
    for n in range(2, 6):
        for lam in partitions(n):
            if len(lam) == 1:
                continue
            tabs = standard_tableaux(lam)
            contents = [nu for nu in partitions(n)]
            ss = [
                s
                for nu in contents
                for s in enumerate_tableaux(lam, nu)
            ]
            for s in ss:
                for t in tabs:
                    f = higher_specht(s, t)
                    for a, b, row in all_garnir_moves(lam):
                        g = garnir_apply(t, a, b, row, f)
                        assert g.is_zero, (lam, s.rows, t.rows, (a, b, row))


def test_garnir_matches_naive_signed_sum():
    # the signed sum over the permutations of the moved entries, by brute force
    t = parse_tableau("1 2 3/4 5")
    p = QQ(1, 3) * x(1, 5) ** 2 * x(4, 5) - 2 * x(2, 5) * x(5, 5) + x(3, 5)
    conj = [sum(1 for q in t.shape if q > c) for c in range(t.shape[0])]
    for a, b, row in all_garnir_moves(t.shape):
        entries = [t.rows[r][a - 1] for r in range(row - 1, conj[a - 1])]
        entries += [t.rows[r][b - 1] for r in range(row)]
        want = Poly.zero(5)
        for sigma in all_permutations(5):
            if all(sigma[i - 1] == i - 1 for i in range(1, 6) if i not in entries):
                sign = 1
                for i, j in itertools.combinations(range(5), 2):
                    if sigma[i] > sigma[j]:
                        sign = -sign
                want = want + sign * permute_variables(sigma, p)
        got = garnir_apply(t, a, b, row, p)
        assert got == want, (a, b, row)
        assert has_exact_coefficients(got)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("Bn", {"n": 4}),
        ("Bnk", {"n": 4, "k": 2}),
        ("Bnks", {"n": 4, "k": 3, "s": 1}),
        ("Bmu", {"mu": (2, 1, 1)}),
        ("Bnkmu", {"n": 4, "k": 3, "mu": (3,)}),
    ],
)
def test_degree_restricted_family_is_its_degree_slice(kind, params):
    full = build_basis_family(kind, **params)
    for d in range(-1, max(be.degree for be in full) + 2):
        assert build_basis_family(kind, degree=d, **params) == [
            be for be in full if be.degree == d
        ], d


@pytest.mark.parametrize("ring", sorted(FAMILIES))
def test_recipes_pair_each_s_with_every_standard_t(ring):
    # the recipes name a content only; family_plan pairs each S with every standard T of
    # its shape, which the isotypic certificate of quotient.verify_family rests on
    row = FAMILIES[ring]
    for n in range(1, 6):
        for params in row.sweep(n):
            _, plan = family_plan(row.basis, **params)
            assert plan, (ring, params)
            for s, fillings, _, _ in plan:
                assert fillings == standard_tableaux(s.shape), (ring, params, s)


def test_bounded_tuples_are_the_bounded_product_in_order():
    for length in range(5):
        for bound in range(-1, 6):
            expected = [
                t for t in itertools.product(range(max(bound, 0)), repeat=length) if sum(t) < bound
            ]
            assert list(_bounded_tuples(length, bound)) == expected, (length, bound)


@pytest.mark.parametrize(
    "basis, params",
    [("Bn", {"n": 11}), ("Bnks", {"n": 7, "k": 7, "s": 0})],  # n > 10; 7^7 > 9! elements
)
def test_family_size_cap_comes_before_any_polynomial(monkeypatch, basis, params):
    def built(*args, **kwargs):
        raise AssertionError("a higher Specht polynomial was built")

    monkeypatch.setattr(specht, "higher_specht", built)
    with pytest.raises(ValueError, match="the size cap is"):
        build_basis_family(basis, **params)


def test_family_plan_caps_n_before_any_tableau(monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("a tableau was enumerated")

    monkeypatch.setattr(tableaux, "enumerate_tableaux", enumerated)
    with pytest.raises(ValueError, match="the size cap is n <= 10"):
        family_plan("Bmu", mu=(11,))


def test_symmetrizer_bound_bounds_the_terms():
    for n in range(1, 6):
        for lam in partitions(n):
            for s in standard_tableaux(lam):
                for t in standard_tableaux(lam):
                    bound = symmetrizer_bound(t, tagged_monomial(s, t).terms)
                    assert len(higher_specht(s, t).terms) <= bound
    t = parse_tableau("1 2 3/4 5")
    assert symmetrizer_bound(t, [(0, 0, 1, 0, 0)]) == 3 * 2 * 2
    assert symmetrizer_bound(t, [(0, 0, 1, 0, 0), (1, 1, 1, 0, 2)]) == 12 + 1 * 2 * 4


def test_symmetrizer_term_cap_admits_nine_cells_of_one_column_not_ten(monkeypatch):
    calls = []

    def summed(terms, *args, **kwargs):
        calls.append(len(terms))
        return terms

    monkeypatch.setattr(specht, "_signed_orbit_sum", summed)
    nine, ten = (parse_tableau("/".join(map(str, range(1, m + 1)))) for m in (9, 10))
    assert symmetrizer_bound(nine, tagged_monomial(nine, nine).terms) == MAX_DIMENSION
    higher_specht(nine, nine)  # the bound is the cap itself: admitted
    assert calls == [1, 1]
    with pytest.raises(ValueError, match="can make 3628800 terms; the size cap is 362880"):
        higher_specht(ten, ten)
    assert calls == [1, 1]


def _plan_symmetrizer_bounds(max_n):
    """(ring, params, S) and the symmetrizer bound of F_T0^S for every plan entry of
    every basis over sweep(n), n <= max_n, whose ring passes build_ideal's size
    guard.  Only exponents are read; no polynomial is built."""
    for ring, row in FAMILIES.items():
        for n in range(1, max_n + 1):
            for params in row.sweep(n):
                if n > MAX_NVARS or row.dimension(**row.check(params)) > MAX_DIMENSION:
                    continue
                for s, fillings, _, _ in family_plan(row.basis, **params)[1]:
                    t0, exp = fillings[0], [0] * n
                    for entries, labels in zip(t0.rows, cocharge_label_tableau(s)):
                        for e, label in zip(entries, labels):
                            exp[e - 1] = label
                    yield (ring, params, str(s)), symmetrizer_bound(t0, [tuple(exp)])


def test_no_family_reaches_the_symmetrizer_term_cap():
    assert [key for key, bound in _plan_symmetrizer_bounds(8) if bound > MAX_DIMENSION] == []


@requires_long
def test_no_family_reaches_the_symmetrizer_term_cap_up_to_n10():
    assert [key for key, bound in _plan_symmetrizer_bounds(10) if bound > MAX_DIMENSION] == []


def test_family_plan_builds_the_s_side_once_per_content(monkeypatch):
    calls = []
    real = specht.cocharge_labels

    def counted(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(specht, "cocharge_labels", counted)
    specht._content_plan.cache_clear()
    family_plan("Bn", n=5)
    assert len(calls) == sum(standard_count(lam) for lam in partitions(5))  # every standard S
    calls.clear()
    n, plan = family_plan("Bnk", n=5, k=3)  # content (1^5) again
    assert calls == []
    want = copy.deepcopy(plan)
    for _, fillings, _, degrees in plan:
        fillings.reverse()
        degrees.clear()
    plan.clear()
    assert family_plan("Bnk", n=5, k=3) == (n, want)


def test_family_plan_lists_the_full_family_at_the_first_t():
    # the representatives quotient.verify_family ranks, read off the shared plan
    for row in FAMILIES.values():
        for n in range(1, 6):
            for params in row.sweep(n):
                full = build_basis_family(row.basis, **params)
                nvars, plan = family_plan(row.basis, **params)
                reps = []
                for s, fillings, cc, degrees in plan:
                    assert fillings[0] == standard_tableaux(s.shape)[0]
                    assert higher_specht(s, fillings[0]).degree() == cc
                    reps += [BasisElement(None, d, s, fillings[0], exps) for exps, d in degrees]
                reps.sort(key=lambda be: be.degree)  # as verify_family groups them
                first = {be.s: standard_tableaux(be.s.shape)[0] for be in full}
                want = [be for be in full if be.t == first[be.s]]
                assert [(be.s, be.t, be.exponents, be.degree) for be in reps] == [
                    (be.s, be.t, be.exponents, be.degree) for be in want
                ], (row.basis, params)
                assert sum(standard_count(be.s.shape) for be in reps) == len(full)
                assert all(be.poly.nvars == nvars for be in full)


@pytest.mark.parametrize("ring", sorted(FAMILIES))
def test_family_plan_decides_the_family_order(ring):
    # build_basis_family, verify_family and the recursion family read this order and sort
    # by degree only: the S strictly increasing, each S's exponents strictly increasing
    # lexicographically with every a - delta_j listed before a
    row = FAMILIES[ring]
    for n in range(1, 7):
        for params in row.sweep(n):
            _, plan = family_plan(row.basis, **params)
            keys = [_s_sort_key(s) for s, *_ in plan]
            assert all(a < b for a, b in zip(keys, keys[1:])), params
            for s, _, _, degrees in plan:
                exponents = [exps for exps, _ in degrees]
                assert all(a < b for a, b in zip(exponents, exponents[1:])), (params, s)
                for i, exps in enumerate(exponents):
                    for j, e in enumerate(exps):
                        if e:
                            lower = exps[:j] + (e - 1,) + exps[j + 1 :]
                            assert lower in exponents[:i], (params, s, exps)


@pytest.mark.parametrize("ring", sorted(FAMILIES))
def test_families_come_in_family_sort_key_order(ring):
    row = FAMILIES[ring]
    # Bnks at n = 6 has 180,137 elements and takes minutes; its plan order is pinned above
    for n in range(1, 6 if ring == "Rnks" else 7):
        for params in row.sweep(n):
            family = build_basis_family(row.basis, **params)
            assert family == sorted(family, key=family_sort_key), params


def test_gp_recursion_family_is_in_its_full_order():
    def full_key(be):  # power of x_n, then the child family's S and T
        return (be.degree, be.xpower, _s_sort_key(be.s), last_letter_key(be.t))

    for n in range(1, 7):
        for mu in partitions(n):
            family = gp_recursion_family(mu)
            assert family == sorted(family, key=full_key), mu


def test_garnir_randomized_n6(rng):
    lam = (3, 2, 1)
    tabs = standard_tableaux(lam)
    ss = enumerate_tableaux(lam, (3, 2, 1)) + standard_tableaux(lam)
    moves = list(all_garnir_moves(lam))
    for _ in range(25):
        s = rng.choice(ss)
        t = rng.choice(tabs)
        a, b, row = rng.choice(moves)
        assert garnir_apply(t, a, b, row, higher_specht(s, t)).is_zero


def test_equivariance_exhaustive_small():
    """Permuting the variables of F_T^S matches relabeling T's entries."""
    for lam in ((2, 1), (2, 2), (3, 1)):
        n = sum(lam)
        for s in standard_tableaux(lam):
            for t in standard_tableaux(lam):
                f = higher_specht(s, t)
                for sigma in all_permutations(n):
                    moved = t.replace_entries(
                        {e: sigma[e - 1] + 1 for e in range(1, n + 1)}
                    )
                    assert permute_variables(sigma, f) == higher_specht(s, moved)


# -- family construction by relabelling ------------------------------------------


def test_families_match_the_direct_definition():
    """Every element built by relabelling F_T0^S equals its direct definition:
    higher_specht(S, T), extended to n variables, times x_n^xpower and the
    e-factor.  Each F_T^S and each e-factor is computed once, by the oracle."""
    specht, efactor = {}, {}

    def direct(be, n):
        if (be.s, be.t) not in specht:
            specht[be.s, be.t] = higher_specht(be.s, be.t)
        if (be.exponents, n) not in efactor:
            efactor[be.exponents, n] = poly_product(
                (elementary(j, n) ** e for j, e in enumerate(be.exponents, start=1)), n
            )
        f = extend_variables(specht[be.s, be.t], n) * x(n, n) ** be.xpower
        return f * efactor[be.exponents, n]

    cases = [
        (row.basis, row.check(params))
        for row in FAMILIES.values()
        for n in range(1, 6)
        for params in row.sweep(n)
    ]
    cases += [("Bmu", {"mu": mu}) for mu in partitions(6)]
    for kind, params in cases:
        family = build_basis_family(kind, **params)
        n = family[0].poly.nvars
        for be in family:
            assert be.poly == direct(be, n), (kind, params, be.label())
    for mu in ((3, 2, 1), (2, 2, 1, 1)):
        for be in gp_recursion_family(mu):
            assert be.poly == direct(be, 6), (mu, be.label())


def test_higher_specht_family_relabels_the_first_filling():
    s = parse_tableau("1 1 2/2 3")
    fillings = bijective_fillings((3, 2))[::7]
    assert higher_specht_family(s, fillings) == [higher_specht(s, t) for t in fillings]
    assert higher_specht_family(s, []) == []
    with pytest.raises(ValueError):
        higher_specht_family(s, [fillings[0], parse_tableau("1 2 3 4/5")])
    with pytest.raises(ValueError):
        higher_specht_family(s, [fillings[0], parse_tableau("1 2 3/4 4")])


def test_tableau_lists_are_fresh_copies():
    # the enumerations are memoised; mutating a returned list must not reach the memo
    for get in (
        lambda: standard_tableaux((3, 2)),
        lambda: semistandard_tableaux((3, 2), (2, 2, 1)),
    ):
        before = tuple(get())
        mutated = get()
        mutated.reverse()
        mutated.append(mutated[0])
        assert tuple(get()) == before


def test_family_builds_one_symmetrizer_per_s(monkeypatch):
    """Call counts, not times: one symmetrizer application per S (not per
    (S, T)), and a repeated build enumerates no tableaux."""
    import spechtpoly.specht as specht
    import spechtpoly.tableaux as tableaux

    calls = {"symmetrizer": 0, "enumerate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name, key in (
        (specht, "apply_symmetrizer", "symmetrizer"),
        (tableaux, "enumerate_tableaux", "enumerate"),
    ):
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    family = build_basis_family("Bmu", mu=(3, 2, 1))
    assert len(family) == 60
    assert calls["symmetrizer"] == len({be.s for be in family}) < len(family)
    calls["enumerate"] = 0
    assert build_basis_family("Bmu", mu=(3, 2, 1)) == family
    assert calls["enumerate"] == 0


# -- bilinear form and duals ------------------------------------------------------


def test_bilinear_form_frozen():
    assert bilinear_form(x(2, 2), Poly.one(2)) == QQ(-1)
    assert bilinear_form(x(1, 2), Poly.one(2)) == QQ(1)
    # wrong total degree short-circuits to zero
    assert bilinear_form(Poly.one(2), Poly.one(2)) == QQ(0)
    assert bilinear_form(x(1, 3) * x(2, 3), x(3, 3)) == QQ(0)


def test_dual_monomial_product_is_staircase():
    """The raw exponents of the dual monomial complement the tagged monomial
    to x_1^0 x_2^1 ... x_n^(n-1), whenever all of them are nonnegative."""
    from spechtpoly.tableaux import cocharge_label_tableau

    for lam in partitions(4):
        n = 4
        staircase = Poly.monomial(tuple(range(n)), 1)
        tabs = standard_tableaux(lam)
        for s in tabs:
            labels = cocharge_label_tableau(s)
            for t in tabs:
                exp = [0] * n
                ok = True
                for r, row in enumerate(t.rows):
                    for c, entry in enumerate(row):
                        e = entry - 1 - labels[r][c]
                        if e < 0:
                            ok = False
                        exp[entry - 1] = e
                if ok:
                    m = Poly.monomial(tuple(exp), 1)
                    assert m * tagged_monomial(s, t) == staircase
                else:
                    with pytest.raises(ValueError):
                        dual_specht(s, t)


def test_dual_degree_and_undefined_pairs():
    for lam in ((2, 1), (2, 2), (3, 1, 1)):
        n = sum(lam)
        top = n * (n - 1) // 2
        for s in standard_tableaux(lam):
            d = cocharge(reading_word(s))
            for t in standard_tableaux(lam):
                try:
                    g = dual_specht(s, t)
                except ValueError:
                    continue
                if g.is_zero:
                    continue
                assert g.is_homogeneous()
                assert g.degree() == top - d
    # a pair that forces a negative exponent exists already at n=4
    with pytest.raises(ValueError):
        dual_specht(parse_tableau("1 4/2/3"), parse_tableau("1 2/3/4"))


def test_dual_can_vanish_identically():
    # the complementary monomial has equal exponents inside one alternating
    # set, so the transposed symmetrizer kills it outright
    g = dual_specht(parse_tableau("1 2 4/3"), parse_tableau("1 3 4/2"))
    assert g.is_zero


def test_dual_triangularity_exhaustive():
    """<F_{T1}, G_{T2}> vanishes whenever T1 comes earlier in last letter
    order than T2; on the diagonal it is nonzero as long as G itself is
    nonzero (true throughout n = 4; at n = 5 rare nonzero-G diagonal zeros
    appear, e.g. shape (2,2,1))."""
    for lam in ((2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2)):
        n = sum(lam)
        for s in standard_tableaux(lam):
            tabs = standard_tableaux(lam)
            for i, t1 in enumerate(tabs):
                for j, t2 in enumerate(tabs):
                    try:
                        g = dual_specht(s, t2)
                    except ValueError:
                        continue
                    v = bilinear_form(higher_specht(s, t1), g)
                    if i < j:
                        assert v == 0, (lam, s.rows, i, j)
                    elif i == j and n <= 4 and not g.is_zero:
                        assert v != 0, (lam, s.rows, i)


# -- straightening ------------------------------------------------------------------


def test_straighten_standard_is_unit_vector():
    lam = (3, 2)
    s = parse_tableau("1 1 1/2 2")
    tabs = standard_tableaux(lam)
    for i, t in enumerate(tabs):
        coeffs = straighten(s, t)
        assert coeffs == tuple(QQ(1) if j == i else QQ(0) for j in range(len(tabs)))


def test_straighten_frozen_identities():
    """Three hand-worked expansions of non-standard fillings of shape (3,2).

    Basis order (last letter): (24/135), (34/125), (25/134), (35/124), (45/123),
    written here bottom row first.
    """
    s = parse_tableau("1 1 1/2 2")
    cases = [
        ("1 2 5/4 3", (-1, 1, 0, 0, 0)),
        ("1 2 4/5 3", (0, 0, -1, 1, 0)),
        ("1 2 3/5 4", (1, 0, -1, 0, 1)),
    ]
    for text, expected in cases:
        got = straighten(s, parse_tableau(text))
        assert got == tuple(QQ(c) for c in expected), (text, got)


def test_straighten_respects_linearity(rng):
    # a permuted standard tableau straightens back with coefficients that
    # reproduce the polynomial exactly
    lam = (2, 2)
    s = parse_tableau("1 1/2 2")
    tabs = standard_tableaux(lam)
    basis = [higher_specht(s, t) for t in tabs]
    for filling in bijective_fillings(lam):
        coeffs = straighten(s, filling)
        recon = Poly.zero(4)
        for c, b in zip(coeffs, basis):
            recon = recon + c * b
        assert recon == higher_specht(s, filling)


# -- families -------------------------------------------------------------------------


def test_family_bn_sizes():
    for n in range(1, 6):
        fam = build_basis_family("Bn", n=n)
        assert len(fam) == factorial(n)
        for be in fam:
            assert be.poly.degree() == be.degree
            assert be.poly.is_homogeneous()


def test_family_bnk_is_bnkk():
    a = build_basis_family("Bnk", n=4, k=2)
    b = build_basis_family("Bnks", n=4, k=2, s=2)
    assert [be.poly for be in a] == [be.poly for be in b]


def test_family_bnk0_size():
    for n, k in ((2, 1), (3, 2), (4, 2), (4, 3)):
        fam = build_basis_family("Bnks", n=n, k=k, s=0)
        assert len(fam) == k**n, (n, k)


def test_family_validation():
    with pytest.raises(ValueError):
        build_basis_family("Bnks", n=3, k=4, s=0)  # k > n
    with pytest.raises(ValueError):
        build_basis_family("Bnks", n=3, k=2, s=3)  # s > k
    with pytest.raises(ValueError):
        build_basis_family("Bnks", n=3, k=2, s=-1)  # s >= 0
    with pytest.raises(ValueError):
        build_basis_family("Bnks", n=3, k=0, s=0)  # k >= 1, as for the ring
    with pytest.raises(ValueError):
        build_basis_family("Bnkmu", n=4, k=2, mu=(2, 1))  # mu must be (n-1,)
    with pytest.raises(TypeError):
        build_basis_family("Bn", n=3, k=2)  # stray parameter


def test_basis_elements_are_immutable():
    be = build_basis_family("Bn", n=2)[-1]
    with pytest.raises(AttributeError):
        be.degree = 0
    t = parse_tableau("2/1")
    moved = be._replace(t=t)
    assert moved.t == t and moved.poly == be.poly and be.t != t


def test_family_bmu_sizes():
    from math import comb

    def multinomial(mu):
        n = sum(mu)
        out = 1
        for p in mu:
            out *= comb(n, p)
            n -= p
        return out

    for n in range(1, 6):
        for mu in partitions(n):
            fam = build_basis_family("Bmu", mu=mu)
            assert len(fam) == multinomial(mu), mu


def test_family_bnkmu_sizes():
    for n in range(2, 6):
        for k in range(1, n + 1):
            fam = build_basis_family("Bnkmu", n=n, k=k, mu=(n - 1,))
            assert len(fam) == k + (k - 1) * (n - 1), (n, k)


def test_family_bn1mu_is_single_constant():
    fam = build_basis_family("Bnkmu", n=4, k=1, mu=(3,))
    assert len(fam) == 1
    only = fam[0].poly
    assert only.degree() == 0 and not only.is_zero
