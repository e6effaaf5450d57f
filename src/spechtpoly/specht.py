"""Specht and higher Specht polynomials, symmetrizers, and basis families.

The central construction: for a semistandard tableau S with partition
content and a bijective filling T of the same shape, the polynomial
F_T^S applies the Young symmetrizer of T (row symmetrization first,
then signed column antisymmetrization, both unnormalized) to the
monomial whose exponent at variable x_{T(cell)} is the cocharge label
of S at that cell.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from . import perms
from ._linalg import solve_in_span
from .families import BASES, MAX_DIMENSION, MAX_NVARS, lookup
from .polyring import (
    Exponent,
    Poly,
    clear_denominators,
    elementary,
    exact_quotient,
    permute_variables,
)
from .tableaux import (
    Tableau,
    cocharge_label_tableau,
    cocharge_labels,
    conjugate,
    format_tableau,
    last_letter_key,
    partitions,
    reading_word,
    semistandard_tableaux,
    standard_tableaux,
)

# -- symmetrizers ------------------------------------------------------------


def row_group(t: Tableau) -> list[tuple[int, ...]]:
    return [tuple(row) for row in t.rows]


def column_group(t: Tableau) -> list[tuple[int, ...]]:
    return [tuple(row) for row in t.transpose().rows]


def _arrangements(values: tuple[int, ...]) -> list[tuple[tuple[int, ...], bool]]:
    """The distinct rearrangements of a sorted tuple, in lexicographic order,
    each with whether it is odd.

    For distinct values, odd is the sign of the permutation taking values
    to the rearrangement: a rearrangement that starts with the value at
    index i passes the i smaller values before it.  Repeated values meet
    only the unsigned row sum, and get False.
    """
    if len(set(values)) == len(values):
        odd = [False]  # the parities of the lexicographic permutations, built up by length
        for m in range(2, len(values) + 1):
            flipped = [not o for o in odd]
            odd = [o for i in range(m) for o in (flipped if i % 2 else odd)]
        return list(zip(itertools.permutations(values), odd))
    out = []
    for i, v in enumerate(values):
        if i == 0 or values[i - 1] != v:
            rests = _arrangements(values[:i] + values[i + 1 :])
            out += [((v,) + rest, False) for rest, _ in rests]
    return out


def _signed_orbit_sum(
    terms: dict[Exponent, int], groups: Iterable[Sequence[int]], n: int, signed: bool
) -> dict[Exponent, int]:
    """The sum of sigma(terms), times sign(sigma) when signed, over a product of groups.

    Each group is the symmetric group of one set of entries; the sets are
    disjoint, so the orbit of a monomial is every choice of one
    rearrangement of its exponents within each set.  The sum is taken by
    orbits.  Every term first moves to its representative, its exponents
    sorted within each set; when signed it brings the sign of that move,
    and it drops out when two exponents of one set agree, since a
    transposition then fixes it with sign -1.  Each representative with a
    nonzero total is then expanded once over its distinct rearrangements,
    times the order of its stabilizer: the product over the sets of k!
    over the number of rearrangements, which is the product of the
    factorials of the exponent multiplicities, and 1 when signed.
    Distinct representatives have disjoint orbits, so every output term
    is made once.  Integer coefficients.
    """
    groups = [sorted(e - 1 for e in entries) for entries in groups if len(entries) > 1]
    if not groups:
        return terms
    # a term is read in one layout: the exponents outside every group, then each group's
    moved = [i for g in groups for i in g]
    order = sorted(set(range(n)).difference(moved)) + moved
    gather, place = itemgetter(*order), perms.relabeller(order)  # n >= 2: a group has 2 entries
    head = n - len(moved)
    bounds, a = [], head  # each group's slice of the layout
    for g in groups:
        bounds.append((a, a + len(g)))
        a += len(g)
    reps: dict[tuple[int, ...], int] = {}
    for exp, c in terms.items():
        flat = gather(exp)
        rep = list(flat[:head])
        odd = False
        for a, b in bounds:
            values = flat[a:b]
            if signed:
                if len(set(values)) < b - a:
                    break
                for x, y in itertools.combinations(values, 2):
                    odd ^= x > y
            rep += sorted(values)
        else:
            key = tuple(rep)
            reps[key] = reps.get(key, 0) + (-c if odd else c)
    orbits: dict[tuple[int, ...], tuple[list, int]] = {}  # rearrangements, stabilizer order
    out: dict[Exponent, int] = {}
    for rep, c in reps.items():
        if not c:
            continue
        choices = []
        for a, b in bounds:
            values = rep[a:b]
            if values not in orbits:
                arrangements = _arrangements(values)
                orbits[values] = (arrangements, factorial(b - a) // len(arrangements))
            arrangements, stabilizer = orbits[values]
            choices.append(arrangements)
            c *= stabilizer
        fixed = rep[:head]
        for choice in itertools.product(*choices):
            flat, odd = fixed, False
            for values, o in choice:
                flat += values
                odd ^= o
            out[place(flat)] = -c if signed and odd else c
    return out


def _rational_poly(n: int, terms: dict[Exponent, int], scale: int) -> Poly:
    """The polynomial terms / scale; terms is a fresh dict of nonzero ints."""
    if scale == 1:
        return Poly._raw(n, terms)
    return Poly._raw(n, {e: exact_quotient(c, scale) for e, c in terms.items()})


def symmetrizer_bound(t: Tableau, terms: Iterable[Exponent]) -> int:
    """A bound on the terms the Young symmetrizer of T makes from these exponents.

    Per term: its distinct rearrangements within each row of T, times
    (column length)! for each column.  Read off the exponents alone.
    """
    columns = prod(map(factorial, conjugate(t.shape)))
    total = 0
    for exp in terms:
        orbit = columns
        for row in t.rows:
            values = [exp[e - 1] for e in row]
            orbit *= factorial(len(values)) // prod(factorial(values.count(v)) for v in set(values))
        total += orbit
    return total


def apply_symmetrizer(t: Tableau, p: Poly) -> Poly:
    """Apply the (unnormalized) Young symmetrizer of T.

    First sum over the row group, then the signed sum over the column
    group.  Scalars are kept as-is, so results carry factorial factors.
    Both sums run over the integer multiple of p with its denominators
    cleared.  ValueError, before anything is expanded, when
    ``symmetrizer_bound`` exceeds MAX_DIMENSION.
    """
    if not t.is_bijective():
        raise ValueError("symmetrizer needs a bijective filling")
    if t.size > p.nvars:
        raise ValueError("polynomial has too few variables for this tableau")
    bound = symmetrizer_bound(t, p.terms)
    if bound > MAX_DIMENSION:
        raise ValueError(f"T's symmetrizer can make {bound} terms; the size cap is {MAX_DIMENSION}")
    n = p.nvars
    terms, scale = clear_denominators(p.terms)
    rowed = _signed_orbit_sum(terms, row_group(t), n, signed=False)
    return _rational_poly(n, _signed_orbit_sum(rowed, column_group(t), n, signed=True), scale)


# -- Specht polynomials ------------------------------------------------------


def specht_classical(t: Tableau) -> Poly:
    """Product over columns of the differences x_j - x_i for entries i < j."""
    if not t.is_bijective():
        raise ValueError("needs a bijective filling")
    n = t.size
    result = Poly.one(n)
    for col in column_group(t):
        for i, j in itertools.combinations(sorted(col), 2):
            result = result * (Poly.variable(j, n) - Poly.variable(i, n))
    return result


def _check_pair(s: Tableau, t: Tableau) -> None:
    if t.size > MAX_NVARS:  # F_T^S can have n! terms: on one column it is the Vandermonde
        raise ValueError(f"T has {t.size} cells; the size cap is {MAX_NVARS}")
    if s.shape != t.shape:
        raise ValueError(
            f"shape mismatch: S has {s.shape}, T has {t.shape}"
        )
    if not (s.is_semistandard() and is_partition_content(s)):
        raise ValueError("S must be semistandard with partition content")
    if not t.is_bijective():
        raise ValueError("T must be a bijective filling")


def is_partition_content(s: Tableau) -> bool:
    content = s.content()
    return all(content[i] >= content[i + 1] for i in range(len(content) - 1)) and all(
        c > 0 for c in content
    )


def tagged_monomial(s: Tableau, t: Tableau) -> Poly:
    """The monomial whose exponent at x_{T(cell)} is the cocharge label of S there."""
    labels = cocharge_label_tableau(s)
    n = t.size
    exp = [0] * n
    for r, row in enumerate(t.rows):
        for c, entry in enumerate(row):
            exp[entry - 1] = labels[r][c]
    return Poly.monomial(exp)


def higher_specht(s: Tableau, t: Tableau) -> Poly:
    """F_T^S: the symmetrizer of T applied to the cocharge-label monomial of S.

    T may be any bijective filling (for standard T these span the classical
    module); the result is homogeneous of degree cocharge(S).
    """
    _check_pair(s, t)
    return apply_symmetrizer(t, tagged_monomial(s, t))


def higher_specht_family(s: Tableau, fillings: Sequence[Tableau]) -> list[Poly]:
    """F_T^S for every T of ``fillings``, with one symmetrizer application in all.

    F_T0^S is built for T0 = fillings[0] and relabelled onto every other
    T (``_relabel_onto``).  ValueError for a filling of another shape or
    one that is not bijective.
    """
    return _relabel_onto(fillings, higher_specht(s, fillings[0])) if fillings else []


def _relabel_onto(fillings: Sequence[Tableau], p: Poly) -> list[Poly]:
    """sigma_T p for every T of ``fillings``, where sigma_T(T0(c)) = T(c) for every cell c.

    T0 = fillings[0], so the first entry is p.  For p = F_T0^S this is
    F_T^S, because F_{sigma T}^S = sigma F_T^S (Ariki, Terasoma & Yamada
    1997); for p = F_T0^S times a symmetric polynomial it is F_T^S times
    that polynomial.
    """
    t0 = fillings[0]
    out = [p]
    for t in fillings[1:]:
        if t.shape != t0.shape:
            raise ValueError(f"shape mismatch: T0 has {t0.shape}, T has {t.shape}")
        image = {a: b - 1 for r0, r in zip(t0.rows, t.rows) for a, b in zip(r0, r)}
        out.append(permute_variables([image[a] for a in range(1, t.size + 1)], p))
    return out


def dual_specht(s: Tableau, t: Tableau) -> Poly:
    """G_T^S: the transposed symmetrizer applied to the complementary monomial.

    The exponent at x_{T(cell)} is T(cell) - 1 - (cocharge label of S at
    the cell); together with the F-side monomial this multiplies to the
    staircase x2 x3^2 ... xn^(n-1).  Raises when some exponent is negative.
    """
    _check_pair(s, t)
    if not t.is_standard():
        raise ValueError("the dual construction needs T standard")
    (tagged,) = tagged_monomial(s, t).terms
    exp = [i - e for i, e in enumerate(tagged)]
    for i, e in enumerate(exp):
        if e < 0:
            raise ValueError(f"dual polynomial undefined: exponent {e} at entry {i + 1}")
    return apply_symmetrizer(t.transpose(), Poly.monomial(exp))


def bilinear_form(f: Poly, g: Poly):
    """The alternating staircase pairing of two polynomials.

    <f, g> antisymmetrizes f*g, divides by the Vandermonde determinant
    and takes the constant term; concretely it is the signed sum of the
    coefficients of f*g on the staircase exponent permutations.
    """
    if f.nvars != g.nvars:
        raise ValueError("polynomials live in different variable counts")
    n = f.nvars
    product = f * g
    if product.is_zero:
        return 0
    target = n * (n - 1) // 2
    if all(sum(e) != target for e in product.terms):
        return 0
    total = 0
    staircase = tuple(range(n - 1, -1, -1))
    for sigma in perms.all_permutations(n):
        c = product.terms.get(perms.relabeller(sigma)(staircase))
        if c is not None:
            total = total + (c if perms.sign(sigma) > 0 else -c)
    return total


def garnir_apply(t: Tableau, a: int, b: int, row: int, p: Poly) -> Poly:
    """Signed sum over the Garnir set of columns a < b at the pivot row.

    The moved entries are those of column a weakly above ``row`` together
    with those of column b weakly below it (1-based columns and row).
    Applied to any F_T^S of matching shape the result vanishes.
    """
    if not t.is_bijective():
        raise ValueError("needs a bijective filling")
    shape = t.shape
    conj = tuple(sum(1 for q in shape if q > c) for c in range(shape[0] if shape else 0))
    if not 1 <= a < b <= (shape[0] if shape else 0):
        raise ValueError(f"need columns 1 <= a < b <= {shape[0]}")
    if not 1 <= row <= conj[b - 1]:
        raise ValueError(f"row {row} does not meet column {b}")
    entries = [t.rows[r][a - 1] for r in range(row - 1, conj[a - 1])]
    entries += [t.rows[r][b - 1] for r in range(0, row)]
    n = p.nvars
    terms, scale = clear_denominators(p.terms)
    return _rational_poly(n, _signed_orbit_sum(terms, [entries], n, signed=True), scale)


# -- straightening -----------------------------------------------------------


def _poly_to_vector(p: Poly, index: dict) -> list:
    vec = [0] * len(index)
    for e, c in p.terms.items():
        vec[index[e]] = c
    return vec


def straighten(s: Tableau, t: Tableau) -> tuple:
    """Expand F_T^S over the standard tableaux of the shape (last letter order).

    T may be an arbitrary bijective filling.  Returns the coefficient
    tuple aligned with ``standard_tableaux(shape)``.  Raises
    ArithmeticError if the polynomial were outside the span (it never is).
    """
    _check_pair(s, t)
    *basis, target = higher_specht_family(s, standard_tableaux(t.shape) + [t])
    return _expand(basis, [target])[0]


def _expand(basis: list[Poly], targets: list[Poly]) -> list[tuple]:
    """The coefficients of each target over the basis polynomials, solved in Q[x]."""
    support = sorted({e for p in basis + targets for e in p.terms})
    index = {e: i for i, e in enumerate(support)}
    solution = solve_in_span(
        [_poly_to_vector(p, index) for p in basis], [_poly_to_vector(p, index) for p in targets]
    )
    if solution is None:
        raise ArithmeticError(
            "polynomial does not lie in the span of the standard ones"
        )
    return [tuple(row) for row in solution]


# -- basis families ----------------------------------------------------------


class BasisElement(NamedTuple):
    """One spanning-set element: a polynomial plus the data that names it."""

    poly: Poly
    degree: int
    s: Tableau
    t: Tableau
    exponents: tuple[int, ...] = ()
    xpower: int = 0

    def label(self) -> dict:
        out: dict = {
            "degree": self.degree,
            "shape": list(self.s.shape),
            "S": format_tableau(self.s),
            "T": format_tableau(self.t),
        }
        if any(self.exponents):
            out["exponents"] = list(self.exponents)
        if self.xpower:
            out["xpower"] = self.xpower
        return out


def _s_sort_key(s: Tableau):
    return (tuple(-p for p in s.shape), reading_word(s))


def family_sort_key(be: BasisElement):
    """The order ``family_plan`` gives every family; the tests compare against it."""
    return (
        be.degree,
        _s_sort_key(be.s),
        last_letter_key(be.t),
        be.exponents,
        be.xpower,
    )


def _efactor(exponents: Sequence[int], n: int) -> Poly:
    out = Poly.one(n)
    for j, e in enumerate(exponents, start=1):
        if e:
            out = out * elementary(j, n) ** e
    return out


@lru_cache(maxsize=None)
def _content_plan(content: tuple[int, ...]) -> tuple[tuple, ...]:
    """(S, the standard T of its shape, cocharge of S) for every semistandard S of
    the content, in ``_s_sort_key`` order; the standard S of size n for (1^n).

    The S side of every plan of that content, built once per process: it
    holds tableaux and ints only, as ``tableaux`` caches them too.
    """
    s_tableaux = [
        s for shape in partitions(sum(content)) for s in semistandard_tableaux(shape, content)
    ]
    return tuple(
        (s, tuple(standard_tableaux(s.shape)), cocharge_labels(reading_word(s)).cocharge)
        for s in sorted(s_tableaux, key=_s_sort_key)
    )


def family_plan(kind: str, **params) -> tuple[int, list[tuple]]:
    """The variable count of a basis family (see ``families``) and its plan.

    The plan lists (S, fillings, cocharge of S, [(exponents, degree)])
    for every S of the recipe's content that has an element; the
    fillings are every standard T of S's shape, and the element (S, T, a)
    is F_T^S e_1^a1 e_2^a2 ... for T in fillings, of degree the cocharge
    plus the weight of the exponents, so every degree is known before a
    polynomial is built.  The S come in ``_s_sort_key`` order, the
    fillings in last letter order and each S's exponents in
    lexicographic order.  Every recipe's exponent set is closed under
    lowering an entry, so a - delta_j comes before a for every a_j > 0.
    The S side is ``_content_plan``'s, shared by every plan of a content;
    the lists are fresh.  ValueError, before any tableau is enumerated,
    above MAX_NVARS variables.
    """
    row = lookup(BASES, kind)
    content, n, exponent_tuples = row.recipe(**row.check(params))
    if n > MAX_NVARS:
        raise ValueError(f"{kind} {params} is too large; the size cap is n <= {MAX_NVARS}")
    plan = []
    for s, fillings, cc in _content_plan(content):
        degrees = [
            (exps, cc + sum(j * e for j, e in enumerate(exps, start=1)))
            for exps in sorted(exponent_tuples(s))
        ]
        if degrees:
            plan.append((s, list(fillings), cc, degrees))
    return n, plan


def build_basis_family(kind: str, *, degree: int | None = None, **params) -> list[BasisElement]:
    """The spanning family of a basis of the family table (see ``families``).

    ``degree`` restricts the family to its elements of that degree; None
    builds every degree.  Each S gets one symmetrizer application and
    each (S, exponents) one product F_T0^S e^a, relabelled onto every T
    (``_relabel_onto``; e^a is symmetric).  Each e-product is built once
    per call.  Elements come in the plan's order, each S's over T, then
    exponents, stably sorted by degree: the order of ``family_sort_key``.
    ValueError, before any polynomial is built, above MAX_DIMENSION elements.
    """
    n, plan = family_plan(kind, **params)
    wanted = [
        (s, fillings, [(exps, d) for exps, d in degrees if degree in (None, d)])
        for s, fillings, _, degrees in plan
    ]
    size = sum(len(fillings) * len(degrees) for _, fillings, degrees in wanted)
    if size > MAX_DIMENSION:
        raise ValueError(f"{kind} {params} has {size} elements; the size cap is {MAX_DIMENSION}")
    out: list[BasisElement] = []
    efactors: dict[tuple[int, ...], Poly] = {}
    for s, fillings, degrees in wanted:
        if not degrees:
            continue
        base = higher_specht(s, fillings[0])
        images = []
        for exps, d in degrees:
            if any(exps) and exps not in efactors:
                efactors[exps] = _efactor(exps, n)
            product = base * efactors[exps] if any(exps) else base
            images.append((exps, d, _relabel_onto(fillings, product)))
        for i, t in enumerate(fillings):
            out += [BasisElement(polys[i], d, s, t, exps) for exps, d, polys in images]
    out.sort(key=lambda be: be.degree)
    return out
