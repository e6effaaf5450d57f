"""Symmetric-function layer: characters, Schur expansions, graded Frobenius."""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple, Sequence

from ._linalg import dependent_rows
from .perms import conjugacy_class_size, from_cycle_type, relabeller
from .polyring import QQ, permute_variables
from .quotient import GradedQuotient
from .specht import _expand, higher_specht_family
from .tableaux import (
    Partition,
    Tableau,
    check_partition,
    cocharge,
    conjugate,
    contains,
    descent_stats,
    partitions,
    reading_word,
    semistandard_tableaux,
    standard_count,
    standard_tableaux,
)

# -- characters of the symmetric group ---------------------------------------


@lru_cache(maxsize=None)
def _mn_char(lam: Partition, rho: Partition) -> int:
    """Murnaghan-Nakayama evaluation chi^lam(rho) on beta numbers."""
    if not rho:
        return 1 if not lam else 0
    r, rest = rho[0], rho[1:]
    size = len(lam)
    beta = [lam[i] + (size - 1 - i) for i in range(size)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((x for x in beta if x != b), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = tuple(
            p for i, x in enumerate(newbeta) if (p := x - (size - 1 - i)) > 0
        )
        term = _mn_char(newlam, rest)
        total += -term if height % 2 else term
    return total


class CharacterTable(NamedTuple):
    n: int
    shapes: tuple[Partition, ...]
    classes: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]

    def chi(self, lam: Sequence[int], rho: Sequence[int]) -> int:
        i = self.shapes.index(tuple(lam))
        j = self.classes.index(tuple(rho))
        return self.values[i][j]


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """Irreducible characters of S_n; rows and columns both run over partitions."""
    shapes = tuple(partitions(n))
    values = tuple(
        tuple(_mn_char(lam, rho) for rho in shapes) for lam in shapes
    )
    sizes = tuple(conjugacy_class_size(rho) for rho in shapes)
    return CharacterTable(n, shapes, shapes, values, sizes)


# -- graded Schur expansions --------------------------------------------------


class GradedSchurExpansion:
    """Nonnegative integer combination of Schur functions with a q-grading."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[tuple[int, Partition], int] | None = None):
        self.n = n
        self.coeffs = {} if coeffs is None else coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.coeffs) == (other.n, other.coeffs)

    def __repr__(self) -> str:
        return f"GradedSchurExpansion(n={self.n!r}, coeffs={self.coeffs!r})"

    def add_term(self, d: int, shape: Partition, c: int) -> None:
        if not c:
            return
        key = (d, tuple(shape))
        v = self.coeffs.get(key, 0) + c
        if v:
            self.coeffs[key] = v
        else:
            del self.coeffs[key]

    def __add__(self, other: "GradedSchurExpansion") -> "GradedSchurExpansion":
        if self.n != other.n:
            raise ValueError("expansions are for different n")
        out = GradedSchurExpansion(self.n, dict(self.coeffs))
        for (d, shape), c in other.coeffs.items():
            out.add_term(d, shape, c)
        return out

    def scaled(self, qpoly: Sequence[int], shift: int = 0) -> "GradedSchurExpansion":
        """Multiply by a polynomial in q (coefficient list), times q^shift."""
        out = GradedSchurExpansion(self.n)
        for (d, shape), c in self.coeffs.items():
            for j, a in enumerate(qpoly):
                if a:
                    out.add_term(d + j + shift, shape, c * a)
        return out

    def max_degree(self) -> int:
        return max((d for d, _ in self.coeffs), default=0)

    def reversed_q(self) -> "GradedSchurExpansion":
        """Reflect the grading: q^d becomes q^(maxdeg - d)."""
        top = self.max_degree()
        out = GradedSchurExpansion(self.n)
        for (d, shape), c in self.coeffs.items():
            out.add_term(top - d, shape, c)
        return out

    def hilbert(self) -> tuple[int, ...]:
        """Dimensions at q=1, degree by degree (Schur s_lam contributes f^lam)."""
        if not self.coeffs:
            return ()
        top = self.max_degree()
        dims = [0] * (top + 1)
        for (d, shape), c in self.coeffs.items():
            dims[d] += c * standard_count(shape)
        return tuple(dims)

    def sorted_items(self) -> list[tuple[int, Partition, int]]:
        return [
            (d, shape, self.coeffs[(d, shape)])
            for d, shape in sorted(self.coeffs, key=lambda k: (k[0], k[1]))
        ]

    def to_jsonable(self) -> list[dict]:
        return [
            {"q": d, "shape": list(shape), "coeff": c}
            for d, shape, c in self.sorted_items()
        ]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for d, shape, c in self.sorted_items():
            s = "s[" + ",".join(str(p) for p in shape) + "]"
            q = "" if d == 0 else ("q*" if d == 1 else f"q^{d}*")
            coeff = "" if c == 1 else f"{c}*"
            chunks.append(f"{q}{coeff}{s}")
        return " + ".join(chunks)


# -- graded Frobenius characteristic ------------------------------------------


def graded_frobenius(quotient: GradedQuotient) -> GradedSchurExpansion:
    """Schur expansion of each graded piece of the quotient, via traces.

    For one representative permutation per cycle type, the trace on the
    degree-d slice is read off the reductions of the permuted free
    monomials; multiplicities then come from the character inner product
    and must be nonnegative integers (anything else raises).
    """
    n = quotient.nvars
    ct = character_table(n)
    hilb = quotient.hilbert
    ndeg = len(hilb)
    traces: list[list] = []
    for rho in ct.classes:
        relabel = relabeller(from_cycle_type(rho, n))
        per_degree = []
        for d in range(ndeg):
            tr = 0
            for slot, m in enumerate(quotient.free_monomials(d)):
                c = quotient.reduce_monomial(relabel(m)).get(slot)
                if c is not None:
                    tr = tr + c
            per_degree.append(tr)
        traces.append(per_degree)
    out = GradedSchurExpansion(n)
    order = factorial(n)
    for i, lam in enumerate(ct.shapes):
        chi_row = ct.values[i]
        for d in range(ndeg):
            total = 0
            for j in range(len(ct.classes)):
                total = total + ct.class_sizes[j] * chi_row[j] * traces[j][d]
            mult, rem = divmod(total, order)
            if rem or mult < 0:
                raise ArithmeticError(
                    f"multiplicity of {lam} in degree {d} is "
                    f"{QQ(total) / order}, not a nonnegative integer"
                )
            out.add_term(d, lam, int(mult))
    return out


def hall_littlewood_cocharge(mu: Sequence[int]) -> GradedSchurExpansion:
    """Sum of q^cocharge(S) s_shape(S) over semistandard S of content mu."""
    mu = check_partition(mu)
    n = sum(mu)
    out = GradedSchurExpansion(n)
    for lam in partitions(n):
        for s in semistandard_tableaux(lam, mu):
            out.add_term(cocharge(reading_word(s)), lam, 1)
    return out


# -- q-binomials and the closed formulas --------------------------------------


@lru_cache(maxsize=None)
def qbinomial(a: int, b: int) -> tuple[int, ...]:
    """Gaussian binomial coefficient as a q-coefficient tuple; () when zero."""
    if b < 0 or a < 0 or b > a:
        return ()
    if b == 0:
        return (1,)
    left = qbinomial(a - 1, b - 1)
    right = qbinomial(a - 1, b)
    out = [0] * (b * (a - b) + 1)
    for j, c in enumerate(left):
        out[j] += c
    for j, c in enumerate(right):
        out[j + b] += c
    return tuple(out)


def qpoly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def grfrob_formula_rnk(n: int, k: int) -> GradedSchurExpansion:
    """Closed form for the generalized coinvariant ring: a sum over standard
    tableaux of q^maj times a q-binomial in des."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    out = GradedSchurExpansion(n)
    for shape in partitions(n):
        for s in standard_tableaux(shape):
            st = descent_stats(s)
            poly = qbinomial(n - st.des - 1, n - k)
            for j, c in enumerate(poly):
                if c:
                    out.add_term(st.maj + j, shape, c)
    return out


def grfrob_formula_rnkmu(n: int, k: int, mu: Sequence[int]) -> GradedSchurExpansion:
    """Closed form for the graded Frobenius character of the mu-deformed ring.

    Sum over partitions lam of n containing mu with at most k parts of
    q^(n(lam,mu)) times a product of q-binomials in the conjugate columns
    (with the 0-th column count read as k), times the reversed cocharge
    Hall-Littlewood expansion of lam; the whole sum is then reversed.
    """
    mu = check_partition(mu)
    if sum(mu) > n:
        raise ValueError("mu must have size at most n")
    if k < max(1, len(mu)):
        raise ValueError("need k >= number of parts of mu")
    muc = conjugate(mu)
    out = GradedSchurExpansion(n)
    for lam in partitions(n):
        if len(lam) > k or not contains(lam, mu):
            continue
        lamc = conjugate(lam)

        def col(c: Sequence[int], i: int) -> int:
            return c[i - 1] if 1 <= i <= len(c) else 0

        weight = sum(
            comb(col(lamc, i) - col(muc, i), 2) for i in range(1, len(lamc) + 1)
        )
        factor: tuple[int, ...] = (1,)
        for i in range(0, lam[0] + 1):
            top = k if i == 0 else col(lamc, i)
            factor = qpoly_mul(
                factor, qbinomial(top - col(muc, i + 1), top - col(lamc, i + 1))
            )
        if not factor:
            continue
        h_rev = hall_littlewood_cocharge(lam).reversed_q()
        out = out + h_rev.scaled(factor, shift=weight)
    return out.reversed_q()


# -- isotypic block check ------------------------------------------------------


def irreducible_block_check(s: Tableau, quotient: GradedQuotient) -> dict:
    """Check that {F_T^S : T standard} spans an irreducible block in the quotient.

    Verifies the dimension (hook length count) and the full character,
    computed by straightening the permuted polynomials, against the
    character table row of the shape.
    """
    shape = s.shape
    n = s.size
    if n != quotient.nvars:
        raise ValueError("tableau size does not match the quotient")
    d = cocharge(reading_word(s))
    family = higher_specht_family(s, standard_tableaux(shape))
    vecs = [quotient.coords(f, d) for f in family]
    dim = len(vecs) - len(dependent_rows(vecs))
    expected_dim = standard_count(shape)
    ct = character_table(n)
    char_values = []
    for rho in ct.classes:
        # sigma F_T^S = F_{sigma T}^S: one solve per class, and the trace
        sigma = from_cycle_type(rho, n)
        solution = _expand(family, [permute_variables(sigma, f) for f in family])
        char_values.append(sum(row[idx] for idx, row in enumerate(solution)))
    expected_char = [ct.chi(shape, rho) for rho in ct.classes]
    char_ok = all(a == b for a, b in zip(char_values, expected_char))
    return {
        "shape": list(shape),
        "dimension": dim,
        "expected_dimension": expected_dim,
        "character": [int(v) if v.denominator == 1 else str(v) for v in char_values],
        "expected_character": expected_char,
        "ok": dim == expected_dim and char_ok,
    }
