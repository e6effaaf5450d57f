"""The family table: one row per quotient ring and its higher Specht basis.

A row holds everything that depends on which ring is meant: its
parameters and their check, the generators of its ideal, the recipe of
its basis family, its sweep cases and its closed formula.  Every
dispatch on a ring or basis name reads this table.

Griffin's R_{n,k,mu} generalizes the other rings with a closed formula:
R_n = R_{n,n,(1^n)}, R_{n,k} = R_{n,k,(1^k)} and R_mu = R_{|mu|,l(mu),mu},
so the formula column is the (n, k, mu) to evaluate Griffin's formula at,
or None where no closed formula is known (R_{n,k,s}).
"""

from __future__ import annotations

import itertools
from math import comb, factorial, prod
from typing import Callable, Iterable, Mapping, NamedTuple

from .polyring import Poly, elementary
from .tableaux import (
    Partition,
    check_partition,
    column_excess,
    descent_stats,
    partitions,
    semistandard_descents,
)


class Family(NamedTuple):
    """One ring, its basis family, and everything that tells them apart.

    The callables take the checked parameters as keyword arguments:
    ``valid`` is the range check (``rule`` says it in words); ``ideal``
    returns (nvars, generators, degree cap); ``recipe`` returns the content
    of the basis's S (every semistandard S of that content, the standard S
    of size n for (1^n)), the variable count and the rule giving the
    e-exponent tuples of an S; ``sweep`` lists the JSON-safe params of
    every case for one n; ``formula`` gives Griffin's (n, k, mu);
    ``dimension`` gives the dimension of the ring.
    """

    ring: str
    basis: str
    params: tuple[str, ...]
    valid: Callable[..., bool]
    rule: str
    ideal: Callable[..., tuple[int, list[Poly], int]]
    recipe: Callable[..., tuple[Partition, int, Callable]]
    sweep: Callable[[int], Iterable[dict]]
    formula: Callable[..., tuple[int, int, Partition]] | None
    dimension: Callable[..., int]

    def check(self, params: Mapping) -> dict:
        """The parameters as keyword arguments, mu as a tuple.  TypeError for a
        missing, extra or mistyped parameter, ValueError for one out of range."""
        if set(params) != set(self.params):
            raise TypeError(f"{self.ring} takes {', '.join(self.params)}, not {sorted(params)}")
        out = {}
        for name in self.params:
            value = params[name]
            if name == "mu":
                if not isinstance(value, (list, tuple)) or any(type(p) is not int for p in value):
                    raise TypeError(f"mu must be a sequence of ints, not {value!r}")
                value = check_partition(value)
            elif type(value) is not int:
                raise TypeError(f"{name} must be an int, not {value!r}")
            out[name] = value
        if not self.valid(**out):
            raise ValueError(f"{self.ring}: {self.rule}")
        return out


MAX_NVARS = 10  # the R_mu and R_{n,k,mu} generators run over all 2^n variable subsets
MAX_DIMENSION = 362_880  # 9!, the dimension of R_9; caps a ring and a built family alike


# -- ideals ------------------------------------------------------------------


def _subset_elementary_gens(nvars: int, threshold: Callable[[int], int]) -> list[Poly]:
    """e_r(S) for every variable subset S and r with threshold(n-|S|) < r <= |S|."""
    gens: list[Poly] = []
    for size in range(1, nvars + 1):
        lo = threshold(nvars - size)
        if lo >= size:
            continue
        for subset in itertools.combinations(range(1, nvars + 1), size):
            for r in range(max(1, lo + 1), size + 1):
                gens.append(elementary(r, nvars, subset))
    return gens


def _ideal_rnks(n, k, s):
    """x_i^k together with e_n, ..., e_{n-s+1}."""
    gens = [Poly.variable(i, n) ** k for i in range(1, n + 1)]
    return n, gens + [elementary(r, n) for r in range(n - s + 1, n + 1)], n * (k - 1) + 1


def _ideal_rmu(mu):
    """e_r(S) whenever r exceeds the column count c_{n-|S|} of mu."""
    n = sum(mu)
    return n, _subset_elementary_gens(n, lambda t: column_excess(mu, t)), comb(n, 2) + 1


def _ideal_rnkmu(n, k, mu):
    """The x_i^k of R_{n,k,0} plus the R_mu generators, threshold shifted by n - |mu|."""
    _, gens, cap = _ideal_rnks(n, k, 0)
    shift = n - sum(mu)
    return n, gens + _subset_elementary_gens(n, lambda t: column_excess(mu, t) + shift), cap


# -- dimensions --------------------------------------------------------------


def _words(n, k, s):
    """The words in [k]^n that use each of the letters 1..s, by inclusion-exclusion: the
    dimension of R_{n,k,s} (Haglund, Rhoades & Shimozono), k!S(n,k) at s = k."""
    return sum((-1) ** i * comb(s, i) * (k - i) ** n for i in range(s + 1))


def _griffin_dimension(n, k, mu):
    from .symfunc import grfrob_formula_rnkmu  # symfunc imports this module
    return sum(grfrob_formula_rnkmu(n, k, mu).hilbert())


# -- basis recipes -----------------------------------------------------------


def _bounded_tuples(length: int, bound: int) -> Iterable[tuple[int, ...]]:
    """All nonnegative integer tuples of the given length with sum < bound, in
    lexicographic order."""
    if length == 0:
        if bound > 0:
            yield ()
        return
    for first in range(bound):
        for rest in _bounded_tuples(length - 1, bound - first):
            yield (first,) + rest


def _recipe_bnks(n, k, s):
    """Standard S times e_1..e_{n-s} monomials with exponent sum below k - des(S)."""
    return (1,) * n, n, lambda S: _bounded_tuples(n - s, k - descent_stats(S).des)


def _recipe_bnkmu(n, k, mu):
    """Content (n-1, 1) S times powers of e_1 with exponent below k - sdes(S)."""
    if mu != (n - 1,):
        raise ValueError("this family is defined for the single-part mu = (n-1)")
    if k > n:
        raise ValueError("need 1 <= k <= n")
    return (n - 1, 1), n, lambda S: [(i,) for i in range(k - semistandard_descents(S))]


# -- the table ---------------------------------------------------------------


FAMILIES = {
    row.ring: row
    for row in (
        Family(
            "Rn", "Bn", ("n",),
            lambda n: n >= 0, "need n >= 0",
            lambda n: (n, [elementary(r, n) for r in range(1, n + 1)], comb(n, 2) + 1),
            lambda n: ((1,) * n, n, lambda S: [()]),
            lambda n: [{"n": n}],
            lambda n: (n, n, (1,) * n),
            lambda n: factorial(n),
        ),
        Family(
            "Rnk", "Bnk", ("n", "k"),
            lambda n, k: 1 <= k <= n, "need 1 <= k <= n",
            lambda n, k: _ideal_rnks(n, k, k),
            lambda n, k: _recipe_bnks(n, k, k),
            lambda n: [{"n": n, "k": k} for k in range(1, n + 1)],
            lambda n, k: (n, k, (1,) * k),
            lambda n, k: _words(n, k, k),
        ),
        Family(
            "Rnks", "Bnks", ("n", "k", "s"),
            lambda n, k, s: 1 <= k <= n and 0 <= s <= k, "need 1 <= k <= n and 0 <= s <= k",
            _ideal_rnks,
            _recipe_bnks,
            lambda n: [{"n": n, "k": k, "s": s} for k in range(1, n + 1) for s in range(k + 1)],
            None,
            _words,
        ),
        Family(
            "Rmu", "Bmu", ("mu",),
            # mu = () is valid: its basis {1} is the child family gp_recursion_family needs
            lambda mu: True, "",
            _ideal_rmu,
            lambda mu: (mu, sum(mu), lambda S: [()]),
            lambda n: [{"mu": list(mu)} for mu in partitions(n)],
            lambda mu: (sum(mu), len(mu), mu),
            lambda mu: factorial(sum(mu)) // prod(map(factorial, mu)),
        ),
        Family(
            "Rnkmu", "Bnkmu", ("n", "k", "mu"),
            lambda n, k, mu: sum(mu) <= n and k >= max(1, len(mu)),
            "need |mu| <= n and k >= max(1, number of parts of mu)",
            _ideal_rnkmu,
            _recipe_bnkmu,
            lambda n: [{"n": n, "k": k, "mu": [n - 1]} for k in range(1, n + 1) if n >= 2],
            lambda n, k, mu: (n, k, mu),
            _griffin_dimension,
        ),
    )
}

BASES = {row.basis: row for row in FAMILIES.values()}


def lookup(table: Mapping[str, Family], name: str) -> Family:
    """The row of ``name`` in FAMILIES or BASES; ValueError for an unknown name."""
    row = table.get(name)
    if row is None:
        raise ValueError(f"unknown family {name!r}; choose from {', '.join(table)}")
    return row
