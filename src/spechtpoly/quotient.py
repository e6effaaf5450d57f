"""Graded quotients of Q[x1..xn] by homogeneous ideals, with exact projections.

The degree-d slice of the ideal is built from the degree-(d-1) slice:
if F is the set of monomials spanning the quotient in degree d-1, every
degree-d monomial reduces (modulo the ideal) into the span of
V = {x_i * f : f in F}, and the ideal's new relations are the shifted
reductions of the previous degree plus any generators of degree d.  Row
reduction happens over V-coordinates only, which keeps the linear
algebra far smaller than the full monomial slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from ._linalg import dependent_rows, kernel_basis, solve_in_span
from .polyring import Exponent, Poly, QQ, elementary, extend_variables, monomials_of_degree
from .specht import BasisElement, _s_sort_key, build_basis_family
from .tableaux import (
    Partition,
    check_partition,
    column_excess,
    last_letter_key,
    mu_child,
)

_ZERO = QQ(0)
_ONE = QQ(1)


# -- ideal construction ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdealSpec:
    """A homogeneous ideal presented by generators, plus bookkeeping."""

    nvars: int
    generators: tuple[Poly, ...]
    degree_cap: int
    family: str = ""
    params: tuple[tuple[str, object], ...] = ()

    def cache_key(self):
        return (
            self.nvars,
            self.degree_cap,
            frozenset(g.canonical_key() for g in self.generators),
        )


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


def build_ideal(family: str, **params) -> IdealSpec:
    """Generators for the supported quotient rings.

    family="Rn" (n): full elementary symmetric polynomials e_1..e_n.
    family="Rnk" (n, k): x_i^k together with e_n, ..., e_{n-k+1}.
    family="Rnks" (n, k, s): x_i^k together with e_n, ..., e_{n-s+1}.
    family="Rmu" (mu): subset elementary generators e_r(S) whenever
        r exceeds the column count c_{n-|S|} of mu.
    family="Rnkmu" (n, k, mu): x_i^k plus the subset generators with the
        threshold shifted by n - |mu|.
    """
    ps = dict(params)
    if family == "Rn":
        n = ps.pop("n")
        _no_extra(ps)
        if n < 1:
            raise ValueError("need n >= 1")
        gens = [elementary(r, n) for r in range(1, n + 1)]
        cap = comb(n, 2) + 1
        meta = (("n", n),)
    elif family in ("Rnk", "Rnks"):
        n = ps.pop("n")
        k = ps.pop("k")
        s = k if family == "Rnk" else ps.pop("s")
        _no_extra(ps)
        if not (0 <= s <= k <= n) or k < 1:
            raise ValueError("need 1 <= k <= n and 0 <= s <= k")
        gens = [Poly.variable(i, n) ** k for i in range(1, n + 1)]
        gens += [elementary(r, n) for r in range(n - s + 1, n + 1)]
        cap = n * (k - 1) + 1
        meta = (("n", n), ("k", k)) + ((("s", s),) if family == "Rnks" else ())
    elif family == "Rmu":
        mu = check_partition(ps.pop("mu"))
        _no_extra(ps)
        n = sum(mu)
        if n < 1:
            raise ValueError("mu must be nonempty")
        gens = _subset_elementary_gens(n, lambda t: column_excess(mu, t))
        cap = comb(n, 2) + 1
        meta = (("mu", mu),)
    elif family == "Rnkmu":
        n = ps.pop("n")
        k = ps.pop("k")
        mu = check_partition(ps.pop("mu"))
        _no_extra(ps)
        if sum(mu) > n:
            raise ValueError("mu must have size at most n")
        if k < max(1, len(mu)):
            raise ValueError("need k >= max(1, number of parts of mu)")
        shift = n - sum(mu)
        gens = [Poly.variable(i, n) ** k for i in range(1, n + 1)]
        gens += _subset_elementary_gens(
            n, lambda t: column_excess(mu, t) + shift
        )
        cap = n * (k - 1) + 1
        meta = (("n", n), ("k", k), ("mu", mu))
    else:
        raise ValueError(f"unknown ideal family {family!r}")
    return IdealSpec(n, tuple(gens), cap, family, meta)


def _no_extra(params: dict) -> None:
    if params:
        raise TypeError(f"unexpected parameters: {sorted(params)}")


# -- the graded quotient engine ----------------------------------------------


def _maxindex(exp: Exponent) -> int:
    for i in range(len(exp) - 1, -1, -1):
        if exp[i]:
            return i
    return -1


def _bump(exp: Exponent, i: int) -> Exponent:
    return exp[:i] + (exp[i] + 1,) + exp[i + 1 :]


def _drop(exp: Exponent, i: int) -> Exponent:
    return exp[:i] + (exp[i] - 1,) + exp[i + 1 :]


@dataclass
class _DegreeData:
    free: list[Exponent]
    free_index: dict[Exponent, int]
    red: dict[Exponent, dict[int, object]]  # every monomial -> {free slot: coeff}


class GradedQuotient:
    """Exact graded structure of Q[x1..xn] modulo a homogeneous ideal."""

    def __init__(self, spec: IdealSpec):
        self.spec = spec
        self.nvars = spec.nvars
        self._gens_by_degree: dict[int, list[Poly]] = {}
        for g in spec.generators:
            if g.is_zero:
                continue
            if not g.is_homogeneous():
                raise ValueError("ideal generators must be homogeneous")
            d = g.degree()
            if d == 0:
                raise ValueError("a nonzero constant generator makes the quotient zero")
            self._gens_by_degree.setdefault(d, []).append(g)
        self._by_degree: list[_DegreeData] = []
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        n = self.nvars
        unit: Exponent = (0,) * n
        self._by_degree.append(
            _DegreeData([unit], {unit: 0}, {unit: {0: _ONE}})
        )
        for d in range(1, self.spec.degree_cap + 1):
            data = self._build_degree(d)
            if not data.free:
                return
            self._by_degree.append(data)
        raise RuntimeError(
            f"quotient did not become zero by the degree cap {self.spec.degree_cap}"
        )

    def _build_degree(self, d: int) -> _DegreeData:
        n = self.nvars
        prev = self._by_degree[d - 1]
        vset: set[Exponent] = set()
        for f in prev.free:
            for i in range(n):
                vset.add(_bump(f, i))
        vlist = sorted(vset)
        vindex = {m: pos for pos, m in enumerate(vlist)}
        shift_col = [
            [vindex[_bump(f, i)] for f in prev.free] for i in range(n)
        ]

        pivot_tail: dict[int, dict[int, object]] = {}
        owners: dict[int, set[int]] = {}

        def insert_row(acc: dict[int, object]) -> None:
            for c in sorted(acc):
                coeff = acc.get(c)
                if not coeff:
                    continue
                tail = pivot_tail.get(c)
                if tail is None:
                    continue
                del acc[c]
                for col, v in tail.items():
                    nv = acc.get(col, _ZERO) - coeff * v
                    if nv:
                        acc[col] = nv
                    else:
                        del acc[col]
            if not acc:
                return
            p = min(acc)
            lead = acc.pop(p)
            inv = _ONE / lead
            tail = {c: v * inv for c, v in acc.items()}
            for q in list(owners.get(p, ())):
                qtail = pivot_tail[q]
                coeff = qtail.pop(p)
                owners[p].discard(q)
                for c, v in tail.items():
                    cur = qtail.get(c)
                    nv = (_ZERO if cur is None else cur) - coeff * v
                    if nv:
                        if cur is None:
                            owners.setdefault(c, set()).add(q)
                        qtail[c] = nv
                    elif cur is not None:
                        del qtail[c]
                        owners[c].discard(q)
            pivot_tail[p] = tail
            for c in tail:
                owners.setdefault(c, set()).add(p)

        def route(acc: dict[int, object], m: Exponent, coeff) -> None:
            pos = vindex.get(m)
            if pos is not None:
                nv = acc.get(pos, _ZERO) + coeff
                if nv:
                    acc[pos] = nv
                else:
                    del acc[pos]
                return
            i = _maxindex(m)
            cols = shift_col[i]
            for slot, c in prev.red[_drop(m, i)].items():
                col = cols[slot]
                nv = acc.get(col, _ZERO) + coeff * c
                if nv:
                    acc[col] = nv
                else:
                    del acc[col]

        for g in self._gens_by_degree.get(d, []):
            acc: dict[int, object] = {}
            for exp, coeff in g.terms.items():
                route(acc, exp, coeff)
            insert_row(acc)

        prev_monomials = monomials_of_degree(n, d - 1)
        for m in prev_monomials:
            if m in prev.free_index:
                continue
            redm = prev.red[m]
            maxi = _maxindex(m)
            for i in range(n):
                up = _bump(m, i)
                pos = vindex.get(up)
                if pos is None and i >= maxi:
                    continue  # reduction of up is literally the shifted redm
                acc = {}
                if pos is not None:
                    acc[pos] = _ONE
                else:
                    route(acc, up, _ONE)
                cols = shift_col[i]
                for slot, c in redm.items():
                    col = cols[slot]
                    nv = acc.get(col, _ZERO) - c
                    if nv:
                        acc[col] = nv
                    else:
                        del acc[col]
                if acc:
                    insert_row(acc)

        free = [m for pos, m in enumerate(vlist) if pos not in pivot_tail]
        free_index = {m: slot for slot, m in enumerate(free)}
        slot_of_pos = {vindex[m]: slot for slot, m in enumerate(free)}

        red: dict[Exponent, dict[int, object]] = {}
        for pos, m in enumerate(vlist):
            tail = pivot_tail.get(pos)
            if tail is None:
                red[m] = {slot_of_pos[pos]: _ONE}
            else:
                red[m] = {slot_of_pos[c]: -v for c, v in tail.items()}
        if free:
            for m in monomials_of_degree(n, d):
                if m in red:
                    continue
                i = _maxindex(m)
                low = _drop(m, i)
                acc_slots: dict[int, object] = {}
                for slot, c in prev.red[low].items():
                    for s2, c2 in red[_bump(prev.free[slot], i)].items():
                        nv = acc_slots.get(s2, _ZERO) + c * c2
                        if nv:
                            acc_slots[s2] = nv
                        else:
                            del acc_slots[s2]
                red[m] = acc_slots
        return _DegreeData(free, free_index, red)

    # -- inspection ----------------------------------------------------------

    @property
    def hilbert(self) -> tuple[int, ...]:
        return tuple(len(data.free) for data in self._by_degree)

    @property
    def dimension(self) -> int:
        return sum(self.hilbert)

    @property
    def max_degree(self) -> int:
        return len(self._by_degree) - 1

    def free_monomials(self, d: int) -> list[Exponent]:
        if 0 <= d < len(self._by_degree):
            return list(self._by_degree[d].free)
        return []

    def reduce_monomial(self, exp: Exponent) -> dict[int, object]:
        """Sparse coordinates of a monomial over the free set of its degree."""
        d = sum(exp)
        if d >= len(self._by_degree):
            return {}
        return self._by_degree[d].red[tuple(exp)]

    def coords(self, poly: Poly, d: int) -> list:
        """Coordinates of a homogeneous degree-d polynomial over the free set."""
        if poly.nvars != self.nvars:
            raise ValueError("polynomial has the wrong number of variables")
        if d < 0:
            raise ValueError("degree must be nonnegative")
        if d >= len(self._by_degree):
            for exp in poly.terms:
                if sum(exp) != d:
                    raise ValueError("polynomial is not homogeneous of the given degree")
            return []
        data = self._by_degree[d]
        out = [_ZERO] * len(data.free)
        for exp, coeff in poly.terms.items():
            if sum(exp) != d:
                raise ValueError("polynomial is not homogeneous of the given degree")
            for slot, v in data.red[exp].items():
                out[slot] = out[slot] + coeff * v
        return out

    def project(self, poly: Poly) -> Poly:
        """Normal form: rewrite over the free monomials, degree by degree."""
        if poly.nvars != self.nvars:
            raise ValueError("polynomial has the wrong number of variables")
        terms: dict[Exponent, object] = {}
        for d, comp in poly.homogeneous_components().items():
            if d >= len(self._by_degree):
                continue
            data = self._by_degree[d]
            for exp, coeff in comp.terms.items():
                for slot, v in data.red[exp].items():
                    key = data.free[slot]
                    nv = terms.get(key, _ZERO) + coeff * v
                    if nv:
                        terms[key] = nv
                    else:
                        del terms[key]
        return Poly._raw(self.nvars, terms)

    def is_zero_in_quotient(self, poly: Poly) -> bool:
        return self.project(poly).is_zero


_QUOTIENT_CACHE: dict[tuple, GradedQuotient] = {}


def graded_quotient(spec: IdealSpec) -> GradedQuotient:
    key = spec.cache_key()
    q = _QUOTIENT_CACHE.get(key)
    if q is None:
        q = GradedQuotient(spec)
        _QUOTIENT_CACHE[key] = q
    return q


def degree_slice(quotient: GradedQuotient, d: int) -> tuple[int, Callable[[Poly], Poly]]:
    """(rank of the ideal slice, projector onto the quotient normal form)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = quotient.nvars
    total = comb(n + d - 1, n - 1)
    hilb = quotient.hilbert[d] if d < len(quotient.hilbert) else 0
    rank = total - hilb

    def projector(poly: Poly) -> Poly:
        for exp in poly.terms:
            if sum(exp) != d:
                raise ValueError("projector expects a homogeneous degree-d polynomial")
        return quotient.project(poly)

    return rank, projector


# -- basis verification ------------------------------------------------------


def verify_basis(
    quotient: GradedQuotient,
    family: Sequence[BasisElement],
    family_name: str = "",
    params: dict | None = None,
) -> dict:
    """Check that a graded family is a basis of the quotient.

    Per degree: the element count must match the Hilbert function and the
    projections must be linearly independent, as certified by
    ``dependent_rows``.  The report records, per degree, the expected
    dimension, the element count and the achieved rank; the first failure
    is pinpointed with its element label.
    """
    by_degree: dict[int, list[tuple[int, BasisElement]]] = {}
    for idx, be in enumerate(family):
        by_degree.setdefault(be.degree, []).append((idx, be))
    hilb = quotient.hilbert
    degrees = sorted(set(range(len(hilb))) | set(by_degree))
    per_degree = []
    failures: list[dict] = []
    verdict = True
    for d in degrees:
        expected = hilb[d] if d < len(hilb) else 0
        elems = by_degree.get(d, [])
        dependent = dependent_rows([quotient.coords(be.poly, d) for _, be in elems])
        for idx, be in (elems[pos] for pos in dependent):
            failures.append({"kind": "dependent", "d": d, "position": idx, "label": be.label()})
            verdict = False
        rank = len(elems) - len(dependent)
        ok = len(elems) == expected and rank == expected
        if len(elems) != expected:
            failures.append(
                {"kind": "count", "d": d, "expected": expected, "count": len(elems)}
            )
            verdict = False
        per_degree.append(
            {
                "d": d,
                "expected": expected,
                "count": len(elems),
                "rank": rank,
                "ok": ok,
            }
        )
    report = {
        "family": family_name,
        "params": params or {},
        "verdict": verdict,
        "hilbert": list(hilb),
        "dimension": quotient.dimension,
        "family_size": len(family),
        "per_degree": per_degree,
        "failures": failures,
    }
    return report


# -- the recursion family and transition matrices ----------------------------


def gp_recursion_family(mu: Sequence[int]) -> list[BasisElement]:
    """The inductive spanning family: powers of x_n times child families.

    For i = 1..(number of parts), take the family of the i-th child
    partition (one cell removed from part i) in n-1 variables, multiplied
    by x_n^(i-1).  Within each degree the groups are ordered by the power
    of x_n, then by the usual family order.
    """
    mu = check_partition(mu)
    n = sum(mu)
    out: list[BasisElement] = []
    for i in range(1, len(mu) + 1):
        child = mu_child(mu, i)
        for be in build_basis_family("Bmu", mu=child):
            poly = extend_variables(be.poly, n)
            if i > 1:
                poly = poly * Poly.variable(n, n) ** (i - 1)
            out.append(
                BasisElement(
                    poly, be.degree + i - 1, be.s, be.t, be.exponents, xpower=i - 1
                )
            )
    out.sort(
        key=lambda be: (
            be.degree,
            be.xpower,
            _s_sort_key(be.s),
            last_letter_key(be.t),
        )
    )
    return out


def _row_sort_key(be: BasisElement, n: int):
    pos = be.t.position_map()
    r_n = pos[n][0]
    lam = list(be.t.shape)
    lam[r_n] -= 1
    lamhat = tuple(p for p in lam if p > 0)
    return (
        r_n,
        -len(lamhat),
        tuple(-p for p in lamhat),
        _s_sort_key(be.s),
        last_letter_key(be.t),
    )


@dataclass
class TransitionResult:
    matrix: list[list]
    rows: list[BasisElement]
    cols: list[BasisElement]
    mu: Partition
    d: int
    normalize: str


def transition_matrix(
    mu: Sequence[int], d: int, normalize: str = "raw"
) -> TransitionResult:
    """Expand the degree-d family elements over the recursion family, mod the ideal.

    Rows are the degree-d elements of the content-mu family, ordered by
    the position of n in T (bottom rows first), then by the shape left
    after removing n, then by S and the last letter order of T.  Columns
    are the recursion family in its own order.  normalize="primitive"
    rescales every element to have coprime integer coefficients.
    """
    if normalize not in ("raw", "primitive"):
        raise ValueError("normalize must be 'raw' or 'primitive'")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    mu = check_partition(mu)
    n = sum(mu)
    rows = [be for be in build_basis_family("Bmu", mu=mu) if be.degree == d]
    rows.sort(key=lambda be: _row_sort_key(be, n))
    cols = [be for be in gp_recursion_family(mu) if be.degree == d]
    quotient = graded_quotient(build_ideal("Rmu", mu=mu))
    hilb = quotient.hilbert[d] if d < len(quotient.hilbert) else 0
    if len(rows) != hilb or len(cols) != hilb:
        raise ArithmeticError(
            f"family sizes ({len(rows)} rows, {len(cols)} cols) do not match the "
            f"degree-{d} dimension {hilb}"
        )
    col_vecs = [quotient.coords(be.poly, d) for be in cols]
    row_vecs = [quotient.coords(be.poly, d) for be in rows]
    solution = solve_in_span(col_vecs, row_vecs)
    if solution is None:
        raise ArithmeticError("recursion family does not span the degree slice")
    matrix = solution
    if normalize == "primitive":
        row_scale = [be.poly.content() for be in rows]
        col_scale = [be.poly.content() for be in cols]
        matrix = [
            [matrix[i][j] * col_scale[j] / row_scale[i] for j in range(len(cols))]
            for i in range(len(rows))
        ]
    return TransitionResult(matrix, rows, cols, mu, d, normalize)


def _primitive_vector(vec: list) -> list:
    from math import gcd

    num = 0
    den = 1
    for v in vec:
        num = gcd(num, abs(int(v.numerator)))
        dd = int(v.denominator)
        den = den * dd // gcd(den, dd)
    if num == 0:
        return list(vec)
    scale = QQ(den, num)
    return [v * scale for v in vec]


def almost_lower_triangular(matrix: list[list]) -> tuple[bool, list[list] | None]:
    """Find upper triangular A with M*A lower triangular and nonzero diagonal.

    Returns (True, A) with the witness, or (False, None).  Column j of A
    mixes only the first j+1 columns of M; its existence is decided per
    column by an exact kernel computation.
    """
    t = len(matrix)
    if any(len(row) != t for row in matrix):
        raise ValueError("matrix must be square")
    cols_a: list[list] = []
    for j in range(t):
        upper = [[matrix[r][c] for c in range(j + 1)] for r in range(j)]
        target = [matrix[j][c] for c in range(j + 1)]
        pick = None
        for vec in kernel_basis(upper, j + 1):
            dot = sum((target[c] * vec[c] for c in range(j + 1)), _ZERO)
            if dot:
                pick = vec
                break
        if pick is None:
            return False, None
        pick = _primitive_vector(pick)
        cols_a.append(pick + [_ZERO] * (t - j - 1))
    witness = [[cols_a[j][i] for j in range(t)] for i in range(t)]
    # internal sanity: M * A really is lower triangular with nonzero diagonal
    for i in range(t):
        for j in range(t):
            entry = sum((matrix[i][c] * witness[c][j] for c in range(t)), _ZERO)
            if j > i and entry:
                raise AssertionError("witness failed above the diagonal")
            if j == i and not entry:
                raise AssertionError("witness has a zero diagonal entry")
    return True, witness
