"""Graded quotients of Q[x1..xn] by homogeneous ideals, with exact projections.

The degree-d slice of the ideal is built from the degree-(d-1) slice:
if F is the set of monomials spanning the quotient in degree d-1, every
degree-d monomial reduces (modulo the ideal) into the span of
V = {x_i * f : f in F}, and the ideal's new relations are the shifted
reductions of the previous degree's border monomials (V minus F) plus any
generators of degree d; ``GradedQuotient._build`` proves that these rows
suffice.  A chain criterion skips the row x_i * (m - NF(m)) of a border
monomial m when m / x_k is not free for some k < i, or when x_i * m lies
outside V and m / x_j is not free for j the largest index in m; the same
docstring proves those rows redundant.  Row reduction happens over
V-coordinates only, and the table of a monomial outside V is computed
when it is first read.
"""

from __future__ import annotations

from itertools import groupby
from math import comb
from typing import Callable, Iterable, NamedTuple, Sequence

from ._linalg import Echelon, _integral_row, _sparse, dependent_rows, solve_in_span
from .polyring import (
    Exponent,
    Poly,
    QQ,
    clear_denominators,
    elementary,
    exact,
    exact_quotient,
)
from .families import FAMILIES, MAX_DIMENSION, MAX_NVARS, lookup
from .specht import BasisElement, build_basis_family, family_plan, higher_specht
from .tableaux import Partition, check_partition, mu_child

# -- ideal construction ------------------------------------------------------


class IdealSpec(NamedTuple):
    """A homogeneous ideal presented by generators, plus bookkeeping."""

    nvars: int
    generators: tuple[Poly, ...]
    degree_cap: int
    family: str = ""


def build_ideal(family: str, **params) -> IdealSpec:
    """The generators of a ring of the family table (see ``families``); ValueError,
    before any is built, above MAX_NVARS variables or dimension MAX_DIMENSION."""
    row = lookup(FAMILIES, family)
    checked = row.check(params)
    n = checked["n"] if "n" in checked else sum(checked["mu"])
    if n < 1:
        raise ValueError("the ring needs n >= 1 variables")
    if n > MAX_NVARS or row.dimension(**checked) > MAX_DIMENSION:
        cap = f"n <= {MAX_NVARS} and dimension <= {MAX_DIMENSION}"
        raise ValueError(f"{family} {params} is too large; the size cap is {cap}")
    nvars, gens, cap = row.ideal(**checked)
    return IdealSpec(nvars, tuple(gens), cap, family)


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


def _add_row(acc: dict, row: dict, coeff, keys: Sequence | None = None) -> None:
    """acc += coeff * row, entry k of row landing at keys[k] (at k when keys is None).

    acc keeps no zero entry, as ``Echelon.insert`` requires of its rows.
    """
    pairs = row.items() if keys is None else zip(map(keys.__getitem__, row), row.values())
    for k, c in pairs:
        nv = acc.get(k, 0) + coeff * c
        if nv:
            acc[k] = nv
        else:
            del acc[k]


class _DegreeData:
    __slots__ = ("free", "free_index", "vlist", "red", "times", "prev", "integral")

    def __init__(
        self,
        free: list[Exponent],
        free_index: dict[Exponent, int],
        vlist: list[Exponent],  # V = {x_i * f : f free one degree lower}, sorted
        red: dict[Exponent, dict[int, object]],  # monomial -> {free slot: coeff}; V eagerly
        times: list[list[dict[int, object]]],  # times[i][slot]: the row of x_i * prev.free[slot]
        prev: _DegreeData | None = None,
        integral: bool = True,  # every coefficient of this degree and below is an int
    ):
        self.free = free
        self.free_index = free_index
        self.vlist = vlist
        self.red = red
        self.times = times
        self.prev = prev
        self.integral = integral

    def shift(self, vec: dict[int, object], i: int) -> dict[int, object]:
        """Coordinates of x_i times a vector over the previous degree's free set."""
        out: dict[int, object] = {}
        rows = self.times[i]
        for slot, c in vec.items():
            _add_row(out, rows[slot], c)
        return out

    def normal_form(self, m: Exponent) -> dict[int, object]:
        """Row of the table for m; outside V it is x_j * NF(m / x_j), j = maxindex(m), memoised."""
        row = self.red.get(m)
        if row is None:
            i = _maxindex(m)
            row = self.red[m] = self.shift(self.prev.normal_form(_drop(m, i)), i)
        return row


class GradedQuotient:
    """Exact graded structure of Q[x1..xn] modulo a homogeneous ideal.

    ``build_counts[d]`` is (rows inserted, pivots) for degree d.
    """

    def __init__(self, spec: IdealSpec):
        self.spec = spec
        self.nvars = spec.nvars
        self._gens_by_degree: dict[int, list[dict[Exponent, int]]] = {}
        for g in spec.generators:
            if g.is_zero:
                continue
            if not g.is_homogeneous():
                raise ValueError("ideal generators must be homogeneous")
            d = g.degree()
            if d == 0:
                raise ValueError("a nonzero constant generator makes the quotient zero")
            self._gens_by_degree.setdefault(d, []).append(clear_denominators(g.terms)[0])
        self._by_degree: list[_DegreeData] = []
        self.build_counts: list[tuple[int, int]] = []
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        """Build degree by degree from the generator rows and the border rows.

        Degree d inserts the generators of degree d and x_i * b_m, with
        b_m = m - NF(m), for the border monomials m of degree d-1 (the
        non-free monomials of the previous degree's V-set).  These rows
        suffice, by induction on d (the border-basis setting of Kehrein,
        Kreuzer & Robbiano 2005).  Let the tables below d be exact and phi
        the map into V-coordinates that ``route`` and ``normal_form``
        implement: phi(u) = x_j * NF(u / x_j) for u outside V, with
        j = maxindex(u).  Then phi(p) = p modulo I, and I_d is spanned by
        gens_d and the x_i * b_m for all non-free m of degree d-1, so it is
        enough that each phi(x_i * b_m) lies in the span of the rows:

        - m border: phi(x_i * b_m) is the row of m; a row skipped
          (x_i * m outside V and i >= maxindex(m)) is zero.
        - m = x_j * m' interior, j = maxindex(m): x_i * m is interior too,
          as the free sets are closed under division.  For i >= j,
          phi(x_i * b_m) = 0.  For i < j and NF(m') = sum c_f f,
          phi(x_i * b_m) = sum c_f [phi(x_i * b_{x_j f}) - phi(x_j * b_{x_i f})],
          differences of border rows (zero where the monomial is free).

        A border row is also skipped when a chain criterion, the border
        analogue of Gebauer & Moeller (1988), proves it redundant.  Let
        K(m) be the k with x_k | m and u = m / x_k not free (``_chain``).
        The row x_i * b_m is skipped when (a) i > min K(m), or (b) x_i * m
        is outside V and maxindex(m) is in K(m).  For k != i in K(m) and
        NF(u) = sum c_f f, every f free and smaller than u,

            phi(x_i * b_m) - phi(x_k * b_{x_i u}) = x_k NF(x_i u) - x_i NF(x_k u)
                = sum c_f [phi(x_i * b_{x_k f}) - phi(x_k * b_{x_i f})],

        where the rows on the right have the product x_i x_k f, smaller
        than x_i * m.  The partner x_k * b_{x_i u} has the product x_i * m.
        In (a), k = min K(m) < i: the partner is a border row of smaller
        index, zero (x_i u free) or interior, which the case above writes
        over smaller products.  In (b), i < maxindex(m) = k (otherwise the
        row is a zero row), and the partner is a zero row (x_k x_i u
        outside V, k >= maxindex(x_i u)), zero or interior.  So, by
        induction on (product, index), every border row lies in the span of
        the kept rows.

        A pivot is the leftmost column of the ascending ``vlist``, the
        largest monomial in grevlex with x_n largest, so each free set is
        the grevlex normal set: closed under division, as degree d+1 needs.
        """
        unit: Exponent = (0,) * self.nvars
        self._by_degree.append(_DegreeData([unit], {unit: 0}, [unit], {unit: {0: 1}}, []))
        self.build_counts.append((0, 0))
        for d in range(1, self.spec.degree_cap + 1):
            prev = self._by_degree[d - 1]
            border = [m for m in reversed(prev.vlist) if m not in prev.free_index]
            data, rows = self._build_degree(d, border)
            self.build_counts.append((rows, len(data.vlist) - len(data.free)))
            if not data.free:
                return
            self._by_degree.append(data)
        raise RuntimeError(
            f"quotient did not become zero by the degree cap {self.spec.degree_cap}"
        )

    def _build_degree(self, d: int, sources: list[Exponent]) -> tuple[_DegreeData, int]:
        """Eliminate the degree-d relations over V-coordinates in one ``Echelon``.

        The rows are the generators of degree d, then x_i * (m - NF(m)) for
        each source monomial m of degree d-1 and each i that the chain
        criterion of ``_build`` keeps, with denominators cleared when
        a lower degree's table holds a QQ; the table entries are
        ``-tail / lead``.  Returns the degree and the number of rows inserted.
        """
        n = self.nvars
        prev = self._by_degree[d - 1]
        vlist = sorted({_bump(f, i) for f in prev.free for i in range(n)})
        vindex = {m: pos for pos, m in enumerate(vlist)}
        shift_col = [
            [vindex[_bump(f, i)] for f in prev.free] for i in range(n)
        ]

        ech = Echelon()
        rows = 0

        def add_row(acc: dict[int, object]) -> None:
            nonlocal rows
            rows += 1
            ech.insert(acc if prev.integral else clear_denominators(acc)[0])

        def route(acc: dict[int, object], m: Exponent, coeff) -> None:
            pos = vindex.get(m)
            if pos is not None:
                _add_row(acc, {pos: 1}, coeff)
            else:
                i = _maxindex(m)
                _add_row(acc, prev.normal_form(_drop(m, i)), coeff, shift_col[i])

        for terms in self._gens_by_degree.get(d, []):
            acc: dict[int, object] = {}
            for exp, coeff in terms.items():
                route(acc, exp, coeff)
            add_row(acc)

        for m in sources:
            redm = prev.normal_form(m)
            maxi = _maxindex(m)
            chain = self._chain(prev, m)
            # rule (a) keeps i <= min K(m); rule (b) drops every route row
            # when maxindex(m) is in K(m), the zero-row skip those with i >= maxi
            top = chain[0] if chain else n - 1
            route_below = 0 if chain and chain[-1] == maxi else maxi
            for i in range(top + 1):
                up = _bump(m, i)
                if i >= route_below and up not in vindex:
                    continue
                acc = {}
                route(acc, up, 1)
                _add_row(acc, redm, -1, shift_col[i])
                if acc:
                    add_row(acc)

        free = [m for pos, m in enumerate(vlist) if pos not in ech.tail]
        free_index = {m: slot for slot, m in enumerate(free)}
        slot_of_pos = {vindex[m]: slot for slot, m in enumerate(free)}

        red: dict[Exponent, dict[int, object]] = {}
        for pos, m in enumerate(vlist):
            tail = ech.tail.get(pos)
            if tail is None:
                red[m] = {slot_of_pos[pos]: 1}
            else:
                lead = ech.lead[pos]
                red[m] = {slot_of_pos[c]: exact_quotient(-v, lead) for c, v in tail.items()}
        # every pivot row is primitive, so its entries -tail / lead are all ints exactly
        # when lead is 1; an entry outside V is a product of V entries of this and
        # lower degrees
        integral = prev.integral and all(lead == 1 for lead in ech.lead.values())
        times = [[red[vlist[pos]] for pos in cols] for cols in shift_col]
        return _DegreeData(free, free_index, vlist, red, times, prev, integral), rows

    def _chain(self, prev: _DegreeData, m: Exponent) -> list[int]:
        """K(m), ascending, for m of ``prev``'s degree: the k with x_k | m and m / x_k not free."""
        lower = prev.prev.free_index
        return [k for k, e in enumerate(m) if e and _drop(m, k) not in lower]

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
        return self._by_degree[d].normal_form(tuple(exp))

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
        out = [0] * len(data.free)
        for exp, coeff in poly.terms.items():
            if sum(exp) != d:
                raise ValueError("polynomial is not homogeneous of the given degree")
            for slot, v in data.normal_form(exp).items():
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
                _add_row(terms, data.normal_form(exp), coeff, data.free)
        return Poly._raw(self.nvars, {e: exact(c) for e, c in terms.items()})

    def is_zero_in_quotient(self, poly: Poly) -> bool:
        return self.project(poly).is_zero


_QUOTIENT_CACHE: dict[tuple, GradedQuotient] = {}


def graded_quotient(family: str, **params) -> GradedQuotient:
    """The quotient of a ring of the family table, built once per process for each
    family and checked parameters; a hand-built ``IdealSpec`` is never cached."""
    key = (family, *lookup(FAMILIES, family).check(params).values())
    q = _QUOTIENT_CACHE.get(key)
    if q is None:
        q = _QUOTIENT_CACHE[key] = GradedQuotient(build_ideal(family, **params))
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


def _basis_report(
    quotient: GradedQuotient,
    degrees: Iterable[int],
    check: Callable[[int], tuple[int, list[tuple[int, BasisElement]]]],
    family_size: int,
    family_name: str,
    params: dict | None,
) -> dict:
    """The verification report over every degree of the quotient or of the
    family, in increasing order: ``check(d)`` gives degree d's element count
    and its dependent (family position, element) pairs."""
    hilb = quotient.hilbert
    per_degree = []
    failures: list[dict] = []
    for d in sorted(set(range(len(hilb))) | set(degrees)):
        expected = hilb[d] if d < len(hilb) else 0
        count, dependent = check(d)
        failures += [
            {"kind": "dependent", "d": d, "position": pos, "label": be.label()}
            for pos, be in dependent
        ]
        if count != expected:
            failures.append({"kind": "count", "d": d, "expected": expected, "count": count})
        rank = count - len(dependent)
        ok = count == expected and rank == expected
        per_degree.append({"d": d, "expected": expected, "count": count, "rank": rank, "ok": ok})
    return {
        "family": family_name,
        "params": params or {},
        "verdict": not failures,
        "hilbert": list(hilb),
        "dimension": quotient.dimension,
        "family_size": family_size,
        "per_degree": per_degree,
        "failures": failures,
    }


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

    def check(d: int) -> tuple[int, list[tuple[int, BasisElement]]]:
        elems = by_degree.get(d, [])
        dependent = dependent_rows([quotient.coords(be.poly, d) for _, be in elems])
        return len(elems), [elems[pos] for pos in dependent]

    return _basis_report(quotient, by_degree, check, len(family), family_name, params)


def _times_elementary(quotient: GradedQuotient, rows: dict, vec: list, d: int, j: int) -> list:
    """Coordinates of NF(e_j * p) in degree d + j, for p of degree d with coordinates vec.

    NF(e_j * x^f) = sum over the j-subsets J of the variables of
    NF(x^f * x_J), read off the tables; ``rows[d, j]`` memoises it by the
    slot of f, for the slots that some vector uses only.  Empty past the
    top degree, as ``coords`` is.
    """
    if d + j > quotient.max_degree:
        return []
    free = quotient._by_degree[d].free
    target = quotient._by_degree[d + j]
    known = rows.setdefault((d, j), {})
    subsets = None  # the exponents of the x_J with |J| = j, once a row is missing
    out = [0] * len(target.free)
    for slot, c in enumerate(vec):
        if not c:
            continue
        row = known.get(slot)
        if row is None:
            if subsets is None:
                subsets = list(elementary(j, quotient.nvars).terms)
            f = free[slot]
            acc: dict[int, object] = {}
            for subset in subsets:
                m = tuple([a + b for a, b in zip(f, subset)])
                _add_row(acc, target.normal_form(m), 1)
            row = known[slot] = list(acc.items())
        for s2, c2 in row:
            out[s2] += c * c2
    return out


def verify_family(quotient: GradedQuotient, family_name: str, params: dict) -> dict:
    """``verify_basis`` of the ring's basis family (``FAMILIES``), by the isotypic certificate.

    The report equals ``verify_basis(quotient, build_basis_family(basis,
    **params), family_name, params)``, but a degree ranks only the
    coordinates of the representatives, one element F_T0^S * e^a per (S,
    exponents a) with T0 the first of the plan's fillings of S, the
    standard tableaux of S's shape lambda.  Its count is the sum of
    f^lambda, the number of fillings, over the representatives.  The
    element (S, T, a) is dependent exactly when its representative is
    dependent on the representatives before it, so a degree with a
    dependent representative lists its (S, T, a) in family order, from
    the count of the lower degrees on, to name each failure; none of
    their polynomials is built.

    F_T0^S is built and reduced once per S, and e^a is applied in the
    quotient: the plan lists a - delta_j before a, so one pass over the
    exponents multiplies the coordinates of a - delta_j by e_j, j the
    largest index with a_j > 0.  I is an ideal, so NF(e_j * p) = NF(e_j *
    NF(p)), and no product F_T0^S * e^a is formed.

    Soundness.  Sigma in S_n acts on polynomials by permuting variables.
    F_{sigma T}^S = sigma F_T^S (Ariki, Terasoma & Yamada 1997), so with
    sigma_T T0 = T, F_T^S = (sigma_T eps_T0) m, where eps_T0 is the Young
    symmetrizer and m the monomial of (S, T0).  The plan's fillings of S
    are every standard T, so the elements of a degree are the images of a
    basis of M = (+)_{(S, a)} C[S_n] eps_T0 under the map x_{(S, a)} ->
    (x m) e^a mod I, and that map is S_n-equivariant.  C[S_n] eps_T0 is
    irreducible, isomorphic to V^lambda, so M is a sum of copies of the
    V^lambda, and a kernel is a sum of copies too; on the lambda-isotypic
    part, by Schur's lemma, it is V^lambda (x) K for a subspace K of the
    multiplicity space, and it is nonzero exactly when some combination
    of the images of one nonzero vector, eps_T0, vanishes.  Those images
    are the representatives, and representatives of different shapes lie
    in different isotypic parts of R_d.  So the degree's family is
    independent exactly when its representatives are, and it is a basis
    when, besides, dim M (the count) is the Hilbert value.

    Naming.  An element of shape lambda lies in the span of the elements
    before it exactly when it lies in the span of those of shape lambda,
    as projecting onto the lambda-isotypic part shows.  There the element
    (S, T, a) is the image of v_T (x) r, with v_T = sigma_T eps_T0 and r
    = (S, a).  The v_T are independent and the kernel is V^lambda (x) K,
    so v_T (x) r is in the span of the earlier v_T' (x) r' modulo the
    kernel exactly when r is in the span of the r' with (r', T) before
    (r, T), modulo K.  The plan lists the family by S, then T, then a,
    so those r' are the representatives before r, for every T.  The
    argument needs:

    - the ideal is S_n-stable, as it is for every ``FAMILIES`` row, so
      projecting to the quotient commutes with S_n;
    - the factor e^a is a product of elementary symmetric polynomials;
    - Young's natural basis, the sigma_T eps_T0 for standard T, is a
      basis of C[S_n] eps_T0.

    The first is checked: ValueError unless the quotient is that of a
    ``FAMILIES`` ring in the family's n variables.
    """
    basis = lookup(FAMILIES, family_name).basis
    if quotient.spec.family not in FAMILIES:
        raise ValueError("the certificate needs the quotient of a FAMILIES ring")
    n, plan = family_plan(basis, **params)
    if n != quotient.nvars:
        raise ValueError(f"{family_name} has {n} variables, the ring {quotient.nvars}")
    rows: dict = {}  # NF(e_j * x^f) by (degree of f, j), then the slot of f
    # per degree, (representative, fillings of its S, coordinates) in plan order, so
    # grouped by S; a representative's poly is None, as only its label is read
    reps: dict[int, list[tuple[BasisElement, list, list]]] = {}
    for s, fillings, cc, degrees in plan:
        vecs: dict[tuple[int, ...], list] = {}
        for exps, d in degrees:
            j = _maxindex(exps)  # 0-based: e_(j+1) is the last factor of e^a; -1 for a = 0
            if j < 0:
                vecs[exps] = quotient.coords(higher_specht(s, fillings[0]), cc)
            else:
                vecs[exps] = _times_elementary(
                    quotient, rows, vecs[_drop(exps, j)], d - j - 1, j + 1
                )
            be = BasisElement(None, d, s, fillings[0], exps)
            reps.setdefault(d, []).append((be, fillings, vecs[exps]))
    counts: dict[int, int] = {}
    offsets: dict[int, int] = {}  # the family position of each degree's first element
    total = 0
    for d in sorted(reps):
        offsets[d] = total
        counts[d] = sum(len(fillings) for _, fillings, _ in reps[d])
        total += counts[d]

    def check(d: int) -> tuple[int, list[tuple[int, BasisElement]]]:
        dependent = set(dependent_rows([coords for _, _, coords in reps.get(d, [])]))
        if not dependent:
            return counts.get(d, 0), []
        failures, pos = [], offsets[d]
        for _, group in groupby(enumerate(reps[d]), key=lambda item: item[1][0].s):
            group = list(group)
            _, (_, fillings, _) = group[0]
            for t in fillings:
                for i, (be, _, _) in group:
                    if i in dependent:
                        failures.append((pos, be._replace(t=t)))
                    pos += 1
        return counts[d], failures

    return _basis_report(quotient, counts, check, total, family_name, params)


# -- the recursion family and transition matrices ----------------------------


def gp_recursion_family(mu: Sequence[int], degree: int | None = None) -> list[BasisElement]:
    """The inductive spanning family: powers of x_n times child families.

    For i = 1..(number of parts), take the family of the i-th child
    partition (one cell removed from part i) in n-1 variables, multiplied
    by x_n^(i-1).  Within each degree the groups are ordered by the power
    of x_n, then in family order (a stable sort).  ``degree`` restricts the
    family to that degree (degree - (i-1) from child i); None builds all.
    """
    mu = check_partition(mu)
    n = sum(mu)
    out: list[BasisElement] = []
    for i in range(1, len(mu) + 1):
        if degree is not None and degree < i - 1:
            break
        child = mu_child(mu, i)
        child_degree = None if degree is None else degree - (i - 1)
        for be in build_basis_family("Bmu", mu=child, degree=child_degree):
            poly = Poly._raw(n, {e + (i - 1,): c for e, c in be.poly.terms.items()})
            out.append(
                BasisElement(
                    poly, be.degree + i - 1, be.s, be.t, be.exponents, xpower=i - 1
                )
            )
    out.sort(key=lambda be: (be.degree, be.xpower))
    return out


def _row_sort_key(be: BasisElement, n: int):
    r_n = be.t.position_map()[n][0]
    lam = list(be.t.shape)
    lam[r_n] -= 1
    lamhat = tuple(p for p in lam if p > 0)
    return (r_n, -len(lamhat), tuple(-p for p in lamhat))


class TransitionResult(NamedTuple):
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
    after removing n, then in family order (a stable sort).  Columns
    are the recursion family in its own order.  normalize="primitive"
    rescales every element to have coprime integer coefficients.
    """
    if normalize not in ("raw", "primitive"):
        raise ValueError("normalize must be 'raw' or 'primitive'")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    mu = check_partition(mu)
    if not mu:
        raise ValueError("mu must be nonempty")
    n = sum(mu)
    quotient = graded_quotient("Rmu", mu=mu)  # first: its size guard
    rows = build_basis_family("Bmu", mu=mu, degree=d)
    rows.sort(key=lambda be: _row_sort_key(be, n))
    cols = gp_recursion_family(mu, degree=d)
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
            [QQ(matrix[i][j] * col_scale[j]) / row_scale[i] for j in range(len(cols))]
            for i in range(len(rows))
        ]
    return TransitionResult(matrix, rows, cols, mu, d, normalize)


def almost_lower_triangular(matrix: list[list]) -> tuple[bool, list[list] | None]:
    """Find upper triangular A with M*A lower triangular and nonzero diagonal.

    Returns (True, A) with A integral, or (False, None).  A exists exactly
    when every leading principal minor of M is nonzero: M*A = L gives
    M_k*A_k = L_k on the leading k x k blocks; conversely, with M_j and
    M_{j+1} invertible, ker M[0:j, 0:j+1] is spanned by one v with
    v_j != 0, and row j of M has a nonzero dot product with v.  The rows
    of M go into one ``Echelon`` in order; given M_j invertible, M_{j+1}
    is invertible exactly when the pivot of row j is column j.  Before
    row j goes in, the pivots are 0..j-1, so the null vector for column j
    is that v, and column j of A is v as primitive integers, positive at
    j: the only witness column with those two properties.
    """
    t = len(matrix)
    if any(len(row) != t for row in matrix):
        raise ValueError("matrix must be square")
    ech = Echelon()
    cols_a: list[list[int]] = []
    for j, row in enumerate(matrix):
        cols_a.append(_integral_row(ech.null_vector(j, t)))
        ech.insert(_sparse(row))
        if j not in ech.lead:
            return False, None
    witness = [[cols_a[j][i] for j in range(t)] for i in range(t)]
    # internal sanity: M * A really is lower triangular with nonzero diagonal,
    # checked in ints: A is integral, and scaling a row of M to integers keeps
    # every zero and nonzero entry of the product
    for i, row in enumerate(map(_integral_row, matrix)):
        for j in range(i, t):
            entry = sum(row[c] * witness[c][j] for c in range(t))
            if j > i and entry:
                raise AssertionError("witness failed above the diagonal")
            if j == i and not entry:
                raise AssertionError("witness has a zero diagonal entry")
    return True, witness
