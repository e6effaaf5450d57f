"""Sparse multivariate polynomials with exact rational coefficients.

Coefficients are integer-first: a coefficient is an ``int`` when its
value is integral and a ``QQ`` only otherwise (``exact`` and
``exact_quotient`` are the normalisers).  Integer inputs therefore stay in
Python ints through every ring operation.

Variables are x1..xn; exponent vectors are tuples of length ``nvars``.
The monomial order used everywhere (term rendering, pivot selection,
basis listings) is: higher total degree first, and within a degree
ascending lexicographic order of the exponent tuple.  Under this order
x2^2 > x1*x2 > x1^2, i.e. within a degree the order behaves like a
reverse-lexicographic ranking of the variables with xn heaviest.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as QQ
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .perms import Perm, relabeller

Exponent = tuple[int, ...]


def exact(c):
    """c as an int when its value is integral, else as a QQ."""
    if type(c) is int:
        return c
    if type(c) is not QQ:
        c = QQ(c)
    return c.numerator if c.denominator == 1 else c


def exact_quotient(num: int, den: int):
    """num / den for ints: an int when den divides num, else a QQ; never a float."""
    q, r = divmod(num, den)
    return QQ(num, den) if r else q


def _all_int(terms: Mapping) -> bool:
    return all(type(c) is int for c in terms.values())


def monomial_sort_key(exp: Exponent):
    """Sort key listing monomials largest-first under the global order."""
    return (-sum(exp), exp)


class Poly:
    """Immutable-by-convention sparse polynomial over Q with exact coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Exponent, object] = {}
        if terms:
            for exp, coeff in terms.items():
                key = tuple(exp)
                if len(key) != nvars or any(e < 0 for e in key):
                    raise ValueError(f"bad exponent {key!r} for nvars={nvars}")
                c = exact(coeff)
                if c:
                    prev = clean.get(key)
                    clean[key] = c if prev is None else exact(prev + c)
                    if not clean[key]:
                        del clean[key]
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponent, object]) -> "Poly":
        """Trusted constructor: terms must already be clean (no zeros, exact values)."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls._raw(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        c = exact(c)
        if not c:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls._raw(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, exp: Sequence[int], coeff=1) -> "Poly":
        return cls(len(exp), {tuple(exp): coeff})

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return self + Poly.constant(self.nvars, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp)
            if v is None:
                out[exp] = c
            else:
                v = v + c
                if v:
                    out[exp] = exact(v)
                else:
                    del out[exp]
        return Poly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.constant(self.nvars, other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = exact(other)
            if not c:
                return Poly.zero(self.nvars)
            if type(c) is int and _all_int(self.terms):
                return Poly._raw(self.nvars, {e: v * c for e, v in self.terms.items()})
            return Poly._raw(self.nvars, {e: exact(v * c) for e, v in self.terms.items()})
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponent, object] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(map(add, ea, eb))
                v = get(key)
                if v is None:
                    out[key] = ca * cb
                else:
                    v += ca * cb
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        if not (_all_int(a) and _all_int(b)):
            out = {e: exact(v) for e, v in out.items()}
        return Poly._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self == Poly.constant(self.nvars, other)

    __hash__ = None  # mutable dict inside; not hashable

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def homogeneous_component(self, d: int) -> "Poly":
        return Poly._raw(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def homogeneous_components(self) -> dict[int, "Poly"]:
        parts: dict[int, dict[Exponent, object]] = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: Poly._raw(self.nvars, t) for d, t in sorted(parts.items())}

    def coefficient(self, exp: Sequence[int]):
        return self.terms.get(tuple(exp), 0)

    def evaluate(self, point: Sequence[object]):
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        point = [exact(v) for v in point]
        total = 0
        for exp, coeff in self.terms.items():
            term = coeff
            for v, e in zip(point, exp):
                if e:
                    term = term * v**e
            total = total + term
        return exact(total)

    def sorted_terms(self) -> list[tuple[Exponent, object]]:
        return sorted(self.terms.items(), key=lambda kv: monomial_sort_key(kv[0]))

    def content(self):
        """Positive rational c such that self/c has coprime integer coefficients."""
        num, den = self._content()
        return exact_quotient(num, den)

    def _content(self) -> tuple[int, int]:
        """(numerator, denominator) of the content; (1, 1) for the zero polynomial."""
        if not self.terms:
            return 1, 1
        num = gcd(*(c.numerator for c in self.terms.values()))
        den = lcm(*(c.denominator for c in self.terms.values()))
        return num, den

    def primitive_part(self) -> "Poly":
        """self divided by its content (sign of terms preserved); integer coefficients."""
        num, den = self._content()
        return Poly._raw(
            self.nvars,
            {e: c.numerator * (den // c.denominator) // num for e, c in self.terms.items()},
        )

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not chunks:
                chunks.append(("-" if neg else "") + body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {str(self)!r})"


# -- module-level constructors and helpers ----------------------------------


def monomials_of_degree(nvars: int, d: int) -> list[Exponent]:
    """All exponent tuples of total degree d, largest monomial first.

    Largest-first under the global order means ascending lexicographic
    order of the exponent tuples.
    """
    if nvars == 0:
        return [()] if d == 0 else []
    out: list[Exponent] = []
    prefix = [0] * nvars

    def rec(pos: int, remaining: int) -> None:
        if pos == nvars - 1:
            prefix[pos] = remaining
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            prefix[pos] = e
            rec(pos + 1, remaining - e)

    rec(0, d)
    return out


def elementary(d: int, nvars: int, indices: Iterable[int] | None = None) -> Poly:
    """Elementary symmetric polynomial e_d in the given 1-based variables.

    ``indices=None`` means all of x1..xn.  e_0 = 1; e_d = 0 for d larger
    than the number of chosen variables.
    """
    if indices is None:
        chosen = list(range(1, nvars + 1))
    else:
        chosen = sorted(set(indices))
        if chosen and (chosen[0] < 1 or chosen[-1] > nvars):
            raise ValueError("variable index out of range")
    if d < 0:
        raise ValueError("negative degree")
    if d == 0:
        return Poly.one(nvars)
    if d > len(chosen):
        return Poly.zero(nvars)
    terms: dict[Exponent, object] = {}
    for combo in itertools.combinations(chosen, d):
        exp = [0] * nvars
        for i in combo:
            exp[i - 1] = 1
        terms[tuple(exp)] = 1
    return Poly._raw(nvars, terms)


def vandermonde(nvars: int) -> Poly:
    """The discriminant product over pairs i<j of (x_i - x_j)."""
    result = Poly.one(nvars)
    for i in range(1, nvars + 1):
        for j in range(i + 1, nvars + 1):
            result = result * (Poly.variable(i, nvars) - Poly.variable(j, nvars))
    return result


def permute_variables(sigma: Perm, p: Poly) -> Poly:
    """Apply the substitution x_i -> x_{sigma(i)} (sigma is 0-based).

    ValueError unless sigma is a permutation of range(nvars).
    """
    n = p.nvars
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of range({n})")
    relabel = relabeller(sigma)
    return Poly._raw(n, {relabel(e): c for e, c in p.terms.items()})


def extend_variables(p: Poly, nvars: int) -> Poly:
    """Reinterpret p in a larger variable set (pad exponents with zeros)."""
    if nvars < p.nvars:
        raise ValueError("cannot shrink the variable set")
    if nvars == p.nvars:
        return p
    pad = (0,) * (nvars - p.nvars)
    return Poly._raw(nvars, {e + pad: c for e, c in p.terms.items()})


def clear_denominators(terms: Mapping) -> tuple[dict, int]:
    """(ints, scale) with terms = ints / scale, where scale is the lcm of the denominators."""
    scale = lcm(*(c.denominator for c in terms.values()))
    ints = {key: c.numerator * (scale // c.denominator) for key, c in terms.items()}
    return ints, scale
