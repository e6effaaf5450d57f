"""Permutations of {0, ..., n-1} represented as tuples.

A permutation ``a`` maps ``i`` to ``a[i]``.  Cycle types are partitions
(weakly decreasing tuples of positive integers).
"""

from __future__ import annotations

import itertools
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

Perm = tuple[int, ...]
Relabeller = Callable[[tuple[int, ...]], tuple[int, ...]]


def relabeller(sigma: Sequence[int]) -> Relabeller:
    """The exponent map of x_i -> x_sigma(i), sigma 0-based and unchecked.

    The exponent at i moves to sigma(i); the package's only such map.
    """
    n = len(sigma)
    inverse = [0] * n
    for i, j in enumerate(sigma):
        inverse[j] = i
    # itemgetter of one index returns the entry, not a 1-tuple
    return itemgetter(*inverse) if n > 1 else tuple


def sign(a: Perm) -> int:
    """Sign of the permutation: (-1)^(n - number of cycles)."""
    seen = [False] * len(a)
    cycles = 0
    for start in range(len(a)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = a[j]
    return -1 if (len(a) - cycles) % 2 else 1


def from_cycle_type(rho: Iterable[int], n: int) -> Perm:
    """A canonical permutation of cycle type rho: consecutive blocks, each rotated."""
    out = list(range(n))
    pos = 0
    for part in rho:
        if part <= 0:
            raise ValueError("cycle lengths must be positive")
        block = list(range(pos, pos + part))
        for i, j in zip(block, block[1:] + block[:1]):
            out[i] = j
        pos += part
    if pos > n:
        raise ValueError("cycle type does not fit in n points")
    return tuple(out)


def conjugacy_class_size(rho: tuple[int, ...]) -> int:
    """Number of permutations in S_n with cycle type rho, n = sum(rho)."""
    n = sum(rho)
    z = 1
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return factorial(n) // z


def all_permutations(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(n))
