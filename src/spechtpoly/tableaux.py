"""Partitions, Young tableaux and word statistics.

All tableaux use the French convention: ``rows[0]`` is the bottom row
(the longest one), and column entries increase reading upward.  The
reading word lists rows top to bottom, each row left to right.

Text syntax used by the CLI and tests: a partition is comma separated
("3,3,2"); a tableau lists rows bottom to top separated by "/", entries
separated by spaces ("1 3 6/2 4 7/5").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

Partition = tuple[int, ...]
Word = tuple[int, ...]


# -- partitions --------------------------------------------------------------


def is_partition(mu: Sequence[int]) -> bool:
    mu = tuple(mu)
    if any(p <= 0 for p in mu):
        return False
    return all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))


def check_partition(mu: Sequence[int]) -> Partition:
    mu = tuple(int(p) for p in mu)
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu!r}")
    return mu


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    return check_partition(tuple(int(p) for p in text.split(",")))


def format_partition(mu: Sequence[int]) -> str:
    return ",".join(str(p) for p in mu)


def conjugate(mu: Sequence[int]) -> Partition:
    mu = tuple(mu)
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p > c) for c in range(mu[0]))


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order."""

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    if n < 0:
        return
    yield from rec(n, n if n else 1, [])


def contains(outer: Sequence[int], inner: Sequence[int]) -> bool:
    """True when the diagram of ``inner`` fits inside ``outer``."""
    outer = tuple(outer)
    inner = tuple(inner)
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def standard_count(shape: Sequence[int]) -> int:
    """Number of standard tableaux of the given shape (hook lengths)."""
    shape = check_partition(shape) if shape else ()
    n = sum(shape)
    conj = conjugate(shape)
    hooks = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            hooks *= (row_len - c) + (conj[c] - r) - 1
    return factorial(n) // hooks


def column_excess(mu: Sequence[int], t: int) -> int:
    """c_t: total length of the first t columns of mu, minus t.

    Columns past the last are counted as empty, so the value can go
    negative; c_0 = 0 always.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 0
    conj = conjugate(check_partition(mu))
    return sum(conj[:t]) - t


def mu_child(mu: Sequence[int], i: int) -> Partition:
    """Decrement the i-th part (1-based), drop zeros, re-sort decreasingly."""
    mu = check_partition(mu)
    if not 1 <= i <= len(mu):
        raise ValueError(f"part index {i} out of range for {mu}")
    parts = list(mu)
    parts[i - 1] -= 1
    return tuple(sorted((p for p in parts if p > 0), reverse=True))


# -- tableaux ----------------------------------------------------------------


class _TableauRows(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class Tableau(_TableauRows):
    """A filling of a Young diagram; rows are listed bottom to top."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Iterable[int]]) -> "Tableau":
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        shape = tuple(len(row) for row in rows)
        if shape and not is_partition(shape):
            raise ValueError(f"row lengths {shape} do not form a partition")
        if any(e <= 0 for row in rows for e in row):
            raise ValueError("entries must be positive integers")
        return super().__new__(cls, rows)

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def content(self) -> tuple[int, ...]:
        """Multiplicity of each letter 1..max."""
        if not self.rows:
            return ()
        top = max(e for row in self.rows for e in row)
        counts = [0] * top
        for row in self.rows:
            for e in row:
                counts[e - 1] += 1
        return tuple(counts)

    def is_bijective(self) -> bool:
        n = self.size
        seen = sorted(e for row in self.rows for e in row)
        return seen == list(range(1, n + 1))

    def is_semistandard(self) -> bool:
        for row in self.rows:
            if any(row[c] > row[c + 1] for c in range(len(row) - 1)):
                return False
        for r in range(len(self.rows) - 1):
            upper = self.rows[r + 1]
            lower = self.rows[r]
            if any(upper[c] <= lower[c] for c in range(len(upper))):
                return False
        return True

    def is_standard(self) -> bool:
        return self.is_bijective() and self.is_semistandard()

    def position_map(self) -> dict[int, tuple[int, int]]:
        """entry -> (row, col); requires a bijective filling."""
        if not self.is_bijective():
            raise ValueError("tableau is not a bijective filling")
        out = {}
        for r, row in enumerate(self.rows):
            for c, e in enumerate(row):
                out[e] = (r, c)
        return out

    def transpose(self) -> "Tableau":
        conj = conjugate(self.shape)
        new_rows = tuple(
            tuple(self.rows[r][c] for r in range(conj[c])) for c in range(len(conj))
        )
        return Tableau(new_rows)

    def replace_entries(self, mapping: dict[int, int]) -> "Tableau":
        return Tableau(tuple(tuple(mapping[e] for e in row) for row in self.rows))

    def __str__(self) -> str:
        return format_tableau(self)


def parse_tableau(text: str) -> Tableau:
    rows = []
    for chunk in text.strip().split("/"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty row in tableau text {text!r}")
        rows.append(tuple(int(e) for e in chunk.split()))
    return Tableau(tuple(rows))


def format_tableau(t: Tableau) -> str:
    return "/".join(" ".join(str(e) for e in row) for row in t.rows)


def reading_word(t: Tableau) -> Word:
    """Rows top to bottom, each left to right."""
    out: list[int] = []
    for row in reversed(t.rows):
        out.extend(row)
    return tuple(out)


def reading_cells(shape: Sequence[int]) -> list[tuple[int, int]]:
    """Cells in reading order (top row first, left to right)."""
    shape = tuple(shape)
    out = []
    for r in range(len(shape) - 1, -1, -1):
        for c in range(shape[r]):
            out.append((r, c))
    return out


# -- enumeration -------------------------------------------------------------


def enumerate_tableaux(
    shape: Sequence[int], content: Sequence[int] | None = None
) -> list[Tableau]:
    """The column-strict fillings of ``shape`` with the given content, by reading word.

    Rows weakly increase and columns strictly increase.  content None
    means (1, ..., 1), which gives the standard tableaux.
    """
    shape = check_partition(shape) if shape else ()
    n = sum(shape)
    content = (1,) * n if content is None else tuple(int(c) for c in content)
    if sum(content) != n or any(c < 0 for c in content):
        raise ValueError("content must be nonnegative and sum to the size")

    remaining = list(content)
    grid = [[0] * length for length in shape]
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    results: list[Tableau] = []

    def fill(idx: int) -> None:
        if idx == len(cells):
            results.append(Tableau(tuple(tuple(row) for row in grid)))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])  # weak along the row
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)  # strict up the column
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                grid[r][c] = v
                fill(idx + 1)
                grid[r][c] = 0
                remaining[v - 1] += 1

    fill(0)
    results.sort(key=reading_word)
    return results


# -- cocharge ----------------------------------------------------------------


class CochargeLabeling(NamedTuple):
    """Per-position labels of a word plus the standard subword each position joined.

    ``labels[p]`` and ``subword_index[p]`` describe position p (0-based);
    subwords are numbered from 1 in extraction order.
    """

    labels: tuple[int, ...]
    subword_index: tuple[int, ...]

    @property
    def cocharge(self) -> int:
        return sum(self.labels)


def _check_word_content(word: Word) -> int:
    """Validate that letter multiplicities weakly decrease; return max letter."""
    if not word:
        return 0
    top = max(word)
    if min(word) < 1:
        raise ValueError("letters must be positive")
    counts = [0] * top
    for w in word:
        counts[w - 1] += 1
    if any(c == 0 for c in counts) or any(
        counts[i] < counts[i + 1] for i in range(top - 1)
    ):
        raise ValueError(f"word content {tuple(counts)} is not a partition")
    return top


def cocharge_labels(word: Sequence[int]) -> CochargeLabeling:
    """Label every position of a partition-content word.

    The word is peeled into standard subwords: start at the rightmost 1,
    and for each next letter k take its rightmost occurrence strictly to
    the left of the current position, wrapping to the rightmost occurrence
    overall when there is none.  Each subword is labelled like a
    permutation: letter 1 gets 0, and letter k+1 gets the label of k,
    plus one exactly when k+1 sits to the left of k.
    """
    word = tuple(int(w) for w in word)
    top = _check_word_content(word)
    if not word:
        return CochargeLabeling((), ())
    positions: list[list[int]] = [[] for _ in range(top + 1)]
    for p, w in enumerate(word):
        positions[w].append(p)

    labels = [0] * len(word)
    subword_index = [0] * len(word)
    sub = 0
    while positions[1]:
        sub += 1
        chosen: list[int] = []
        p = positions[1][-1]
        chosen.append(p)
        k = 2
        while k <= top and positions[k]:
            avail = positions[k]
            idx = bisect_left(avail, p) - 1
            p = avail[idx] if idx >= 0 else avail[-1]
            chosen.append(p)
            k += 1
        label = 0
        for j, p in enumerate(chosen):
            if j > 0 and p < chosen[j - 1]:
                label += 1
            labels[p] = label
            subword_index[p] = sub
            positions[j + 1].remove(p)
    return CochargeLabeling(tuple(labels), tuple(subword_index))


def cocharge(word: Sequence[int]) -> int:
    return cocharge_labels(word).cocharge


def cocharge_label_tableau(t: Tableau) -> tuple[tuple[int, ...], ...]:
    """Replace each cell of ``t`` by the cocharge label of its reading-word letter."""
    labeling = cocharge_labels(reading_word(t))
    cells = reading_cells(t.shape)
    grid = [[0] * length for length in t.shape]
    for pos, (r, c) in enumerate(cells):
        grid[r][c] = labeling.labels[pos]
    return tuple(tuple(row) for row in grid)


def semistandard_descents(t: Tableau) -> int:
    """Largest cocharge label of the reading word.

    On standard tableaux this equals the number of descents.
    """
    word = reading_word(t)
    if not word:
        return 0
    return max(cocharge_labels(word).labels)


class DescentStats(NamedTuple):
    descents: tuple[int, ...]
    des: int
    maj: int


def descent_stats(t: Tableau) -> DescentStats:
    """Descents of a standard tableau: i such that i+1 sits in a higher row."""
    if not t.is_standard():
        raise ValueError("descent statistics need a standard tableau")
    pos = t.position_map()
    descents = tuple(
        i for i in range(1, t.size) if pos[i + 1][0] > pos[i][0]
    )
    return DescentStats(descents, len(descents), sum(descents))


# -- (de)standardization and the k-bounded encoding --------------------------


def destandardize(t: Tableau) -> Tableau:
    """Collapse a standard tableau along its descent runs.

    Entries 1..d1 become 1, d1+1..d2 become 2, and so on, where the di
    are the descents.  The result is semistandard with partition content.
    """
    stats = descent_stats(t)
    mapping = {}
    v = 1
    for entry in range(1, t.size + 1):
        mapping[entry] = v
        if entry in stats.descents:
            v += 1
    return t.replace_entries(mapping)


def standardize(t: Tableau) -> Tableau:
    """Number equal entries left to right by column; inverse of destandardize."""
    if not t.is_semistandard():
        raise ValueError("standardize needs a semistandard tableau")
    order: list[tuple[int, int, int, int]] = []  # (value, col, row, -) per cell
    for r, row in enumerate(t.rows):
        for c, e in enumerate(row):
            order.append((e, c, r, 0))
    order.sort()
    grid = [list(row) for row in t.rows]
    for new_value, (_, c, r, _) in enumerate(order, start=1):
        grid[r][c] = new_value
    return Tableau(tuple(tuple(row) for row in grid))


def kbounded_encode(
    s: Tableau, t: Tableau, exponents: Sequence[int], k: int
) -> tuple[Tableau, Tableau]:
    """Pack (S, T, exponents) into a pair (R, T) with entries of R at most k.

    S and T are standard of the same shape (n cells); ``exponents`` is a
    nonnegative integer tuple of length n with sum < k - des(S).  R adds
    the running sums of the exponents to the destandardization of S, cell
    by cell in S-entry order.  Together with RSK this realizes the count
    of k^n for the number of such triples.
    """
    if s.shape != t.shape:
        raise ValueError("S and T must have the same shape")
    if not (s.is_standard() and t.is_standard()):
        raise ValueError("S and T must be standard")
    n = s.size
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != n or any(e < 0 for e in exponents):
        raise ValueError("exponents must be n nonnegative integers")
    stats = descent_stats(s)
    if sum(exponents) >= k - stats.des:
        raise ValueError(
            f"sum of exponents {sum(exponents)} is not below k - des(S) = {k - stats.des}"
        )
    flat = destandardize(s)
    pos = s.position_map()
    grid = [list(row) for row in flat.rows]
    running = 0
    for entry in range(1, n + 1):
        running += exponents[entry - 1]
        r, c = pos[entry]
        grid[r][c] += running
    return Tableau(tuple(tuple(row) for row in grid)), t


def kbounded_decode(r: Tableau, t: Tableau, k: int) -> tuple[Tableau, tuple[int, ...]]:
    """Inverse of :func:`kbounded_encode`."""
    if r.shape != t.shape:
        raise ValueError("R and T must have the same shape")
    if not t.is_standard():
        raise ValueError("T must be standard")
    if not r.is_semistandard():
        raise ValueError("R must be semistandard")
    if any(e > k for row in r.rows for e in row):
        raise ValueError(f"R has entries above k={k}")
    s = standardize(r)
    flat = destandardize(s)
    pos = s.position_map()
    n = s.size
    prev = 0
    exponents = []
    for entry in range(1, n + 1):
        rr, cc = pos[entry]
        p = r.rows[rr][cc] - flat.rows[rr][cc]
        if p < prev:
            raise ValueError("running sums decrease; R is not in the image")
        exponents.append(p - prev)
        prev = p
    stats = descent_stats(s)
    if prev >= k - stats.des:
        raise ValueError("decoded exponents violate the degree bound")
    return s, tuple(exponents)


# -- RSK ---------------------------------------------------------------------


def rsk(word: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row insertion of a word; returns (P, Q) with P semistandard, Q standard."""
    word = tuple(int(w) for w in word)
    if any(w < 1 for w in word):
        raise ValueError("letters must be positive")
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for step, letter in enumerate(word, start=1):
        v = letter
        r = 0
        while True:
            if r == len(prows):
                prows.append([v])
                qrows.append([step])
                break
            row = prows[r]
            idx = bisect_right(row, v)
            if idx == len(row):
                row.append(v)
                qrows[r].append(step)
                break
            v, row[idx] = row[idx], v
            r += 1
    p = Tableau(tuple(tuple(row) for row in prows))
    q = Tableau(tuple(tuple(row) for row in qrows))
    return p, q


def rsk_inverse(p: Tableau, q: Tableau) -> Word:
    """Recover the word from an RSK pair."""
    if p.shape != q.shape:
        raise ValueError("P and Q must have the same shape")
    if not q.is_standard():
        raise ValueError("Q must be standard")
    if not p.is_semistandard():
        raise ValueError("P must be semistandard")
    prows = [list(row) for row in p.rows]
    qpos = q.position_map()
    out: list[int] = []
    for step in range(q.size, 0, -1):
        r, c = qpos[step]
        if c != len(prows[r]) - 1:
            raise ValueError("Q is not a recording tableau for P")
        v = prows[r].pop()
        for rr in range(r - 1, -1, -1):
            row = prows[rr]
            idx = bisect_left(row, v) - 1
            v, row[idx] = row[idx], v
        out.append(v)
    out.reverse()
    return tuple(out)


# -- last letter order -------------------------------------------------------


def last_letter_key(t: Tableau) -> tuple[int, ...]:
    """Sort key for the last letter order: row of n, then of n-1, and so on."""
    pos = t.position_map()
    return tuple(pos[v][0] for v in range(t.size, 0, -1))


def last_letter_compare(t1: Tableau, t2: Tableau) -> int:
    """-1, 0 or 1 comparing standard tableaux of equal shape.

    The smaller tableau holds the largest disagreeing letter in a lower row.
    """
    if t1.shape != t2.shape:
        raise ValueError("tableaux must have the same shape")
    k1, k2 = last_letter_key(t1), last_letter_key(t2)
    if k1 == k2:
        if t1 != t2:
            raise ValueError("fillings agree on rows but differ; not standard?")
        return 0
    return -1 if k1 < k2 else 1


@lru_cache(maxsize=None)
def _standard_cached(shape: Partition) -> tuple[Tableau, ...]:
    return tuple(sorted(_semistandard_cached(shape, (1,) * sum(shape)), key=last_letter_key))


def standard_tableaux(shape: Sequence[int]) -> list[Tableau]:
    """Standard tableaux of a shape in last letter order; a fresh list."""
    return list(_standard_cached(check_partition(shape) if shape else ()))


@lru_cache(maxsize=None)
def _semistandard_cached(shape: Partition, content: tuple[int, ...]) -> tuple[Tableau, ...]:
    return tuple(enumerate_tableaux(shape, content))


def semistandard_tableaux(shape: Sequence[int], content: Sequence[int]) -> list[Tableau]:
    """Semistandard tableaux of a shape and content, by reading word; a fresh list."""
    shape = check_partition(shape) if shape else ()
    return list(_semistandard_cached(shape, tuple(int(c) for c in content)))
