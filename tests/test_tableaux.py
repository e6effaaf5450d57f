from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bijective_fillings
from spechtpoly.tableaux import (
    Tableau,
    cocharge,
    cocharge_label_tableau,
    cocharge_labels,
    column_excess,
    conjugate,
    descent_stats,
    destandardize,
    enumerate_tableaux,
    format_partition,
    format_tableau,
    kbounded_decode,
    kbounded_encode,
    last_letter_compare,
    mu_child,
    parse_partition,
    parse_tableau,
    partitions,
    reading_word,
    rsk,
    rsk_inverse,
    semistandard_descents,
    standard_count,
    standard_tableaux,
    standardize,
)


def label_permutation(word):
    """Direct cocharge labeling of a permutation word, used as an oracle.

    Label of 1 is 0; the label of i+1 repeats the label of i when i+1
    sits to the right of i, and increments it otherwise.
    """
    n = len(word)
    pos = {v: i for i, v in enumerate(word)}
    lab = {1: 0}
    for v in range(1, n):
        lab[v + 1] = lab[v] + (0 if pos[v] < pos[v + 1] else 1)
    return tuple(lab[v] for v in word)


# -- partitions ----------------------------------------------------------------


def test_partitions_enumeration():
    assert list(partitions(0)) == [()]
    assert list(partitions(1)) == [(1,)]
    fours = list(partitions(4))
    assert fours[0] == (4,) and fours[-1] == (1, 1, 1, 1)
    assert len(fours) == 5
    assert len(list(partitions(5))) == 7
    assert len(list(partitions(6))) == 11
    # strictly decreasing in lex order, all valid
    assert all(fours[i] > fours[i + 1] for i in range(len(fours) - 1))


def test_parse_and_format_partition():
    assert parse_partition("3,3,2") == (3, 3, 2)
    assert parse_partition("") == ()
    assert format_partition((3, 3, 2)) == "3,3,2"
    with pytest.raises(ValueError):
        parse_partition("2,3")


def test_conjugate():
    assert conjugate((3, 3, 1)) == (3, 2, 2)
    assert conjugate((1, 1, 1, 1)) == (4,)
    assert conjugate((3, 3, 2)) == (3, 3, 2)
    for n in range(7):
        for mu in partitions(n):
            assert conjugate(conjugate(mu)) == mu


def test_column_excess():
    assert column_excess((3, 3, 2), 1) == 2
    assert column_excess((3, 3, 2), 0) == 0
    # columns past the end of the diagram count as empty
    assert column_excess((1, 1, 1, 1), 2) == 2
    assert column_excess((1,), 2) == -1
    with pytest.raises(ValueError):
        column_excess((2, 1), -1)


def test_standard_count_hook_lengths():
    assert standard_count((2, 1)) == 2
    assert standard_count((3, 2)) == 5
    assert standard_count((2, 2)) == 2
    assert standard_count((1,)) == 1
    for n in range(1, 7):
        assert sum(standard_count(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_mu_child():
    assert mu_child((3, 3, 2), 1) == (3, 2, 2)
    assert mu_child((3, 3, 2), 2) == (3, 2, 2)
    assert mu_child((3, 3, 2), 3) == (3, 3, 1)
    assert mu_child((1,), 1) == ()
    with pytest.raises(ValueError):
        mu_child((3, 1), 0)
    with pytest.raises(ValueError):
        mu_child((3, 1), 3)


# -- tableaux basics -----------------------------------------------------------


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(((1, 2), (3, 4, 5)))  # rows must shrink going up
    with pytest.raises(ValueError):
        Tableau(((0, 1),))  # entries positive
    t = Tableau(((1, 2, 5), (3, 4, 6), (7,)))
    assert t.shape == (3, 3, 1)
    assert t.size == 7
    assert t.is_standard()


def test_tableau_is_an_immutable_hashable_value():
    t = Tableau([[1, 2, 5], [3, 4, 6], [7]])  # any iterables, normalised to int tuples
    u = parse_tableau("1 2 5/3 4 6/7")
    assert t.rows == ((1, 2, 5), (3, 4, 6), (7,))
    assert t == u and hash(t) == hash(u)
    assert repr(t) == "Tableau(rows=((1, 2, 5), (3, 4, 6), (7,)))"
    with pytest.raises(AttributeError):
        t.rows = ((1,),)
    seen = []

    @lru_cache(maxsize=None)
    def shape_of(tab):
        seen.append(tab)
        return tab.shape

    assert shape_of(t) == shape_of(u) == (3, 3, 1)
    assert len(seen) == 1 and shape_of.cache_info().currsize == 1
    for rows in ([[1], [2, 3]], [[1, -2]], [[0]]):
        with pytest.raises(ValueError):
            Tableau(rows)


def test_parse_format_roundtrip():
    text = "1 3 6/2 4 7/5"
    t = parse_tableau(text)
    assert t.rows == ((1, 3, 6), (2, 4, 7), (5,))
    assert format_tableau(t) == text
    assert str(t) == text


def test_flags():
    assert parse_tableau("1 1 2/2 3").is_semistandard()
    assert not parse_tableau("1 2 1").is_semistandard()
    assert not parse_tableau("1 1/1 2").is_semistandard()  # column repeats
    assert parse_tableau("1 2/3 4").is_standard()
    assert not parse_tableau("1 1/2 2").is_standard()
    assert parse_tableau("2 1/4 3").is_bijective()


def test_reading_word():
    # rows are stored bottom-to-top; the word reads rows top-down
    t = parse_tableau("1 2 5/3 4 6/7")
    assert reading_word(t) == (7, 3, 4, 6, 1, 2, 5)
    assert reading_word(parse_tableau("1 2 3")) == (1, 2, 3)
    s = parse_tableau("1 1 1 2 3/2 2 3 3 4/4")
    assert reading_word(s) == (4, 2, 2, 3, 3, 4, 1, 1, 1, 2, 3)


def test_transpose():
    t = parse_tableau("1 2 5/3 4 6/7")
    assert t.transpose().shape == conjugate(t.shape)
    assert t.transpose().transpose() == t


# -- cocharge ------------------------------------------------------------------


def test_cocharge_permutation_word():
    lab = cocharge_labels((7, 3, 4, 6, 1, 2, 5))
    assert lab.labels == (3, 1, 1, 2, 0, 0, 1)
    assert lab.cocharge == 8
    assert cocharge((7, 3, 4, 6, 1, 2, 5)) == 8


def test_cocharge_reverse_word():
    for n in (1, 3, 5):
        word = tuple(range(n, 0, -1))
        lab = cocharge_labels(word)
        assert lab.labels == tuple(range(n - 1, -1, -1))
        assert lab.cocharge == n * (n - 1) // 2


def test_cocharge_matches_direct_labeler_on_permutations(rng):
    for n in range(1, 7):
        for _ in range(30):
            word = tuple(rng.sample(range(1, n + 1), n))
            assert cocharge_labels(word).labels == label_permutation(word)


def test_cocharge_standard_subwords():
    """Content (3,3,3,2) word: three subwords, labels known position by position."""
    word = (4, 2, 2, 3, 3, 4, 1, 1, 1, 2, 3)
    lab = cocharge_labels(word)
    assert lab.labels == (2, 1, 1, 1, 1, 2, 0, 0, 0, 0, 1)
    assert lab.cocharge == 9
    groups = {}
    for i, s in enumerate(lab.subword_index):
        groups.setdefault(s, set()).add(i)
    assert groups[1] == {8, 2, 10, 5}
    assert groups[2] == {7, 1, 4, 0}
    assert groups[3] == {6, 9, 3}
    # each subword is a permutation of 1..its length
    for s, positions in groups.items():
        letters = sorted(word[i] for i in positions)
        assert letters == list(range(1, len(positions) + 1))


def test_cocharge_rejects_non_partition_content():
    with pytest.raises(ValueError):
        cocharge_labels((1, 2, 2))  # content (1,2)
    with pytest.raises(ValueError):
        cocharge_labels((1, 3))  # missing letter 2


def test_cocharge_label_tableau():
    s = parse_tableau("1 1 1 2 3/2 2 3 3 4/4")
    assert cocharge_label_tableau(s) == ((0, 0, 0, 0, 1), (1, 1, 1, 1, 2), (2,))


def test_semistandard_descents():
    assert semistandard_descents(parse_tableau("1 1 1")) == 0
    assert semistandard_descents(parse_tableau("1 1/2")) == 1
    assert semistandard_descents(parse_tableau("1 1 1 2 3/2 2 3 3 4/4")) == 2


# -- descents, maj, destandardization ------------------------------------------


def test_descent_stats():
    st_ = descent_stats(parse_tableau("1 3 6/2 4 7/5"))
    assert st_.descents == (1, 3, 4, 6)
    assert st_.des == 4
    assert st_.maj == 14
    assert descent_stats(parse_tableau("1 2 3")).maj == 0
    col = descent_stats(parse_tableau("1/2/3/4"))
    assert col.des == 3 and col.maj == 6
    with pytest.raises(ValueError):
        descent_stats(parse_tableau("1 1/2 2"))


def test_cocharge_maj_equidistribution():
    """cc and maj have the same distribution over the standard tableaux of
    any fixed shape (checked exhaustively through n=6)."""
    for n in range(1, 7):
        for lam in partitions(n):
            tabs = standard_tableaux(lam)
            ccs = sorted(cocharge(reading_word(t)) for t in tabs)
            majs = sorted(descent_stats(t).maj for t in tabs)
            assert ccs == majs, lam


def test_destandardize():
    s = parse_tableau("1 2 4 5/3 7 8/6")
    assert destandardize(s).rows == ((1, 1, 2, 2), (2, 3, 3), (3,))
    assert destandardize(parse_tableau("1 2 3 4")).rows == ((1, 1, 1, 1),)


def test_destandardize_roundtrip_and_max_entry():
    for n in range(1, 7):
        for lam in partitions(n):
            for t in standard_tableaux(lam):
                d = destandardize(t)
                assert d.is_semistandard()
                assert max(max(r) for r in d.rows) == descent_stats(t).des + 1
                assert standardize(d) == t


def test_standardize_column_rule():
    # equal entries are numbered left to right (by column)
    assert standardize(parse_tableau("1 1/2 2")) == parse_tableau("1 2/3 4")


# -- RSK -----------------------------------------------------------------------


def test_rsk_constant_word():
    p, q = rsk((1, 1, 1, 1))
    assert p.rows == ((1, 1, 1, 1),)
    assert q.rows == ((1, 2, 3, 4),)


def test_rsk_shapes_and_flavors(rng):
    for _ in range(50):
        n = rng.randrange(1, 9)
        k = rng.randrange(1, 5)
        word = tuple(rng.randrange(1, k + 1) for _ in range(n))
        p, q = rsk(word)
        assert p.shape == q.shape
        assert p.is_semistandard()
        assert q.is_standard()
        assert rsk_inverse(p, q) == word


def test_rsk_exhaustive_roundtrip():
    images = set()
    for word in itertools.product((1, 2, 3), repeat=4):
        p, q = rsk(word)
        assert rsk_inverse(p, q) == word
        images.add((p.rows, q.rows))
    assert len(images) == 3**4


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=10))
def test_rsk_roundtrip_hypothesis(letters):
    word = tuple(letters)
    p, q = rsk(word)
    assert rsk_inverse(p, q) == word


def _ssyt_with_letters(shape, maxletter):
    out = []
    for content in itertools.product(range(sum(shape) + 1), repeat=maxletter):
        if sum(content) != sum(shape):
            continue
        out.extend(enumerate_tableaux(shape, content))
    return out


def test_rsk_word_count_identity():
    # words over {1,2} of length 3 = sum over shapes of (SSYT count) * (SYT count)
    pairs = {rsk(w) for w in itertools.product((1, 2), repeat=3)}
    assert len(pairs) == 2**3
    total = sum(
        len(_ssyt_with_letters(lam, 2)) * standard_count(lam) for lam in partitions(3)
    )
    assert total == 2**3


# -- enumeration ---------------------------------------------------------------


def test_enumerate_standard():
    tabs = enumerate_tableaux((2, 1))
    assert len(tabs) == 2
    assert all(t.is_standard() for t in tabs)
    assert len(set(tabs)) == 2
    for n in range(1, 6):
        for lam in partitions(n):
            assert len(enumerate_tableaux(lam)) == standard_count(lam)
            # content None is the content (1, ..., 1): the standard bijective fillings
            standard = [t for t in bijective_fillings(lam) if t.is_standard()]
            assert enumerate_tableaux(lam) == enumerate_tableaux(lam, (1,) * n) == standard


def test_enumerate_semistandard():
    assert [t.rows for t in enumerate_tableaux((3,), (2, 1))] == [((1, 1, 2),)]
    assert len(enumerate_tableaux((2, 1), (1, 1, 1))) == 2
    assert len(enumerate_tableaux((2, 1), (2, 1))) == 1
    assert enumerate_tableaux((2, 2), (2, 1, 1)) == [parse_tableau("1 1/2 3")]
    # impossible content gives the empty list
    assert enumerate_tableaux((1, 1), (2,)) == []
    for content in ((2, 2), (1, -1, 3)):  # wrong size, negative entry
        with pytest.raises(ValueError):
            enumerate_tableaux((2, 1), content)


def test_enumerate_all_bijective():
    tabs = bijective_fillings((2, 1))
    assert len(tabs) == 6
    assert len(set(tabs)) == 6
    words = [reading_word(t) for t in tabs]
    assert words == sorted(words)  # deterministic reading-word order


def test_enumeration_is_sorted_by_reading_word():
    for content in (None, (2, 2, 1)):
        words = [reading_word(t) for t in enumerate_tableaux((3, 2), content)]
        assert words == sorted(words)


# -- the k-bounded encoding ----------------------------------------------------


def test_kbounded_figure_example():
    s = parse_tableau("1 2 4 5/3 7 8/6")
    t = parse_tableau("1 2 3 4/5 6 7/8")
    r, t2 = kbounded_encode(s, t, (0, 1, 0, 0, 2, 0, 1, 0), 7)
    assert r.rows == ((1, 2, 3, 5), (3, 7, 7), (6,))
    assert t2 == t
    s2, exps = kbounded_decode(r, t, 7)
    assert s2 == s and exps == (0, 1, 0, 0, 2, 0, 1, 0)


def test_kbounded_zero_increments_is_destandardization():
    s = parse_tableau("1 3/2 4")
    t = parse_tableau("1 2/3 4")
    r, _ = kbounded_encode(s, t, (0, 0, 0, 0), 3)
    assert r == destandardize(s)


def test_kbounded_rejects_large_sums():
    s = parse_tableau("1 2/3 4")  # des 1 -> need sum < k - 1
    t = parse_tableau("1 2/3 4")
    with pytest.raises(ValueError):
        kbounded_encode(s, t, (1, 1, 0, 0), 3)
    kbounded_encode(s, t, (1, 0, 0, 0), 3)  # sum 1 < 2 is fine


def test_kbounded_bijection_with_words():
    """decode(rsk(word)) round-trips for every word over {1..k}, and the
    number of admissible triples is exactly k^n."""
    for n, k in ((3, 2), (3, 3), (4, 2)):
        seen = set()
        for word in itertools.product(range(1, k + 1), repeat=n):
            p, q = rsk(word)
            s, exps = kbounded_decode(p, q, k)
            seen.add((s.rows, q.rows, exps))
            r2, q2 = kbounded_encode(s, q, exps, k)
            assert (r2, q2) == (p, q)
        assert len(seen) == k**n
        # independent count of the admissible triples
        total = 0
        for lam in partitions(n):
            for s in standard_tableaux(lam):
                room = k - descent_stats(s).des
                if room <= 0:
                    continue
                ways = sum(
                    1
                    for tup in itertools.product(range(k), repeat=n)
                    if sum(tup) < room
                )
                total += ways * standard_count(lam)
        assert total == k**n


# -- last letter order -----------------------------------------------------------


def test_last_letter_extremes():
    tabs = standard_tableaux((4, 2))
    assert tabs[0] == parse_tableau("1 3 5 6/2 4")
    assert tabs[-1] == parse_tableau("1 2 3 4/5 6")
    assert len(tabs) == standard_count((4, 2)) == 9


def test_last_letter_total_order():
    tabs = standard_tableaux((3, 2))
    assert len(tabs) == 5
    for a in tabs:
        assert last_letter_compare(a, a) == 0
    for i, a in enumerate(tabs):
        for j, b in enumerate(tabs):
            c = last_letter_compare(a, b)
            assert c == (-1 if i < j else (0 if i == j else 1))
    with pytest.raises(ValueError):
        last_letter_compare(parse_tableau("1 2/3 4"), parse_tableau("1 2 3"))
