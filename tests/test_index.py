"""The shared array kernels and CorpusIndex's as-of counts against plain
Python references."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from tagreuse.corpus import string_ranks
from tagreuse.index import (
    CorpusIndex,
    at_k,
    concat_ranges,
    first_of_runs,
    member,
    padded,
    run_bounds,
    run_start,
    size_cuts,
)

from conftest import random_corpus


def _random_keys(rng: random.Random, n: int, n_keys: int) -> list[np.ndarray]:
    return [np.array([rng.randint(0, 2) for _ in range(n)], dtype=np.int64)
            for _ in range(n_keys)]


class TestRunKernels:
    @pytest.mark.parametrize("seed", range(30))
    def test_first_of_runs_start_and_bounds(self, seed):
        rng = random.Random(seed)
        n = rng.choice([0, 1, 2, rng.randint(3, 60)])
        keys = _random_keys(rng, n, rng.randint(1, 3))
        rows = list(zip(*(k.tolist() for k in keys)))
        first = [i == 0 or rows[i] != rows[i - 1] for i in range(n)]
        assert first_of_runs(*keys).tolist() == first
        starts = [i for i in range(n) if first[i]]
        assert run_start(np.array(first, dtype=bool)).tolist() == \
            [max(s for s in starts if s <= i) for i in range(n)]
        if len(keys) == 1:
            assert run_bounds(keys[0]).tolist() == starts + [n]

    def test_empty(self):
        assert first_of_runs(np.zeros(0, np.int64), np.zeros(0, np.int32)).tolist() == []
        assert run_start(np.zeros(0, bool)).tolist() == []
        assert run_bounds(np.zeros(0, np.int64)).tolist() == [0]


class TestConcatRanges:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_plain_loop(self, seed):
        rng = random.Random(seed)
        n = rng.choice([0, 1, rng.randint(2, 20)])
        starts = [rng.randint(0, 100) for _ in range(n)]
        lengths = [rng.choice([0, 0, 1, rng.randint(2, 9)]) for _ in range(n)]
        got = concat_ranges(np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64))
        assert got.tolist() == [s + j for s, m in zip(starts, lengths) for j in range(m)]

    def test_empty_and_all_zero_lengths(self):
        empty = np.zeros(0, np.int64)
        assert concat_ranges(empty, empty).tolist() == []
        assert concat_ranges(np.array([5, 7]), np.array([0, 0])).tolist() == []


def _reference_cuts(sizes: list[int], budget: int, max_n: int) -> list[tuple[int, int]]:
    """Greedy cuts by a plain loop: an item opens a new range when the open
    one already holds max_n items or would pass the budget with it."""
    cuts: list[list[int]] = []
    for i, size in enumerate(sizes):
        if not cuts or len(cuts[-1]) == max_n or \
                sum(sizes[j] for j in cuts[-1]) + size > budget:
            cuts.append([])
        cuts[-1].append(i)
    return [(c[0], c[-1] + 1) for c in cuts]


class TestSizeCuts:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_plain_loop(self, seed):
        rng = random.Random(seed)
        sizes = [rng.choice([0, 1, rng.randint(2, 30)]) for _ in range(rng.randint(0, 40))]
        budget, max_n = rng.randint(1, 40), rng.randint(1, 8)
        cuts = list(size_cuts(np.array(sizes, dtype=np.int64), budget, max_n))
        assert cuts == _reference_cuts(sizes, budget, max_n)
        assert [i for lo, hi in cuts for i in range(lo, hi)] == list(range(len(sizes)))
        for lo, hi in cuts:
            assert hi - lo <= max_n
            assert hi - lo == 1 or sum(sizes[lo:hi]) <= budget

    def test_item_over_budget_is_a_range_alone(self):
        assert list(size_cuts(np.array([1, 50, 1, 1]), 10, 5)) == [(0, 1), (1, 2), (2, 4)]
        assert list(size_cuts(np.array([50]), 10, 5)) == [(0, 1)]

    def test_max_n(self):
        assert list(size_cuts(np.zeros(5, np.int64), 10, 2)) == [(0, 2), (2, 4), (4, 5)]

    def test_empty(self):
        assert list(size_cuts(np.zeros(0, np.int64), 10, 3)) == []


class TestMember:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_plain_loop(self, seed):
        # keys below, between, on and above the sorted keys, some repeated
        rng = random.Random(seed)
        sorted_keys = sorted(rng.sample(range(10, 90, 3), rng.randint(0, 12)) * rng.randint(1, 2))
        keys = [rng.randint(0, 100) for _ in range(rng.randint(0, 40))]
        keys += rng.choices(sorted_keys, k=3) if sorted_keys else []
        got = member(np.array(sorted_keys, dtype=np.int64), np.array(keys, dtype=np.int64))
        assert got.dtype == bool
        assert got.tolist() == [key in sorted_keys for key in keys]

    def test_edges(self):
        none = np.zeros(0, np.int64)
        assert member(none, none).tolist() == []
        assert member(none, np.array([0, 5])).tolist() == [False, False]
        assert member(np.array([5]), none).tolist() == []
        big = np.iinfo(np.int64).max - 1
        assert member(np.array([0, big]), np.array([-1, 0, 1, big - 1, big])).tolist() == \
            [False, True, False, False, True]
        # int32 keys against int64 sorted keys, as from_corpus's tweet ids
        assert member(np.array([2, 4]), np.array([1, 2, 4, 5], np.int32)).tolist() == \
            [False, True, True, False]


def _random_lists(rng: random.Random, k_max: int) -> list[list[int]]:
    """Lists of 0, 1, k_max and more than k_max items, and random lengths."""
    lengths = [0, 1, k_max, k_max + rng.randint(1, 5)]
    lengths += [rng.randint(0, 2 * k_max) for _ in range(rng.randint(0, 6))]
    rng.shuffle(lengths)
    return [[rng.randint(-9, 9) for _ in range(n)] for n in lengths]


class TestPaddedAndAtK:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_plain_loop(self, seed):
        rng = random.Random(seed)
        k_max = rng.randint(1, 8)
        lists = _random_lists(rng, k_max)
        lengths = np.array([len(v) for v in lists], dtype=np.int64)
        values = np.array([x for v in lists for x in v], dtype=np.int64)
        width = max(map(len, lists))
        rows = padded(values, lengths, -100)
        assert rows.dtype == values.dtype
        assert rows.tolist() == [v + [-100] * (width - len(v)) for v in lists]
        # at_k of the running sums: the sum of the first min(k, len) items
        got = at_k(np.cumsum(rows, axis=1), lengths, k_max)
        assert got.dtype == values.dtype
        assert got.tolist() == [[sum(v[:k]) for k in range(1, k_max + 1)] for v in lists]
        floats = at_k(rows / 2.0, lengths, k_max)
        assert floats.tolist() == [[v[min(k, len(v)) - 1] / 2.0 if v else 0.0
                                    for k in range(1, k_max + 1)] for v in lists]

    def test_empty(self):
        none = np.zeros(0, np.int64)
        assert padded(none, none, 0).shape == (0, 0)
        assert at_k(padded(none, none, 0), none, 3).shape == (0, 3)
        empty = padded(none, np.zeros(2, np.int64), False)
        assert empty.shape == (2, 0)
        assert at_k(empty, np.zeros(2, np.int64), 2).tolist() == [[0, 0], [0, 0]]
        assert padded(np.array([True]), np.array([0, 1]), False).tolist() == [[False], [True]]


class TestStringRanks:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sorted(self, seed):
        rng = random.Random(seed)
        alphabet = ["a", "b", "Z", "\0", "é", "ß", "日", "😀", "a\0"]
        table = list(dict.fromkeys("".join(rng.choices(alphabet, k=rng.randint(0, 3)))
                                   for _ in range(30)))
        ids = [rng.randrange(len(table)) for _ in range(rng.randint(0, 40))]
        order = sorted({table[i] for i in ids})
        assert string_ranks(table, np.array(ids, dtype=np.int32)).tolist() == \
            [order.index(table[i]) for i in ids]

    def test_empty(self):
        assert string_ranks(["a"], np.zeros(0, np.int32)).tolist() == []


class TestAsOfCounts:
    @pytest.mark.parametrize("seed", range(25))
    def test_counts_and_norms_match_brute_force(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, max_users=12, max_assignments=150, max_timestamp=40)
        index = CorpusIndex(corpus)
        user, tag = corpus.user.tolist(), corpus.tag.tolist()
        assert corpus.user_ids == {u: i for i, u in enumerate(corpus.users)}
        n, n_queries = len(user), 30
        users = np.array([rng.randrange(max(len(corpus.users), 1)) for _ in range(n_queries)])
        tags = np.array([rng.randrange(max(len(corpus.tags), 1)) for _ in range(n_queries)])
        ends = np.array([rng.randint(0, n) for _ in range(n_queries)])
        if not n:
            users, tags, ends = users[:0], tags[:0], ends[:0]
        rows_of = [[r for r in range(e) if user[r] == u] for u, e in zip(users.tolist(), ends)]
        assert index.user_row_counts(users, ends).tolist() == list(map(len, rows_of))
        assert index.user_rows(users, index.user_row_counts(users, ends)).tolist() == \
            [r for rows in rows_of for r in rows]
        assert index.tag_counts(tags, ends).tolist() == \
            [sum(tag[r] == t for r in range(e)) for t, e in zip(tags.tolist(), ends)]
        assert index.squared_norms(users, ends).tolist() == \
            [sum(c * c for c in Counter(tag[r] for r in rows).values()) for rows in rows_of]
