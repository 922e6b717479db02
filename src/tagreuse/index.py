"""As-of reads over a corpus.

All reads take a reference time, or the row count `end` below it, and
answer about usage *strictly before* it, so no answer leaks later events.
The columns are time-sorted, so that usage is the row prefix [0, end),
end = CorpusIndex.end(ref_time). The index sorts the rows twice, as packed
int64 keys id << 32 | row: `by_user` holds each user's rows and `by_tag`
each tag's, both in row (time) order. So an id's rows below `end` are a
prefix of its block, and one vectorized searchsorted finds the prefixes of
many (id, end) pairs at once: a block of queries is answered by array
passes over just the rows it reads, never by a pass over the row prefix.
The index holds no state that a read changes, so every answer depends only
on (arguments, corpus), whatever the order of the reads. The module also
holds the kernels that classify, recommend, diversity and evaluation
share: run starts and bounds, sorted-key membership, padded per-list rows
and their values at each k, size-budgeted cuts and follow pairs. The run
mask and the range gather live in `corpus`, whose loader uses them too.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, CorpusError, concat_ranges, first_of_runs

# Up to this many rows per user, squared profile norms (at most the squared
# row count) and so the float64 sums of count products stay exact (< 2**53).
MAX_USER_ROWS = 94_906_265

_ROW_MASK = (1 << 32) - 1
_SLICE = 1 << 16  # rows per slice of a filled row-sized array


def run_start(first: np.ndarray) -> np.ndarray:
    """Each position's run start, from the mask of run starts."""
    start = np.arange(len(first), dtype=np.int32)
    start *= first
    return np.maximum.accumulate(start, out=start)


def run_bounds(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values of `key` starts, then len(key)."""
    return np.append(np.flatnonzero(first_of_runs(key)), len(key))


def _packed_order(ids: np.ndarray) -> np.ndarray:
    """Sorted int64 keys id << 32 | row: the rows grouped by id, in row order."""
    keys = ids.astype(np.int64)
    keys <<= 32
    keys |= np.arange(len(ids), dtype=np.int32)
    keys.sort()
    return keys


def member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of keys (all below the int64 maximum) is one of the
    ascending sorted_keys."""
    sorted_keys = np.append(sorted_keys, np.iinfo(np.int64).max)  # no search runs past the end
    return sorted_keys[np.searchsorted(sorted_keys, keys)] == keys


def padded(values: np.ndarray, lengths: np.ndarray, fill) -> np.ndarray:
    """A (lists, longest list) array: row i holds the next lengths[i]
    values, then `fill`."""
    out = np.full((len(lengths), int(lengths.max(initial=0))), fill, dtype=values.dtype)
    out[np.arange(out.shape[1]) < lengths[:, None]] = values
    return out


def at_k(prefixes: np.ndarray, lengths: np.ndarray, k_max: int) -> np.ndarray:
    """Padded prefix values (list i's first k items' at [i, k - 1]) at k =
    1..k_max: the whole list's past its end, 0 (no item) for an empty list."""
    prefixes = np.hstack((np.zeros((len(lengths), 1), dtype=prefixes.dtype), prefixes))
    return np.take_along_axis(prefixes, np.minimum(np.arange(1, k_max + 1), lengths[:, None]), 1)


def size_cuts(sizes: np.ndarray, budget: int, max_n: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges [lo, hi) of at most max_n items whose sizes sum to
    at most budget, but for a range of one item."""
    lo, total = 0, 0
    for i, size in enumerate(sizes.tolist()):
        if i > lo and (total + size > budget or i - lo == max_n):
            yield lo, i
            lo, total = i, 0
        total += size
    if lo < len(sizes):
        yield lo, len(sizes)


def user_pairs(corpus: Corpus, users: Sequence[str], social: bool) -> tuple[np.ndarray, ...]:
    """(query, user id) of each query's own user or, with `social`, of each
    of its followees, for the users with rows; query ascending. With
    `social`, a user with no followee entry raises NotSeedUser."""
    get = corpus.user_ids.get
    query, ids = [], []
    for q, user_id in enumerate(users):
        for u in map(get, corpus.network.followees(user_id) if social else (user_id,)):
            if u is not None:
                query.append(q)
                ids.append(u)
    return np.array(query, dtype=np.int64), np.array(ids, dtype=np.int64)


class CorpusIndex:
    """Immutable as-of index over one corpus's columns. User id u's rows are
    the low 32 bits of by_user[user_ptr[u]:user_ptr[u + 1]], tag id t's those
    of by_tag[tag_ptr[t]:tag_ptr[t + 1]]. cum_sq[i] sums, over the by_user
    positions before i, 2k - 1 for a row that is the k-th use of its (user,
    tag) pair, so a user's squared profile norm at `end` is the difference
    of cum_sq at the ends of its prefix.

    Keys packed as ((query * T + tag) << row_bits) | low, for T tags and
    low < 2**row_bits, stay below 2**63 for up to max_queries queries."""

    def __init__(self, corpus: Corpus):
        self.corpus, self.network = corpus, corpus.network
        user, tag = corpus.user, corpus.tag
        n, n_users, n_tags = len(user), len(corpus.users), len(corpus.tags)
        per_user = np.bincount(user, minlength=n_users)
        if n >= 2**31 or (n and per_user.max() > MAX_USER_ROWS):
            raise CorpusError(f"a user with more than {MAX_USER_ROWS} rows, or 2**31 rows"
                              " in all, is beyond the index's exact integer sums")
        if max(n_users, n_tags) > 2**31:  # ids and rows below 2**31: keys below 2**63
            raise CorpusError("more than 2**31 users or tags")
        self.row_bits = n.bit_length()
        self.max_queries = (1 << (63 - self.row_bits)) // max(n_tags, 1)
        self.user_ptr = np.concatenate(([0], np.cumsum(per_user)))
        self.tag_ptr = np.concatenate(([0], np.cumsum(np.bincount(tag, minlength=n_tags))))
        self.by_tag = _packed_order(tag)
        # by_tag's rows, sorted by (user, position in by_tag), are in (user,
        # tag, row) order; a (user, tag) run's k-th row has rank k - 1 in it.
        # (An int32 cast keeps a key's low 32 bits: its row.) The positions
        # are masked in place, and their keys freed as one buffer.
        rows = self.by_tag.astype(np.int32)
        order = _packed_order(user[rows])
        rows = rows[np.bitwise_and(order, _ROW_MASK, out=order)]
        del order
        rank = np.arange(n, dtype=np.int32)
        rank -= run_start(first_of_runs(user[rows], tag[rows]))
        rank <<= 1
        rank += 1
        sq = np.empty(n, dtype=np.int32)
        sq[rows] = rank
        del rows, rank
        self.by_user = _packed_order(user)
        # filled in slices, so no other row-sized array is made for it
        self.cum_sq = np.zeros(n + 1, dtype=np.int64)
        for lo in range(0, n, _SLICE):
            self.cum_sq[lo + 1 : lo + _SLICE + 1] = sq[self.by_user[lo : lo + _SLICE] & _ROW_MASK]
        del sq
        np.cumsum(self.cum_sq, out=self.cum_sq)
        self._ts = memoryview(corpus.ts)

    def end(self, ref_time: int) -> int:
        """Number of rows strictly before ref_time (any int)."""
        return bisect_left(self._ts, ref_time)

    @staticmethod
    def _prefix_ends(keys: np.ndarray, ids: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Position in `keys` past the rows of ids[i] below ends[i]."""
        return np.searchsorted(keys, ids.astype(np.int64) << 32 | ends)

    def user_row_counts(self, users: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """How many rows user id users[i] has below ends[i]."""
        return self._prefix_ends(self.by_user, users, ends) - self.user_ptr[users]

    def tag_counts(self, tags: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """How many rows tag id tags[i] has below ends[i]."""
        return self._prefix_ends(self.by_tag, tags, ends) - self.tag_ptr[tags]

    def user_rows(self, users: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The first lengths[i] rows of user id users[i] (those below an end,
        see user_row_counts), pair by pair in row order."""
        rows = self.by_user[concat_ranges(self.user_ptr[users], lengths)]
        rows &= _ROW_MASK
        return rows

    def tag_rows(self, tags: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The first lengths[i] rows of tag id tags[i] (those below an end,
        see tag_counts), pair by pair in row order."""
        rows = self.by_tag[concat_ranges(self.tag_ptr[tags], lengths)]
        rows &= _ROW_MASK
        return rows

    def squared_norms(self, users: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Squared norm of user id users[i]'s tag count profile below ends[i]."""
        return self.cum_sq[self._prefix_ends(self.by_user, users, ends)] - \
            self.cum_sq[self.user_ptr[users]]

    def check_key_budget(self, n_queries: int) -> None:
        """Raise unless keys ((query * T + tag) << row_bits) | low fit 63 bits."""
        if n_queries > self.max_queries:
            raise ValueError(f"{n_queries} queries of {len(self.corpus.tags)} tags and"
                             f" {self.row_bits}-bit rows overflow a 63-bit key")

    def grouped_rows(self, queries: np.ndarray, users: np.ndarray, ends: np.ndarray,
                     n_queries: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, bounds, rows): the rows of user id users[i] below ends[i],
        pooled per (queries[i], tag) and sorted by (query, tag, row). Run j is
        rows[bounds[j]:bounds[j + 1]], of query keys[j] // T and tag id
        keys[j] % T; the runs are in key order."""
        self.check_key_budget(n_queries)
        lengths = self.user_row_counts(users, ends)
        rows = self.user_rows(users, lengths)
        key = np.repeat(queries.astype(np.int64) * len(self.corpus.tags), lengths)
        key += self.corpus.tag[rows]
        key <<= self.row_bits
        key |= rows
        del rows
        key.sort()
        rows = key & ((1 << self.row_bits) - 1)
        key >>= self.row_bits
        bounds = run_bounds(key)
        return key[bounds[:-1]], bounds, rows

    def _pooled(self, user_ids: Iterable[str], end: int) -> tuple[np.ndarray, ...]:
        """grouped_rows of the given users' rows below `end` as one query:
        (tag ids, bounds, rows), tag ids ascending."""
        users = np.array([u for u in map(self.corpus.user_ids.get, user_ids) if u is not None],
                         dtype=np.int64)
        return self.grouped_rows(np.zeros(len(users), dtype=np.int64), users,
                                 np.full(len(users), end), 1)

    def profile_before(self, user_id: str, ref_time: int) -> dict[str, int]:
        """Hashtag -> own usage count vector of one user strictly before
        ref_time, hashtags in tag-id order."""
        ids, bounds, _ = self._pooled([user_id], self.end(ref_time))
        return dict(zip(map(self.corpus.tags.__getitem__, ids.tolist()), np.diff(bounds).tolist()))

    def _tags_before(self, user_ids: Iterable[str], ref_time: int) -> set[str]:
        ids = self._pooled(user_ids, self.end(ref_time))[0]
        return set(map(self.corpus.tags.__getitem__, ids.tolist()))

    def own_tags_before(self, user_id: str, ref_time: int) -> set[str]:
        return self._tags_before([user_id], ref_time)

    def followee_tags_before(self, user_id: str, ref_time: int) -> set[str]:
        return self._tags_before(self.network.followees(user_id), ref_time)
