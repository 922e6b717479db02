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
on (arguments, corpus), whatever the order of the reads.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

import numpy as np

from .corpus import Corpus, CorpusError

# Up to this many rows per user, squared profile norms (at most the squared
# row count) and so the float64 sums of count products stay exact (< 2**53).
MAX_USER_ROWS = 94_906_265

_ROW_MASK = (1 << 32) - 1
_SLICE = 1 << 16  # rows per slice of a filled row-sized array


def _last_of_runs(*keys: np.ndarray) -> np.ndarray:
    """Mask of the last position of each run of equal values in all keys."""
    last = np.zeros(len(keys[0]), dtype=bool)
    last[-1:] = True
    for key in keys:
        last[:-1] |= key[1:] != key[:-1]
    return last


def run_bounds(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values of `key` starts, then len(key)."""
    return np.append(0, np.flatnonzero(_last_of_runs(key)) + 1) if len(key) else np.zeros(1, int)


def _packed_order(ids: np.ndarray) -> np.ndarray:
    """Sorted int64 keys id << 32 | row: the rows grouped by id, in row order."""
    keys = ids.astype(np.int64)
    keys <<= 32
    keys |= np.arange(len(ids), dtype=np.int32)
    keys.sort()
    return keys


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of the ranges starts[i] + [0, lengths[i]), range by
    range, as the cumulative sum of their steps: one array is allocated."""
    starts, lengths = starts[lengths > 0], lengths[lengths > 0]
    ends = np.cumsum(lengths)
    steps = np.ones(ends[-1] if len(ends) else 0, dtype=np.int64)
    steps[:1] = starts[:1]
    steps[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(steps, out=steps)


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
        # by_tag's rows, stably sorted by user, are in (user, tag, row) order;
        # a (user, tag) run's k-th row has rank k - 1 in it. (An int32 cast
        # keeps a key's low 32 bits: its row.)
        rows = self.by_tag.astype(np.int32)
        rows = rows[np.argsort(user[rows], kind="stable")]
        first = np.roll(_last_of_runs(user[rows], tag[rows]), 1)
        rank = np.arange(n, dtype=np.int32)
        rank -= np.maximum.accumulate(np.where(first, rank, 0))
        del first
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
        self.user_ids = dict(zip(corpus.users, range(n_users)))
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
        rows = self.by_user[_concat_ranges(self.user_ptr[users], lengths)]
        rows &= _ROW_MASK
        return rows

    def tag_rows(self, tags: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The first lengths[i] rows of tag id tags[i] (those below an end,
        see tag_counts), pair by pair in row order."""
        rows = self.by_tag[_concat_ranges(self.tag_ptr[tags], lengths)]
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
        users = np.array([u for u in map(self.user_ids.get, user_ids) if u is not None],
                         dtype=np.int64)
        return self.grouped_rows(np.zeros(len(users), dtype=np.int64), users,
                                 np.full(len(users), end), 1)

    def traces(self, user_ids: Iterable[str], end: int) -> tuple[np.ndarray, list[int], list[int]]:
        """(tag ids, times, bounds): times[bounds[i]:bounds[i + 1]] are the
        ascending timestamps of tag id ids[i] below `end`, pooled over the
        given users, tag ids ascending."""
        ids, bounds, rows = self._pooled(user_ids, end)
        return ids, self.corpus.ts[rows].tolist(), bounds.tolist()

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
