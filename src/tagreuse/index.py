"""As-of reads over a corpus.

All queries take a reference time and answer about usage *strictly
before* it, so no answer leaks later events. The columns are time-sorted,
so that usage is the row prefix [0, end), end = CorpusIndex.end(ref_time).
The index sorts the rows once, stably, by (user id, tag id): a user's rows
are one block of that order, grouped by tag and in time order within a
tag, and the part below `end` gives the user's per-tag-id counts and
usage traces (ascending timestamps, tied ones equal ints). Nothing is
counted as time moves, so every answer depends only on (arguments,
corpus), whatever the order of the queries.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Hashable, Iterable

import numpy as np

from .corpus import Corpus, CorpusError

# Up to this many rows per user, squared profile norms (at most the squared
# row count) and so the float64 sums of count products stay exact (< 2**53).
MAX_USER_ROWS = 94_906_265


def _last_of_runs(*keys: np.ndarray) -> np.ndarray:
    """Mask of the last position of each run of equal values in all keys."""
    last = np.zeros(len(keys[0]), dtype=bool)
    last[-1:] = True
    for key in keys:
        last[:-1] |= key[1:] != key[:-1]
    return last


class CorpusIndex:
    """Immutable as-of index over one corpus's columns. User id u's rows
    are order[user_ptr[u]:user_ptr[u + 1]]; sq[row] is 2k - 1 for the k-th
    use of the row's (user, tag) pair, so a user's squared profile norm at
    `end` is the sum of sq over its rows below `end`. The only state a read
    changes is one (ref_time, dict) cache of values derived at the latest
    reference time, which a read at another time replaces whole."""

    def __init__(self, corpus: Corpus):
        self.corpus, self.network = corpus, corpus.network
        user, tag = corpus.user, corpus.tag
        per_user = np.bincount(user, minlength=len(corpus.users))
        if len(user) >= 2**31 or (len(user) and per_user.max() > MAX_USER_ROWS):
            raise CorpusError(f"a user with more than {MAX_USER_ROWS} rows, or 2**31 rows"
                              " in all, is beyond the index's exact integer sums")
        self.user_ptr = np.concatenate(([0], np.cumsum(per_user)))
        self.order = np.lexsort((tag, user)).astype(np.int32)
        # a (user, tag) run starts right after the previous run's last row
        first = np.roll(_last_of_runs(user[self.order], tag[self.order]), 1)
        rank = np.arange(len(user), dtype=np.int32)
        rank -= np.maximum.accumulate(np.where(first, rank, 0))
        self.sq = np.empty(len(user), dtype=np.int32)
        self.sq[self.order] = 2 * rank + 1
        self.user_ids = dict(zip(corpus.users, range(len(corpus.users))))
        self._ts, self._cache = memoryview(corpus.ts), (None, {})

    def end(self, ref_time: int) -> int:
        """Number of rows strictly before ref_time (any int)."""
        return bisect_left(self._ts, ref_time)

    def cached(self, ref_time: int, key: Hashable, compute: Callable[[], Any]) -> Any:
        """compute(), cached under key for ref_time; never read at another time."""
        at, values = self._cache
        if at != ref_time:
            at, values = self._cache = (ref_time, {})
        if key not in values:
            values[key] = compute()
        return values[key]

    def global_counts_before(self, ref_time: int) -> np.ndarray:
        """Usage count per tag id strictly before ref_time."""
        tag, n_tags = self.corpus.tag, len(self.corpus.tags)
        return self.cached(ref_time, "global_counts",
                           lambda: np.bincount(tag[: self.end(ref_time)], minlength=n_tags))

    def _rows(self, user_ids: Iterable[str], end: int) -> np.ndarray:
        """The given users' rows below `end`, user by user, by (tag id, row)."""
        ptr, order = self.user_ptr, self.order
        blocks = (order[ptr[u] : ptr[u + 1]] for u in map(self.user_ids.get, user_ids)
                  if u is not None)
        return np.concatenate([order[:0], *(block[block < end] for block in blocks)])

    def profiles(self, user_ids: Iterable[str], end: int) -> tuple[np.ndarray, ...]:
        """(tag ids, counts, users): the user id users[i] used tag id ids[i]
        counts[i] times below `end`, users in the given order (those with
        rows), tag ids ascending per user. The last row of a (user, tag)
        run below `end` is its count-th use, so sq gives the count."""
        rows = self._rows(user_ids, end)
        users, tags = self.corpus.user[rows], self.corpus.tag[rows]
        last = _last_of_runs(tags, users)
        return tags[last], (self.sq[rows[last]] + 1) >> 1, users[last]

    def traces(self, user_ids: Iterable[str], end: int) -> tuple[np.ndarray, list[int], list[int]]:
        """(tag ids, times, bounds): times[bounds[i]:bounds[i + 1]] are the
        ascending timestamps of tag id ids[i] below `end`, pooled over the
        given users, tag ids ascending."""
        rows = self._rows(user_ids, end)
        # sorted by (tag id, row) through one int64 key: rows are below 2**31
        key = np.sort(self.corpus.tag[rows].astype(np.int64) << 32 | rows)
        rows, tags = key & 0xFFFFFFFF, key >> 32
        last = _last_of_runs(tags)
        return tags[last], self.corpus.ts[rows].tolist(), [0, *(np.flatnonzero(last) + 1).tolist()]

    def profile_before(self, user_id: str, ref_time: int) -> dict[str, int]:
        """Hashtag -> own usage count vector of one user strictly before
        ref_time, hashtags in tag-id order."""
        ids, counts, _ = self.profiles([user_id], self.end(ref_time))
        return dict(zip(map(self.corpus.tags.__getitem__, ids.tolist()), counts.tolist()))

    def _tags_before(self, user_ids: Iterable[str], ref_time: int) -> set[str]:
        ids = np.unique(self.corpus.tag[self._rows(user_ids, self.end(ref_time))])
        return set(map(self.corpus.tags.__getitem__, ids.tolist()))

    def own_tags_before(self, user_id: str, ref_time: int) -> set[str]:
        return self._tags_before([user_id], ref_time)

    def followee_tags_before(self, user_id: str, ref_time: int) -> set[str]:
        return self._tags_before(self.network.followees(user_id), ref_time)
