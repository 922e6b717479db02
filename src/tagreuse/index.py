"""Time-sliced reads over a corpus.

All queries take a reference time and answer about usage *strictly
before* it, so no answer leaks later events.

Every read comes from one time cursor: running counts and per-user usage
traces over the time-sorted assignments, advanced forward to each query's
reference time. The cursor reads the corpus columns (`ts`, `user` and
`tag` through memoryviews, ids resolved through the `users`/`tags`
tables), so no assignment objects are built; the counts and traces it
keeps are keyed by user id and hashtag strings. The columns are
time-sorted, so the rows an advance takes are found by bisecting `ts`.
There are no point lookups. Queries in ascending time order therefore
cost one pass over the corpus in total; a query earlier than the cursor
restarts it from the first event.

A user's trace for a hashtag is the list of its usage timestamps in
cursor order, so ascending, with tied timestamps equal ints. Score dicts
derived at the cursor's time (the BLL activations) are memoized on the
cursor and dropped whenever its time changes.
"""

from __future__ import annotations

from bisect import bisect_left

from .corpus import Corpus, FollowNetwork


class RunningCounts:
    """Usage counts over all assignments strictly before `time`.

    profiles   user -> {hashtag: count}, hashtags in first-use order
    times      user -> {hashtag: [timestamps]}, same order, ascending lists
    norm2      user -> sum of squared profile counts (exact int)
    postings   hashtag -> {user: count}
    global_counts  hashtag -> count
    memo       values derived at `time`, emptied when `time` changes
    """

    __slots__ = ("time", "pos", "profiles", "times", "norm2", "postings", "global_counts",
                 "memo")

    def __init__(self) -> None:
        self.time: int | None = None
        self.pos = 0  # index of the first assignment not yet counted
        self.profiles: dict[str, dict[str, int]] = {}
        self.times: dict[str, dict[str, list[int]]] = {}
        self.norm2: dict[str, int] = {}
        self.postings: dict[str, dict[str, int]] = {}
        self.global_counts: dict[str, int] = {}
        self.memo: dict = {}


class CorpusIndex:
    """Query structure over one corpus, with one internal time cursor.

    Every answer depends only on (arguments, corpus), whatever the order
    of the queries. Reads are cheapest in ascending
    reference time; a read at an earlier time than the previous one
    rewinds the cursor, which recounts from the first event. The cursor
    is mutable state, so one index must not be shared across threads.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.network: FollowNetwork = corpus.network
        # Memoryviews index as Python ints (never numpy scalars) without a copy.
        self._columns = tuple(map(memoryview, (corpus.ts, corpus.user, corpus.tag)))
        self._cursor = RunningCounts()

    def counts_before(self, ref_time: int) -> RunningCounts:
        """The cursor, advanced to ref_time.

        The returned counts are live: they hold for ref_time only until
        the index is next read at another time. Callers must not mutate
        them.
        """
        cur = self._cursor
        if ref_time == cur.time:
            return cur
        if cur.time is not None and ref_time < cur.time:
            cur = self._cursor = RunningCounts()
        cur.memo.clear()
        corpus = self.corpus
        users, tags = corpus.users, corpus.tags
        ts_col, user_col, tag_col = self._columns
        pos = cur.pos
        end = bisect_left(ts_col, ref_time, pos)
        profiles, times, norm2 = cur.profiles, cur.times, cur.norm2
        postings, global_counts = cur.postings, cur.global_counts
        for ts, user, ht in zip(ts_col[pos:end], map(users.__getitem__, user_col[pos:end]),
                                map(tags.__getitem__, tag_col[pos:end])):
            profile = profiles.get(user)
            if profile is None:
                profile = profiles[user] = {}
                times[user] = {}
                norm2[user] = 0
            c = profile.get(ht, 0)
            profile[ht] = c + 1
            if c:
                times[user][ht].append(ts)
            else:
                times[user][ht] = [ts]
            norm2[user] += 2 * c + 1  # (c + 1)^2 - c^2
            posting = postings.get(ht)
            if posting is None:
                posting = postings[ht] = {}
            posting[user] = c + 1
            global_counts[ht] = global_counts.get(ht, 0) + 1
        cur.pos = end
        cur.time = ref_time
        return cur

    def profile_before(self, user_id: str, ref_time: int) -> dict[str, int]:
        """Hashtag -> own usage count vector of one user strictly before
        ref_time, hashtags in first-use order."""
        return dict(self.counts_before(ref_time).profiles.get(user_id, {}))

    def own_tags_before(self, user_id: str, ref_time: int) -> set[str]:
        return set(self.counts_before(ref_time).profiles.get(user_id, ()))

    def followee_tags_before(self, user_id: str, ref_time: int) -> set[str]:
        profiles = self.counts_before(ref_time).profiles
        tags: set[str] = set()
        for f in self.network.followees(user_id):
            tags.update(profiles.get(f, ()))
        return tags
