"""Time-sliced lookups over a corpus.

All queries take a reference time and answer about usage *strictly
before* it, so no answer leaks later events.

Point lookups (one user's or one hashtag's usage) bisect the sorted usage
timestamps of every (user, hashtag) pair and of every hashtag, which are
built once. Population-wide reads (profiles, global counts, own and
followee tag sets) come from one time cursor: running counts over the
time-sorted assignments, advanced forward to each query's reference time.
Queries in ascending time order therefore cost one pass over the corpus in
total; a query earlier than the cursor restarts it from the first event.
"""

from __future__ import annotations

from bisect import bisect_left

from .corpus import Corpus, FollowNetwork


class RunningCounts:
    """Usage counts over all assignments strictly before `time`.

    profiles   user -> {hashtag: count}, hashtags in first-use order
    norm2      user -> sum of squared profile counts (exact int)
    postings   hashtag -> {user: count}
    global_counts  hashtag -> count
    """

    __slots__ = ("time", "pos", "profiles", "norm2", "postings", "global_counts")

    def __init__(self) -> None:
        self.time: int | None = None
        self.pos = 0  # index of the first assignment not yet counted
        self.profiles: dict[str, dict[str, int]] = {}
        self.norm2: dict[str, int] = {}
        self.postings: dict[str, dict[str, int]] = {}
        self.global_counts: dict[str, int] = {}


class CorpusIndex:
    """Query structure over one corpus, with one internal time cursor.

    Every answer depends only on (arguments, corpus), whatever the order
    of the queries. Population-wide reads are cheapest in ascending
    reference time; a read at an earlier time than the previous one
    rewinds the cursor, which recounts from the first event. The cursor
    is mutable state, so one index must not be shared across threads.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.network: FollowNetwork = corpus.network
        self.seed_users = corpus.seed_users
        user_tag_times: dict[str, dict[str, list[int]]] = {}
        tag_times: dict[str, list[int]] = {}
        for a in corpus.assignments:  # already sorted by timestamp
            user_tag_times.setdefault(a.user_id, {}).setdefault(a.hashtag, []).append(
                a.timestamp
            )
            tag_times.setdefault(a.hashtag, []).append(a.timestamp)
        self._user_tag_times = user_tag_times
        self._tag_times = tag_times
        self._cursor = RunningCounts()

    def counts_before(self, ref_time: int) -> RunningCounts:
        """The cursor, advanced to ref_time.

        The returned counts are live: they hold for ref_time only until
        the index is next read at another time. Callers must not mutate
        them.
        """
        cur = self._cursor
        if cur.time is not None and ref_time < cur.time:
            cur = self._cursor = RunningCounts()
        assignments = self.corpus.assignments
        n = len(assignments)
        pos = cur.pos
        profiles, norm2 = cur.profiles, cur.norm2
        postings, global_counts = cur.postings, cur.global_counts
        while pos < n:
            a = assignments[pos]
            if a.timestamp >= ref_time:
                break
            user, ht = a.user_id, a.hashtag
            profile = profiles.get(user)
            if profile is None:
                profile = profiles[user] = {}
                norm2[user] = 0
            c = profile.get(ht, 0)
            profile[ht] = c + 1
            norm2[user] += 2 * c + 1  # (c + 1)^2 - c^2
            users = postings.get(ht)
            if users is None:
                users = postings[ht] = {}
            users[user] = c + 1
            global_counts[ht] = global_counts.get(ht, 0) + 1
            pos += 1
        cur.pos = pos
        cur.time = ref_time
        return cur

    def user_count_before(self, user_id: str, hashtag: str, ref_time: int) -> int:
        """Number of times user_id used hashtag strictly before ref_time."""
        times = self._user_tag_times.get(user_id, {}).get(hashtag)
        return bisect_left(times, ref_time) if times else 0

    def global_count_before(self, hashtag: str, ref_time: int) -> int:
        times = self._tag_times.get(hashtag)
        return bisect_left(times, ref_time) if times else 0

    def global_counts_before(self, ref_time: int) -> dict[str, int]:
        """Usage count per hashtag strictly before ref_time (zeros omitted)."""
        return dict(self.counts_before(ref_time).global_counts)

    def user_tag_times_before(self, user_id: str, ref_time: int) -> dict[str, list[int]]:
        """Per-hashtag usage timestamps of one user strictly before ref_time."""
        out: dict[str, list[int]] = {}
        for ht, times in self._user_tag_times.get(user_id, {}).items():
            n = bisect_left(times, ref_time)
            if n:
                out[ht] = times[:n]
        return out

    def followee_tag_times_before(self, user_id: str, ref_time: int) -> dict[str, list[int]]:
        """Usage timestamps of all followees of user_id, pooled per hashtag
        (union over followees), strictly before ref_time."""
        pooled: dict[str, list[int]] = {}
        for f in self.network.followees(user_id):
            for ht, times in self.user_tag_times_before(f, ref_time).items():
                pooled.setdefault(ht, []).extend(times)
        for times in pooled.values():
            times.sort()
        return pooled

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
