"""Five-way reuse labeling of seed-user hashtag assignments.

For each hashtag assignment by a seed user u we ask who used that hashtag
strictly before (smaller timestamp; equal timestamps are mutually
non-prior):

  individual        u used it before, no followee did
  social            some followee of u used it before, u did not
  individual_social both of the above
  network           neither, but some other user in the dataset did
  external          nobody in the dataset used it before

The fraction explained by individual or social reuse (the sum of the
first three) is the headline reuse statistic.

`classify_all` is a single chronological sweep over the corpus columns
with an incremental per-hashtag last-use index; it also extracts the
recency deltas that the temporal module bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .corpus import Corpus, HashtagAssignment, _gc_paused


class ReuseLabel(Enum):
    INDIVIDUAL = "individual"
    SOCIAL = "social"
    INDIVIDUAL_SOCIAL = "individual_social"
    NETWORK = "network"
    EXTERNAL = "external"

    @property
    def has_individual_bit(self) -> bool:
        return self in (ReuseLabel.INDIVIDUAL, ReuseLabel.INDIVIDUAL_SOCIAL)

    @property
    def has_social_bit(self) -> bool:
        return self in (ReuseLabel.SOCIAL, ReuseLabel.INDIVIDUAL_SOCIAL)


def _label_from_bits(individual: bool, social: bool, network: bool) -> ReuseLabel:
    if individual and social:
        return ReuseLabel.INDIVIDUAL_SOCIAL
    if individual:
        return ReuseLabel.INDIVIDUAL
    if social:
        return ReuseLabel.SOCIAL
    if network:
        return ReuseLabel.NETWORK
    return ReuseLabel.EXTERNAL


@dataclass(frozen=True, slots=True)
class LabeledAssignment:
    """A classified seed-user assignment with its reuse recency deltas.

    individual_delta / social_delta are seconds since the most recent
    qualifying prior usage (own / followee), present iff the label carries
    the corresponding bit; both are clamped to >= 1.
    """

    assignment: HashtagAssignment
    label: ReuseLabel
    individual_delta: int | None
    social_delta: int | None


@dataclass(frozen=True)
class ReuseBreakdown:
    """Counts and fractions per reuse label over the classified assignments."""

    counts: dict[ReuseLabel, int]
    fractions: dict[ReuseLabel, float]
    n_classified: int

    @classmethod
    def from_labels(cls, labels: Iterator[ReuseLabel]) -> "ReuseBreakdown":
        counts = {label: 0 for label in ReuseLabel}
        n = 0
        for label in labels:
            counts[label] += 1
            n += 1
        fractions = {label: c / n for label, c in counts.items()} if n else {}
        return cls(counts=counts, fractions=fractions, n_classified=n)

    @property
    def explained_fraction(self) -> float:
        """Fraction explained by individual or social reuse (the
        confirmation-bias statistic)."""
        if self.n_classified == 0:
            return 0.0
        explained = (
            self.counts[ReuseLabel.INDIVIDUAL]
            + self.counts[ReuseLabel.SOCIAL]
            + self.counts[ReuseLabel.INDIVIDUAL_SOCIAL]
        )
        return explained / self.n_classified

    def to_json_dict(self) -> dict:
        return {
            "n_classified": self.n_classified,
            "counts": {label.value: self.counts.get(label, 0) for label in ReuseLabel},
            "fractions": {label.value: f for label, f in self.fractions.items()},
            "explained_fraction": self.explained_fraction,
        }


# One classified seed-user assignment: (user_id, tweet_id, hashtag,
# timestamp, label, individual_delta, social_delta), the first four in
# HashtagAssignment's field order and the rest as in LabeledAssignment.
SweptAssignment = tuple[str, str, str, int, ReuseLabel, int | None, int | None]


def sweep(corpus: Corpus) -> Iterator[SweptAssignment]:
    """Chronological single-pass classification of all seed-user
    assignments, yielded in corpus order.

    Reads the corpus columns as Python ints (users and hashtags by id)
    and keeps one dict per hashtag mapping user -> last usage
    timestamp. Events sharing a timestamp are labeled before any of them
    enters the index, so ties are never counted as prior. Per-assignment
    cost is O(min(followees, users of the hashtag)).
    """
    users, tags, tweets = corpus.users, corpus.tags, corpus.tweets
    user_id = dict(zip(users, range(len(users))))
    is_seed = [u in corpus.seed_users for u in users]
    # Followees that never tweet a hashtag cannot be in any last-use dict.
    followee_lists: dict[int, tuple[int, ...]] = {
        user_id[u]: tuple(user_id[f] for f in corpus.network.edges[u] if f in user_id)
        for u in corpus.seed_users if u in user_id
    }
    last_use: list[dict[int, int]] = [{} for _ in tags]
    # Memoryviews index as Python ints (never numpy scalars) without a copy.
    ts_col, user_col, tag_col = map(memoryview, (corpus.ts, corpus.user, corpus.tag))

    def label_one(i: int, users_of: dict[int, int]) -> SweptAssignment:
        ts, u = ts_col[i], user_col[i]
        if not users_of:
            return users[u], tweets[i], tags[tag_col[i]], ts, ReuseLabel.EXTERNAL, None, None
        own_ts = users_of.get(u)
        followees = followee_lists[u]
        social_ts: int | None = None
        n_social_users = 0
        if len(followees) <= len(users_of):
            for f in followees:
                ts_f = users_of.get(f)
                if ts_f is not None:
                    n_social_users += 1
                    if social_ts is None or ts_f > social_ts:
                        social_ts = ts_f
        else:
            fset = set(followees)
            for v, ts_v in users_of.items():
                if v in fset:
                    n_social_users += 1
                    if social_ts is None or ts_v > social_ts:
                        social_ts = ts_v
        n_other = len(users_of) - n_social_users - (1 if own_ts is not None else 0)
        label = _label_from_bits(own_ts is not None, social_ts is not None, n_other > 0)
        return (
            users[u], tweets[i], tags[tag_col[i]], ts,
            label,
            max(ts - own_ts, 1) if own_ts is not None else None,
            max(ts - social_ts, 1) if social_ts is not None else None,
        )

    n = len(ts_col)
    i = 0
    while i < n:
        ts = ts_col[i]
        if i + 1 == n or ts_col[i + 1] != ts:
            # unique timestamp: label and update in one touch
            u = user_col[i]
            users_of = last_use[tag_col[i]]
            if is_seed[u]:
                yield label_one(i, users_of)
            users_of[u] = ts
            i += 1
            continue
        j = i + 1
        while j < n and ts_col[j] == ts:
            j += 1
        for idx in range(i, j):
            if is_seed[user_col[idx]]:
                yield label_one(idx, last_use[tag_col[idx]])
        for idx in range(i, j):
            last_use[tag_col[idx]][user_col[idx]] = ts
        i = j


def classify_all(corpus: Corpus) -> tuple[list[LabeledAssignment], ReuseBreakdown]:
    """Classify every seed-user assignment; returns labels in corpus order
    plus the aggregate breakdown.

    Bulk path: cyclic garbage collection is paused for the duration of the
    sweep (and restored afterwards). The sweep allocates a few flat records
    per seed assignment and no cycles, while full collections over a
    multimillion-object corpus would otherwise dominate large runs.
    """
    with _gc_paused():
        labeled = [
            LabeledAssignment(HashtagAssignment(u, tw, ht, ts), label, d_ind, d_soc)
            for u, tw, ht, ts, label, d_ind, d_soc in sweep(corpus)
        ]
    return labeled, ReuseBreakdown.from_labels(la.label for la in labeled)
