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

`classify_all` is a single chronological sweep over the corpus with an
incremental per-hashtag last-use index; it also extracts the recency
deltas that the temporal module bins.
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


def sweep(corpus: Corpus) -> Iterator[LabeledAssignment]:
    """Chronological single-pass classification of all seed-user assignments.

    Maintains one dict per hashtag mapping user -> last usage timestamp.
    Events sharing a timestamp are labeled before any of them enters the
    index, so ties are never counted as prior. Per-assignment cost is
    O(min(followees, users of the hashtag)).
    """
    seeds = corpus.seed_users
    followee_lists: dict[str, tuple[str, ...]] = {
        u: tuple(corpus.network.edges[u]) for u in seeds
    }
    last_use: dict[str, dict[str, int]] = {}

    def label_one(a: HashtagAssignment, users: dict[str, int]) -> LabeledAssignment:
        ts = a.timestamp
        if not users:
            return LabeledAssignment(a, ReuseLabel.EXTERNAL, None, None)
        own_ts = users.get(a.user_id)
        followees = followee_lists[a.user_id]
        social_ts: int | None = None
        n_social_users = 0
        if len(followees) <= len(users):
            for f in followees:
                ts_f = users.get(f)
                if ts_f is not None:
                    n_social_users += 1
                    if social_ts is None or ts_f > social_ts:
                        social_ts = ts_f
        else:
            fset = set(followees)
            for v, ts_v in users.items():
                if v in fset:
                    n_social_users += 1
                    if social_ts is None or ts_v > social_ts:
                        social_ts = ts_v
        n_other = len(users) - n_social_users - (1 if own_ts is not None else 0)
        label = _label_from_bits(own_ts is not None, social_ts is not None, n_other > 0)
        return LabeledAssignment(
            a,
            label,
            max(ts - own_ts, 1) if own_ts is not None else None,
            max(ts - social_ts, 1) if social_ts is not None else None,
        )

    assignments = corpus.assignments
    n = len(assignments)
    get_users = last_use.get
    i = 0
    while i < n:
        a = assignments[i]
        ts = a.timestamp
        if i + 1 == n or assignments[i + 1].timestamp != ts:
            # unique timestamp: label and update in one touch
            users = get_users(a.hashtag)
            if a.user_id in seeds:
                yield label_one(a, users if users is not None else {})
            if users is None:
                last_use[a.hashtag] = {a.user_id: ts}
            else:
                users[a.user_id] = ts
            i += 1
            continue
        j = i + 1
        while j < n and assignments[j].timestamp == ts:
            j += 1
        for idx in range(i, j):
            a = assignments[idx]
            if a.user_id in seeds:
                yield label_one(a, get_users(a.hashtag) or {})
        for idx in range(i, j):
            a = assignments[idx]
            last_use.setdefault(a.hashtag, {})[a.user_id] = ts
        i = j


def classify_all(corpus: Corpus) -> tuple[list[LabeledAssignment], ReuseBreakdown]:
    """Classify every seed-user assignment; returns labels in corpus order
    plus the aggregate breakdown.

    Bulk path: cyclic garbage collection is paused for the duration of the
    sweep (and restored afterwards). The sweep allocates one flat record
    per seed assignment and no cycles, while full collections over a
    multimillion-object corpus would otherwise dominate large runs.
    """
    with _gc_paused():
        labeled = list(sweep(corpus))
    return labeled, ReuseBreakdown.from_labels(la.label for la in labeled)
