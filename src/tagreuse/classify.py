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
with an incremental per-hashtag last-use index. It returns `Labels`,
arrays over the classified rows that hold each row's label code and the
two recency deltas that the temporal module bins. Entry i describes
corpus row `rows[i]`: its user is `corpus.users[corpus.user[rows[i]]]`
and its label `LABELS[codes[i]]`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterator

import numpy as np

from .corpus import Corpus


class ReuseLabel(Enum):
    INDIVIDUAL = "individual"
    SOCIAL = "social"
    INDIVIDUAL_SOCIAL = "individual_social"
    NETWORK = "network"
    EXTERNAL = "external"


# A label code is an index into LABELS.
LABELS = tuple(ReuseLabel)
# Code by individual + 2 * social + 4 * network bit: the individual and
# social bits outrank the network bit, and no bit at all is external.
_CODE_BY_BITS = (4, 0, 1, 2, 3, 0, 1, 2)


@dataclass(frozen=True)
class ReuseBreakdown:
    """Counts and fractions per reuse label over the classified assignments."""

    counts: dict[ReuseLabel, int]
    fractions: dict[ReuseLabel, float]
    n_classified: int

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "ReuseBreakdown":
        """Counts per label over an array of label codes."""
        counts = dict(zip(LABELS, np.bincount(codes, minlength=len(LABELS)).tolist()))
        n = len(codes)
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


@dataclass(frozen=True)
class Labels:
    """Classified seed-user rows as four equal-length arrays: `rows`
    (ascending indexes into the corpus columns), `codes` (int8 indexes
    into LABELS), and `individual_delta` / `social_delta`, the seconds
    since the user's own / any followee's most recent prior usage,
    clamped to >= 1, and 0 where the label lacks that bit."""

    rows: np.ndarray
    codes: np.ndarray
    individual_delta: np.ndarray
    social_delta: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def sweep(corpus: Corpus) -> Iterator[tuple[int, int, int, int]]:
    """Chronological single-pass classification of all seed-user
    assignments, yielding (row, code, individual_delta, social_delta) as
    in `Labels`, in corpus order.

    Reads the corpus columns as Python ints (users and hashtags by id)
    and keeps one dict per hashtag mapping user -> last usage
    timestamp. Events sharing a timestamp are labeled before any of them
    enters the index, so ties are never counted as prior. Per-assignment
    cost is O(min(followees, users of the hashtag)).
    """
    users = corpus.users
    user_id = dict(zip(users, range(len(users))))
    is_seed = [u in corpus.seed_users for u in users]
    # Followees that never tweet a hashtag cannot be in any last-use dict.
    followee_lists: dict[int, tuple[int, ...]] = {
        user_id[u]: tuple(user_id[f] for f in corpus.network.edges[u] if f in user_id)
        for u in corpus.seed_users if u in user_id
    }
    last_use: list[dict[int, int]] = [{} for _ in corpus.tags]
    # Memoryviews index as Python ints (never numpy scalars) without a copy.
    ts_col, user_col, tag_col = map(memoryview, (corpus.ts, corpus.user, corpus.tag))

    def label_one(i: int, users_of: dict[int, int]) -> tuple[int, int, int, int]:
        if not users_of:
            return i, _CODE_BY_BITS[0], 0, 0
        ts, u = ts_col[i], user_col[i]
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
        n_other = len(users_of) - n_social_users - (own_ts is not None)
        ind = max(ts - own_ts, 1) if own_ts is not None else 0
        soc = max(ts - social_ts, 1) if social_ts is not None else 0
        return i, _CODE_BY_BITS[(ind > 0) + 2 * (soc > 0) + 4 * (n_other > 0)], ind, soc

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


def _swept(corpus: Corpus) -> Labels:
    """The sweep collected into arrays. Each row's tuple is freed as soon
    as it is read, so no gc pause is needed: there is nothing to collect."""
    table = np.fromiter(chain.from_iterable(sweep(corpus)), np.int64).reshape(-1, 4)
    rows, codes, individual, social = table.T
    return Labels(rows.copy(), codes.astype(np.int8), individual.copy(), social.copy())


def classify_all(corpus: Corpus) -> tuple[Labels, ReuseBreakdown]:
    """Classify every seed-user assignment; returns the labels in corpus
    order plus the aggregate breakdown."""
    labels = _swept(corpus)
    return labels, ReuseBreakdown.from_codes(labels.codes)
