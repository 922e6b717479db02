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

`label_rows` labels every seed-user row at once, with sorts and searches
over packed int64 keys of the corpus columns:

- The rows are in time order, so a row's time is the first row of its
  run of equal timestamps, and "strictly earlier" is "a smaller row than
  that".
- One sort of the rows by (user, tag, row) puts each user's uses of a
  tag in time order. A row's own last earlier use ends the previous time
  run of its (user, tag) group.
- Each row of a followed user is an exposure of every seed that follows
  that user, keyed by (seed, tag, row). Among the sorted exposures, the
  last one below a seed row's own key (seed, tag, time), within its
  (seed, tag) block, is the last followee use. Exposures are gathered
  as ranges of the (user, tag) order for one size-budgeted block of
  seeds at a time, by the run and range kernels of the index module.
- The network bit only decides the label when neither other bit is set,
  and then some other user used the tag earlier exactly when anyone did:
  when the tag's first use is earlier.

It returns `Labels`, arrays over the classified rows that hold each row's
label code and the two recency deltas that the temporal module bins;
`classify_all` adds the breakdown. Entry i describes corpus row
`rows[i]`: its user is `corpus.users[corpus.user[rows[i]]]` and its label
`LABELS[codes[i]]`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .corpus import Corpus, CorpusError
from .index import concat_ranges, first_of_runs, run_start, size_cuts, user_pairs


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
_CODES = np.array((4, 0, 1, 2, 3, 0, 1, 2), dtype=np.int8)
# Packed sort keys are int64, so every key must fit in this many bits.
KEY_BITS = 63
# Exposures are expanded for one block of seeds at a time: consecutive
# seeds with at most n_rows // EXPOSURE_BLOCK_DIVISOR exposures in all (at
# least 1; a seed with more is a block alone), which keeps a call's peak
# memory near that of its sorts over the rows.
EXPOSURE_BLOCK_DIVISOR = 4


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
    since the user's own / any followee's most recent prior usage (at
    least 1, since prior means strictly earlier), and 0 where the label
    lacks that bit."""

    rows: np.ndarray
    codes: np.ndarray
    individual_delta: np.ndarray
    social_delta: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def _key_bits(n_rows: int, n_users: int, n_tags: int) -> int:
    """Bits of users * tags * 2**bits(n_rows - 1), one past every packed
    (user or seed, tag, row) key of `label_rows`."""
    return (n_users * n_tags).bit_length() + max(n_rows - 1, 0).bit_length()


def label_rows(corpus: Corpus) -> Labels:
    """Label every seed-user row and take both recency deltas, as the
    module docstring describes. Large temporaries are deleted as soon as
    they are used, which keeps the peak memory of a call low."""
    ts, user, tag = corpus.ts, corpus.user, corpus.tag
    users, n_tags = corpus.users, len(corpus.tags)
    is_seed = np.array([u in corpus.seed_users for u in users], dtype=bool)
    seed_row = is_seed[user]
    if not seed_row.any():
        none = np.zeros(0, np.int64)
        return Labels(none, np.zeros(0, np.int8), none, none)
    n, seeds, row_bits = len(ts), np.flatnonzero(is_seed), (len(ts) - 1).bit_length()
    row_mask = (1 << row_bits) - 1
    if n >= 2**31 or _key_bits(n, len(users), n_tags) > KEY_BITS:
        raise CorpusError(f"{n} rows of {len(users)} users and {n_tags} hashtags are beyond"
                          f" the classifier's int32 row ids or {KEY_BITS}-bit sort keys")
    first_ts = np.full(n_tags, ts[-1])
    np.minimum.at(first_ts, tag, ts)
    time_row = run_start(first_of_runs(ts))

    # Rows by (user, tag), in time order within a pair. The queries q are
    # the seed rows in that order; a seed's own last strictly earlier use
    # of the tag ends the run of the pair before the query's time row.
    group = user.astype(np.int64) * n_tags + tag
    group <<= row_bits
    group |= np.arange(n)
    group.sort()
    rows = (group & row_mask).astype(np.int32)
    group >>= row_bits
    time_row = time_row[rows]
    q = np.flatnonzero(seed_row[rows])
    del seed_row
    q_start = run_start(first_of_runs(group, time_row))[q]
    has_own = ~first_of_runs(group)[q_start]
    del group
    q_rows = rows[q]
    q_ts = ts[q_rows]
    individual = np.where(has_own, q_ts - ts[rows[q_start - 1]], 0)
    # With neither other bit, some other user used the tag earlier exactly
    # when anyone did; with either, the network bit does not change the code.
    network = first_ts[tag[q_rows]] < q_ts
    del q_start, q_ts

    # Every row of a followee is one exposure of each seed that follows
    # its user, keyed ((seed * T + tag) << row_bits) | row; a query's key
    # has the first row of its time instead. A user's rows are one block
    # of the (user, tag) order, so the exposures of one follow edge are a
    # slice of `key` plus the seed's offset.
    key = tag[rows].astype(np.int64)
    key <<= row_bits
    q_key = key[q] | time_row[q]
    key |= rows
    del rows, time_row
    stride = n_tags << row_bits
    q_key += np.searchsorted(seeds, user[q_rows]) * stride
    del q
    edge_seed, edge_user = user_pairs(corpus, [users[s] for s in seeds.tolist()], True)
    user_ptr = np.concatenate(([0], np.cumsum(np.bincount(user, minlength=len(users)))))
    size = user_ptr[edge_user + 1] - user_ptr[edge_user]
    edge_ptr = np.searchsorted(edge_seed, np.arange(len(seeds) + 1))
    exposed = np.append(0, np.cumsum(size))[edge_ptr]  # exposures before each seed
    q_ptr = np.searchsorted(q_key, np.arange(len(seeds) + 1) * stride)
    social = np.zeros(len(q_rows), dtype=np.int64)
    for s0, s1 in size_cuts(np.diff(exposed), max(n // EXPOSURE_BLOCK_DIVISOR, 1), len(seeds)):
        e0, e1, a, b = edge_ptr[s0], edge_ptr[s1], q_ptr[s0], q_ptr[s1]
        if exposed[s0] == exposed[s1] or a == b:
            continue
        keys = key[concat_ranges(user_ptr[edge_user[e0:e1]], size[e0:e1])]
        keys += np.repeat(edge_seed[e0:e1] * stride, size[e0:e1])
        keys.sort()
        # the last exposure below the query, if in the query's (seed, tag) block
        below = np.searchsorted(keys, q_key[a:b])
        last = keys[below - 1]
        hit = (below > 0) & (last >= (q_key[a:b] & ~row_mask))
        social[a:b] = np.where(hit, ts[q_rows[a:b]] - ts[last & row_mask], 0)
    del key, q_key

    codes = _CODES[has_own + 2 * (social > 0) + 4 * network]
    del has_own, network
    seed_rows = np.flatnonzero(is_seed[user])
    slot = np.empty(n, dtype=np.int64)
    slot[q_rows] = np.arange(len(q_rows))
    order = slot[seed_rows]  # query index of each seed row, in corpus order
    del slot
    return Labels(seed_rows, codes[order], individual[order], social[order])


def sweep(corpus: Corpus) -> Iterator[tuple[int, int, int, int]]:
    """Per-row view of `label_rows`: (row, code, individual_delta,
    social_delta) for each classified row, in corpus order."""
    labels = label_rows(corpus)
    yield from zip(labels.rows.tolist(), labels.codes.tolist(),
                   labels.individual_delta.tolist(), labels.social_delta.tolist())


def classify_all(corpus: Corpus) -> tuple[Labels, ReuseBreakdown]:
    """Classify every seed-user assignment; returns the labels in corpus
    order plus the aggregate breakdown."""
    labels = label_rows(corpus)
    return labels, ReuseBreakdown.from_codes(labels.codes)
