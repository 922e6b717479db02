"""Seeded synthetic corpora with known reuse sources.

Every seed-user hashtag is drawn from a labeled source mixture:

  individual  one of the user's own earlier hashtags, favoring recently
              used ones (weight delta^-recency_exponent)
  social      one of their followees' earlier hashtags, same weighting
  network     a hashtag previously used only outside the user's bubble
  external    a brand-new hashtag from a global counter

Source pools are disjoint by construction (an "individual" candidate has
no prior followee usage, and vice versa), so the recorded source
determines exactly which reuse label the classifier must assign. When a
chosen pool is empty the draw falls back to external and the fallback is
what gets recorded, keeping the ground truth honest during cold start.

Followees are background users; they tweet hashtags drawn uniformly from
a base vocabulary of `vocab_size` tags ("v00001", ...), while external
draws mint fresh tags from a separate namespace ("x0000001", ...), so
the two can never collide.

The pool checks ask whether any followee of a seed user has used a tag
so far. Each seed user keeps the set of its followees' tags for that:
every background tweet adds its tag to the sets of that user's
followers. The set is exact because followees are always background
users and a user's tags are never removed, only added.

Draw weights are delta^-recency_exponent. When every weight of a pool
underflows to 0.0 (a very large exponent), the pool is weighted relative
to its smallest delta instead, in log space, so the draw still works.

Tweet times come from a Poisson process in which each event is snapped
into a fixed two-hour daily activity window with probability
daily_amplitude. At amplitude 0 activity is uniform around the clock; at
amplitude 1 every tweet lands inside the shared window, which
concentrates reuse recencies around multiples of 24 hours. Timestamps
are forced to be strictly increasing integers so that "earlier event"
always means "strictly smaller timestamp".

Everything is driven by one random.Random(rng_seed): identical params
and seed reproduce the corpus byte for byte. The order and arguments of
its calls are a contract, since every corpus and ground truth follows
from them. expovariate, uniform, randrange and choices are inlined with
random.py's own arithmetic on random() and getrandbits(), the same on
every supported Python; sample is called as it is.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, fields
from itertools import accumulate, filterfalse, islice
from math import log
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import Corpus, FollowNetwork, _gc_paused, atomic_open

SECONDS_PER_DAY = 86_400
EPOCH = 1_500_000_000
ACTIVITY_WINDOW_SECONDS = 2 * 3600
MEAN_GAP_SECONDS = 6 * 3600

# Sampling pools are capped to the most recent distinct tags; the strong
# recency weighting makes the tail negligible and the cap keeps draws O(1).
INDIVIDUAL_POOL_CAP = 32
INDIVIDUAL_SCAN_CAP = 128
SOCIAL_SCAN_CAP = 16
NETWORK_TRIES = 40

SOURCES = ("individual", "social", "network", "external")


class InvalidParams(Exception):
    """Generator parameters are inconsistent."""


@dataclass(frozen=True)
class GenParams:
    n_seed_users: int = 20
    n_followees_per_seed: int = 5
    n_background_users: int = 30
    vocab_size: int = 200
    n_tweets_per_user: int = 50
    p_individual: float = 0.25
    p_social: float = 0.25
    p_network: float = 0.25
    p_external: float = 0.25
    recency_exponent: float = 1.0
    daily_amplitude: float = 0.0
    rng_seed: int = 0

    def validate(self) -> None:
        # NaN fails every comparison, so the range checks below would let it through.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParams(f"{f.name} must be a finite number, got {value}")
        counts = {
            "n_seed_users": self.n_seed_users,
            "n_followees_per_seed": self.n_followees_per_seed,
            "n_background_users": self.n_background_users,
            "vocab_size": self.vocab_size,
            "n_tweets_per_user": self.n_tweets_per_user,
        }
        for name, value in counts.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParams(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise InvalidParams(f"{name} must be >= 1, got {value}")
        probs = (self.p_individual, self.p_social, self.p_network, self.p_external)
        if any(p < 0 for p in probs):
            raise InvalidParams(f"source probabilities must be >= 0, got {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise InvalidParams(f"source probabilities must sum to 1, got {sum(probs)}")
        if not self.recency_exponent > 0:
            raise InvalidParams(f"recency_exponent must be > 0, got {self.recency_exponent}")
        if not 0.0 <= self.daily_amplitude <= 1.0:
            raise InvalidParams(f"daily_amplitude must be in [0, 1], got {self.daily_amplitude}")
        if self.n_followees_per_seed > self.n_background_users:
            raise InvalidParams(
                "n_followees_per_seed cannot exceed n_background_users "
                f"({self.n_followees_per_seed} > {self.n_background_users})"
            )


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The source of each seed assignment of `corpus`, as columns: `rows`
    (int64, ascending) are the seed rows and `source` (int8) each one's
    index into SOURCES, post-fallback."""
    corpus: Corpus
    rows: np.ndarray
    source: np.ndarray

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundTruth) and self.corpus == other.corpus and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in ("rows", "source"))

    def fractions(self) -> dict[str, float]:
        """Effective (post-fallback) source mixture over seed assignments."""
        n, counts = len(self.source), np.bincount(self.source, minlength=len(SOURCES)).tolist()
        return {s: c / n for s, c in zip(SOURCES, counts)} if n else {}


def _simulate_times(random_: Callable[[], float], n_users: int, n_events: int,
                    amplitude: float) -> list[float]:
    """Each user's Poisson arrival times, user after user; `random_` is the
    generator's random(). With probability `amplitude` an event is snapped
    into the shared daily activity window: it keeps its day if the window
    is still ahead, else it moves to a uniform position in the next day's
    window, so times stay strictly ordered."""
    lambd, w = 1.0 / MEAN_GAP_SECONDS, float(ACTIVITY_WINDOW_SECONDS)
    out: list[float] = []
    for _ in range(n_users):
        t = float(EPOCH)
        for _ in range(n_events):
            t += -log(1.0 - random_()) / lambd  # rng.expovariate(lambd)
            if amplitude > 0.0 and random_() < amplitude:
                phase = t % SECONDS_PER_DAY
                if phase >= w:  # to the next day's window, at rng.uniform(0.0, w)
                    t = t - phase + SECONDS_PER_DAY + (0.0 + w * random_())
            out.append(t)
    return out


def _recency_weights(gaps: list[float], alpha: float) -> list[float]:
    """Sampling weights gap^-alpha. Only when every one underflows to 0.0
    are they taken relative to the smallest gap instead,
    exp(-alpha (ln gap - ln gap_min)), which keeps their proportions."""
    neg_alpha = -alpha
    weights = [dt ** neg_alpha for dt in gaps]
    if any(weights):
        return weights
    log_min = math.log(min(gaps))
    return [math.exp(-alpha * (math.log(dt) - log_min)) for dt in gaps]


@_gc_paused()  # many small objects and no reference cycles
def generate(params: GenParams) -> tuple[Corpus, GroundTruth]:
    """Generate a corpus plus the per-assignment source ground truth."""
    params.validate()
    rng = random.Random(params.rng_seed)
    random_, getrandbits = rng.random, rng.getrandbits

    # User i is names[i]: the seeds, then the background users.
    n_seeds, n_tweets = params.n_seed_users, params.n_tweets_per_user
    names = [f"s{i:04d}" for i in range(n_seeds)]
    names += [f"b{i:04d}" for i in range(params.n_background_users)]
    n_users = len(names)
    followees = [sorted(rng.sample(range(n_seeds, n_users), params.n_followees_per_seed),
                        key=names.__getitem__) for _ in range(n_seeds)]
    # followee_tags[s]: every tag some followee of seed s has used so far.
    followee_tags: list[set[int]] = [set() for _ in range(n_seeds)]
    followers: list[list[set[int]]] = [[] for _ in range(n_users)]
    for tags, flw in zip(followee_tags, followees):
        for f in flw:
            followers[f].append(tags)

    event_time = np.array(_simulate_times(random_, n_users, n_tweets, params.daily_amplitude))
    # Events in (time, user name) order; row i is tweet i. No time lies
    # below EPOCH, so the i-th timestamp is the larger of int(time) and the
    # previous one + 1.
    rank = np.argsort(np.argsort(names))  # of each user's name among the names
    event_user = np.repeat(np.arange(n_users, dtype=np.int32), n_tweets)
    order = np.lexsort((rank[event_user], event_time))
    event_user = event_user[order]
    steps = np.arange(len(order), dtype=np.int64)
    ts_col = np.maximum.accumulate(event_time[order].astype(np.int64) - steps) + steps

    alpha = params.recency_exponent
    c_ind, c_soc, c_net = accumulate((params.p_individual, params.p_social, params.p_network))
    # A tag is an int: a background draw is its vocabulary index and the
    # k-th external tag is vocab_size + k.
    vocab_size, ext = params.vocab_size, params.vocab_size
    vocab_bits = vocab_size.bit_length()
    # Each user's tags -> time of last use, least recently used first; kept
    # only for the users some draw reads: the seeds and their followees. The
    # times are floats, which give the same gaps and weights as ints, sooner.
    own: list[dict[int, float] | None] = [
        {} if u < n_seeds or followers[u] else None for u in range(n_users)]
    global_tags: list[int] = []  # in order of first use; a tag's index is its id
    tag_id: dict[int, int] = {}
    tag_col, source_col = [], []  # the tag ids of the rows, the seed rows' sources

    def pick(pool: list[int], gaps: list[float]) -> int:
        # rng.choices(pool, weights=_recency_weights(gaps, alpha))[0]
        cum = list(accumulate(_recency_weights(gaps, alpha)))
        total = cum[-1] + 0.0
        if not 0.0 < total < math.inf:
            raise ValueError("Total of weights must be greater than zero and finite")
        return pool[bisect(cum, random_() * total, 0, len(cum) - 1)]

    def draw_individual(user: int, ts: float) -> int | None:
        mine = own[user]
        # The most recent of the user's tags that no followee has used:
        # up to INDIVIDUAL_POOL_CAP of them among the last INDIVIDUAL_SCAN_CAP.
        pool = list(islice(filterfalse(followee_tags[user].__contains__,
                                       islice(reversed(mine), INDIVIDUAL_SCAN_CAP)),
                           INDIVIDUAL_POOL_CAP))
        if not pool:
            return None
        return pick(pool, [ts - mine[ht] for ht in pool])

    def draw_social(user: int, ts: float) -> int | None:
        mine = own[user]
        last: dict[int, float] = {}
        setdefault = last.setdefault
        for f in followees[user]:
            for ht, t_f in islice(reversed(own[f].items()), SOCIAL_SCAN_CAP):
                if ht not in mine and setdefault(ht, t_f) < t_f:
                    last[ht] = t_f
        if not last:
            return None
        return pick(list(last), [ts - t for t in last.values()])

    def draw_network(user: int) -> int | None:
        n = len(global_tags)
        if not n:
            return None
        mine, social, bits = own[user], followee_tags[user], n.bit_length()
        for _ in range(NETWORK_TRIES):
            r = getrandbits(bits)  # rng.randrange(n)
            while r >= n:
                r = getrandbits(bits)
            ht = global_tags[r]
            if ht not in mine and ht not in social:
                return ht
        return None

    for user, ts in zip(event_user.tolist(), ts_col.astype(np.float64).tolist()):
        if user < n_seeds:
            r = random_()
            if r < c_ind:
                code, ht = 0, draw_individual(user, ts)
            elif r < c_soc:
                code, ht = 1, draw_social(user, ts)
            elif r < c_net:
                code, ht = 2, draw_network(user)
            else:
                ht = None
            if ht is None:
                code, ht = 3, ext
                ext += 1
            source_col.append(code)
        else:
            ht = getrandbits(vocab_bits)  # rng.randrange(vocab_size)
            while ht >= vocab_size:
                ht = getrandbits(vocab_bits)
            for tags in followers[user]:
                tags.add(ht)
        mine = own[user]
        if mine is not None:
            mine.pop(ht, None)
            mine[ht] = ts
        i = tag_id.get(ht)
        if i is None:
            i = tag_id[ht] = len(global_tags)
            global_tags.append(ht)
        tag_col.append(i)

    n = len(tag_col)
    tags = [f"v{t:05d}" if t < vocab_size else f"x{t - vocab_size:07d}" for t in global_tags]
    corpus = Corpus.from_columns(
        np.arange(n, dtype=np.int32), np.array(tag_col, dtype=np.int32), event_user, ts_col,
        names, ["t%08d" % seq for seq in range(n)], tags,
        FollowNetwork({names[s]: frozenset(map(names.__getitem__, flw))
                       for s, flw in enumerate(followees)}),
    )
    rows = np.flatnonzero(event_user < n_seeds)
    return corpus, GroundTruth(corpus, rows, np.array(source_col, dtype=np.int8))


def write_ground_truth(gt: GroundTruth, path: str | Path) -> None:
    """TSV: `tweet_id \\t hashtag \\t source`, one row per seed assignment,
    written atomically (see corpus.atomic_open)."""
    corpus = gt.corpus
    tweet_ids = map(corpus.tweet_ids.__getitem__, memoryview(corpus.tweet[gt.rows]))
    tags = map(corpus.tags.__getitem__, memoryview(corpus.tag[gt.rows]))
    with atomic_open(path) as fh:
        for tweet_id, ht, code in zip(tweet_ids, tags, memoryview(gt.source)):
            fh.write(f"{tweet_id}\t{ht}\t{SOURCES[code]}\n")
