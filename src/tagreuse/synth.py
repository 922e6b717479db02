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
and seed reproduce the corpus byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from itertools import filterfalse, islice
from pathlib import Path

import numpy as np

from .corpus import Corpus, FollowNetwork, _gc_paused, _intern, atomic_open

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


@dataclass(frozen=True, slots=True)
class GroundTruthRecord:
    tweet_id: str
    hashtag: str
    source: str  # one of SOURCES, post-fallback


@dataclass(frozen=True)
class GroundTruth:
    records: tuple[GroundTruthRecord, ...]

    def fractions(self) -> dict[str, float]:
        """Effective (post-fallback) source mixture over seed assignments."""
        n = len(self.records)
        if n == 0:
            return {}
        counts = {s: 0 for s in SOURCES}
        for r in self.records:
            counts[r.source] += 1
        return {s: c / n for s, c in counts.items()}


def _simulate_times(
    rng: random.Random, n_events: int, amplitude: float
) -> list[float]:
    """Poisson arrival times, a fraction `amplitude` of which is snapped
    into the shared daily activity window.

    A snapped event keeps its day if the window is still ahead, otherwise
    it moves to a uniform position in the next day's window; times stay
    strictly ordered either way.
    """
    w = float(ACTIVITY_WINDOW_SECONDS)
    t = float(EPOCH)
    out: list[float] = []
    for _ in range(n_events):
        t += rng.expovariate(1.0 / MEAN_GAP_SECONDS)
        if amplitude > 0.0 and rng.random() < amplitude:
            phase = t % SECONDS_PER_DAY
            if phase >= w:
                t = t - phase + SECONDS_PER_DAY + rng.uniform(0.0, w)
        out.append(t)
    return out


def _recency_weights(gaps: list[int], alpha: float) -> list[float]:
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

    seeds = [f"s{i:04d}" for i in range(params.n_seed_users)]
    background = [f"b{i:04d}" for i in range(params.n_background_users)]
    vocab = [f"v{i:05d}" for i in range(params.vocab_size)]
    followees: dict[str, tuple[str, ...]] = {
        s: tuple(sorted(rng.sample(background, params.n_followees_per_seed)))
        for s in seeds
    }
    # followee_tags[s]: every tag some followee of s has used so far.
    followee_tags: dict[str, set[str]] = {s: set() for s in seeds}
    followers: dict[str, list[set[str]]] = {b: [] for b in background}
    for s, flw in followees.items():
        for f in flw:
            followers[f].append(followee_tags[s])

    events: list[tuple[float, str]] = []
    for user in seeds + background:
        events.extend(
            (t, user)
            for t in _simulate_times(rng, params.n_tweets_per_user, params.daily_amplitude)
        )
    events.sort()

    alpha = params.recency_exponent
    c_ind = params.p_individual
    c_soc = c_ind + params.p_social
    c_net = c_soc + params.p_network
    # Each user's tags -> time of last use, least recently used first.
    own: dict[str, dict[str, int]] = {u: {} for u in seeds + background}
    global_tags: list[str] = []
    global_seen: set[str] = set()
    ext_counter = 0
    seed_set = set(seeds)

    # The corpus columns, appended to in time order; row i is tweet i.
    ts_col: list[int] = []
    user_col: list[str] = []
    tag_col: list[str] = []
    gt_records: list[GroundTruthRecord] = []

    def draw_individual(user: str, ts: int) -> str | None:
        mine = own[user]
        # The most recent of the user's tags that no followee has used:
        # up to INDIVIDUAL_POOL_CAP of them among the last INDIVIDUAL_SCAN_CAP.
        pool = list(islice(
            filterfalse(followee_tags[user].__contains__,
                        islice(reversed(mine), INDIVIDUAL_SCAN_CAP)),
            INDIVIDUAL_POOL_CAP,
        ))
        if not pool:
            return None
        weights = _recency_weights([ts - mine[ht] for ht in pool], alpha)
        return rng.choices(pool, weights=weights, k=1)[0]

    def draw_social(user: str, ts: int) -> str | None:
        mine = own[user]
        last: dict[str, int] = {}
        for f in followees[user]:
            theirs = own[f]
            for ht in islice(reversed(theirs), SOCIAL_SCAN_CAP):
                if ht in mine:
                    continue
                t_f = theirs[ht]
                if ht not in last or t_f > last[ht]:
                    last[ht] = t_f
        if not last:
            return None
        pool = list(last)
        weights = _recency_weights([ts - last[ht] for ht in pool], alpha)
        return rng.choices(pool, weights=weights, k=1)[0]

    def draw_network(user: str) -> str | None:
        if not global_tags:
            return None
        mine = own[user]
        social = followee_tags[user]
        for _ in range(NETWORK_TRIES):
            ht = global_tags[rng.randrange(len(global_tags))]
            if ht in mine or ht in social:
                continue
            return ht
        return None

    prev_ts = 0
    for seq, (t_float, user) in enumerate(events):
        ts = max(int(t_float), prev_ts + 1)
        prev_ts = ts
        if user in seed_set:
            r = rng.random()
            ht: str | None
            if r < c_ind:
                want = "individual"
                ht = draw_individual(user, ts)
            elif r < c_soc:
                want = "social"
                ht = draw_social(user, ts)
            elif r < c_net:
                want = "network"
                ht = draw_network(user)
            else:
                want = "external"
                ht = None
            if ht is None:
                want = "external"
                ht = f"x{ext_counter:07d}"
                ext_counter += 1
            gt_records.append(GroundTruthRecord(f"t{seq:08d}", ht, want))
        else:
            ht = vocab[rng.randrange(len(vocab))]
            for tags in followers[user]:
                tags.add(ht)
        ts_col.append(ts)
        user_col.append(user)
        tag_col.append(ht)
        mine = own[user]
        mine.pop(ht, None)
        mine[ht] = ts
        if ht not in global_seen:
            global_seen.add(ht)
            global_tags.append(ht)

    user_ids, tag_ids = {}, {}  # value -> id, filled by _intern
    corpus = Corpus.from_columns(
        np.arange(len(ts_col), dtype=np.int32), _intern(tag_ids, tag_col),
        _intern(user_ids, user_col), np.array(ts_col, dtype=np.int64),
        list(user_ids), [f"t{seq:08d}" for seq in range(len(ts_col))], list(tag_ids),
        FollowNetwork({s: frozenset(f) for s, f in followees.items()}),
    )
    return corpus, GroundTruth(records=tuple(gt_records))


def write_ground_truth(gt: GroundTruth, path: str | Path) -> None:
    """TSV: `tweet_id \\t hashtag \\t source`, one row per seed assignment,
    written atomically (see corpus.atomic_open)."""
    with atomic_open(path) as fh:
        for r in gt.records:
            fh.write(f"{r.tweet_id}\t{r.hashtag}\t{r.source}\n")
