"""Shared fixtures: hand-built corpora, random corpus generation, and the
brute-force reference implementations the fast paths are checked against.

The brute-force helpers deliberately re-derive everything from a full
scan of the assignment list; they share no code with the incremental
classifier or the recommenders.
"""

from __future__ import annotations

import json
import math
import random
import unicodedata
from collections import OrderedDict
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from tagreuse.classify import LABELS, ReuseLabel, classify_all
from tagreuse.corpus import Corpus, EmptyAfterNormalization, HashtagAssignment
from tagreuse.diversity import SimilarityIndex
from tagreuse.synth import (
    ACTIVITY_WINDOW_SECONDS,
    EPOCH,
    INDIVIDUAL_POOL_CAP,
    INDIVIDUAL_SCAN_CAP,
    MEAN_GAP_SECONDS,
    NETWORK_TRIES,
    SECONDS_PER_DAY,
    SOCIAL_SCAN_CAP,
    SOURCES,
    GenParams,
    GroundTruth,
    generate,
)


def corpus_from_tweets(tweets, edges) -> Corpus:
    """Thin wrapper so tests read naturally."""
    return Corpus.from_tweets(tweets, edges)


def merged_synth_corpus(params: GenParams, run: int) -> Corpus:
    """A synth corpus with each run of `run` consecutive tweets of a user
    merged into one tweet, so tweets carry several hashtags and the
    similarity index sees co-occurrence."""
    corpus, _ = generate(params)
    by_user: dict[str, list] = {}
    for a in corpus.assignments:
        by_user.setdefault(a.user_id, []).append(a)
    tweets = []
    for user, events in by_user.items():
        for i in range(0, len(events), run):
            merged = events[i:i + run]
            tweets.append((user, merged[-1].tweet_id, merged[-1].timestamp,
                           tuple(a.hashtag for a in merged)))
    return Corpus.from_tweets(tweets, corpus.network.edges)


@pytest.fixture
def primed_reuse_corpus() -> Corpus:
    """A follows B; c and B prime hashtag x before A touches it.

    Expected labels for seed A: (x, 30) social, (x, 40) individual_social,
    (y, 50) external.
    """
    tweets = [
        ("C", "e1", 10, ("x",)),
        ("B", "e2", 20, ("x",)),
        ("A", "e3", 30, ("x",)),
        ("A", "e4", 40, ("x",)),
        ("A", "e5", 50, ("y",)),
    ]
    return corpus_from_tweets(tweets, {"A": {"B"}})


@pytest.fixture
def stats_fixture_corpus() -> Corpus:
    """2 seed users, 3 users total, 4 tweets, 3 hashtags, 6 assignments."""
    tweets = [
        ("u1", "t1", 100, ("h1", "h2")),
        ("u1", "t2", 200, ("h1",)),
        ("u2", "t3", 300, ("h2", "h3")),
        ("u3", "t4", 400, ("h1",)),
    ]
    return corpus_from_tweets(tweets, {"u1": {"u3"}, "u2": set()})


def random_corpus(
    rng: random.Random,
    max_users: int = 50,
    max_assignments: int = 500,
    max_timestamp: int = 500,
    tag_pool_size: int | None = None,
) -> Corpus:
    """Small random corpus with frequent hashtag and timestamp collisions."""
    n_users = rng.randint(2, max_users)
    users = [f"u{i:02d}" for i in range(n_users)]
    seeds = rng.sample(users, rng.randint(1, n_users))
    edges = {
        s: set(rng.sample([u for u in users if u != s], rng.randint(0, min(6, n_users - 1))))
        for s in seeds
    }
    n_tags = tag_pool_size or rng.randint(2, 12)
    tags = [f"h{i}" for i in range(n_tags)]
    n_assignments = rng.randint(0, max_assignments)
    tweets = []
    budget = n_assignments
    seq = 0
    while budget > 0:
        n_in_tweet = min(rng.randint(1, 3), budget, n_tags)
        tweets.append(
            (
                rng.choice(users),
                f"t{seq:05d}",
                rng.randint(1, max_timestamp),
                tuple(rng.sample(tags, n_in_tweet)),
            )
        )
        budget -= n_in_tweet
        seq += 1
    return corpus_from_tweets(tweets, edges)


def bubble_fixture():
    """The documented reuse-bubble fixture for re-ranker serendipity checks.

    Four in-bubble tags co-occur tightly (pairwise cosine 0.8) and top the
    accuracy ranking; three out-of-bubble tags co-occur only among
    themselves (pairwise 0.5, zero similarity to the bubble) and sit
    below. The user's history covers exactly the in-bubble tags, so any
    promotion of out-* items raises serendipity.

    Returns (corpus, candidates, individual_history, social_history).
    """
    tweets = []
    for i in range(3):
        tweets.append(("w", f"in{i}", 10 + i, ("in1", "in2", "in3", "in4", "b1", "b2")))
    for i in range(2):
        tweets.append(("w", f"out{i}", 20 + i, ("out1", "out2", "out3")))
    corpus = Corpus.from_tweets(tweets, {})
    candidates = [
        ("in1", 1.0), ("in2", 0.9), ("in3", 0.8), ("in4", 0.7),
        ("out1", 0.65), ("out2", 0.6), ("out3", 0.55),
    ]
    return corpus, candidates, {"in1", "in2"}, {"in3", "in4"}


def classified(corpus: Corpus) -> list[tuple[HashtagAssignment, ReuseLabel, int, int]]:
    """(assignment, label, individual_delta, social_delta) per row of
    `classify_all`, in its order; a delta is 0 where the label lacks it."""
    labels, _ = classify_all(corpus)
    return [
        (corpus.assignments[row], LABELS[code], ind, soc)
        for row, code, ind, soc in zip(
            labels.rows.tolist(), labels.codes.tolist(),
            labels.individual_delta.tolist(), labels.social_delta.tolist(),
        )
    ]


def brute_force_bits(corpus: Corpus, a) -> tuple[bool, bool, bool]:
    """(individual, social, network) bits from a full quadratic scan."""
    followees = corpus.network.edges[a.user_id]
    individual = social = network = False
    for b in corpus.assignments:
        if b.timestamp >= a.timestamp or b.hashtag != a.hashtag:
            continue
        if b.user_id == a.user_id:
            individual = True
        elif b.user_id in followees:
            social = True
        else:
            network = True
    return individual, social, network


def brute_force_label(corpus: Corpus, a) -> ReuseLabel:
    individual, social, network = brute_force_bits(corpus, a)
    if individual and social:
        return ReuseLabel.INDIVIDUAL_SOCIAL
    if individual:
        return ReuseLabel.INDIVIDUAL
    if social:
        return ReuseLabel.SOCIAL
    if network:
        return ReuseLabel.NETWORK
    return ReuseLabel.EXTERNAL


def brute_force_deltas(corpus: Corpus, a) -> tuple[int | None, int | None]:
    """(individual_delta, social_delta) from a full scan, clamped to >= 1."""
    followees = corpus.network.edges[a.user_id]
    last_own: int | None = None
    last_social: int | None = None
    for b in corpus.assignments:
        if b.timestamp >= a.timestamp or b.hashtag != a.hashtag:
            continue
        if b.user_id == a.user_id:
            if last_own is None or b.timestamp > last_own:
                last_own = b.timestamp
        elif b.user_id in followees:
            if last_social is None or b.timestamp > last_social:
                last_social = b.timestamp
    ind = max(a.timestamp - last_own, 1) if last_own is not None else None
    soc = max(a.timestamp - last_social, 1) if last_social is not None else None
    return ind, soc


def reference_bll_activation(times, ref_time: int, params) -> float:
    """BLL activation by a plain per-term loop: ln of the in-order sum,
    from 0.0, of max(ref_time - t, min_delta)^-d over t < ref_time, and
    the log-sum-exp form when that sum underflows to 0.0 (its last sum is
    builtin sum(), as in the library's log-space path)."""
    d, min_delta = params.d, params.min_delta_seconds
    total = 0.0
    kept = []
    for t in times:
        if t < ref_time:
            kept.append(t)
            total += max(ref_time - t, min_delta) ** -d
    if total != 0.0:
        return math.log(total)
    logs = [-d * math.log(max(ref_time - t, min_delta)) for t in kept]
    m = max(logs)
    return m + math.log(sum(math.exp(x - m) for x in logs))


def reference_cooccurrence_vectors(corpus: Corpus, before=None, exclude_tweets=None):
    """Co-occurrence counts by a dict-of-dicts loop: a tweet's distinct
    tags, from assignments strictly before `before` and outside
    `exclude_tweets`, each count every other tag of that tweet once."""
    by_tweet: dict[str, set[str]] = {}
    for a in corpus.assignments:
        if before is not None and a.timestamp >= before:
            continue
        if exclude_tweets is not None and a.tweet_id in exclude_tweets:
            continue
        by_tweet.setdefault(a.tweet_id, set()).add(a.hashtag)
    vectors: dict[str, dict[str, int]] = {}
    for tags in by_tweet.values():
        for a in tags:
            for b in tags:
                if a != b:
                    va = vectors.setdefault(a, {})
                    va[b] = va.get(b, 0) + 1
    return vectors


def index_from_vectors(vectors: dict[str, dict[str, int]]) -> SimilarityIndex:
    """A SimilarityIndex holding exactly `vectors`, which need not be
    symmetric: row r is tags[r], the tags with a vector first, in the order
    given, then each neighbour not seen yet, with an empty row."""
    tags = list(dict.fromkeys(chain(vectors, chain.from_iterable(vectors.values()))))
    ids = {ht: i for i, ht in enumerate(tags)}
    lengths = [len(vectors.get(ht, {})) for ht in tags]
    return SimilarityIndex(
        tags, ids, np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        np.array([ids[nb] for vec in vectors.values() for nb in vec], dtype=np.int64),
        np.array([c for vec in vectors.values() for c in vec.values()], dtype=np.int64),
    )


def brute_force_cosine(index, ht_a: str, ht_b: str) -> float:
    """Cosine of two co-occurrence vectors by a per-pair dict loop: exact
    int dot product and squared norms, 0 when the dot product is 0."""
    va, vb = index.vector(ht_a), index.vector(ht_b)
    dot = sum(c * vb.get(ht, 0) for ht, c in va.items())
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(sum(c * c for c in va.values()))
    norm_b = math.sqrt(sum(c * c for c in vb.values()))
    return dot / (norm_a * norm_b)


def reference_pair_table(index, tags) -> list[list[float]]:
    """brute_force_cosine of every ordered pair of the listed tags."""
    return [[brute_force_cosine(index, a, b) for b in tags] for a in tags]


def reference_normalize_scores(candidates):
    """Min-max rescaling of a list's scores by a per-item loop; every score
    is 1.0 when they are all equal."""
    scores = [score for _, score in candidates]
    lo, hi = min(scores, default=0.0), max(scores, default=0.0)
    return [(ht, (score - lo) / (hi - lo) if hi != lo else 1.0) for ht, score in candidates]


def reference_rerank_hybrid(candidates, lam: float, index):
    """The greedy marginal-relevance reorder by a per-list loop over the
    list's reference_pair_table; ties go to the earlier position."""
    table = reference_pair_table(index, [ht for ht, _ in candidates])
    remaining = list(range(len(candidates)))
    selected = []
    max_sim = [0.0] * len(candidates)
    while remaining:
        best_pos, best_score = None, -math.inf
        for pos in remaining:
            score = lam * candidates[pos][1] + (1.0 - lam) * (1.0 - max_sim[pos])
            if score > best_score:
                best_pos, best_score = pos, score
        remaining.remove(best_pos)
        selected.append(best_pos)
        for pos in remaining:
            max_sim[pos] = max(max_sim[pos], table[best_pos][pos])
    return [candidates[pos] for pos in selected]


def reference_ild_at_k(items, index) -> list[float]:
    """The ILD of every prefix of a list by a per-list loop: each prefix
    adds its pairs' cosines, from the list's reference_pair_table, in
    row-major order."""
    tags = [it[0] if isinstance(it, tuple) else it for it in items]
    table = reference_pair_table(index, tags)
    out = [0.0] if tags else []
    for k in range(2, len(tags) + 1):
        total = 0.0
        for i in range(k - 1):
            for sim in table[i][i + 1 : k]:
                total += sim
        out.append(1.0 - total / (k * (k - 1) / 2))
    return out


def reference_serendipity(items, history) -> float:
    """The share of the listed hashtags not in `history`; 0.0 for none."""
    tags = [it[0] if isinstance(it, tuple) else it for it in items]
    return sum(ht not in history for ht in tags) / len(tags) if tags else 0.0


def reference_normalize_hashtag(raw: str) -> str:
    """normalize_hashtag with the whitespace test spelled out per character."""
    s = unicodedata.normalize("NFC", raw.strip().lstrip("#")).casefold()
    if not s:
        raise EmptyAfterNormalization(raw)
    if any(c.isspace() for c in s):
        raise ValueError(raw)
    return s


def reference_parse_assignments(path: Path, fmt: str) -> tuple[list, list[int]]:
    """Line-by-line reference parser for the loader: every line is checked
    and its hashtags normalized on their own, with no caches. Returns the
    accepted tweet records, for Corpus.from_tweets, and the numbers of the
    malformed lines, in file order."""
    records = []
    bad: list[int] = []
    tweet_meta: dict[str, tuple[str, int]] = {}
    newline = "" if fmt == "tsv" else None
    with path.open("r", encoding="utf-8-sig", newline=newline) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\r\n") if fmt == "tsv" else line.strip()
            if not line:
                continue
            try:
                if fmt == "tsv":
                    parts = line.split("\t")
                    if len(parts) != 4:
                        raise ValueError("field count")
                    user_id, tweet_id, ts_raw, ht_raw = parts
                    if not user_id or not tweet_id:
                        raise ValueError("empty id")
                    ts = int(ts_raw)
                    if ts <= 0:
                        raise ValueError("timestamp")
                    tags = (reference_normalize_hashtag(ht_raw),)
                else:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("not an object")
                    user_id, tweet_id, ts = obj["user"], obj["tweet"], obj["ts"]
                    raw_tags = obj["hashtags"]
                    if not isinstance(user_id, str) or not user_id or \
                            set(user_id) & {"\t", "\r", "\n"}:
                        raise ValueError("user")
                    if not isinstance(tweet_id, str) or not tweet_id or \
                            set(tweet_id) & {"\t", "\r", "\n"}:
                        raise ValueError("tweet")
                    if not isinstance(ts, int) or isinstance(ts, bool) or ts <= 0:
                        raise ValueError("ts")
                    if not isinstance(raw_tags, list):
                        raise ValueError("hashtags")
                    tags = tuple(reference_normalize_hashtag(t) for t in raw_tags)
                if tweet_meta.setdefault(tweet_id, (user_id, ts)) != (user_id, ts):
                    raise ValueError("conflicting tweet metadata")
            except (ValueError, KeyError, EmptyAfterNormalization):
                bad.append(line_no)
                continue
            records.append((user_id, tweet_id, ts, tags))
    return records, bad


def reference_generate(params: GenParams) -> tuple[Corpus, GroundTruth]:
    """Reference for synth.generate without its per-seed followee-tag sets
    or its inlined draws: every pool check scans the followees' tag dicts,
    the bounded scans count by hand, and every draw is a call of rng's own
    method. It makes the same RNG calls with the same weights (the
    underflow fallback written out), so it must give the same corpus and
    ground truth."""
    params.validate()
    rng = random.Random(params.rng_seed)

    seeds = [f"s{i:04d}" for i in range(params.n_seed_users)]
    background = [f"b{i:04d}" for i in range(params.n_background_users)]
    vocab = [f"v{i:05d}" for i in range(params.vocab_size)]
    followees: dict[str, tuple[str, ...]] = {
        s: tuple(sorted(rng.sample(background, params.n_followees_per_seed)))
        for s in seeds
    }

    events: list[tuple[float, str]] = []
    amplitude = params.daily_amplitude
    for user in seeds + background:
        t = float(EPOCH)
        for _ in range(params.n_tweets_per_user):
            t += rng.expovariate(1.0 / MEAN_GAP_SECONDS)
            if amplitude > 0.0 and rng.random() < amplitude:
                phase = t % SECONDS_PER_DAY
                if phase >= ACTIVITY_WINDOW_SECONDS:
                    t = t - phase + SECONDS_PER_DAY + rng.uniform(0.0, ACTIVITY_WINDOW_SECONDS)
            events.append((t, user))
    events.sort()

    alpha = params.recency_exponent
    c_ind = params.p_individual
    c_soc = c_ind + params.p_social
    c_net = c_soc + params.p_network
    own: dict[str, OrderedDict[str, int]] = {u: OrderedDict() for u in seeds + background}
    global_tags: list[str] = []
    global_seen: set[str] = set()
    ext_counter = 0
    seed_set = set(seeds)

    assignments: list[HashtagAssignment] = []
    gt_rows: list[int] = []
    gt_sources: list[int] = []

    def choose(pool: list[str], gaps: list[int]) -> str:
        weights = [gap ** -alpha for gap in gaps]
        if not any(weights):
            # every weight underflowed: weigh relative to the smallest gap
            log_min_gap = math.log(min(gaps))
            weights = [math.exp(-alpha * (math.log(gap) - log_min_gap)) for gap in gaps]
        return rng.choices(pool, weights=weights, k=1)[0]

    def draw_individual(user: str, ts: int) -> str | None:
        flw = followees[user]
        pool: list[str] = []
        gaps: list[int] = []
        scanned = 0
        for ht in reversed(own[user]):
            scanned += 1
            if scanned > INDIVIDUAL_SCAN_CAP:
                break
            if any(ht in own[f] for f in flw):
                continue
            pool.append(ht)
            gaps.append(ts - own[user][ht])
            if len(pool) >= INDIVIDUAL_POOL_CAP:
                break
        if not pool:
            return None
        return choose(pool, gaps)

    def draw_social(user: str, ts: int) -> str | None:
        last: dict[str, int] = {}
        for f in followees[user]:
            scanned = 0
            for ht in reversed(own[f]):
                scanned += 1
                if scanned > SOCIAL_SCAN_CAP:
                    break
                if ht in own[user]:
                    continue
                t_f = own[f][ht]
                if ht not in last or t_f > last[ht]:
                    last[ht] = t_f
        if not last:
            return None
        pool = list(last)
        return choose(pool, [ts - last[ht] for ht in pool])

    def draw_network(user: str) -> str | None:
        if not global_tags:
            return None
        flw = followees[user]
        for _ in range(NETWORK_TRIES):
            ht = global_tags[rng.randrange(len(global_tags))]
            if ht in own[user]:
                continue
            if any(ht in own[f] for f in flw):
                continue
            return ht
        return None

    prev_ts = 0
    for seq, (t_float, user) in enumerate(events):
        ts = max(int(t_float), prev_ts + 1)
        prev_ts = ts
        tweet_id = f"t{seq:08d}"
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
            gt_rows.append(seq)
            gt_sources.append(SOURCES.index(want))
        else:
            ht = vocab[rng.randrange(len(vocab))]
        assignments.append(HashtagAssignment(user, tweet_id, ht, ts))
        od = own[user]
        od[ht] = ts
        od.move_to_end(ht)
        if ht not in global_seen:
            global_seen.add(ht)
            global_tags.append(ht)

    corpus = Corpus.from_tweets(
        [(a.user_id, a.tweet_id, a.timestamp, (a.hashtag,)) for a in assignments], followees)
    rows = np.array(gt_rows, dtype=np.int64)  # timestamps strictly increase: row seq is tweet seq
    return corpus, GroundTruth(corpus, rows, np.array(gt_sources, dtype=np.int8))

