"""Shared fixtures: hand-built corpora, random corpus generation, and the
brute-force reference implementations the fast paths are checked against.

The brute-force helpers deliberately re-derive everything from a full
scan of the assignment list; they share no code with the incremental
classifier or the recommenders.
"""

from __future__ import annotations

import random

import pytest

from tagreuse.classify import ReuseLabel
from tagreuse.corpus import Corpus
from tagreuse.synth import GenParams, generate


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
