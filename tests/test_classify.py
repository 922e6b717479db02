"""Reuse classifier: fixtures, oracle equivalence, and ordering properties."""

from __future__ import annotations

import inspect
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagreuse import classify
from tagreuse.classify import LABELS, ReuseBreakdown, ReuseLabel, classify_all
from tagreuse.corpus import CorpusError
from tagreuse.temporal import recency_samples

from conftest import (
    brute_force_deltas,
    brute_force_label,
    classified,
    corpus_from_tweets,
    random_corpus,
)


def labels_for_user(corpus, user):
    return {
        (a.hashtag, a.timestamp): label
        for a, label, _, _ in classified(corpus)
        if a.user_id == user
    }


class TestFixtureLabels:
    def test_primed_reuse_fixture(self, primed_reuse_corpus):
        got = labels_for_user(primed_reuse_corpus, "A")
        assert got[("x", 30)] is ReuseLabel.SOCIAL
        assert got[("x", 40)] is ReuseLabel.INDIVIDUAL_SOCIAL
        assert got[("y", 50)] is ReuseLabel.EXTERNAL

    def test_without_follow_edge_social_becomes_network(self):
        tweets = [
            ("C", "e1", 10, ("x",)),
            ("B", "e2", 20, ("x",)),
            ("A", "e3", 30, ("x",)),
        ]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        got = labels_for_user(corpus, "A")
        assert got[("x", 30)] is ReuseLabel.NETWORK

    def test_globally_first_occurrence_is_external(self):
        corpus = corpus_from_tweets([("A", "e1", 10, ("fresh",))], {"A": {"B"}})
        got = labels_for_user(corpus, "A")
        assert got[("fresh", 10)] is ReuseLabel.EXTERNAL

    def test_individual_only(self):
        tweets = [("A", "e1", 10, ("x",)), ("A", "e2", 20, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": {"B"}})
        assert labels_for_user(corpus, "A")[("x", 20)] is ReuseLabel.INDIVIDUAL

    def test_breakdown_fractions(self, primed_reuse_corpus):
        _, breakdown = classify_all(primed_reuse_corpus)
        assert breakdown.n_classified == 3
        assert breakdown.counts[ReuseLabel.SOCIAL] == 1
        assert breakdown.counts[ReuseLabel.INDIVIDUAL_SOCIAL] == 1
        assert breakdown.counts[ReuseLabel.EXTERNAL] == 1
        assert breakdown.fractions[ReuseLabel.SOCIAL] == pytest.approx(1 / 3)
        assert sum(breakdown.fractions.values()) == pytest.approx(1.0, abs=1e-9)
        assert breakdown.explained_fraction == pytest.approx(2 / 3)

    def test_no_seed_assignments(self):
        corpus = corpus_from_tweets([("B", "e1", 10, ("x",))], {"A": {"B"}})
        labels, breakdown = classify_all(corpus)
        assert len(labels) == 0
        assert breakdown.n_classified == 0
        assert breakdown.fractions == {}
        assert breakdown.explained_fraction == 0.0

    def test_non_seed_users_are_not_classified(self, primed_reuse_corpus):
        assert {a.user_id for a, _, _, _ in classified(primed_reuse_corpus)} == {"A"}


class TestStrictPast:
    def test_equal_timestamps_are_not_prior(self):
        # B's usage shares A's timestamp: no exposure, hence external.
        tweets = [("B", "e1", 30, ("x",)), ("A", "e2", 30, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": {"B"}})
        assert labels_for_user(corpus, "A")[("x", 30)] is ReuseLabel.EXTERNAL

    def test_same_tweet_hashtags_not_prior_to_each_other(self):
        corpus = corpus_from_tweets([("A", "e1", 30, ("x", "y"))], {"A": set()})
        got = labels_for_user(corpus, "A")
        assert got[("x", 30)] is ReuseLabel.EXTERNAL
        assert got[("y", 30)] is ReuseLabel.EXTERNAL

    def test_own_equal_timestamp_usage_not_individual(self):
        tweets = [("A", "e1", 30, ("x",)), ("A", "e2", 30, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        got = labels_for_user(corpus, "A")
        assert got[("x", 30)] is ReuseLabel.EXTERNAL


class TestOracleEquivalence:
    def test_random_corpora_match_brute_force(self):
        rng = random.Random(1234)
        for _ in range(30):
            corpus = random_corpus(rng, max_users=20, max_assignments=200, max_timestamp=100)
            for a, label, _, _ in classified(corpus):
                assert label is brute_force_label(corpus, a), a

    def test_fixture_matches_brute_force(self, primed_reuse_corpus):
        rows = classified(primed_reuse_corpus)
        assert rows
        for a, label, _, _ in rows:
            assert label is brute_force_label(primed_reuse_corpus, a), a

    def test_small_random_corpora_match_brute_force(self):
        rng = random.Random(99)
        for _ in range(10):
            corpus = random_corpus(rng, max_users=15, max_assignments=150)
            for a, label, _, _ in classified(corpus):
                assert label is brute_force_label(corpus, a), a


@st.composite
def small_corpora(draw):
    """Corpora with tied timestamps, multi-tag tweets, seeds that follow
    seeds, followees that never tweet ("ghost"), seeds with no rows or no
    followees, and corpora with no rows or no seed rows."""
    users = [f"u{i}" for i in range(draw(st.integers(1, 7)))]
    seeds = draw(st.lists(st.sampled_from(users), unique=True))
    edges = {
        s: set(draw(st.lists(st.sampled_from([*users, "ghost"]).filter(s.__ne__),
                             unique=True, max_size=4)))
        for s in seeds
    }
    tweets = draw(st.lists(st.tuples(
        st.sampled_from(users), st.integers(1, 8),
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True),
    ), max_size=40))
    return corpus_from_tweets(
        [(u, f"t{i}", ts, tuple(tags)) for i, (u, ts, tags) in enumerate(tweets)], edges)


@pytest.mark.parametrize("divisor", [classify.EXPOSURE_BLOCK_DIVISOR, 10**9])
@settings(max_examples=300, deadline=None)
@given(corpus=small_corpora())
def test_label_rows_match_the_oracles(divisor, corpus):
    """Every seed row, its label and both deltas equal the quadratic
    oracles'; a divisor of 10**9 caps each exposure block at 1, so every
    seed with exposures is a block of its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "EXPOSURE_BLOCK_DIVISOR", divisor)
        labels = classify.label_rows(corpus)
    rows = corpus.assignments
    assert labels.rows.tolist() == [i for i, a in enumerate(rows)
                                    if a.user_id in corpus.seed_users]
    for row, code, ind, soc in zip(labels.rows.tolist(), labels.codes.tolist(),
                                   labels.individual_delta.tolist(),
                                   labels.social_delta.tolist()):
        assert LABELS[code] is brute_force_label(corpus, rows[row]), rows[row]
        assert (ind or None, soc or None) == brute_force_deltas(corpus, rows[row])


def test_sort_key_budget():
    """The packed keys of the paper's Random shape (13.6M rows, a (user,
    tag) product below 2**38) fit; one bit fewer than a corpus needs is a
    CorpusError, not a wrapped key."""
    assert classify._key_bits(13_600_000, 2**19, 2**19 - 1) == 62
    tweets = [("A", "e1", 10, ("x", "y")), ("B", "e2", 20, ("x",)), ("A", "e3", 30, ("x",))]
    corpus = corpus_from_tweets(tweets, {"A": {"B"}})
    need = classify._key_bits(len(corpus.ts), len(corpus.users), len(corpus.tags))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "KEY_BITS", need)
        assert classify.label_rows(corpus).codes.tolist() == [4, 4, 2]
        mp.setattr(classify, "KEY_BITS", need - 1)
        with pytest.raises(CorpusError, match="sort keys"):
            classify.label_rows(corpus)


class TestProperties:
    def test_causality_later_events_do_not_change_earlier_labels(self):
        rng = random.Random(5)
        for _ in range(10):
            corpus = random_corpus(rng, max_users=10, max_assignments=100, max_timestamp=50)
            if not corpus.assignments:
                continue
            t_max = corpus.assignments[-1].timestamp
            tweets = [
                (a.user_id, a.tweet_id, a.timestamp, (a.hashtag,))
                for a in corpus.assignments
            ]
            seed = sorted(corpus.seed_users)[0] if corpus.seed_users else None
            if seed is None:
                continue
            extended = tweets + [(seed, "late1", t_max + 10, ("h0",))]
            edges = {s: set(f) for s, f in corpus.network.edges.items()}
            base_rows = classified(corpus)
            ext_rows = classified(corpus_from_tweets(extended, edges))
            for (a_base, label_base, _, _), (a_ext, label_ext, _, _) in zip(base_rows, ext_rows):
                assert a_base == a_ext
                assert label_base is label_ext

    def test_bijection_invariance_of_explained_fraction(self):
        rng = random.Random(17)
        for _ in range(10):
            corpus = random_corpus(rng, max_users=12, max_assignments=120)
            _, base = classify_all(corpus)
            tweets = [
                (f"user-{a.user_id}", f"tw-{a.tweet_id}", a.timestamp, (f"tag_{a.hashtag}",))
                for a in corpus.assignments
            ]
            edges = {
                f"user-{s}": {f"user-{f}" for f in fs}
                for s, fs in corpus.network.edges.items()
            }
            _, renamed = classify_all(corpus_from_tweets(tweets, edges))
            assert renamed.n_classified == base.n_classified
            assert renamed.explained_fraction == pytest.approx(base.explained_fraction)

    def test_counts_sum_to_n_classified(self):
        rng = random.Random(23)
        for _ in range(10):
            corpus = random_corpus(rng, max_users=10, max_assignments=100)
            _, breakdown = classify_all(corpus)
            assert sum(breakdown.counts.values()) == breakdown.n_classified
            if breakdown.n_classified:
                assert sum(breakdown.fractions.values()) == pytest.approx(1.0, abs=1e-9)


def test_breakdown_from_codes_roundtrip():
    labels = [ReuseLabel.INDIVIDUAL, ReuseLabel.INDIVIDUAL, ReuseLabel.NETWORK]
    b = ReuseBreakdown.from_codes(np.array([LABELS.index(x) for x in labels], np.int8))
    assert b.counts[ReuseLabel.INDIVIDUAL] == 2
    assert b.counts[ReuseLabel.NETWORK] == 1
    assert b.n_classified == 3
    assert b.explained_fraction == pytest.approx(2 / 3)


def test_label_arrays_cover_seed_rows_with_matching_deltas():
    """On random corpora with ties and multi-hashtag tweets, `rows` is every
    seed row in order, a delta is positive exactly when the label has its
    bit, and `recency_samples` is the positive deltas of the same labels."""
    assert inspect.isgeneratorfunction(classify.sweep)
    assert list(classify.sweep(corpus_from_tweets([("A", "e1", 1, ("x",))], {"A": set()}))) \
        == [(0, LABELS.index(ReuseLabel.EXTERNAL), 0, 0)]
    individual_codes = [LABELS.index(ReuseLabel.INDIVIDUAL),
                        LABELS.index(ReuseLabel.INDIVIDUAL_SOCIAL)]
    social_codes = [LABELS.index(ReuseLabel.SOCIAL), LABELS.index(ReuseLabel.INDIVIDUAL_SOCIAL)]
    rng = random.Random(606)
    n_rows = 0
    for _ in range(40):
        corpus = random_corpus(rng, max_users=15, max_assignments=200, max_timestamp=60)
        labels, breakdown = classify_all(corpus)
        seed_rows = [i for i, a in enumerate(corpus.assignments)
                     if a.user_id in corpus.seed_users]
        assert labels.rows.tolist() == seed_rows
        assert labels.rows.dtype == np.int64 and labels.codes.dtype == np.int8
        assert len(labels) == len(labels.codes) == len(labels.individual_delta) \
            == len(labels.social_delta) == breakdown.n_classified
        ind, soc = labels.individual_delta, labels.social_delta
        assert ((ind > 0) == np.isin(labels.codes, individual_codes)).all()
        assert ((soc > 0) == np.isin(labels.codes, social_codes)).all()
        assert (ind >= 0).all() and (soc >= 0).all()
        individual, social = recency_samples(corpus)
        assert individual.tolist() == ind[ind > 0].tolist()
        assert social.tolist() == soc[soc > 0].tolist()
        n_rows += len(labels)
    assert n_rows > 1000
