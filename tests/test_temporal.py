"""Recency samples, log-binned histograms, and the 24h peak check."""

from __future__ import annotations

import math
import random

import pytest

from tagreuse.temporal import (
    InvalidRange,
    PeakCheck,
    RangeExcludes24h,
    RecencyHistogram,
    build_histogram,
    detect_daily_peak,
    individual_recency_samples,
    recency_samples,
    social_recency_samples,
)

from conftest import brute_force_deltas, classified, corpus_from_tweets, random_corpus
from tagreuse import classify


class TestSampleExtraction:
    def test_individual_delta_is_time_since_own_usage(self):
        tweets = [("A", "e1", 1000, ("x",)), ("A", "e2", 4600, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        assert individual_recency_samples(corpus).tolist() == [3600]

    def test_single_use_hashtags_yield_no_samples(self):
        tweets = [("A", "e1", 10, ("x",)), ("A", "e2", 20, ("y",))]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        assert individual_recency_samples(corpus).tolist() == []

    def test_equal_timestamp_own_usage_is_not_prior(self):
        # ties are mutually non-prior, so no individual sample is emitted
        tweets = [("A", "e1", 30, ("x",)), ("A", "e2", 30, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        assert individual_recency_samples(corpus).tolist() == []

    def test_social_delta_is_time_since_followee_usage(self):
        tweets = [("B", "e1", 2000, ("x",)), ("A", "e2", 5600, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": {"B"}})
        assert social_recency_samples(corpus).tolist() == [3600]

    def test_no_followees_no_social_samples(self):
        tweets = [("B", "e1", 10, ("x",)), ("A", "e2", 20, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        assert social_recency_samples(corpus).tolist() == []

    def test_followee_usage_after_is_ignored(self):
        tweets = [("A", "e1", 10, ("x",)), ("B", "e2", 20, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": {"B"}})
        assert social_recency_samples(corpus).tolist() == []

    def test_individual_social_assignment_emits_both(self, primed_reuse_corpus):
        ind = individual_recency_samples(primed_reuse_corpus)
        soc = social_recency_samples(primed_reuse_corpus)
        # (x, 40) has both bits: own usage at 30, followee usage at 20
        assert 10 in ind.tolist()
        assert 20 in soc.tolist()
        both = [row for row in classified(primed_reuse_corpus)
                if row[1].value == "individual_social"]
        assert both
        assert all(ind_delta > 0 and soc_delta > 0 for _, _, ind_delta, soc_delta in both)

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(42)
        for _ in range(15):
            corpus = random_corpus(rng, max_users=15, max_assignments=150, max_timestamp=200)
            for a, _, ind_delta, soc_delta in classified(corpus):
                ind, soc = brute_force_deltas(corpus, a)
                assert ind_delta == (ind or 0)
                assert soc_delta == (soc or 0)


    def test_one_classification_gives_both_kinds(self, monkeypatch):
        calls = []
        label_rows = classify.label_rows
        monkeypatch.setattr(classify, "label_rows", lambda c: calls.append(1) or label_rows(c))
        rng = random.Random(5)
        for _ in range(15):
            corpus = random_corpus(rng, max_users=15, max_assignments=150, max_timestamp=200)
            deltas = [
                brute_force_deltas(corpus, a)
                for a in corpus.assignments if a.user_id in corpus.seed_users
            ]
            calls.clear()
            individual, social = recency_samples(corpus)
            assert len(calls) == 1
            assert individual.tolist() == [d for d, _ in deltas if d]
            assert social.tolist() == [d for _, d in deltas if d]


class TestBuildHistogram:
    def test_hand_binned_fixture(self):
        samples = [int(h * 3600) for h in (1.0, 24.0, 24.0, 25.0)]
        hist = build_histogram(samples, n_bins=3, min_hours=0.1, max_hours=1000.0)
        # independent edge computation: geometric spacing over 4 decades
        edges = [0.1 * (1000.0 / 0.1) ** (i / 3) for i in range(4)]
        assert hist.bin_edges_hours == pytest.approx(edges)
        assert sum(hist.counts) == 4
        assert hist.counts == (1, 3, 0)

    def test_empty_samples(self):
        hist = build_histogram([], n_bins=5, min_hours=0.1, max_hours=100.0)
        assert hist.counts == (0, 0, 0, 0, 0)

    def test_sample_on_interior_edge_goes_to_higher_bin(self):
        # edges of 2 bins over [1, 100] are (1, 10, 100); 10h sits in bin 1
        samples = [10 * 3600]
        hist = build_histogram(samples, n_bins=2, min_hours=1.0, max_hours=100.0)
        assert hist.counts == (0, 1)

    def test_clamping_preserves_counts(self):
        samples = [
            1,          # far below min
            10**9,      # far above max
        ]
        hist = build_histogram(samples, n_bins=4, min_hours=1.0, max_hours=10.0)
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        assert sum(hist.counts) == 2

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            build_histogram([], n_bins=1, min_hours=0.1, max_hours=10.0)
        with pytest.raises(InvalidRange):
            build_histogram([], n_bins=3, min_hours=10.0, max_hours=1.0)
        with pytest.raises(InvalidRange):
            build_histogram([], n_bins=3, min_hours=0.0, max_hours=1.0)

    @pytest.mark.parametrize("bounds", [(1.0, math.inf), (math.inf, math.inf),
                                        (math.nan, 10.0), (1.0, math.nan)])
    def test_non_finite_bounds_rejected(self, bounds):
        min_hours, max_hours = bounds
        with pytest.raises(InvalidRange, match="finite"):
            build_histogram([3600], n_bins=3,
                            min_hours=min_hours, max_hours=max_hours)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        samples = [rng.randint(1, 10**7) for _ in range(300)]
        h1 = build_histogram(samples)
        shuffled = samples[:]
        rng.shuffle(shuffled)
        h2 = build_histogram(shuffled)
        assert h1.counts == h2.counts

    def test_counts_sum_to_samples(self):
        rng = random.Random(8)
        samples = [rng.randint(1, 10**9) for _ in range(500)]
        hist = build_histogram(samples, n_bins=13, min_hours=0.5, max_hours=200.0)
        assert sum(hist.counts) == 500


def _hist(counts, min_hours=1.0, max_hours=1000.0):
    n = len(counts)
    edges = tuple(min_hours * (max_hours / min_hours) ** (i / n) for i in range(n + 1))
    return RecencyHistogram(edges, tuple(counts))


class TestDetectDailyPeak:
    def test_local_maximum_detected(self):
        # 3 bins over [1, 1000]h: middle bin [10, 100) contains 24h
        hist = _hist([10, 50, 12])
        assert detect_daily_peak(hist) == PeakCheck(is_peak=True, bin_index=1)

    def test_monotone_decreasing_is_no_peak(self):
        hist = _hist([100, 50, 10])
        assert detect_daily_peak(hist) == PeakCheck(is_peak=False, bin_index=1)

    def test_tie_with_neighbor_is_no_peak(self):
        hist = _hist([50, 50, 10])
        assert detect_daily_peak(hist).is_peak is False

    def test_range_excluding_24h_raises(self):
        with pytest.raises(RangeExcludes24h):
            detect_daily_peak(_hist([1, 2, 3], min_hours=100.0, max_hours=1000.0))
        with pytest.raises(RangeExcludes24h):
            detect_daily_peak(_hist([1, 2, 3], min_hours=0.001, max_hours=1.0))

    def test_too_few_bins_raises(self):
        with pytest.raises(InvalidRange):
            detect_daily_peak(_hist([1, 2]))

    def test_24h_in_boundary_bin_is_never_a_peak(self):
        # 24h falls in the first of three bins over [20, 20000]
        hist = _hist([100, 1, 1], min_hours=20.0, max_hours=20000.0)
        check = detect_daily_peak(hist)
        assert check.bin_index == 0
        assert check.is_peak is False

    def test_default_scheme_bin_contains_24h(self):
        hist = build_histogram([24 * 3600])
        check = detect_daily_peak(hist)
        lo = hist.bin_edges_hours[check.bin_index]
        hi = hist.bin_edges_hours[check.bin_index + 1]
        assert lo <= 24.0 < hi
        assert hist.counts[check.bin_index] == 1

    def test_bin_centers_are_geometric_means(self):
        hist = _hist([1, 2, 3])
        for center, lo, hi in zip(
            hist.bin_centers_hours, hist.bin_edges_hours[:-1], hist.bin_edges_hours[1:]
        ):
            assert center == pytest.approx(math.sqrt(lo * hi))


def _log_log_slope(hist) -> float:
    """Least-squares slope of log(count) vs log(center) over the interior
    non-empty bins (first and last bins absorb clamping and are skipped)."""
    xs, ys = [], []
    for k in range(1, len(hist.counts) - 1):
        if hist.counts[k] > 0:
            xs.append(math.log(hist.bin_centers_hours[k]))
            ys.append(math.log(hist.counts[k]))
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def test_recency_biased_reuse_gives_decreasing_log_log_histograms():
    from tagreuse.synth import GenParams, generate

    corpus, _ = generate(
        GenParams(
            n_seed_users=80, n_followees_per_seed=8, n_background_users=60,
            vocab_size=300, n_tweets_per_user=250,
            p_individual=0.45, p_social=0.35, p_network=0.1, p_external=0.1,
            recency_exponent=2.0, daily_amplitude=0.0, rng_seed=12321,
        )
    )
    for samples in (individual_recency_samples(corpus), social_recency_samples(corpus)):
        assert _log_log_slope(build_histogram(samples)) < 0.0
