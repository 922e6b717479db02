"""Similarity index, diversity/serendipity metrics, and the hybrid re-ranker."""

from __future__ import annotations

import json
import math
import random

import pytest

from tagreuse.diversity import (
    HybridParams,
    SimilarityIndex,
    intra_list_diversity,
    intra_list_diversity_at_k,
    normalize_scores,
    rerank_hybrid,
    serendipity,
)
from tagreuse.synth import GenParams

from conftest import bubble_fixture, corpus_from_tweets, merged_synth_corpus


@pytest.fixture
def cooc_corpus():
    """p and q share co-occurrence context (c, c2); r is isolated with iso."""
    tweets = [
        ("u", "t1", 10, ("p", "c")),
        ("u", "t2", 20, ("q", "c")),
        ("u", "t3", 30, ("p", "c2")),
        ("u", "t4", 40, ("q", "c2", "c3")),
        ("u", "t5", 50, ("r", "iso")),
    ]
    return corpus_from_tweets(tweets, {})


def _direct_ild(tags, index):
    """ILD of one list, every pair's similarity summed row-major."""
    n = len(tags)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += index.similarity(tags[i], tags[j])
    return 1.0 - total / (n * (n - 1) / 2)


class TestPairwiseSimilarity:
    def test_identical_vectors(self):
        # a and b always co-occur with exactly c: identical context vectors
        corpus = corpus_from_tweets(
            [("u", "t1", 10, ("a", "c")), ("u", "t2", 20, ("b", "c"))], {}
        )
        index = SimilarityIndex.from_corpus(corpus)
        assert index.similarity("a", "b") == pytest.approx(1.0)

    def test_disjoint_vectors(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        assert index.similarity("p", "r") == 0.0

    def test_empty_vector_gives_zero(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        assert index.similarity("p", "neverseen") == 0.0

    def test_four_tweet_fixture_matches_hand_cosine(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        # p: {c:1, c2:1}; q: {c:1, c2:1, c3:1}; dot = 2, norms sqrt2 * sqrt3
        assert index.similarity("p", "q") == pytest.approx(2 / math.sqrt(6))

    def test_symmetry(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        for a in ("p", "q", "r", "c"):
            for b in ("p", "q", "r", "c"):
                assert index.similarity(a, b) == index.similarity(b, a)

    def test_self_cooccurrence_excluded(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        assert "p" not in index.vector("p")

    def test_before_cutoff_restricts_training(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus, before=15)
        # only t1 remains; q has no vector at all
        assert index.vector("q") == {}
        assert index.vector("p") == {"c": 1}


class TestIntraListDiversity:
    def test_mutually_disjoint_contexts(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        assert intra_list_diversity(["p", "r", "neverseen"], index) == pytest.approx(1.0)

    def test_identical_context_pair(self):
        corpus = corpus_from_tweets(
            [("u", "t1", 10, ("a", "c")), ("u", "t2", 20, ("b", "c"))], {}
        )
        index = SimilarityIndex.from_corpus(corpus)
        assert intra_list_diversity(["a", "b"], index) == pytest.approx(0.0)

    def test_three_item_fixture_hand_mean(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        sim_pq = 2 / math.sqrt(6)
        expected = 1.0 - (sim_pq + 0.0 + 0.0) / 3
        assert intra_list_diversity(["p", "q", "r"], index) == pytest.approx(expected)

    def test_short_lists_are_zero(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        assert intra_list_diversity([], index) == 0.0
        assert intra_list_diversity(["p"], index) == 0.0

    def test_reorder_invariance(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        items = ["p", "q", "r", "c"]
        base = intra_list_diversity(items, index)
        rng = random.Random(4)
        for _ in range(5):
            shuffled = items[:]
            rng.shuffle(shuffled)
            assert intra_list_diversity(shuffled, index) == pytest.approx(base)

    def test_prefix_table_is_bit_identical_to_each_prefix(self):
        # random lists from a synth corpus whose tweets carry three tags,
        # drawn with replacement (tags repeat) and mixed with tags that
        # have no vector; lengths 0, 1 and 2 are always included
        params = GenParams(
            n_seed_users=6, n_followees_per_seed=2, n_background_users=4,
            vocab_size=30, n_tweets_per_user=21, rng_seed=77,
        )
        corpus = merged_synth_corpus(params, 3)
        index = SimilarityIndex.from_corpus(corpus)
        pool = sorted({a.hashtag for a in corpus.assignments}) + ["novec1", "novec2"]
        rng = random.Random(12)
        seen = set()
        for n in [0, 1, 2] + [rng.randrange(3, 25) for _ in range(40)]:
            items = [rng.choice(pool) for _ in range(n)]
            at_k = intra_list_diversity_at_k(items, index)
            assert len(at_k) == n
            for k in range(1, n + 1):
                assert at_k[k - 1] == intra_list_diversity(items[:k], index)
                assert at_k[k - 1] == _direct_ild(items[:k], index)
            seen.update(at_k)
        assert any(0.0 < v < 1.0 for v in seen)

    def test_prefix_table_computes_each_pair_once(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        pairs = []
        sim = index.similarity
        index.similarity = lambda a, b: pairs.append((a, b)) or sim(a, b)
        items = ["p", "q", "r", "c", "p", "neverseen"]
        intra_list_diversity_at_k(items, index)
        assert pairs == [(items[i], items[j]) for i in range(6) for j in range(i + 1, 6)]

    def test_accepts_scored_items(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        scored = [("p", 0.9), ("r", 0.1)]
        assert intra_list_diversity(scored, index) == pytest.approx(
            intra_list_diversity(["p", "r"], index)
        )


class TestSerendipity:
    def test_all_from_own_history(self):
        assert serendipity(["a", "b"], {"a", "b"}, set()) == 0.0

    def test_all_novel(self):
        assert serendipity(["x", "y"], {"a"}, {"b"}) == 1.0

    def test_two_of_five_outside(self):
        items = ["a", "b", "c", "n1", "n2"]
        assert serendipity(items, {"a", "b"}, {"c"}) == pytest.approx(0.4)

    def test_empty_list(self):
        assert serendipity([], {"a"}, set()) == 0.0


class TestNormalizeScores:
    def test_preserves_order_and_rescales(self):
        items = [("a", -1.0), ("b", -3.0), ("c", -5.0)]
        assert normalize_scores(items) == [("a", 1.0), ("b", 0.5), ("c", 0.0)]

    def test_degenerate_range(self):
        assert normalize_scores([("a", 2.0), ("b", 2.0)]) == [("a", 1.0), ("b", 1.0)]
        assert normalize_scores([("a", -9.0)]) == [("a", 1.0)]
        assert normalize_scores([]) == []


class TestRerankHybrid:
    def test_lambda_one_is_identity(self):
        corpus, candidates, _, _ = bubble_fixture()
        index = SimilarityIndex.from_corpus(corpus)
        normalized = normalize_scores(candidates)
        out = rerank_hybrid(normalized, HybridParams(lambda_param=1.0), index)
        assert out == normalized
        assert json.dumps(out).encode() == json.dumps(normalized).encode()

    def test_lambda_zero_demotes_near_duplicate(self):
        # dup1/dup2 share context heavily; diff is unrelated
        tweets = [("u", f"t{i}", 10 + i, ("dup1", "dup2", "ctx")) for i in range(3)]
        tweets.append(("u", "t9", 50, ("diff", "other")))
        corpus = corpus_from_tweets(tweets, {})
        index = SimilarityIndex.from_corpus(corpus)
        candidates = [("dup1", 1.0), ("dup2", 0.99), ("diff", 0.1)]
        out = rerank_hybrid(candidates, HybridParams(lambda_param=0.0), index)
        assert [ht for ht, _ in out] == ["dup1", "diff", "dup2"]

    def test_single_candidate_unchanged(self):
        corpus, _, _, _ = bubble_fixture()
        index = SimilarityIndex.from_corpus(corpus)
        assert rerank_hybrid([("solo", 1.0)], HybridParams(0.2), index) == [("solo", 1.0)]

    def test_first_pick_is_accuracy_argmax(self):
        corpus, candidates, _, _ = bubble_fixture()
        index = SimilarityIndex.from_corpus(corpus)
        for lam in (0.0, 0.3, 0.7, 1.0):
            out = rerank_hybrid(candidates, HybridParams(lam), index)
            assert out[0] == candidates[0]

    def test_output_is_permutation_of_input(self):
        corpus, candidates, _, _ = bubble_fixture()
        index = SimilarityIndex.from_corpus(corpus)
        rng = random.Random(6)
        for _ in range(10):
            lam = rng.random()
            out = rerank_hybrid(candidates, HybridParams(lam), index)
            assert sorted(out) == sorted(candidates)

    def test_serendipity_non_decreasing_as_lambda_decreases(self):
        corpus, candidates, own, social = bubble_fixture()
        index = SimilarityIndex.from_corpus(corpus)
        values = []
        for lam in (1.0, 0.7, 0.5, 0.3, 0.0):
            out = rerank_hybrid(candidates, HybridParams(lam), index)
            values.append(serendipity(out[:5], own, social))
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_bubble_fixture_serendipity_gain(self):
        corpus, candidates, own, social = bubble_fixture()
        index = SimilarityIndex.from_corpus(corpus)
        relaxed = rerank_hybrid(candidates, HybridParams(0.3), index)
        strict = rerank_hybrid(candidates, HybridParams(1.0), index)
        assert serendipity(relaxed[:5], own, social) > serendipity(strict[:5], own, social)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            HybridParams(lambda_param=1.1)
