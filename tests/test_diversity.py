"""Similarity index, diversity/serendipity metrics, and the hybrid re-ranker."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from tagreuse.diversity import (
    HybridParams,
    SimilarityIndex,
    intra_list_diversity,
    normalize_scores,
    rerank_block,
    rerank_hybrid,
    serendipity,
    _pair_keys,
)
from tagreuse.synth import GenParams

from conftest import (
    brute_force_cosine,
    bubble_fixture,
    corpus_from_tweets,
    index_from_vectors,
    merged_synth_corpus,
    random_corpus,
    reference_cooccurrence_vectors,
    reference_ild_at_k,
    reference_normalize_scores,
    reference_pair_table,
    reference_rerank_hybrid,
    reference_serendipity,
)


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
    """ILD of one list, every pair's brute-force cosine summed row-major."""
    n = len(tags)
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += brute_force_cosine(index, tags[i], tags[j])
    return 1.0 - total / (n * (n - 1) / 2)


@pytest.fixture(scope="module")
def synth_lists():
    """A co-occurrence index over a synth corpus whose tweets carry three
    tags, and random lists drawn from its tags with replacement (tags
    repeat) mixed with tags that have no vector: lengths 0, 1 and 2, then
    random lengths up to 30."""
    params = GenParams(
        n_seed_users=6, n_followees_per_seed=2, n_background_users=4,
        vocab_size=30, n_tweets_per_user=21, rng_seed=77,
    )
    corpus = merged_synth_corpus(params, 3)
    index = SimilarityIndex.from_corpus(corpus)
    pool = sorted(corpus.tags) + ["novec1", "novec2"]
    rng = random.Random(12)
    lengths = [0, 1, 2] + [rng.randrange(3, 31) for _ in range(40)] + [30]
    return index, [[rng.choice(pool) for _ in range(n)] for n in lengths]


def _pair_table(index, tags):
    """The pair table of a block of one list, as rerank_hybrid and
    intra_list_diversity read it."""
    return index._tables(index._rows(tags), np.array([len(tags)]))[0].tolist()


def _block(index, ranked):
    """(tag ids, scores, lengths) of ranked lists, as rerank_block takes them."""
    return (index._rows([ht for rec in ranked for ht, _ in rec]),
            np.array([score for rec in ranked for _, score in rec], dtype=np.float64),
            np.array([len(rec) for rec in ranked], dtype=np.int64))


def _ild_at_k(index, tags):
    """The ILD of every prefix of one list: rerank_block at lambda 1 with
    equal scores keeps the input order."""
    n = len(tags)
    picks, ild, _ = rerank_block(*_block(index, [[(ht, 0.0) for ht in tags]]), 1.0, index,
                                 np.zeros(n, dtype=bool), n)
    assert picks.tolist() == list(range(n))
    return ild[0].tolist()


def _hexes(table):
    return [[float.hex(v) for v in row] for row in table]


def _random_vectors(rng, n_tags, symmetric):
    """Random co-occurrence counts over n_tags tags; some tags have no
    vector, and unless `symmetric` a count need not have its mirror."""
    tags = [f"t{i}" for i in range(n_tags)]
    vectors: dict[str, dict[str, int]] = {}
    for a in rng.sample(tags, rng.randint(0, n_tags)):
        vec = vectors.setdefault(a, {})
        for b in rng.sample(tags, rng.randint(0, n_tags - 1)):
            if b != a and b not in vec:
                vec[b] = rng.choice([1, 2, 3, rng.randint(1, 2**20)])
                if symmetric:
                    vectors.setdefault(b, {})[a] = vec[b]
    return vectors


def _row_records(corpus, split=False):
    """One tweet record per row of the corpus: under the row's tweet id, so
    that from_tweets gives the corpus back, or one tweet per row if split."""
    return [
        (corpus.users[u], f"{tweet}/{t}" if split else tweet, ts, (corpus.tags[t],))
        for u, tweet, t, ts in zip(corpus.user.tolist(),
                                   map(corpus.tweet_ids.__getitem__, corpus.tweet.tolist()),
                                   corpus.tag.tolist(), corpus.ts.tolist())
    ]


class TestIndexLayout:
    def test_vector_round_trips(self):
        rng = random.Random(5)
        for trial in range(60):
            vectors = _random_vectors(rng, rng.randint(1, 15), symmetric=trial % 2 == 0)
            index = index_from_vectors(vectors)
            for ht, vec in vectors.items():
                assert index.vector(ht) == vec
                assert all(type(c) is int for c in index.vector(ht).values())
            neighbours = {nb for vec in vectors.values() for nb in vec}
            for ht in neighbours - vectors.keys():
                assert index.vector(ht) == {}
            assert index.vector("unknown") == {}

    def test_no_vectors_kept(self):
        vectors = {"a": {"b": 2, "c": 1}, "b": {"a": 2}, "c": {"a": 1}}
        index = index_from_vectors(vectors)
        for value in vars(index).values():
            if isinstance(value, dict):
                assert not any(isinstance(v, dict) for v in value.values())
        vectors["a"]["b"] = 7
        vectors["d"] = {"a": 1}
        assert index.vector("a") == {"b": 2, "c": 1}
        assert index.vector("d") == {}

    def test_rows_in_id_order(self):
        # row r is tag r (neighbour-only tags have empty rows), and one more
        # empty row stands for every unknown tag
        index = index_from_vectors({"b": {"x": 1, "a": 2}, "a": {"b": 2, "y": 3}})
        assert index._tags == ["b", "a", "x", "y"]
        assert index._indptr.tolist() == [0, 2, 4, 4, 4, 4]
        assert index._norms.tolist() == [math.sqrt(5), math.sqrt(13), 0.0, 0.0, 0.0]
        assert index._rows(["a", "unknown", "y", "b"]).tolist() == [1, 4, 3, 0]

    def test_rows_are_the_corpus_tag_ids(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        assert index._tags is cooc_corpus.tags
        assert index._ids is cooc_corpus.tag_ids
        assert len(index._indptr) == len(cooc_corpus.tags) + 2
        assert index._rows(["q", "neverseen"]).tolist() == [cooc_corpus.tag_ids["q"], 7]

    def test_asymmetric_pair_table_matches_brute_force(self):
        rng = random.Random(6)
        for trial in range(40):
            vectors = _random_vectors(rng, rng.randint(1, 12), symmetric=trial % 2 == 0)
            index = index_from_vectors(vectors)
            pool = [f"t{i}" for i in range(12)] + ["unknown"]
            tags = [rng.choice(pool) for _ in range(rng.randint(0, 14))]
            table = _pair_table(index, tags)
            for i, a in enumerate(tags):
                assert table[i] == [brute_force_cosine(index, a, b) for b in tags]
            assert _hexes(table) == _hexes(reference_pair_table(index, tags))

    @pytest.mark.parametrize("cut", [None, "before", "exclude", "both", "at_first",
                                     "exclude_all", "single_tag", "late_tag"])
    def test_from_corpus_matches_reference_counts(self, cut):
        rng = random.Random(8)
        n_counts = 0
        for _ in range(25):
            corpus = random_corpus(rng, max_assignments=300, tag_pool_size=rng.randint(2, 15))
            edges = corpus.network.edges
            if cut == "single_tag":  # every row its own tweet: no vector at all
                corpus = corpus_from_tweets(_row_records(corpus, split=True), edges)
            tweet_ids = sorted(corpus.tweet_ids)  # every tweet has rows
            before = rng.randint(1, 500) if cut in ("before", "both") else None
            exclude = (
                frozenset(rng.sample(tweet_ids, len(tweet_ids) // 3))
                if cut in ("exclude", "both") else None
            )
            if cut == "at_first":  # at or below the first timestamp: no row is kept
                before = int(corpus.ts.min(initial=1)) - rng.randint(0, 2)
            elif cut == "exclude_all":
                exclude = frozenset(tweet_ids)
            elif cut == "late_tag":  # every row of "late" lies at `before`
                before = int(corpus.ts.max(initial=0)) + 1
                late = ("u00", "late", before, ("late", "h0"))
                corpus = corpus_from_tweets(_row_records(corpus) + [late], edges)
            expected = reference_cooccurrence_vectors(corpus, before, exclude)
            index = SimilarityIndex.from_corpus(corpus, before=before, exclude_tweets=exclude)
            for ht in set(corpus.tags) | {"unknown"}:
                assert index.vector(ht) == expected.get(ht, {})
            if not expected:
                assert not any(map(any, _pair_table(index, corpus.tags)))
            n_counts += sum(map(len, expected.values()))
        if cut in ("at_first", "exclude_all", "single_tag"):
            assert n_counts == 0
        else:
            assert n_counts > 100


def _concatenated_pair_keys(tag, starts, lengths, n_tags):
    """The pair keys as one block per run length, then concatenated."""
    blocks = [np.zeros(0, dtype=np.int64)]
    for size in np.unique(lengths).tolist():
        tags = tag[starts[lengths == size, None] + np.arange(size)].astype(np.int64)
        others = (np.arange(size)[:, None] + np.arange(1, size)) % size
        blocks.append((tags[:, others] + tags[:, :, None] * n_tags).ravel())
    return np.concatenate(blocks)


def test_pair_keys_equal_the_concatenated_blocks():
    rng = random.Random(11)
    for _ in range(200):
        n_tags = rng.randint(1, 40)
        lengths = np.array([rng.choice([2, 2, 3, 4, 7]) for _ in range(rng.randint(0, 30))],
                           dtype=np.int64)
        gaps = np.array([rng.randint(0, 3) for _ in lengths], dtype=np.int64)
        starts = np.cumsum(gaps) + np.concatenate(([0], np.cumsum(lengths)[:-1]))
        tag = np.array([rng.randrange(n_tags) for _ in range(int(lengths.sum() + gaps.sum()))],
                       dtype=np.int32)
        keys = _pair_keys(tag, starts, lengths, n_tags)
        assert keys.dtype == np.int64
        assert keys.tolist() == _concatenated_pair_keys(tag, starts, lengths, n_tags).tolist()


class TestPairTable:
    def test_matches_brute_force_bit_for_bit(self, synth_lists):
        index, lists = synth_lists
        seen = set()
        for tags in lists:
            table = _pair_table(index, tags)
            assert len(table) == len(tags)
            for i, a in enumerate(tags):
                assert table[i] == [brute_force_cosine(index, a, b) for b in tags]
                seen.update(table[i])
            assert _hexes(table) == _hexes(reference_pair_table(index, tags))
        assert any(0.0 < v < 1.0 for v in seen)

    def test_similarity_reads_the_pair_table(self, synth_lists):
        index, lists = synth_lists
        tags = lists[-1]
        for a in tags[:5]:
            for b in tags:
                assert index.similarity(a, b) == brute_force_cosine(index, a, b)

    def test_large_counts_are_exact(self):
        # dot products near 2**50: exact in float64, not in float32
        index = index_from_vectors({
            "a": {"x": 2**25 + 1, "y": 3},
            "b": {"x": 2**25 - 1, "y": 5, "z": 2**20 + 7},
            "c": {"y": 11, "z": 1},
        })
        tags = ["a", "b", "c", "b"]
        table = _pair_table(index, tags)
        for i, a in enumerate(tags):
            assert table[i] == [brute_force_cosine(index, a, b) for b in tags]
        assert _hexes(table) == _hexes(reference_pair_table(index, tags))

    def test_squared_norm_bound(self):
        # 2 * (2**26)**2 == 2**53: the first squared norm a float64 product
        # of counts could no longer hold exactly
        index_from_vectors({"a": {"b": 2**26}, "b": {"a": 2**26}})
        with pytest.raises(ValueError, match="2\\*\\*53"):
            index_from_vectors({"a": {"b": 2**26, "c": 2**26}})
        with pytest.raises(ValueError):
            index_from_vectors({"a": {"b": 2**40}})
        # four squares summing to 2**53 - 1, whose low 27 bits carry once a
        # fifth count of 1 brings the sum to 2**53
        near = {"b": 94906265, "c": 10885, "d": 71, "e": 50}
        index_from_vectors({"a": near})
        with pytest.raises(ValueError, match=f"squared norm {2**53} >="):
            index_from_vectors({"a": {**near, "f": 1}})
        # a sum of squares of 2**64, which an int64 sum would wrap to 0
        with pytest.raises(ValueError, match=f"squared norm {2**64} >="):
            index_from_vectors({"a": {f"n{i}": 2**26 for i in range(2**12)}})


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

    def test_prefix_table_is_bit_identical_to_each_prefix(self, synth_lists):
        index, lists = synth_lists
        seen = set()
        for items in lists:
            n = len(items)
            at_k = _ild_at_k(index, items)
            assert len(at_k) == n
            for k in range(1, n + 1):
                assert at_k[k - 1] == intra_list_diversity(items[:k], index)
                assert at_k[k - 1] == _direct_ild(items[:k], index)
            assert _hexes([at_k]) == _hexes([reference_ild_at_k(items, index)])
            seen.update(at_k)
        assert any(0.0 < v < 1.0 for v in seen)

    def test_one_pair_table_per_call(self, monkeypatch, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        tables, pairs = [], []
        build = SimilarityIndex._tables
        monkeypatch.setattr(SimilarityIndex, "_tables", lambda self, rows, lengths: (
            tables.append((rows.tolist(), lengths.tolist())) or build(self, rows, lengths)))
        monkeypatch.setattr(SimilarityIndex, "similarity", lambda *args: pairs.append(args))
        items = ["p", "q", "r", "c", "p", "neverseen"]
        rows = [cooc_corpus.tag_ids.get(ht, len(cooc_corpus.tags)) for ht in items]
        intra_list_diversity(items, index)
        assert tables == [(rows, [6])]
        candidates = [(ht, 1.0 - i / 10) for i, ht in enumerate(items)]
        rerank_hybrid(candidates, HybridParams(0.5), index)
        assert tables == [(rows, [6])] * 2
        assert pairs == []

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

    def test_overlapping_histories_scored_items(self):
        items = [("a", 0.9), ("b", 0.5), ("n", 0.1), ("c", 0.0)]
        assert serendipity(items, {"a", "b"}, {"b", "c"}) == 0.25


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

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
    def test_matches_reference_bit_for_bit(self, synth_lists, lam):
        index, lists = synth_lists
        rng = random.Random(31)
        for tags in lists:
            # coarse scores, so accuracy ties occur
            candidates = normalize_scores([(ht, float(rng.randrange(5))) for ht in tags])
            out = rerank_hybrid(candidates, HybridParams(lam), index)
            assert out == reference_rerank_hybrid(candidates, lam, index)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            HybridParams(lambda_param=1.1)


class TestRerankBlock:
    """rerank_block against the per-list references, list by list."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k_max", [1, 7, 24])
    def test_matches_the_per_list_references(self, synth_lists, lam, k_max):
        # lists of 0, 1 and 2 tags, tags with no vector, tags repeated, lists
        # shorter and longer than k_max, and coarse scores, so normalized
        # scores tie
        index, lists = synth_lists
        rng = random.Random(k_max)
        ranked = [[(ht, float(rng.randrange(4))) for ht in tags] for tags in lists]
        history = set(rng.sample(sorted(set(index._tags)), len(index._tags) // 2))
        outside = np.array([ht not in history for tags in lists for ht in tags], dtype=bool)
        picks, ild, ser = rerank_block(*_block(index, ranked), lam, index, outside, k_max)
        assert ild.shape == ser.shape == (len(lists), k_max)
        items = [item for rec in ranked for item in reference_normalize_scores(rec)]
        at = 0
        for i, rec in enumerate(ranked):
            expected = reference_rerank_hybrid(reference_normalize_scores(rec), lam, index)
            mine = picks[at : at + len(rec)].tolist()
            assert sorted(mine) == list(range(at, at + len(rec)))
            assert [items[pos] for pos in mine] == expected
            at += len(rec)
            at_k = reference_ild_at_k(expected, index) or [0.0]
            for k in range(1, k_max + 1):
                assert ild[i, k - 1] == at_k[min(k, len(at_k)) - 1]
                assert ser[i, k - 1] == reference_serendipity(expected[:k], history)

    def test_a_list_does_not_depend_on_its_block(self, synth_lists):
        index, lists = synth_lists
        rng = random.Random(3)
        ranked = [[(ht, rng.random()) for ht in tags] for tags in lists]
        outside = np.array([rng.random() < 0.5 for tags in lists for _ in tags], dtype=bool)
        whole = rerank_block(*_block(index, ranked), 0.5, index, outside, 30)
        at = 0
        for i, rec in enumerate(ranked):
            one = rerank_block(*_block(index, [rec]), 0.5, index, outside[at : at + len(rec)], 30)
            assert (one[0] + at).tolist() == whole[0][at : at + len(rec)].tolist()
            at += len(rec)
            assert one[1].tolist() == [whole[1][i].tolist()]
            assert one[2].tolist() == [whole[2][i].tolist()]

    @pytest.mark.filterwarnings("error")
    def test_empty_block_and_empty_lists(self, cooc_corpus):
        index = SimilarityIndex.from_corpus(cooc_corpus)
        picks, ild, ser = rerank_block(*_block(index, []), 0.0, index, np.zeros(0, dtype=bool), 3)
        assert picks.tolist() == [] and ild.shape == ser.shape == (0, 3)
        picks, ild, ser = rerank_block(*_block(index, [[], []]), 0.0, index,
                                       np.zeros(0, dtype=bool), 3)
        assert picks.tolist() == [] and ild.shape == ser.shape == (2, 3)
        assert not ild.any() and not ser.any()
