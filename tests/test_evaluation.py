"""Split construction, precision/recall identities, and report invariants."""

from __future__ import annotations

import hashlib
import json
import random
from functools import partial
from itertools import groupby

import pytest

from tagreuse import evaluation
from tagreuse.corpus import Corpus
from tagreuse.diversity import SimilarityIndex
from tagreuse.evaluation import (
    EmptyTestSet,
    EvalConfig,
    NoEvaluableUsers,
    UserSplit,
    evaluate,
    make_split,
    precision_recall_at_k,
)
from tagreuse.index import CorpusIndex
from tagreuse.recommend import ALGORITHM_NAMES, recommend
from tagreuse.synth import GenParams

from conftest import (
    corpus_from_tweets,
    merged_synth_corpus,
    random_corpus,
    reference_ild_at_k,
    reference_normalize_scores,
    reference_pair_table,
    reference_rerank_hybrid,
    reference_serendipity,
)


class TestMakeSplit:
    def test_latest_tweet_held_out(self):
        tweets = [
            ("A", "t1", 1, ("a",)),
            ("A", "t2", 2, ("b",)),
            ("A", "t3", 3, ("c", "d")),
        ]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        split = make_split(corpus)
        assert len(split.users) == 1
        us = split.users[0]
        assert us.test_tweet_id == "t3"
        assert us.test_hashtags == {"c", "d"}
        assert us.ref_time == 3

    def test_single_tweet_user_excluded(self):
        corpus = corpus_from_tweets([("A", "t1", 1, ("a",))], {"A": set()})
        assert make_split(corpus).users == ()

    def test_three_user_fixture_hand_enumeration(self):
        tweets = [
            ("A", "a1", 10, ("x",)), ("A", "a2", 20, ("y",)),
            ("B", "b1", 15, ("x",)),
            ("C", "c1", 5, ("z",)), ("C", "c2", 30, ("z", "w")), ("C", "c3", 25, ("q",)),
            ("Z", "z1", 40, ("x",)),  # not a seed: ignored
        ]
        corpus = corpus_from_tweets(tweets, {"A": set(), "B": set(), "C": {"A"}})
        split = make_split(corpus)
        by_user = {u.user_id: u for u in split.users}
        assert set(by_user) == {"A", "C"}  # B has a single tweet
        assert by_user["A"].test_tweet_id == "a2"
        assert by_user["C"].test_tweet_id == "c2"
        assert by_user["C"].test_hashtags == {"z", "w"}

    def test_timestamp_tie_resolved_by_tweet_id(self):
        tweets = [("A", "t1", 5, ("a",)), ("A", "t9", 5, ("b",)), ("A", "t5", 5, ("c",))]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        split = make_split(corpus)
        assert split.users[0].test_tweet_id == "t9"

    def test_users_sorted(self):
        tweets = []
        for u in ("zed", "alf", "mid"):
            tweets += [(u, f"{u}1", 1, ("a",)), (u, f"{u}2", 2, ("b",))]
        corpus = corpus_from_tweets(tweets, {u: set() for u in ("zed", "alf", "mid")})
        assert [u.user_id for u in make_split(corpus).users] == ["alf", "mid", "zed"]

    def test_matches_reference_on_random_corpora(self):
        """The column split against a per-user dict of every tweet, on
        corpora with tied timestamps, multi-tag tweets and non-seed users."""
        rng = random.Random(4711)
        held_out = 0
        for _ in range(40):
            corpus = random_corpus(rng, max_users=15, max_assignments=120, max_timestamp=30)
            tweets_by_user: dict[str, dict[str, int]] = {}
            tags_by_tweet: dict[str, set[str]] = {}
            for a in corpus.assignments:
                if a.user_id in corpus.seed_users:
                    tweets_by_user.setdefault(a.user_id, {})[a.tweet_id] = a.timestamp
                    tags_by_tweet.setdefault(a.tweet_id, set()).add(a.hashtag)
            expected = []
            for user in sorted(tweets_by_user):
                tweets = tweets_by_user[user]
                if len(tweets) >= 2:
                    test = max(tweets, key=lambda t: (tweets[t], t))
                    expected.append(UserSplit(user, test, frozenset(tags_by_tweet[test]),
                                              tweets[test]))
            assert make_split(corpus).users == tuple(expected)
            held_out += len(expected)
        assert held_out > 50


class TestPrecisionRecallAtK:
    def test_hand_counted_fixture(self):
        rec = [("a", 5.0), ("c", 4.0), ("d", 3.0), ("b", 2.0), ("e", 1.0)]
        p, r = precision_recall_at_k(rec, {"a", "b"}, 5)
        assert p == pytest.approx(0.4)
        assert r == pytest.approx(1.0)

    def test_zero_hits(self):
        rec = [("x", 1.0)]
        assert precision_recall_at_k(rec, {"a"}, 3) == (0.0, 0.0)

    def test_k1_exact_hit(self):
        rec = [("a", 1.0)]
        assert precision_recall_at_k(rec, {"a"}, 1) == (1.0, 1.0)
        p, r = precision_recall_at_k(rec, {"a", "b"}, 1)
        assert (p, r) == (1.0, 0.5)

    def test_empty_test_set_raises(self):
        with pytest.raises(EmptyTestSet):
            precision_recall_at_k([("a", 1.0)], set(), 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_at_k([("a", 1.0)], {"a"}, 0)


def _single_user_corpus():
    # A trains on x,x,y and must predict {x, z} at t=100
    tweets = [
        ("A", "t1", 10, ("x",)),
        ("A", "t2", 20, ("x", "y")),
        ("A", "t3", 100, ("x", "z")),
    ]
    return corpus_from_tweets(tweets, {"A": set()})


class TestEvaluate:
    def test_single_user_hand_computed(self):
        corpus = _single_user_corpus()
        report = evaluate(corpus, ["bll_i", "mp"], EvalConfig(k_max=3))
        assert report.n_users_evaluated == 1
        # bll_i candidates before t=100: x (2 uses), y; ranking: x, y.
        # hits: k=1 -> x in {x,z}: 1; k=2 -> still 1; k=3 -> 1
        pts = report.algorithms["bll_i"]
        assert [p.precision for p in pts] == pytest.approx([1.0, 0.5, 1 / 3])
        assert [p.recall for p in pts] == pytest.approx([0.5, 0.5, 0.5])
        # mp sees the same global history here
        assert [p.recall for p in report.algorithms["mp"]] == pytest.approx([0.5, 0.5, 0.5])

    def test_empty_recommendations_contribute_zeros(self):
        # bll_s has no followees to draw from: all-zero metrics
        corpus = _single_user_corpus()
        report = evaluate(corpus, ["bll_s"], EvalConfig(k_max=3))
        pts = report.algorithms["bll_s"]
        assert all(p.precision == 0.0 and p.recall == 0.0 for p in pts)

    def test_no_evaluable_users_raises(self):
        corpus = corpus_from_tweets([("A", "t1", 1, ("a",))], {"A": set()})
        with pytest.raises(NoEvaluableUsers):
            evaluate(corpus, ["mp"])

    def test_empty_algorithm_list_rejected(self):
        with pytest.raises(ValueError, match="no algorithm"):
            evaluate(_single_user_corpus(), [])

    def test_k_max_points_per_algorithm(self):
        corpus = _single_user_corpus()
        report = evaluate(corpus, ["bll_i", "bll_is", "cf", "mp"], EvalConfig(k_max=10))
        for pts in report.algorithms.values():
            assert len(pts) == 10
            assert [p.k for p in pts] == list(range(1, 11))

    def test_hits_identity_and_recall_monotone(self):
        rng = random.Random(55)
        checked = 0
        for _ in range(8):
            corpus = random_corpus(rng, max_users=14, max_assignments=160, max_timestamp=400)
            try:
                report = evaluate(corpus, ["bll_i", "bll_is", "mp"], EvalConfig(k_max=6))
            except NoEvaluableUsers:
                continue
            for algo, users in report.per_user.items():
                for user, detail in users.items():
                    prev = 0
                    for k, hits in enumerate(detail.hits_at_k, start=1):
                        p = hits / k
                        r = hits / detail.n_test
                        assert p * k == pytest.approx(hits)
                        assert r * detail.n_test == pytest.approx(hits)
                        assert hits >= prev
                        prev = hits
                        checked += 1
            for pts in report.algorithms.values():
                recalls = [p.recall for p in pts]
                assert recalls == sorted(recalls)
                assert all(0.0 <= p.precision <= 1.0 and 0.0 <= p.recall <= 1.0 for p in pts)
        assert checked > 0

    def test_report_invariant_under_user_relabeling(self):
        rng = random.Random(66)
        corpus = random_corpus(rng, max_users=12, max_assignments=140, max_timestamp=300)
        tweets = [
            (f"zz-{a.user_id}", a.tweet_id, a.timestamp, (a.hashtag,))
            for a in corpus.assignments
        ]
        edges = {
            f"zz-{s}": {f"zz-{f}" for f in fs} for s, fs in corpus.network.edges.items()
        }
        renamed = corpus_from_tweets(tweets, edges)
        try:
            base = evaluate(corpus, ["bll_i", "mp"], EvalConfig(k_max=5))
        except NoEvaluableUsers:
            pytest.skip("unlucky seed produced no evaluable users")
        other = evaluate(renamed, ["bll_i", "mp"], EvalConfig(k_max=5))
        for algo in ("bll_i", "mp"):
            got = [(p.precision, p.recall) for p in other.algorithms[algo]]
            expected = [(p.precision, p.recall) for p in base.algorithms[algo]]
            assert got == pytest.approx(expected)

    def test_rerank_adds_beyond_accuracy_columns(self):
        tweets = [
            ("A", "t1", 10, ("x", "y")),
            ("A", "t2", 20, ("x", "w")),
            ("A", "t3", 100, ("x",)),
        ]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        report = evaluate(corpus, ["bll_i"], EvalConfig(k_max=3, rerank_lambda=0.5))
        for p in report.algorithms["bll_i"]:
            assert p.ild is not None and 0.0 <= p.ild <= 1.0
            assert p.serendipity is not None and 0.0 <= p.serendipity <= 1.0

    @pytest.mark.parametrize("lam", [5.0, -0.1, float("nan")])
    def test_rerank_lambda_checked_by_the_config(self, lam):
        with pytest.raises(ValueError, match=r"lambda must be in \[0, 1\], got"):
            EvalConfig(k_max=3, rerank_lambda=lam)

    def test_plain_report_has_no_beyond_accuracy_columns(self):
        report = evaluate(_single_user_corpus(), ["bll_i"], EvalConfig(k_max=2))
        for p in report.algorithms["bll_i"]:
            assert p.ild is None and p.serendipity is None

    def test_json_shape(self):
        report = evaluate(_single_user_corpus(), ["bll_i"], EvalConfig(k_max=2))
        d = report.to_json_dict()
        assert d["n_users_evaluated"] == 1
        assert d["k_max"] == 2
        assert [row["k"] for row in d["algorithms"]["bll_i"]] == [1, 2]

    def test_no_leakage_of_held_out_tweet(self):
        # "fresh" exists only in the held-out tweet (and in another user's
        # tweet at the same second): no recommender may surface it
        tweets = [
            ("A", "t1", 10, ("x",)),
            ("A", "t2", 20, ("x",)),
            ("A", "t3", 100, ("fresh",)),
            ("B", "t4", 100, ("fresh",)),
        ]
        corpus = corpus_from_tweets(tweets, {"A": {"B"}})
        report = evaluate(corpus, ["bll_i", "bll_s", "bll_is", "cf", "mp"], EvalConfig(k_max=5))
        for pts in report.algorithms.values():
            assert all(p.recall == 0.0 for p in pts)


def _paired_synth_corpus() -> Corpus:
    """A seeded synth corpus with each user's tweets merged in pairs, so
    tweets carry two hashtags and the re-ranker sees co-occurrence."""
    return merged_synth_corpus(GenParams(
        n_seed_users=8, n_followees_per_seed=3, n_background_users=6,
        vocab_size=40, n_tweets_per_user=24, rng_seed=2024,
    ), 2)


def _per_user_report(corpus, algorithms, config) -> dict:
    """The report's JSON dict from one recommend call per (algorithm, user),
    each on a fresh CorpusIndex, summed in sorted user-id order; re-ranked,
    and the ILD and serendipity scored, by the per-list references."""
    split = make_split(corpus)
    n, k_max = len(split.users), config.k_max
    beyond = config.rerank_lambda is not None
    sims = SimilarityIndex.from_corpus(corpus, exclude_tweets=split.test_tweet_ids)
    columns = ("precision", "recall", "ild", "serendipity") if beyond else ("precision", "recall")
    out = {}
    for algo in algorithms:
        sums = {c: [0.0] * k_max for c in columns}
        for us in split.users:
            index = CorpusIndex(corpus)
            rec = recommend(algo, index, us.user_id, us.ref_time, k_max,
                            bll=config.bll, mix=config.mix, cf=config.cf)
            if beyond:
                rec = reference_rerank_hybrid(reference_normalize_scores(rec),
                                              config.rerank_lambda, sims)
                ild = reference_ild_at_k(rec, sims) or [0.0]
                history = index.own_tags_before(us.user_id, us.ref_time) | \
                    index.followee_tags_before(us.user_id, us.ref_time)
            hits = 0
            for k in range(1, k_max + 1):
                hits += k <= len(rec) and rec[k - 1][0] in us.test_hashtags
                sums["precision"][k - 1] += hits / k
                sums["recall"][k - 1] += hits / len(us.test_hashtags)
                if beyond:
                    sums["ild"][k - 1] += ild[min(k, len(ild)) - 1]
                    sums["serendipity"][k - 1] += reference_serendipity(rec[:k], history)
        out[algo] = [
            {"k": k, **{c: sums[c][k - 1] / n for c in columns}} for k in range(1, k_max + 1)
        ]
    return {"n_users_evaluated": n, "k_max": k_max, "algorithms": out}


def _tied_corpus(seed: int) -> Corpus:
    """A random corpus where two evaluated users whose held-out tweets share
    a timestamp are not neighbours in the split: another reference time
    between them refills the index's one cache entry."""
    corpus = random_corpus(random.Random(seed), max_users=14, max_assignments=160,
                           max_timestamp=30)
    times = [us.ref_time for us in make_split(corpus).users]
    assert len(list(groupby(times))) > len(set(times))
    return corpus


class TestPassOrder:
    @pytest.mark.parametrize("corpus_of, n_users, rerank_lambda", [
        pytest.param(_paired_synth_corpus, 8, None, id="None"),
        pytest.param(_paired_synth_corpus, 8, 0.5, id="0.5"),
        *(pytest.param(partial(_tied_corpus, seed), n_users, rerank_lambda,
                       id=f"tied{seed}-{rerank_lambda}")
          for seed, n_users in [(6, 10), (11, 7), (20, 10)] for rerank_lambda in [None, 0.5]),
    ])
    def test_one_pass_equals_fresh_index_per_query(self, corpus_of, n_users, rerank_lambda):
        corpus = corpus_of()
        config = EvalConfig(k_max=6, rerank_lambda=rerank_lambda)
        algorithms = list(ALGORITHM_NAMES)
        report = evaluate(corpus, algorithms, config).to_json_dict()
        assert report["n_users_evaluated"] == n_users
        assert report == _per_user_report(corpus, algorithms, config)

    @pytest.mark.parametrize("rerank_lambda", [None, 0.5])
    def test_repeated_algorithm_scored_once(self, rerank_lambda):
        corpus = _paired_synth_corpus()
        config = EvalConfig(k_max=6, rerank_lambda=rerank_lambda)
        once = evaluate(corpus, ["cf", "mp"], config)
        twice = evaluate(corpus, ["cf", "mp", "cf"], config)
        assert twice.to_json_dict() == once.to_json_dict()
        assert twice.per_user == once.per_user

    def test_rerank_with_lists_shorter_than_k_max(self):
        # bll_i lists hold 15 to 19 tags on this corpus, so k = 16..18 run
        # past the end of some lists and must read the whole list's ILD
        corpus = _paired_synth_corpus()
        config = EvalConfig(k_max=18, rerank_lambda=0.5)
        algorithms = list(ALGORITHM_NAMES)
        lengths = [len(recommend("bll_i", CorpusIndex(corpus), us.user_id, us.ref_time, 18))
                   for us in make_split(corpus).users]
        assert min(lengths) < 18
        report = evaluate(corpus, algorithms, config).to_json_dict()
        assert report == _per_user_report(corpus, algorithms, config)

    def test_rerank_with_empty_list(self):
        # bll_s has no followees to draw from: ILD is 0.0 at every k
        corpus = _single_user_corpus()
        config = EvalConfig(k_max=4, rerank_lambda=0.5)
        report = evaluate(corpus, ["bll_s", "mp"], config).to_json_dict()
        assert [row["ild"] for row in report["algorithms"]["bll_s"]] == [0.0] * 4
        assert report == _per_user_report(corpus, ["bll_s", "mp"], config)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("budget", [1, 3000, 20000])
    @pytest.mark.parametrize("corpus_of, k_max", [
        (_paired_synth_corpus, 18),  # lists shorter than k_max
        (lambda: _single_user_corpus(), 4),  # bll_s gives an empty list
    ])
    def test_block_boundaries_do_not_change_the_report(self, monkeypatch, budget, corpus_of,
                                                       k_max):
        corpus = corpus_of()
        algorithms = list(ALGORITHM_NAMES)
        for rerank_lambda in (None, 0.0, 0.5, 1.0):
            config = EvalConfig(k_max=k_max, rerank_lambda=rerank_lambda)
            whole = evaluate(corpus, algorithms, config)
            with monkeypatch.context() as patch:
                patch.setattr(evaluation, "_BLOCK_CELLS", budget)
                report = evaluate(corpus, algorithms, config)
            assert report == whole
        assert report.to_json_dict() == _per_user_report(corpus, algorithms, config)

    @pytest.mark.parametrize("corpus_of, algorithms", [
        (_paired_synth_corpus, list(ALGORITHM_NAMES)),
        (lambda: _single_user_corpus(), ["bll_s", "mp"]),  # bll_s gives an empty list
    ])
    def test_block_pair_tables_equal_the_per_list_tables(self, monkeypatch, corpus_of,
                                                         algorithms):
        corpus = corpus_of()
        config = EvalConfig(k_max=6, rerank_lambda=0.5)
        blocks = []
        build = SimilarityIndex._tables

        def spy(index, tags, lengths):
            tables = build(index, tags, lengths)
            blocks.append((index, list(tags), lengths.tolist(), tables))
            return tables

        with monkeypatch.context() as patch:
            patch.setattr(SimilarityIndex, "_tables", spy)
            patch.setattr(evaluation, "_BLOCK_CELLS", 1000)  # a few users per block
            for name in ("pair_table", "similarity"):
                patch.setattr(SimilarityIndex, name,
                              lambda *_, name=name: pytest.fail(f"{name} called"))
            evaluate(corpus, algorithms, config)
        assert len(blocks) > 1 or len(make_split(corpus).users) == 1
        listed = []
        for index, tags, lengths, tables in blocks:
            at = 0
            for table, n in zip(tables, lengths):
                listed.append(tags[at : at + n])
                at += n
                hexes = [[float.hex(v) for v in row] for row in table[:n, :n].tolist()]
                assert hexes == [[float.hex(v) for v in row]
                                 for row in index.pair_table(listed[-1])]
                assert hexes == [[float.hex(v) for v in row]
                                 for row in reference_pair_table(index, listed[-1])]
                assert not table[n:].any() and not table[:, n:].any()
        expected = []
        for us in make_split(corpus).users:  # split order: one pass, user by user
            for algo in algorithms:
                rec = recommend(algo, CorpusIndex(corpus), us.user_id, us.ref_time, 6)
                expected.append([ht for ht, _ in rec])
        assert listed == expected


class TestPinnedRerank:
    """The re-ranked report of multi-hashtag corpora, pinned by the SHA-256
    of its JSON: the goldens' tweets carry one hashtag each, so no golden
    covers a nonzero cosine."""

    @pytest.mark.parametrize("corpus_of, digest", [
        (_paired_synth_corpus, "022ff6fc7b172b7bac2d8ad0ca4e2508615743b82ca392cf5920dfdc311a0ab2"),
        (lambda: merged_synth_corpus(GenParams(
            n_seed_users=10, n_followees_per_seed=3, n_background_users=8,
            vocab_size=60, n_tweets_per_user=40, rng_seed=4141,
        ), 4), "83a7f170fd78e66c3189d2e89fae0b033127a4472cb46348e90e9ba742856485"),
    ])
    def test_report_bytes(self, corpus_of, digest):
        config = EvalConfig(k_max=10, rerank_lambda=0.5)
        report = evaluate(corpus_of(), list(ALGORITHM_NAMES), config).to_json_dict()
        assert any(0.0 < row["ild"] < 1.0 for row in report["algorithms"]["cf"])
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
