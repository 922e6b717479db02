"""Recommenders against brute-force reference scorers and their contracts."""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter

import numpy as np
import pytest

from tagreuse import index as index_module
from tagreuse import recommend as recommend_module
from tagreuse.corpus import CorpusError, NotSeedUser
from tagreuse.index import CorpusIndex
from tagreuse.recommend import (
    ALGORITHM_NAMES,
    BLLParams,
    CFParams,
    MixParams,
    NoPriorUsage,
    bll_activation,
    recommend,
    recommend_many,
    _activations_of,
    _group_minmax,
    _rank_lists,
)

from conftest import corpus_from_tweets, random_corpus, reference_bll_activation

D = 0.5


# ---------------------------------------------------------------------------
# brute-force reference scorers (raw corpus scans, no shared code paths)
# ---------------------------------------------------------------------------

def _oracle_activation(times, ref, d=D, clamp=1):
    return math.log(sum(max(ref - t, clamp) ** -d for t in times if t < ref))


def _oracle_freq(corpus, ht, ref):
    return sum(1 for a in corpus.assignments if a.hashtag == ht and a.timestamp < ref)


def _oracle_order(corpus, scores, ref, k):
    ranked = sorted(
        scores.items(),
        key=lambda item: (-item[1], -_oracle_freq(corpus, item[0], ref), item[0]),
    )
    return ranked[:k]


def _rewinding_refs(rng, corpus):
    """Reference times for one shared index: past the last event first, then
    up to three timestamps that several assignments share (ties at the
    reference time) in random order, so the index answers earlier times
    after later ones."""
    per_ts = Counter(a.timestamp for a in corpus.assignments)
    tied = sorted(ts for ts, n in per_ts.items() if n > 1)
    earlier = rng.sample(tied, min(3, len(tied)))
    rng.shuffle(earlier)
    return [corpus.assignments[-1].timestamp + 1, *earlier]


def _oracle_bll_i_scores(corpus, user, ref, d=D):
    times: dict[str, list[int]] = {}
    for a in corpus.assignments:
        if a.user_id == user and a.timestamp < ref:
            times.setdefault(a.hashtag, []).append(a.timestamp)
    return {ht: _oracle_activation(ts, ref, d) for ht, ts in times.items()}


def _oracle_bll_s_scores(corpus, user, ref, d=D):
    followees = corpus.network.edges[user]
    times: dict[str, list[int]] = {}
    for a in corpus.assignments:
        if a.user_id in followees and a.timestamp < ref:
            times.setdefault(a.hashtag, []).append(a.timestamp)
    return {ht: _oracle_activation(ts, ref, d) for ht, ts in times.items()}


def _oracle_minmax(scores):
    if not scores:
        return {}
    lo, hi = min(scores.values()), max(scores.values())
    if hi == lo:
        return {ht: 1.0 for ht in scores}
    return {ht: (s - lo) / (hi - lo) for ht, s in scores.items()}


def _oracle_cf_scores(corpus, user, ref, n_neighbors):
    def profile(u):
        p: dict[str, int] = {}
        for a in corpus.assignments:
            if a.user_id == u and a.timestamp < ref:
                p[a.hashtag] = p.get(a.hashtag, 0) + 1
        return p

    def cosine(p, q):
        dot = sum(c * q.get(ht, 0) for ht, c in p.items())
        if dot == 0:
            return 0.0
        return dot / (
            math.sqrt(sum(c * c for c in p.values()))
            * math.sqrt(sum(c * c for c in q.values()))
        )

    mine = profile(user)
    if not mine:
        return None
    others = sorted({a.user_id for a in corpus.assignments} - {user})
    sims = [(cosine(mine, profile(v)), v) for v in others]
    sims = [(s, v) for s, v in sims if s > 0]
    sims.sort(key=lambda sv: (-sv[0], sv[1]))
    scores: dict[str, float] = {}
    for s, v in sims[:n_neighbors]:
        for ht, c in profile(v).items():
            scores[ht] = scores.get(ht, 0.0) + s * c
    return scores


class TestBllActivation:
    def test_frozen_two_usage_value(self):
        got = bll_activation([100, 200], 300, BLLParams(d=0.5))
        expected = math.log(200**-0.5 + 100**-0.5)  # independent arithmetic
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-1.7677850962544752, abs=1e-9)

    def test_unit_delta_gives_zero(self):
        assert bll_activation([999], 1000, BLLParams(d=0.5)) == 0.0

    def test_no_prior_usage_raises(self):
        with pytest.raises(NoPriorUsage):
            bll_activation([300, 400], 300)

    def test_usages_at_or_after_ref_are_excluded(self):
        with_later = bll_activation([100, 300, 999], 300)
        only_prior = bll_activation([100], 300)
        assert with_later == only_prior

    def test_clamp_applies_to_small_deltas(self):
        got = bll_activation([995, 999], 1000, BLLParams(d=0.5, min_delta_seconds=10))
        assert got == pytest.approx(math.log(2 * 10**-0.5))

    def test_recency_monotonicity(self):
        rng = random.Random(11)
        for _ in range(200):
            ref = rng.randint(100, 10**6)
            n = rng.randint(1, 10)
            times = sorted(rng.randint(1, ref - 2) for _ in range(n))
            shift = rng.randint(1, ref - 1 - times[-1]) if times[-1] < ref - 1 else 0
            if shift == 0:
                continue
            closer = [t + shift for t in times]
            assert bll_activation(closer, ref) > bll_activation(times, ref)

    def test_frequency_monotonicity(self):
        rng = random.Random(12)
        for _ in range(200):
            ref = rng.randint(100, 10**6)
            times = [rng.randint(1, ref - 1) for _ in range(rng.randint(1, 10))]
            more = times + [rng.randint(1, ref - 1)]
            assert bll_activation(more, ref) > bll_activation(times, ref)

    def test_underflowing_terms_summed_in_log_space(self):
        # (10^7)^-60 underflows to 0.0; the activation stays finite and exact
        ref = 10**7 + 20
        got = bll_activation([10, 20], ref, BLLParams(d=60))
        expected = -60 * math.log(10**7) + math.log(1 + (10**7 / (10**7 + 10)) ** 60)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BLLParams(d=0.0)
        with pytest.raises(ValueError):
            BLLParams(min_delta_seconds=0)

    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
    def test_non_finite_decay_exponent_rejected(self, d):
        # d = inf would make every activation nan, and nan scores get ranked
        with pytest.raises(ValueError, match="finite"):
            BLLParams(d=d)


def _bits(scores: dict) -> dict:
    return {key: score.hex() for key, score in scores.items()}


def _trace_dict(index, users, ref):
    """{hashtag: trace} of the users' rows before ref, pooled per tag by
    index._pooled."""
    ids, bounds, rows = index._pooled(users, index.end(ref))
    times, bounds = index.corpus.ts[rows].tolist(), bounds.tolist()
    names = index.corpus.tags
    return {names[t]: times[a:b] for t, a, b in zip(ids.tolist(), bounds, bounds[1:])}


class TestActivationKernel:
    """_activations_of scores the traces of a flat time array cut by run
    bounds with the arithmetic of bll_activation and of a plain per-term
    reference, bit for bit."""

    def test_matches_per_trace_activation_on_random_traces(self):
        rng = random.Random(2017)
        seen = Counter()
        for _ in range(300):
            ref = rng.randint(2 * 10**9, 4 * 10**9)
            params = BLLParams(
                d=rng.choice([0.1, 0.5, 1.7, 60.0, rng.uniform(0.01, 60.0)]),
                min_delta_seconds=rng.choice([1, 2, 7, 100, 5000]),
            )
            traces = {}
            for i in range(rng.randint(1, 8)):
                far = rng.random() < 0.4
                n = rng.choice([1, 1, 2, 3, 6])
                deltas = sorted(
                    (rng.randint(10**6, 10**9) if far else rng.randint(1, 200) for _ in range(n)),
                    reverse=True,
                )
                if n > 1 and rng.random() < 0.3:
                    deltas = [deltas[0]] * n  # tied timestamps
                traces[f"t{i}"] = [ref - dt for dt in deltas]
            times = [t for trace in traces.values() for t in trace]
            bounds = [0]
            for trace in traces.values():
                bounds.append(bounds[-1] + len(trace))
            scores = _activations_of(np.array(times, dtype=np.int64), np.array(bounds), [ref],
                                     np.zeros(len(traces), dtype=np.int64), params).tolist()
            assert len(scores) == len(traces)
            got = dict(zip(traces, scores))
            per_trace = {ht: bll_activation(trace, ref, params) for ht, trace in traces.items()}
            reference = {ht: reference_bll_activation(trace, ref, params)
                         for ht, trace in traces.items()}
            assert _bits(got) == _bits(per_trace) == _bits(reference)

            d, md = params.d, params.min_delta_seconds
            underflows = [all(max(ref - t, md) ** -d == 0.0 for t in trace)
                          for trace in traces.values()]
            seen["mixed"] += 0 < sum(underflows) < len(underflows)
            seen["single"] += any(len(trace) == 1 for trace in traces.values())
            seen["tied"] += any(len(trace) > 1 and len(set(trace)) == 1
                                for trace in traces.values())
            seen["clamped"] += md > 1 and any(ref - t < md for trace in traces.values()
                                               for t in trace)
        # log space for some tags of one dict but not all, single-term and
        # tied traces, and deltas below a min_delta above 1 all occur
        assert min(seen[k] for k in ("mixed", "single", "tied", "clamped")) >= 20, seen

    def test_pooled_social_trace_equals_merged_list(self):
        rng = random.Random(1991)
        pooled = 0
        for _ in range(25):
            corpus = random_corpus(rng, max_users=12, max_assignments=150, max_timestamp=60)
            if not corpus.assignments:
                continue
            ref = rng.choice([a.timestamp for a in corpus.assignments]) + rng.randint(0, 1)
            index = CorpusIndex(corpus)
            for user in sorted(corpus.seed_users):
                followees = corpus.network.edges[user]
                merged: dict[str, list[int]] = {}
                sources: dict[str, set[str]] = {}
                for a in corpus.assignments:
                    if a.user_id in followees and a.timestamp < ref:
                        merged.setdefault(a.hashtag, []).append(a.timestamp)
                        sources.setdefault(a.hashtag, set()).add(a.user_id)
                pooled += sum(len(users) > 1 for users in sources.values())
                for params in (BLLParams(d=D), BLLParams(d=2.5, min_delta_seconds=4)):
                    # every candidate of the user's bll_s list, scored by its block
                    got = dict(recommend("bll_s", index, user, ref, len(corpus.tags), bll=params))
                    expected = {ht: bll_activation(sorted(times), ref, params)
                                for ht, times in merged.items()}
                    assert _bits(got) == _bits(expected), (user, ref)
        assert pooled >= 20


@pytest.fixture
def history_corpus():
    """Seed A with own history, followees B1/B2, bystander C."""
    tweets = [
        ("A", "t01", 1000, ("a",)),
        ("A", "t02", 1500, ("b",)),
        ("A", "t03", 2500, ("b",)),
        ("B1", "t04", 1200, ("x", "b")),
        ("B2", "t05", 2200, ("x",)),
        ("B2", "t06", 2800, ("y",)),
        ("C", "t07", 900, ("a", "x", "z")),
        ("A", "t08", 3000, ("z",)),
    ]
    return corpus_from_tweets(tweets, {"A": {"B1", "B2"}, "D": {"B1"}})


class TestBllI:
    def test_matches_oracle(self, history_corpus):
        ref = 3600
        index = CorpusIndex(history_corpus)
        got = recommend("bll_i", index, "A", ref, 10, bll=BLLParams(d=D))
        scores = _oracle_bll_i_scores(history_corpus, "A", ref)
        expected = _oracle_order(history_corpus, scores, ref, 10)
        assert [ht for ht, _ in got] == [ht for ht, _ in expected]
        for (_, s_got), (_, s_exp) in zip(got, expected):
            assert s_got == pytest.approx(s_exp, abs=1e-12)

    def test_empty_history(self, history_corpus):
        index = CorpusIndex(history_corpus)
        assert recommend("bll_i", index, "D", 3600, 5) == []

    def test_k1_is_argmax(self, history_corpus):
        index = CorpusIndex(history_corpus)
        full = recommend("bll_i", index, "A", 3600, 10)
        assert recommend("bll_i", index, "A", 3600, 1) == full[:1]

    def test_not_seed_raises(self, history_corpus):
        with pytest.raises(NotSeedUser):
            recommend("bll_i", CorpusIndex(history_corpus), "C", 3600, 5)


class TestBllS:
    def test_no_followees_empty(self):
        corpus = corpus_from_tweets([("B", "t1", 10, ("x",))], {"A": set()})
        assert recommend("bll_s", CorpusIndex(corpus), "A", 100, 5) == []

    def test_single_followee_single_usage(self):
        ref = 10_000
        corpus = corpus_from_tweets([("B", "t1", ref - 3600, ("x",))], {"A": {"B"}})
        got = recommend("bll_s", CorpusIndex(corpus), "A", ref, 5)
        assert [ht for ht, _ in got] == ["x"]
        assert got[0][1] == pytest.approx(math.log(3600**-0.5), abs=1e-12)

    def test_usage_times_pooled_across_followees(self):
        ref = 5000
        tweets = [("B1", "t1", 1000, ("x",)), ("B2", "t2", 3000, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": {"B1", "B2"}})
        got = recommend("bll_s", CorpusIndex(corpus), "A", ref, 5)
        pooled = math.log(4000**-0.5 + 2000**-0.5)
        assert got[0][1] == pytest.approx(pooled, abs=1e-12)

    def test_matches_oracle(self, history_corpus):
        ref = 3600
        got = recommend("bll_s", CorpusIndex(history_corpus), "A", ref, 10)
        scores = _oracle_bll_s_scores(history_corpus, "A", ref)
        expected = _oracle_order(history_corpus, scores, ref, 10)
        assert [ht for ht, _ in got] == [ht for ht, _ in expected]


class TestBllIS:
    def test_beta_one_matches_individual_order(self, history_corpus):
        # restricted to the individual candidate set, the degenerate mix
        # preserves the individual ranking exactly
        ref = 3600
        index = CorpusIndex(history_corpus)
        mixed = recommend("bll_is", index, "A", ref, 10, mix=MixParams(beta=1.0))
        own_only = recommend("bll_i", index, "A", ref, 10)
        own_set = {ht for ht, _ in own_only}
        restricted = [ht for ht, _ in mixed if ht in own_set]
        assert restricted == [ht for ht, _ in own_only]
        assert mixed[0][0] == own_only[0][0]

    def test_beta_zero_matches_social_order(self, history_corpus):
        ref = 3600
        index = CorpusIndex(history_corpus)
        mixed = recommend("bll_is", index, "A", ref, 10, mix=MixParams(beta=0.0))
        social_only = recommend("bll_s", index, "A", ref, 10)
        social_set = {ht for ht, _ in social_only}
        restricted = [ht for ht, _ in mixed if ht in social_set]
        assert restricted == [ht for ht, _ in social_only]
        assert mixed[0][0] == social_only[0][0]

    def test_presence_in_both_components_wins(self):
        # "both" is A's only own tag (norm_i = 1.0) and one of two followee
        # tags; "solo" is the other followee tag. With equal social
        # normalization weight, "both" strictly outranks any single-component
        # candidate under beta = 0.5.
        ref = 10_000
        tweets = [
            ("A", "t1", 9000, ("both",)),
            ("B", "t2", 8000, ("both",)),
            ("B", "t3", 8000, ("solo",)),
        ]
        corpus = corpus_from_tweets(tweets, {"A": {"B"}})
        got = recommend("bll_is", CorpusIndex(corpus), "A", ref, 5)
        scores = dict(got)
        assert scores["both"] == pytest.approx(0.5 * 1.0 + 0.5 * 1.0)
        assert scores["solo"] == pytest.approx(0.5 * 1.0)
        assert [ht for ht, _ in got][0] == "both"

    def test_matches_oracle_composition(self, history_corpus):
        ref = 3600
        beta = 0.3
        got = recommend(
            "bll_is", CorpusIndex(history_corpus), "A", ref, 10, mix=MixParams(beta=beta)
        )
        ni = _oracle_minmax(_oracle_bll_i_scores(history_corpus, "A", ref))
        ns = _oracle_minmax(_oracle_bll_s_scores(history_corpus, "A", ref))
        expected_scores = {
            ht: beta * ni.get(ht, 0.0) + (1 - beta) * ns.get(ht, 0.0)
            for ht in set(ni) | set(ns)
        }
        expected = _oracle_order(history_corpus, expected_scores, ref, 10)
        assert [ht for ht, _ in got] == [ht for ht, _ in expected]
        for (_, s_got), (_, s_exp) in zip(got, expected):
            assert s_got == pytest.approx(s_exp, abs=1e-12)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            MixParams(beta=1.5)


class TestCF:
    def test_identical_profiles_similarity_one(self):
        ref = 100
        tweets = [
            ("A", "t1", 10, ("x",)), ("A", "t2", 20, ("y",)),
            ("V", "t3", 30, ("x",)), ("V", "t4", 40, ("y",)),
        ]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        got = recommend("cf", CorpusIndex(corpus), "A", ref, 5, cf=CFParams(n_neighbors=5))
        # neighbor V has sim 1.0; scores are 1.0 * count
        assert dict(got) == pytest.approx({"x": 1.0, "y": 1.0})

    def test_orthogonal_profiles_contribute_nothing(self):
        tweets = [("A", "t1", 10, ("x",)), ("V", "t2", 20, ("y",))]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        assert recommend("cf", CorpusIndex(corpus), "A", 100, 5) == []

    def test_cold_start_empty_profile(self):
        tweets = [("V", "t1", 10, ("x",))]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        assert recommend("cf", CorpusIndex(corpus), "A", 100, 5) == []

    def test_three_user_fixture_matches_brute_force(self):
        ref = 1000
        tweets = [
            ("A", "t1", 10, ("x", "y")),
            ("V1", "t2", 20, ("x", "y", "z")),
            ("V2", "t3", 30, ("y",)),
            ("V2", "t4", 40, ("w", "y")),
        ]
        corpus = corpus_from_tweets(tweets, {"A": set()})
        got = recommend("cf", CorpusIndex(corpus), "A", ref, 10, cf=CFParams(n_neighbors=2))
        scores = _oracle_cf_scores(corpus, "A", ref, 2)
        expected = _oracle_order(corpus, scores, ref, 10)
        assert [ht for ht, _ in got] == [ht for ht, _ in expected]
        for (_, s_got), (_, s_exp) in zip(got, expected):
            assert s_got == pytest.approx(s_exp, abs=1e-12)

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(8):
            corpus = random_corpus(rng, max_users=12, max_assignments=120, max_timestamp=300)
            if not corpus.seed_users or not corpus.assignments:
                continue
            index = CorpusIndex(corpus)
            for ref in _rewinding_refs(rng, corpus):
                for user in sorted(corpus.seed_users)[:3]:
                    got = recommend("cf", index, user, ref, 10, cf=CFParams(n_neighbors=4))
                    scores = _oracle_cf_scores(corpus, user, ref, 4)
                    if scores is None:
                        assert got == []
                        continue
                    expected = _oracle_order(corpus, scores, ref, 10)
                    assert [ht for ht, _ in got] == [ht for ht, _ in expected]
                    for (_, s_got), (_, s_exp) in zip(got, expected):
                        assert s_got == pytest.approx(s_exp, abs=1e-12)
                    checked += 1
        assert checked > 0

    def test_scores_bit_equal_plain_loop_reference(self):
        # _oracle_cf_scores adds sim * count per hashtag in neighbor order
        # from 0.0; another order of the same terms can change the last bit
        rng = random.Random(6262)
        checked = 0
        for _ in range(30):
            corpus = random_corpus(rng, max_users=30, max_assignments=300, max_timestamp=200)
            if not corpus.seed_users or not corpus.assignments:
                continue
            index = CorpusIndex(corpus)
            for ref in _rewinding_refs(rng, corpus):
                for user in sorted(corpus.seed_users)[:4]:
                    n = rng.choice([1, 3, 20])
                    scores = _oracle_cf_scores(corpus, user, ref, n) or {}
                    got = recommend("cf", index, user, ref, len(scores) + 1,
                                    cf=CFParams(n_neighbors=n))
                    assert _bits(dict(got)) == _bits(scores), (user, ref, n)
                    assert got == _oracle_order(corpus, scores, ref, len(scores))
                    checked += bool(scores)
        assert checked >= 100


class TestMostPopular:
    def test_empty_corpus(self):
        corpus = corpus_from_tweets([], {})
        assert recommend("mp", CorpusIndex(corpus), "u", 100, 5) == []

    def test_counts_order(self):
        tweets = [
            ("u", "t1", 10, ("a",)), ("u", "t2", 20, ("a",)),
            ("u", "t3", 30, ("a",)), ("v", "t4", 40, ("b",)),
        ]
        corpus = corpus_from_tweets(tweets, {})
        got = recommend("mp", CorpusIndex(corpus), "u", 100, 5)
        assert got == [("a", 3.0), ("b", 1.0)]

    def test_tie_broken_lexicographically(self):
        tweets = [("u", "t1", 10, ("zz", "aa"))]
        corpus = corpus_from_tweets(tweets, {})
        got = recommend("mp", CorpusIndex(corpus), "u", 100, 5)
        assert [ht for ht, _ in got] == ["aa", "zz"]

    def test_only_counts_before_ref(self):
        tweets = [("u", "t1", 10, ("a",)), ("u", "t2", 50, ("b",))]
        corpus = corpus_from_tweets(tweets, {})
        got = recommend("mp", CorpusIndex(corpus), "u", 20, 5)
        assert [ht for ht, _ in got] == ["a"]


class TestRankedListContracts:
    def test_prefix_property_all_algorithms(self):
        rng = random.Random(31)
        for _ in range(6):
            corpus = random_corpus(rng, max_users=15, max_assignments=150)
            if not corpus.seed_users or not corpus.assignments:
                continue
            index = CorpusIndex(corpus)
            ref = corpus.assignments[-1].timestamp + 1
            user = sorted(corpus.seed_users)[0]
            for algo in ALGORITHM_NAMES:
                bigger = recommend(algo, index, user, ref, 8)
                for k in range(len(bigger) + 1):
                    assert recommend(algo, index, user, ref, k) == bigger[:k]

    def test_no_duplicates_and_descending(self):
        rng = random.Random(37)
        for _ in range(6):
            corpus = random_corpus(rng, max_users=15, max_assignments=150)
            if not corpus.seed_users or not corpus.assignments:
                continue
            index = CorpusIndex(corpus)
            ref = corpus.assignments[-1].timestamp + 1
            user = sorted(corpus.seed_users)[0]
            for algo in ALGORITHM_NAMES:
                items = recommend(algo, index, user, ref, 10)
                tags = [ht for ht, _ in items]
                assert len(set(tags)) == len(tags)
                scores = [s for _, s in items]
                assert scores == sorted(scores, reverse=True)

    def test_ties_follow_hashtag_strings_not_tag_ids(self):
        # first used in separate tweets, "zz", "mm" and "aa" get the tag ids
        # 0, 1, 2, the reverse of string order; one use each gives equal
        # counts, and a min_delta above every gap equal bll_i activations
        tweets = [("u", "t1", 10, ("zz",)), ("u", "t2", 20, ("mm",)), ("u", "t3", 30, ("aa",))]
        corpus = corpus_from_tweets(tweets, {"u": set()})
        assert corpus.tags == ["zz", "mm", "aa"]
        index = CorpusIndex(corpus)
        params = BLLParams(min_delta_seconds=1000)
        for k in (2, 3):
            for got in (recommend("mp", index, "u", 100, k),
                        recommend("bll_i", index, "u", 100, k, bll=params)):
                assert [ht for ht, _ in got] == ["aa", "mm", "zz"][:k]
                assert len({score for _, score in got}) == 1

    def test_unknown_algorithm_rejected(self, history_corpus):
        with pytest.raises(ValueError):
            recommend("pagerank", CorpusIndex(history_corpus), "A", 100, 5)


class TestAllRecommendersAgainstOracles:
    def test_random_corpora_match_brute_force(self):
        rng = random.Random(424242)
        checked = 0
        for _ in range(8):
            corpus = random_corpus(rng, max_users=50, max_assignments=250, max_timestamp=400)
            if not corpus.seed_users or not corpus.assignments:
                continue
            index = CorpusIndex(corpus)
            beta = 0.5
            for ref in _rewinding_refs(rng, corpus):
                for user in sorted(corpus.seed_users)[:3]:
                    si = _oracle_bll_i_scores(corpus, user, ref)
                    ss = _oracle_bll_s_scores(corpus, user, ref)
                    ni, ns = _oracle_minmax(si), _oracle_minmax(ss)
                    mixed = {
                        ht: beta * ni.get(ht, 0.0) + (1 - beta) * ns.get(ht, 0.0)
                        for ht in set(ni) | set(ns)
                    }
                    cf_scores = _oracle_cf_scores(corpus, user, ref, 20) or {}
                    mp_scores = {}
                    for a in corpus.assignments:
                        if a.timestamp < ref:
                            mp_scores[a.hashtag] = mp_scores.get(a.hashtag, 0.0) + 1.0
                    expectations = {
                        "bll_i": si, "bll_s": ss, "bll_is": mixed,
                        "cf": cf_scores, "mp": mp_scores,
                    }
                    for algo, scores in expectations.items():
                        got = recommend(algo, index, user, ref, 10)
                        expected = _oracle_order(corpus, scores, ref, 10)
                        assert [ht for ht, _ in got] == [ht for ht, _ in expected], (algo, user)
                        for (_, s_got), (_, s_exp) in zip(got, expected):
                            assert s_got == pytest.approx(s_exp, abs=1e-9)
                        checked += 1
        assert checked >= 50


def _oracle_traces(corpus, users, ref):
    traces: dict[str, list[int]] = {}
    for a in corpus.assignments:
        if a.user_id in users and a.timestamp < ref:
            traces.setdefault(a.hashtag, []).append(a.timestamp)
    return {ht: sorted(times) for ht, times in traces.items()}


class TestBllBitsAgainstOracles:
    """bll_i, bll_s and bll_is scores equal, float.hex for float.hex, dict
    references that score each oracle trace by a plain per-term loop."""

    def test_random_corpora_bit_equal(self):
        rng = random.Random(9797)
        seen = Counter()
        for _ in range(10):
            corpus = random_corpus(rng, max_users=30, max_assignments=250, max_timestamp=400)
            if not corpus.seed_users or not corpus.assignments:
                continue
            index = CorpusIndex(corpus)
            for ref in _rewinding_refs(rng, corpus):
                for user in sorted(corpus.seed_users)[:3]:
                    # d = 200 sends traces with every gap above 41 to log space
                    for params in (BLLParams(d=D), BLLParams(d=1.7, min_delta_seconds=5),
                                   BLLParams(d=200.0)):
                        own = _oracle_traces(corpus, {user}, ref)
                        social = _oracle_traces(corpus, corpus.network.edges[user], ref)
                        si, ss = ({ht: reference_bll_activation(ts, ref, params)
                                   for ht, ts in traces.items()} for traces in (own, social))
                        beta = rng.choice([0.0, 0.3, 0.5, 1.0])
                        ni, ns = _oracle_minmax(si), _oracle_minmax(ss)
                        mixed = {
                            ht: beta * ni.get(ht, 0.0) + (1 - beta) * ns.get(ht, 0.0)
                            for ht in set(ni) | set(ns)
                        }
                        for algo, scores in (("bll_i", si), ("bll_s", ss), ("bll_is", mixed)):
                            got = recommend(algo, index, user, ref, len(scores) + 1,
                                            bll=params, mix=MixParams(beta=beta))
                            expected = _oracle_order(corpus, scores, ref, len(scores))
                            assert [(ht, s.hex()) for ht, s in got] == \
                                [(ht, s.hex()) for ht, s in expected], (algo, user, ref)
                            seen[algo] += bool(scores)
                        seen["log space"] += any(
                            all(max(ref - t, params.min_delta_seconds) ** -params.d == 0.0
                                for t in ts)
                            for ts in (*own.values(), *social.values()))
        assert min(seen.values()) >= 20, seen


class TestCursorReads:
    """bll_i, bll_s and bll_is read traces from the index's sorted orders;
    a block shares its bll_i and bll_s scores with bll_is, and the index
    keeps nothing between reads. mp and the ranking tie-break read counts
    at the reference time from the by-tag order."""

    def test_bll_is_after_its_components_equals_fresh_index(self, history_corpus):
        ref = 3600
        index = CorpusIndex(history_corpus)
        results = {}
        for d in (D, 2.0):
            params = BLLParams(d=d)
            recommend("bll_i", index, "A", ref, 10, bll=params)
            recommend("bll_s", index, "A", ref, 10, bll=params)
            results[d] = recommend("bll_is", index, "A", ref, 10, bll=params)
            fresh = recommend("bll_is", CorpusIndex(history_corpus), "A", ref, 10, bll=params)
            assert results[d] == fresh
        # the two decays rank differently, so a cache keyed without them shows
        assert results[D] != results[2.0]
        # reads leave no state behind: the index's attributes are as built
        built = vars(CorpusIndex(history_corpus))
        assert vars(index).keys() == built.keys()
        for name, value in vars(index).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, built[name]), name

    def test_bll_is_after_components_on_random_corpora(self):
        rng = random.Random(8080)
        checked = 0
        for _ in range(6):
            corpus = random_corpus(rng, max_users=20, max_assignments=200, max_timestamp=300)
            if not corpus.seed_users or not corpus.assignments:
                continue
            index = CorpusIndex(corpus)
            ref = corpus.assignments[-1].timestamp + 1
            for user in sorted(corpus.seed_users)[:3]:
                for params in (BLLParams(d=D), BLLParams(d=1.7)):
                    recommend("bll_i", index, user, ref, 10, bll=params)
                    recommend("bll_s", index, user, ref, 10, bll=params)
                    got = recommend("bll_is", index, user, ref, 10, bll=params)
                    fresh = recommend("bll_is", CorpusIndex(corpus), user, ref, 10, bll=params)
                    assert got == fresh
                    checked += 1
        assert checked > 0

    def test_move_and_rewind_do_not_go_stale(self, history_corpus):
        # 3600 -> 3700 crosses no event: the traces stay, the cache must not
        index = CorpusIndex(history_corpus)
        for ref in (2000, 3600, 3700, 2000, 3600):
            for algo in ("bll_i", "bll_s", "bll_is"):
                fresh = recommend(algo, CorpusIndex(history_corpus), "A", ref, 10)
                assert recommend(algo, index, "A", ref, 10) == fresh, (algo, ref)
            for user in history_corpus.users:
                expected = _oracle_traces(history_corpus, {user}, ref)
                assert _trace_dict(index, [user], ref) == expected, (user, ref)

    def test_traces_are_ascending_per_user_and_tag(self, history_corpus):
        index = CorpusIndex(history_corpus)
        ids, bounds, rows = index._pooled(["A"], index.end(2600))
        assert [history_corpus.tags[t] for t in ids.tolist()] == ["a", "b"]
        assert (history_corpus.ts[rows].tolist(), bounds.tolist()) == ([1000, 1500, 2500],
                                                                       [0, 1, 3])
        assert _trace_dict(index, ["A"], 2600) == {"a": [1000], "b": [1500, 2500]}
        assert _trace_dict(index, ["B1"], 2600) == {"x": [1200], "b": [1200]}
        assert _trace_dict(index, ["B2"], 2600) == {"x": [2200]}
        assert _trace_dict(index, ["C"], 2600) == {"a": [900], "x": [900], "z": [900]}

    def test_shared_followee_tags_leave_traces_unchanged(self):
        ref = 1000
        tweets = [
            ("B1", "t1", 100, ("x", "y")),
            ("B3", "t2", 150, ("x", "y")),
            ("B2", "t3", 200, ("x",)),
            ("B1", "t4", 300, ("x",)),
            ("B2", "t5", 300, ("w",)),
        ]
        corpus = corpus_from_tweets(tweets, {"A": {"B1", "B2", "B3"}})
        index = CorpusIndex(corpus)
        before = {f: _trace_dict(index, [f], ref) for f in ("B1", "B2", "B3")}
        got = dict(recommend("bll_s", index, "A", ref, 10))
        assert got["x"] == bll_activation([100, 150, 200, 300], ref)
        assert got["y"] == bll_activation([100, 150], ref)
        assert got["w"] == bll_activation([300], ref)
        pooled = _trace_dict(index, ["B1", "B2", "B3"], ref)
        assert pooled == {"x": [100, 150, 200, 300], "y": [100, 150], "w": [300]}
        for f, traces in before.items():
            assert _trace_dict(index, [f], ref) == traces == _oracle_traces(corpus, {f}, ref)

    @pytest.fixture
    def tied_corpus(self):
        """Tags t00..t23 used 1-3 times each, so ranking ties on score fall
        through to frequency and then to the tag string."""
        tweets = [
            ("u", f"e{i:02d}-{j}", 10 * i + j, (f"t{i:02d}",))
            for i in range(24)
            for j in range(1 + i % 3)
        ]
        return corpus_from_tweets(tweets, {"u": set()})

    def test_prefiltered_rank_equals_unfiltered(self, tied_corpus):
        ref = 10_000
        index = CorpusIndex(tied_corpus)
        # two leaders, a block of 12 tied at 3.0, and a tail tied at 1.0
        scores = {f"t{i:02d}": 5.0 if i < 2 else 3.0 if i < 14 else 1.0 for i in range(24)}
        n = len(scores)
        ids = np.array([tied_corpus.tag_ids[ht] for ht in scores])
        values = np.array(list(scores.values()))
        for k in (0, 1, 2, 3, 7, 14, 15, n, n + 1):
            expected = heapq.nsmallest(
                k, scores.items(),
                key=lambda item: (-item[1], -_oracle_freq(tied_corpus, item[0], ref), item[0]),
            )
            query = np.zeros(len(ids), dtype=np.int64)
            ends = np.array([index.end(ref)])
            assert _rank_lists(index, ends, query, ids, values, k) == [expected], k

    def test_prefiltered_most_popular_equals_unfiltered(self, tied_corpus):
        ref = 10_000
        index = CorpusIndex(tied_corpus)
        counts = Counter(a.hashtag for a in tied_corpus.assignments if a.timestamp < ref)
        n = len(counts)
        for k in (-1, 0, 1, 5, 8, 9, n, n + 1):
            expected = heapq.nsmallest(k, counts.items(), key=lambda item: (-item[1], item[0]))
            got = recommend("mp", index, "u", ref, k)
            assert got == [(ht, float(c)) for ht, c in expected], k


def _answer(index, query):
    """One read of the index as plain data, scores as float.hex strings."""
    read, user, ref = query
    if read in ALGORITHM_NAMES:
        return [(ht, score.hex()) for ht, score in recommend(read, index, user, ref, 10)]
    if read == "traces":
        return _trace_dict(index, index.network.followees(user), ref)
    return getattr(index, read)(user, ref)


class TestSharedIndex:
    """One index answers any sequence of reads as fresh indexes do."""

    def test_shuffled_repeated_queries_equal_fresh_index(self):
        rng = random.Random(5151)
        reads = (*ALGORITHM_NAMES, "traces", "profile_before", "own_tags_before",
                 "followee_tags_before")
        seen = Counter()
        for _ in range(25):
            corpus = random_corpus(rng, max_users=12, max_assignments=150, max_timestamp=60)
            if not corpus.assignments:
                continue
            per_ts = Counter(corpus.ts.tolist())
            tied = [ts for ts, n in per_ts.items() if n > 1]
            first, last = int(corpus.ts[0]), int(corpus.ts[-1])
            refs = [first - 1, first, last, last + 1, -(10**20), 10**20,
                    *rng.sample(tied, min(3, len(tied)))]
            users = sorted(corpus.seed_users)[:3]
            queries = [(read, user, ref) for read in reads for user in users for ref in refs]
            queries *= 2
            rng.shuffle(queries)
            index = CorpusIndex(corpus)
            for query in queries:
                got = _answer(index, query)
                assert got == _answer(CorpusIndex(corpus), query), query
                seen["nonempty"] += bool(got)
            seen["tied"] += bool(tied)
        assert seen["nonempty"] >= 200 and seen["tied"] >= 10, seen

    def test_rows_per_user_beyond_exact_sums_rejected(self, monkeypatch):
        tweets = [("u", f"t{i}", 10 + i, ("x",)) for i in range(3)]
        corpus = corpus_from_tweets(tweets, {"u": set()})
        monkeypatch.setattr(index_module, "MAX_USER_ROWS", 3)
        CorpusIndex(corpus)
        monkeypatch.setattr(index_module, "MAX_USER_ROWS", 2)
        with pytest.raises(CorpusError, match="exact"):
            CorpusIndex(corpus)


def _with_silent_users(rng, corpus):
    """The corpus plus seeds with no rows, each following users with rows
    and users with none."""
    tweets: dict[tuple, list[str]] = {}
    for a in corpus.assignments:
        tweets.setdefault((a.user_id, a.tweet_id, a.timestamp), []).append(a.hashtag)
    edges = {seed: set(followees) for seed, followees in corpus.network.edges.items()}
    users = sorted(corpus.all_users())
    for i in range(rng.randint(1, 3)):
        edges[f"cold{i}"] = set(rng.sample(users, rng.randint(0, min(4, len(users))))) | {
            f"ghost{i}"}
    return corpus_from_tweets([(*key, tuple(tags)) for key, tags in tweets.items()], edges)


class TestBlocks:
    """recommend_many scores many queries per block; every list equals the
    one-query recommend() list, scores float.hex for float.hex, wherever the
    block boundaries fall."""

    def test_blocks_equal_one_query_lists(self, monkeypatch):
        rng = random.Random(2151)
        seen = Counter()
        cuts = []  # (queries, postings) of each of cf's cuts
        neighbors = recommend_module._Block._neighbors
        monkeypatch.setattr(recommend_module._Block, "_neighbors", lambda self, lo, hi, *entries: (
            cuts.append((hi - lo, int(entries[-1].sum()))) or neighbors(self, lo, hi, *entries)))
        for _ in range(30):
            corpus = _with_silent_users(rng, random_corpus(
                rng, max_users=14, max_assignments=200, max_timestamp=60))
            index = CorpusIndex(corpus)
            per_ts = Counter(corpus.ts.tolist())
            tied = [ts for ts, n in per_ts.items() if n > 1]
            last = int(corpus.ts[-1]) if len(corpus.ts) else 0
            refs = [last + 1, *rng.sample(tied, min(3, len(tied)))]
            seeds = sorted(corpus.seed_users)
            # several users at one tied reference time, and users twice
            queries = [(user, ref) for user in rng.sample(seeds, min(6, len(seeds)))
                       for ref in refs]
            rng.shuffle(queries)
            users, times = [u for u, _ in queries], [r for _, r in queries]
            # d = 200 sends traces with every gap above 41 to log space; k = 50
            # is above every candidate count
            bll = rng.choice([BLLParams(d=D), BLLParams(d=200.0), BLLParams(d=1.7,
                                                                             min_delta_seconds=5)])
            mix, cf = MixParams(beta=rng.choice([0.0, 0.3, 1.0])), CFParams(rng.choice([1, 3, 20]))
            k = rng.choice([1, 3, 50])
            expected = [{algo: recommend(algo, index, user, ref, k, bll, mix, cf)
                         for algo in ALGORITHM_NAMES} for user, ref in queries]
            # at 100, cf's cuts hold several queries, and a query with more
            # postings than that is cut alone
            for budget in (1, 100, 2**62):
                monkeypatch.setattr(recommend_module, "_BLOCK_ROWS", budget)
                cuts.clear()
                got = list(recommend_many(index, ALGORITHM_NAMES, users, times, k, bll, mix, cf))
                if budget == 100:
                    seen["cf cut of several"] += any(n > 1 for n, _ in cuts)
                    seen["lone cf query over budget"] += any(n == 1 and p > 100 for n, p in cuts)
                assert [{algo: [(ht, s.hex()) for ht, s in lists[algo]] for algo in lists}
                        for lists in got] == \
                    [{algo: [(ht, s.hex()) for ht, s in lists[algo]] for algo in lists}
                     for lists in expected], budget
            for (user, ref), lists in zip(queries, expected):
                own = _oracle_traces(corpus, {user}, ref)
                seen["cold start"] += not own and lists["cf"] == []
                seen["silent followee"] += any(f not in corpus.users
                                               for f in corpus.network.edges[user])
                seen["log space"] += bll.d == 200.0 and any(
                    all(max(ref - t, 1) ** -bll.d == 0.0 for t in ts) for ts in own.values())
                seen["k above"] += k == 50 and 0 < len(lists["bll_s"]) < k
            seen["tied refs"] += bool(tied)
        assert min(seen.values()) >= 10, seen

    def test_repeated_and_unknown_names(self, history_corpus):
        index = CorpusIndex(history_corpus)
        got = list(recommend_many(index, ["mp", "bll_i", "mp"], ["A", "D"], [3600, 2000], 5))
        assert [sorted(lists) for lists in got] == [["bll_i", "mp"]] * 2
        assert got[1]["bll_i"] == recommend("bll_i", index, "D", 2000, 5) == []
        with pytest.raises(ValueError):
            next(recommend_many(index, ["bll_i", "pagerank"], ["A"], [3600], 5))
        with pytest.raises(ValueError, match="no algorithm"):
            next(recommend_many(index, [], ["A"], [3600], 5))
        with pytest.raises(NotSeedUser):
            next(recommend_many(index, ["cf"], ["A", "C"], [3600, 3600], 5))

    @pytest.mark.parametrize("user", ["C", "nobody"])
    def test_user_without_followee_entry(self, history_corpus, user):
        # C has rows and nobody has none; neither has a followee entry
        index = CorpusIndex(history_corpus)
        for algo in ("bll_i", "bll_s", "bll_is", "cf"):
            with pytest.raises(NotSeedUser):
                recommend(algo, index, user, 3600, 5)
            with pytest.raises(NotSeedUser):
                next(recommend_many(index, [algo, "mp"], ["A", user, "D"], [3600] * 3, 5))
        # mp reads no user, so it serves any
        popular = recommend("mp", index, "A", 3600, 5)
        assert popular and recommend("mp", index, user, 3600, 5) == popular
        got = list(recommend_many(index, ["mp"], ["A", user, "D"], [3600] * 3, 5))
        assert got == [{"mp": popular}] * 3

    def test_key_budget_bounds_a_block(self, history_corpus, monkeypatch):
        index = CorpusIndex(history_corpus)
        index.check_key_budget(index.max_queries)
        with pytest.raises(ValueError, match="63-bit"):
            index.check_key_budget(index.max_queries + 1)
        # blocks are cut at max_queries, so a lower one changes no list
        expected = list(recommend_many(index, ALGORITHM_NAMES, ["A", "D", "A"],
                                       [3600, 3600, 1300], 5))
        monkeypatch.setattr(index, "max_queries", 1)
        assert list(recommend_many(index, ALGORITHM_NAMES, ["A", "D", "A"],
                                   [3600, 3600, 1300], 5)) == expected


def _minmax(scores: list[float]) -> list[float]:
    """The rescaling of one group of scores, as normalize_scores applies it."""
    return _group_minmax(np.zeros(len(scores), dtype=np.int64),
                         np.array(scores, dtype=np.float64)).tolist()


class TestNormalization:
    def test_minmax_basic(self):
        norm = _minmax([-4.0, -2.0, 0.0])
        assert norm == pytest.approx([0.0, 0.5, 1.0])

    def test_single_candidate_gets_one(self):
        assert _minmax([-7.3]) == [1.0]

    def test_all_equal_get_one(self):
        assert _minmax([2.0, 2.0]) == [1.0, 1.0]

    def test_empty(self):
        assert _minmax([]) == []

    def test_order_invariant_under_positive_scaling(self):
        # the normalization path of the mixed recommender: scaling all
        # component scores by a positive constant changes nothing
        scores = [-1.0, -5.0, -2.5, -1.0]
        scaled = [3.7 * s for s in scores]
        assert _minmax(scaled) == pytest.approx(_minmax(scores))
