"""Generator: determinism, parameter validation, and ground-truth honesty."""

from __future__ import annotations

import gc
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagreuse import synth
from tagreuse.classify import ReuseLabel
from tagreuse.corpus import write_corpus
from tagreuse.synth import GenParams, InvalidParams, _recency_weights, generate

from conftest import brute_force_label, classified, reference_generate

FLOAT_FIELDS = (
    "p_individual", "p_social", "p_network", "p_external",
    "recency_exponent", "daily_amplitude",
)
COUNT_FIELDS = (
    "n_seed_users", "n_followees_per_seed", "n_background_users",
    "vocab_size", "n_tweets_per_user",
)
PURE_MIXTURES = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                 (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))

BASE = GenParams(
    n_seed_users=6,
    n_followees_per_seed=3,
    n_background_users=10,
    vocab_size=50,
    n_tweets_per_user=40,
    rng_seed=101,
)


class TestParams:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidParams):
            GenParams(p_individual=0.5, p_social=0.5, p_network=0.5, p_external=0.0).validate()

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidParams):
            GenParams(p_individual=-0.1, p_social=0.6, p_network=0.3, p_external=0.2).validate()

    def test_counts_must_be_positive(self):
        with pytest.raises(InvalidParams):
            GenParams(n_seed_users=0).validate()

    def test_followees_cannot_exceed_background(self):
        with pytest.raises(InvalidParams):
            GenParams(n_followees_per_seed=20, n_background_users=5).validate()

    def test_amplitude_range(self):
        with pytest.raises(InvalidParams):
            GenParams(daily_amplitude=1.5).validate()

    def test_recency_exponent_positive(self):
        with pytest.raises(InvalidParams):
            GenParams(recency_exponent=0.0).validate()

    def test_generate_rejects_invalid(self):
        with pytest.raises(InvalidParams):
            generate(GenParams(n_seed_users=0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(InvalidParams, match=f"{name} must be a finite number"):
            replace(GenParams(), **{name: value}).validate()

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None])
    @pytest.mark.parametrize("name", COUNT_FIELDS)
    def test_count_must_be_a_real_int(self, name, value):
        with pytest.raises(InvalidParams, match=f"{name} must be an int"):
            replace(GenParams(), **{name: value}).validate()

    def test_generate_rejects_float_count(self):
        with pytest.raises(InvalidParams, match="n_tweets_per_user must be an int"):
            generate(GenParams(n_tweets_per_user=2.5))


class TestStructure:
    def test_corpus_is_valid_and_strictly_ordered(self):
        corpus, _ = generate(BASE)
        corpus.validate()
        times = [a.timestamp for a in corpus.assignments]
        assert times == sorted(times)
        assert len(set(times)) == len(times)  # strictly increasing

    def test_expected_event_counts(self):
        corpus, gt = generate(BASE)
        n_users = BASE.n_seed_users + BASE.n_background_users
        assert len(corpus.assignments) == n_users * BASE.n_tweets_per_user
        assert len(gt.records) == BASE.n_seed_users * BASE.n_tweets_per_user

    def test_followee_sets(self):
        corpus, _ = generate(BASE)
        assert len(corpus.seed_users) == BASE.n_seed_users
        for seed in corpus.seed_users:
            followees = corpus.network.followees(seed)
            assert len(followees) == BASE.n_followees_per_seed
            assert all(f.startswith("b") for f in followees)

    def test_determinism_byte_identical(self, tmp_path):
        c1, g1 = generate(BASE)
        c2, g2 = generate(BASE)
        assert c1 == c2
        assert g1 == g2
        a1, n1 = tmp_path / "a1.tsv", tmp_path / "n1.tsv"
        a2, n2 = tmp_path / "a2.tsv", tmp_path / "n2.tsv"
        write_corpus(c1, a1, n1)
        write_corpus(c2, a2, n2)
        assert a1.read_bytes() == a2.read_bytes()
        assert n1.read_bytes() == n2.read_bytes()

    def test_different_seeds_differ(self):
        c1, _ = generate(BASE)
        c2, _ = generate(GenParams(**{**BASE.__dict__, "rng_seed": 102}))
        assert c1 != c2


class TestDegenerateMixtures:
    def test_all_external(self):
        params = GenParams(
            **{**BASE.__dict__, "p_individual": 0.0, "p_social": 0.0,
               "p_network": 0.0, "p_external": 1.0}
        )
        corpus, gt = generate(params)
        assert all(r.source == "external" for r in gt.records)
        minted = [r.hashtag for r in gt.records]
        assert len(set(minted)) == len(minted)  # every tag fresh
        assert all(ht.startswith("x") for ht in minted)

    def test_all_individual_after_warmup(self):
        params = GenParams(
            **{**BASE.__dict__, "p_individual": 1.0, "p_social": 0.0,
               "p_network": 0.0, "p_external": 0.0}
        )
        corpus, gt = generate(params)
        sources = [r.source for r in gt.records]
        # cold start falls back to external; afterwards everything is individual
        assert "individual" in sources
        tail = sources[len(sources) // 2 :]
        assert tail.count("individual") / len(tail) > 0.9
        # every individual draw reuses a tag from the user's own strict past
        own_seen: dict[str, set[str]] = {}
        by_tweet = {r.tweet_id: r for r in gt.records}
        for a in corpus.assignments:
            rec = by_tweet.get(a.tweet_id)
            if rec is not None and rec.source == "individual":
                assert a.hashtag in own_seen.get(a.user_id, set())
            own_seen.setdefault(a.user_id, set()).add(a.hashtag)


class TestGroundTruthCompatibility:
    EXPECTED = {
        "individual": ReuseLabel.INDIVIDUAL,
        "social": ReuseLabel.SOCIAL,
        "network": ReuseLabel.NETWORK,
        "external": ReuseLabel.EXTERNAL,
    }

    def test_sources_match_classifier_labels_exactly(self):
        corpus, gt = generate(GenParams(**{**BASE.__dict__, "n_tweets_per_user": 60}))
        by_tweet = {a.tweet_id: (a, label) for a, label, _, _ in classified(corpus)}
        sources_seen = set()
        for rec in gt.records:
            a, label = by_tweet[rec.tweet_id]
            assert a.hashtag == rec.hashtag
            assert label is self.EXPECTED[rec.source], rec
            sources_seen.add(rec.source)
        assert sources_seen == set(self.EXPECTED)  # the mixture exercises all four

    def test_classifier_agrees_with_brute_force_on_generated_data(self):
        corpus, _ = generate(BASE)
        # spot-check a slice; the full scan is quadratic
        for a, label, _, _ in classified(corpus)[::7]:
            assert brute_force_label(corpus, a) is label

    def test_fractions_sum_to_one(self):
        _, gt = generate(BASE)
        fractions = gt.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)


def _with_mixture(params: GenParams, mixture) -> GenParams:
    p_ind, p_soc, p_net, p_ext = mixture
    return replace(params, p_individual=p_ind, p_social=p_soc,
                   p_network=p_net, p_external=p_ext)


@st.composite
def gen_params(draw) -> GenParams:
    n_background = draw(st.integers(1, 8))
    weights = st.tuples(*[st.integers(0, 4)] * 4).filter(any)
    mixture = draw(st.sampled_from(PURE_MIXTURES)
                   | weights.map(lambda w: tuple(x / sum(w) for x in w)))
    return _with_mixture(GenParams(
        n_seed_users=draw(st.integers(1, 6)),
        n_followees_per_seed=draw(st.integers(1, n_background)),
        n_background_users=n_background,
        vocab_size=draw(st.integers(1, 40)),
        n_tweets_per_user=draw(st.integers(1, 60)),
        recency_exponent=draw(st.floats(0.1, 8.0)),
        daily_amplitude=draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0)),
        rng_seed=draw(st.integers(0, 2**32)),
    ), mixture)


# Seeds that follow every background user, a one-tag vocabulary, each
# pure mixture, each amplitude, and a long run that fills the caps.
_EDGE_EXAMPLES = [
    _with_mixture(GenParams(n_seed_users=3, n_followees_per_seed=4, n_background_users=4,
                            vocab_size=vocab, n_tweets_per_user=40,
                            daily_amplitude=amplitude, rng_seed=7), mixture)
    for mixture in PURE_MIXTURES
    for vocab, amplitude in ((1, 0.0), (3, 0.5), (40, 1.0))
] + [
    # changing any one of the three caps by one changes this corpus
    GenParams(n_seed_users=2, n_followees_per_seed=1, n_background_users=2,
              vocab_size=5000, n_tweets_per_user=600, p_individual=0.2, p_social=0.6,
              p_network=0.1, p_external=0.1, rng_seed=0),
]


class TestReferenceEquivalence:
    """generate == the followee-scanning reference in conftest: same
    corpus (with tweet_index order) and same ground truth."""

    @staticmethod
    def _check(params: GenParams) -> None:
        corpus, gt = generate(params)
        ref_corpus, ref_gt = reference_generate(params)
        assert corpus == ref_corpus
        assert list(corpus.tweet_index.items()) == list(ref_corpus.tweet_index.items())
        assert gt == ref_gt

    @pytest.mark.parametrize("params", _EDGE_EXAMPLES)
    def test_edge_cases(self, params):
        self._check(params)

    @settings(max_examples=150, deadline=None)
    @given(gen_params())
    @example(replace(BASE, n_followees_per_seed=BASE.n_background_users))
    def test_random_params(self, params):
        self._check(params)


class TestGcState:
    def test_gc_paused_during_generate_and_restored(self, monkeypatch):
        states = []
        simulate = synth._simulate_times

        def spy(*args):
            states.append(gc.isenabled())
            return simulate(*args)

        monkeypatch.setattr(synth, "_simulate_times", spy)
        assert gc.isenabled()
        generate(BASE)
        assert states and not any(states)
        assert gc.isenabled()

    def test_disabled_gc_stays_disabled(self):
        gc.disable()
        try:
            generate(BASE)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restored_when_params_are_invalid(self):
        with pytest.raises(InvalidParams):
            generate(GenParams(n_seed_users=0))
        assert gc.isenabled()


class TestLargeRecencyExponent:
    def test_direct_weights_kept_when_any_is_nonzero(self):
        gaps = [3, 1, 10**6, 7]
        assert _recency_weights(gaps, 1.5) == [dt ** -1.5 for dt in gaps]
        # 10**6 underflows at 60 but the pool still has nonzero weights
        assert _recency_weights(gaps, 60.0) == [dt ** -60.0 for dt in gaps]

    def test_underflowing_weights_taken_relative_to_smallest_gap(self):
        gaps = [10**6, 2 * 10**5, 10**7]
        assert all(dt ** -800.0 == 0.0 for dt in gaps)
        weights = _recency_weights(gaps, 800.0)
        assert weights[1] == 1.0
        assert weights == [math.exp(-800.0 * (math.log(dt) - math.log(2 * 10**5)))
                           for dt in gaps]

    @pytest.mark.parametrize("mixture", PURE_MIXTURES[:2])
    def test_pure_reuse_mixture_generates(self, mixture):
        params = _with_mixture(replace(BASE, recency_exponent=800.0), mixture)
        corpus, gt = generate(params)
        by_tweet = {a.tweet_id: label for a, label, _, _ in classified(corpus)}
        expected = TestGroundTruthCompatibility.EXPECTED
        assert all(by_tweet[r.tweet_id] is expected[r.source] for r in gt.records)
        want = "individual" if mixture[0] else "social"
        assert sum(r.source == want for r in gt.records) > len(gt.records) // 2
