"""Generator: determinism, parameter validation, and ground-truth honesty."""

from __future__ import annotations

import gc
import hashlib
import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagreuse import synth
from tagreuse.classify import ReuseLabel
from tagreuse.corpus import write_corpus
from tagreuse.synth import SOURCES, GenParams, InvalidParams, _recency_weights, generate

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


def truth_rows(corpus, gt) -> list:
    """(assignment, source name) for each ground-truth row, in row order."""
    return [(corpus.assignments[row], SOURCES[code])
            for row, code in zip(gt.rows.tolist(), gt.source.tolist())]


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
        assert len(gt.rows) == len(gt.source) == BASE.n_seed_users * BASE.n_tweets_per_user

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
        assert all(source == "external" for _, source in truth_rows(corpus, gt))
        minted = [a.hashtag for a, _ in truth_rows(corpus, gt)]
        assert len(set(minted)) == len(minted)  # every tag fresh
        assert all(ht.startswith("x") for ht in minted)

    def test_all_individual_after_warmup(self):
        params = GenParams(
            **{**BASE.__dict__, "p_individual": 1.0, "p_social": 0.0,
               "p_network": 0.0, "p_external": 0.0}
        )
        corpus, gt = generate(params)
        sources = [source for _, source in truth_rows(corpus, gt)]
        # cold start falls back to external; afterwards everything is individual
        assert "individual" in sources
        tail = sources[len(sources) // 2 :]
        assert tail.count("individual") / len(tail) > 0.9
        # every individual draw reuses a tag from the user's own strict past
        own_seen: dict[str, set[str]] = {}
        by_tweet = {a.tweet_id: source for a, source in truth_rows(corpus, gt)}
        for a in corpus.assignments:
            if by_tweet.get(a.tweet_id) == "individual":
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
        for rec, source in truth_rows(corpus, gt):
            a, label = by_tweet[rec.tweet_id]
            assert a.hashtag == rec.hashtag
            assert label is self.EXPECTED[source], rec
            sources_seen.add(source)
        assert sources_seen == set(self.EXPECTED)  # the mixture exercises all four

    def test_classifier_agrees_with_brute_force_on_generated_data(self):
        corpus, _ = generate(BASE)
        # spot-check a slice; the full scan is quadratic
        for a, label, _, _ in classified(corpus)[::7]:
            assert brute_force_label(corpus, a) is label

    def test_fractions_sum_to_one(self):
        corpus, gt = generate(BASE)
        fractions = gt.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        sources = [source for _, source in truth_rows(corpus, gt)]
        assert fractions == {s: sources.count(s) / len(sources) for s in SOURCES}


def test_large_vocabulary_costs_no_memory():
    """Only the tags a corpus uses become strings, so a vocabulary of 10**7
    costs nothing up front (a list of its names would take over 600 MB)."""
    params = replace(BASE, n_seed_users=2, n_followees_per_seed=2, n_background_users=2,
                     vocab_size=10**7)
    gc.collect()
    tracemalloc.start()
    try:
        corpus, _ = generate(params)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 10.0, f"generate peak {peak:.1f} MB"
    assert len(corpus.ts) == 4 * BASE.n_tweets_per_user


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
        # 400 and 800 underflow every weight of some pools: the fallback
        recency_exponent=draw(st.floats(0.1, 8.0) | st.sampled_from((400.0, 800.0))),
        daily_amplitude=draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0)),
        rng_seed=draw(st.integers(0, 2**32)),
    ), mixture)


# Seeds that follow every background user, a one-tag vocabulary, each
# pure mixture, each amplitude, two recency exponents past the underflow
# of every weight, and (last) a long run that fills the caps.
_EDGE_EXAMPLES = [
    _with_mixture(GenParams(n_seed_users=3, n_followees_per_seed=4, n_background_users=4,
                            vocab_size=vocab, n_tweets_per_user=40,
                            daily_amplitude=amplitude, rng_seed=7), mixture)
    for mixture in PURE_MIXTURES
    for vocab, amplitude in ((1, 0.0), (3, 0.5), (40, 1.0))
] + [
    GenParams(n_seed_users=3, n_followees_per_seed=2, n_background_users=3, vocab_size=12,
              n_tweets_per_user=40, p_individual=0.5, p_social=0.5, p_network=0.0,
              p_external=0.0, recency_exponent=alpha, rng_seed=11)
    for alpha in (400.0, 800.0)
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
        records = truth_rows(corpus, gt)
        assert all(by_tweet[a.tweet_id] is expected[source] for a, source in records)
        want = "individual" if mixture[0] else "social"
        assert sum(source == want for _, source in records) > len(records) // 2


# The benchmark workloads' shapes at gen_params(seed, 0.1) (see
# bench/workloads.py; evaluate's and rerank's coincide there, so rerank's
# gets another seed) and criterion 9's, all with its source mixture.
_C9 = dict(n_followees_per_seed=5, vocab_size=5000, p_individual=0.43, p_social=0.3,
           p_network=0.25, p_external=0.02, recency_exponent=1.5)
_SMALL = GenParams(n_seed_users=4, n_followees_per_seed=3, n_background_users=6,
                   vocab_size=30, n_tweets_per_user=60, rng_seed=11)
STREAM_CASES = {
    "analyze": GenParams(n_seed_users=100, n_background_users=500, n_tweets_per_user=20,
                         rng_seed=7, **_C9),
    "evaluate": GenParams(n_seed_users=100, n_background_users=100, n_tweets_per_user=20,
                          rng_seed=7, **_C9),
    "rerank": GenParams(n_seed_users=100, n_background_users=100, n_tweets_per_user=20,
                        rng_seed=9, **_C9),
    "criterion9": GenParams(n_seed_users=100, n_background_users=100, n_tweets_per_user=20,
                            rng_seed=4040, **_C9),
    "default": GenParams(),
    "small": _SMALL,
    "vocab1": replace(_SMALL, vocab_size=1),
    "vocab1e6": replace(_SMALL, vocab_size=10**6),
    "follow_all": replace(_SMALL, n_followees_per_seed=6),
    "amplitude0.5": replace(_SMALL, daily_amplitude=0.5),
    "amplitude1": replace(_SMALL, daily_amplitude=1.0),
    # the daily window brings pool gaps within a fraction of a percent of
    # each other, where the two exponents' fallback weights differ
    "recency400": replace(_SMALL, recency_exponent=400.0, daily_amplitude=1.0),
    "recency800": replace(_SMALL, recency_exponent=800.0, daily_amplitude=1.0),
    "individual": _with_mixture(replace(_SMALL, recency_exponent=800.0), PURE_MIXTURES[0]),
    "social": _with_mixture(_SMALL, PURE_MIXTURES[1]),
    "network": _with_mixture(_SMALL, PURE_MIXTURES[2]),
    "external": _with_mixture(_SMALL, PURE_MIXTURES[3]),
    "seed0": replace(_SMALL, rng_seed=0),
    "seed2**32": replace(_SMALL, rng_seed=2**32),
    "caps": _EDGE_EXAMPLES[-1],
}
STREAM_HASHES = {
    "analyze": "8c534c7168727b97c82ebececac055a41de1b0da7114da6803c8a00448e2c369",
    "evaluate": "547200cd34b72e0a64b5c8f15bd7ec4e7a2e1a268b7c0bf55c67b9ca1ce9c765",
    "rerank": "c7048f603ead9e810ca9d3b1fd3463469363a6ee0af6ee5c17a02e1599ae28b0",
    "criterion9": "ba2cdc5902927ce0bb4349e1b36cc5e3becebb421c009994999ce84dcad2c00d",
    "default": "608140e01c41d9a9aac44574dbd901f616ff951c8fc792363f52bf28c6078890",
    "small": "46aa0277f34e6405395f59fe5c0c93cf92346e9ac235ebc6e44b57bf1a62370d",
    "vocab1": "ea87c2dc1894116185efa0fcfba832bcf73a1e35a8a26907131cd6730adbf159",
    "vocab1e6": "541573a372b1ebe8461a0be90a4b9677a1d34957aa7b5551a0ae8cfa22636957",
    "follow_all": "1038a23d9fbbe5a5852e6817d342d5b7134e12ec97236f203f7e0982530be2b3",
    "amplitude0.5": "c7e1f5c002e541b3e5c8b606da2401dd12dba9f3f701a90035656216e07c3e5e",
    "amplitude1": "153ee3e439c7b03fcec92e939765f67f2a856c7907a9c87ebc7bf334adf7c5bf",
    "recency400": "dbcebd82c42ef3f643bf433cdcaf2f663eccf5a5a48faf87c1a4fcb7d7dec9fe",
    "recency800": "69c19f2db0b7a9d30cba55a5340ff99e89e13e528997edead815ff8985191198",
    "individual": "c5812138884a16791616e794b0fba0ae5726da14e541d4e95753f7d997907643",
    "social": "01dfd5f8c3e19846ae899c5cd8d97d493ca9505a05ca08ced3cc028f8e0fa3b9",
    "network": "cae90ab8647564fa1798f447791414bf84a1a60cc6f1e5c1e5bc39d4d280e90b",
    "external": "0585c3b52a53f4babc01ff685cdc81d21adcb411a89eb649ed9c790268ac9730",
    "seed0": "61b61432eeadfa33a9621646bf29455fba0cb828a65151b53d092ade1cfd15f9",
    "seed2**32": "bc55c35170819fa8a4c20af1ee268722667de53937695d08bd2b82a166bfe150",
    "caps": "f7fd64f78ca7ee6fbc33b9e2ba651ed0c0ce0b779e80b4c6b9c9b62a3479b066",
}


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_stream_hash(name, tmp_path):
    """SHA-256 of the TSV and JSONL corpus files and the ground-truth file
    of each case: any change to the random stream or its use shows here."""
    corpus, gt = generate(STREAM_CASES[name])
    write_corpus(corpus, tmp_path / "a.tsv", tmp_path / "n.tsv")
    write_corpus(corpus, tmp_path / "a.jsonl", tmp_path / "n.tsv", fmt="jsonl")
    synth.write_ground_truth(gt, tmp_path / "g.tsv")
    digest = hashlib.sha256()
    for f in ("a.tsv", "a.jsonl", "n.tsv", "g.tsv"):
        digest.update((tmp_path / f).read_bytes())
    assert digest.hexdigest() == STREAM_HASHES[name]
