"""Acceptance suite: every release criterion as one test with a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All synthetic-data checks use frozen generator seeds, so outcomes
are deterministic; the timing checks measure this machine.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from pathlib import Path

import pytest

from tagreuse import cli
from tagreuse.classify import ReuseBreakdown, ReuseLabel, classify_all
from tagreuse.diversity import (
    HybridParams,
    SimilarityIndex,
    normalize_scores,
    rerank_hybrid,
    serendipity,
)
from tagreuse.evaluation import EvalConfig, evaluate
from tagreuse.recommend import BLLParams, bll_activation
from tagreuse.synth import GenParams, generate
from tagreuse.temporal import (
    build_histogram,
    detect_daily_peak,
    individual_recency_samples,
    social_recency_samples,
)

from conftest import brute_force_label, bubble_fixture, classified, random_corpus

ROOT = Path(__file__).resolve().parent.parent


def report(n: int, name: str) -> None:
    print(f"[acceptance] criterion {n} ({name}): PASS")


def test_criterion_01_classifier_oracle_equivalence():
    """Single-pass labels equal quadratic brute-force labels on 200 random
    corpora (at most 50 users / 500 assignments each), in under 10 s."""
    rng = random.Random(20260809)
    t0 = time.perf_counter()
    n_checked = 0
    for _ in range(200):
        corpus = random_corpus(rng, max_users=50, max_assignments=500, max_timestamp=600)
        for a, label, _, _ in classified(corpus):
            assert brute_force_label(corpus, a) is label, a
            n_checked += 1
    elapsed = time.perf_counter() - t0
    assert n_checked > 10_000
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(1, f"classifier oracle equivalence, {n_checked} labels in {elapsed:.2f}s")


def test_criterion_02_mixture_recovery():
    """With p = (0.4, 0.3, 0.2, 0.1) over ~100k assignments, classifier
    bit-fractions match the post-fallback ground-truth mixture within
    3 percentage points, in under 30 s."""
    t0 = time.perf_counter()
    params = GenParams(
        n_seed_users=200, n_followees_per_seed=8, n_background_users=100,
        vocab_size=500, n_tweets_per_user=334,
        p_individual=0.4, p_social=0.3, p_network=0.2, p_external=0.1,
        recency_exponent=1.0, daily_amplitude=0.0, rng_seed=4242,
    )
    corpus, ground_truth = generate(params)
    assert len(corpus.assignments) >= 100_000
    _, breakdown = classify_all(corpus)
    gt = ground_truth.fractions()
    n = breakdown.n_classified
    bit_fractions = {
        "individual": (
            breakdown.counts[ReuseLabel.INDIVIDUAL]
            + breakdown.counts[ReuseLabel.INDIVIDUAL_SOCIAL]
        ) / n,
        "social": (
            breakdown.counts[ReuseLabel.SOCIAL]
            + breakdown.counts[ReuseLabel.INDIVIDUAL_SOCIAL]
        ) / n,
        "network": breakdown.counts[ReuseLabel.NETWORK] / n,
        "external": breakdown.counts[ReuseLabel.EXTERNAL] / n,
    }
    for source, fraction in bit_fractions.items():
        assert abs(fraction - gt[source]) <= 0.03, (source, fraction, gt[source])
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    deltas = max(abs(bit_fractions[s] - gt[s]) for s in gt)
    report(2, f"mixture recovery, max deviation {deltas:.4f} in {elapsed:.1f}s")


def test_criterion_03_confirmation_bias_statistic_range():
    """High-reuse generation (p_individual + p_social = 0.8) lands the
    explained fraction inside [0.66, 0.81] +/- 0.08 after warm-up."""
    params = GenParams(
        n_seed_users=80, n_followees_per_seed=8, n_background_users=60,
        vocab_size=300, n_tweets_per_user=200,
        p_individual=0.45, p_social=0.35, p_network=0.1, p_external=0.1,
        recency_exponent=1.5, daily_amplitude=0.0, rng_seed=31,
    )
    corpus, _ = generate(params)
    labels, _ = classify_all(corpus)
    warmup = len(labels) // 5  # drop the first 20%: cold-start fallbacks
    warm = ReuseBreakdown.from_codes(labels.codes[warmup:])
    explained = warm.explained_fraction
    assert 0.66 - 0.08 <= explained <= 0.81 + 0.08, explained
    report(3, f"confirmation-bias statistic {explained:.4f} in [0.58, 0.89]")


def test_criterion_04_daily_peak_detection():
    """daily_amplitude 0.8 produces a 24h peak on both histograms;
    amplitude 0 produces none. Under 30 s."""
    t0 = time.perf_counter()

    def peaks(amplitude: float) -> tuple[bool, bool]:
        params = GenParams(
            n_seed_users=100, n_followees_per_seed=8, n_background_users=80,
            vocab_size=300, n_tweets_per_user=400,
            p_individual=0.4, p_social=0.4, p_network=0.1, p_external=0.1,
            recency_exponent=2.0, daily_amplitude=amplitude, rng_seed=9001,
        )
        corpus, _ = generate(params)
        ind = detect_daily_peak(build_histogram(individual_recency_samples(corpus)))
        soc = detect_daily_peak(build_histogram(social_recency_samples(corpus)))
        return ind.is_peak, soc.is_peak

    assert peaks(0.8) == (True, True)
    assert peaks(0.0) == (False, False)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(4, f"24h peak detection in {elapsed:.1f}s")


def test_criterion_05_bll_numeric_and_monotonicity():
    """Activation matches the closed form to 1e-9; recency and frequency
    monotonicity hold on 1000 randomized cases each."""
    got = bll_activation([100, 200], 300, BLLParams(d=0.5))
    expected = math.log(200**-0.5 + 100**-0.5)
    assert abs(got - expected) < 1e-9

    rng = random.Random(55555)
    recency_cases = frequency_cases = 0
    while recency_cases < 1000:
        ref = rng.randint(1_000, 10**7)
        times = sorted(rng.randint(1, ref - 2) for _ in range(rng.randint(1, 12)))
        max_shift = ref - 1 - times[-1]
        if max_shift < 1:
            continue
        shift = rng.randint(1, max_shift)
        closer = [t + shift for t in times]
        assert bll_activation(closer, ref) > bll_activation(times, ref)
        recency_cases += 1
    while frequency_cases < 1000:
        ref = rng.randint(1_000, 10**7)
        times = [rng.randint(1, ref - 1) for _ in range(rng.randint(1, 12))]
        extended = times + [rng.randint(1, ref - 1)]
        assert bll_activation(extended, ref) > bll_activation(times, ref)
        frequency_cases += 1
    report(5, f"activation numeric check, {recency_cases + frequency_cases} property cases")


EVAL_ALGOS = ["bll_i", "bll_s", "bll_is", "cf", "mp"]


def _ordering_run(seed: int):
    params = GenParams(
        n_seed_users=60, n_followees_per_seed=5, n_background_users=100,
        vocab_size=3000, n_tweets_per_user=80,
        p_individual=0.4, p_social=0.4, p_network=0.1, p_external=0.1,
        recency_exponent=3.0, daily_amplitude=0.0, rng_seed=seed,
    )
    corpus, _ = generate(params)
    return evaluate(corpus, EVAL_ALGOS, EvalConfig(k_max=10))


def test_criterion_06_accuracy_ordering():
    """recall@5: mixed >= individual >= most-popular, and the mixed
    recommender is the accuracy argmax, on at least 4 of 5 seeds."""
    passed = 0
    details = []
    for seed in (601, 602, 603, 604, 605):
        report_ = _ordering_run(seed)
        r5 = {algo: report_.algorithms[algo][4].recall for algo in EVAL_ALGOS}
        ok = (
            r5["bll_is"] >= r5["bll_i"] >= r5["mp"]
            and r5["bll_is"] >= max(r5.values())
        )
        passed += ok
        details.append(f"seed {seed}: " + " ".join(f"{a}={r5[a]:.3f}" for a in EVAL_ALGOS))
    assert passed >= 4, "\n".join(details)
    report(6, f"accuracy ordering holds on {passed}/5 seeds")


def test_criterion_07_metric_identities():
    """For every user, algorithm, and k: p@k * k equals the integer hit
    count, as does r@k * |test|, and recall is non-decreasing in k."""
    reports = [_ordering_run(601)]
    rng = random.Random(808)
    added = 0
    while added < 4:
        corpus = random_corpus(rng, max_users=20, max_assignments=300, max_timestamp=500)
        try:
            reports.append(evaluate(corpus, EVAL_ALGOS, EvalConfig(k_max=7)))
        except Exception:
            continue
        added += 1
    n_checked = 0
    for rep in reports:
        for algo, users in rep.per_user.items():
            for user, detail in users.items():
                prev_hits = 0
                for k, hits in enumerate(detail.hits_at_k, start=1):
                    p = hits / k
                    r = hits / detail.n_test
                    assert abs(p * k - hits) < 1e-9
                    assert abs(r * detail.n_test - hits) < 1e-9
                    assert hits == int(hits) and hits >= prev_hits
                    prev_hits = hits
                    n_checked += 1
        for points in rep.algorithms.values():
            recalls = [pt.recall for pt in points]
            assert recalls == sorted(recalls)
    report(7, f"metric identities on {n_checked} (user, algo, k) cells")


def test_criterion_08_reranker_contract():
    """lambda = 1 reproduces the input order byte for byte; on the bubble
    fixture serendipity@5 at lambda 0.3 strictly exceeds lambda 1.0."""
    corpus, candidates, own, social = bubble_fixture()
    index = SimilarityIndex.from_corpus(corpus)
    normalized = normalize_scores(candidates)
    identity = rerank_hybrid(normalized, HybridParams(lambda_param=1.0), index)
    assert json.dumps(identity).encode() == json.dumps(normalized).encode()

    relaxed = rerank_hybrid(normalized, HybridParams(lambda_param=0.3), index)
    s_relaxed = serendipity(relaxed[:5], own, social)
    s_strict = serendipity(identity[:5], own, social)
    assert s_relaxed > s_strict, (s_relaxed, s_strict)
    report(8, f"re-ranker contract, serendipity@5 {s_strict:.2f} -> {s_relaxed:.2f}")


def test_criterion_09_performance_and_scaling():
    """classify_all over 1M assignments finishes in under 60 s and the
    10^5 -> 10^6 runtime ratio stays at or below 15.

    Both corpora are generated before any timing, and the two sizes are
    timed in alternating rounds (median taken per size), so heap state and
    machine-load drift hit both measurements alike.
    """

    def make(n_tweets_per_user: int):
        corpus, _ = generate(GenParams(
            n_seed_users=100, n_followees_per_seed=5, n_background_users=100,
            vocab_size=5000, n_tweets_per_user=n_tweets_per_user,
            p_individual=0.43, p_social=0.3, p_network=0.25, p_external=0.02,
            recency_exponent=1.5, daily_amplitude=0.0, rng_seed=4040,
        ))
        return corpus

    def timed(corpus) -> float:
        gc.collect()
        t0 = time.perf_counter()
        classify_all(corpus)
        return time.perf_counter() - t0

    small = make(500)
    big = make(5000)
    assert len(small.ts) == 100_000
    assert len(big.ts) == 1_000_000
    times_small, times_big = [], []
    for _ in range(5):
        times_small.append(timed(small))
        times_big.append(timed(big))
    t_small = sorted(times_small)[len(times_small) // 2]
    t_big = sorted(times_big)[len(times_big) // 2]
    ratio = t_big / t_small
    assert t_big < 60.0, f"1M classification took {t_big:.1f}s"
    assert ratio <= 15.0, f"scaling ratio {ratio:.2f} ({times_small} vs {times_big})"
    report(9, f"1M classify {t_big:.2f}s, scaling ratio {ratio:.2f}")


CLI_CASES = {
    "stats": (
        ["stats", "--assignments", "tests/data/assignments.tsv",
         "--network", "tests/data/network.tsv"],
        [],
    ),
    "classify": (
        ["classify", "--assignments", "tests/data/assignments.tsv",
         "--network", "tests/data/network.tsv", "--per-assignment", "{tmp}/labels.tsv"],
        ["labels.tsv"],
    ),
    "recency": (
        ["recency", "--assignments", "tests/data/assignments.tsv",
         "--network", "tests/data/network.tsv", "--outdir", "{tmp}"],
        ["individual.tsv", "social.tsv"],
    ),
    "recommend": (
        ["recommend", "--assignments", "tests/data/assignments.tsv",
         "--network", "tests/data/network.tsv", "--algo", "bll_is",
         "--user", "u1", "--at", "600", "--k", "5"],
        [],
    ),
    "evaluate": (
        ["evaluate", "--assignments", "tests/data/assignments.tsv",
         "--network", "tests/data/network.tsv", "--kmax", "4", "--outdir", "{tmp}"],
        ["bll_i.tsv", "bll_s.tsv", "bll_is.tsv", "cf.tsv", "mp.tsv"],
    ),
    "generate": (
        ["generate", "--seed-users", "5", "--followees-per-seed", "3",
         "--background-users", "8", "--tweets-per-user", "15",
         "--rng-seed", "2024", "--outdir", "{tmp}"],
        ["assignments.tsv", "network.tsv", "ground_truth.tsv"],
    ),
}


def test_criterion_10_cli_determinism(capsys, tmp_path, monkeypatch):
    """Every subcommand, run twice with the same seed and config, produces
    byte-identical outputs."""
    monkeypatch.chdir(ROOT)
    for name, (argv_template, files) in CLI_CASES.items():
        blobs = []
        for run in (1, 2):
            rundir = tmp_path / f"{name}-{run}"
            rundir.mkdir()
            argv = [a.replace("{tmp}", str(rundir)) for a in argv_template]
            code = cli.main(argv)
            out = capsys.readouterr().out
            assert code == 0, name
            produced = {"stdout": out.encode()}
            for fname in files:
                produced[fname] = (rundir / fname).read_bytes()
            blobs.append(produced)
        assert blobs[0] == blobs[1], f"{name} output differs between runs"
    report(10, f"CLI determinism across {len(CLI_CASES)} subcommands")
