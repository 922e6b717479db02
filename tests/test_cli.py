"""CLI golden files, exit codes, config handling, and determinism."""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tagreuse import classify, cli, temporal
from tagreuse.corpus import Corpus, load_corpus, write_corpus
from tagreuse.diversity import HybridParams, SimilarityIndex, normalize_scores, rerank_hybrid
from tagreuse.evaluation import MAX_K
from tagreuse.index import CorpusIndex
from tagreuse.recommend import ALGORITHM_NAMES, recommend
from tagreuse.synth import GenParams

from conftest import brute_force_label, merged_synth_corpus, reference_parse_assignments

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _run_from_package_root(monkeypatch):
    # golden outputs echo the relative input paths
    monkeypatch.chdir(ROOT)


GOLDEN_CASES = {
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
         "--network", "tests/data/network.tsv", "--bins", "10",
         "--min-hours", "0.01", "--max-hours", "100", "--outdir", "{tmp}"],
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
         "--network", "tests/data/network.tsv",
         "--config", "tests/data/evaluate.cfg", "--outdir", "{tmp}"],
        ["bll_i.tsv", "bll_s.tsv", "bll_is.tsv", "cf.tsv", "mp.tsv"],
    ),
    "generate": (
        ["generate", "--seed-users", "4", "--followees-per-seed", "2",
         "--background-users", "6", "--vocab-size", "30",
         "--tweets-per-user", "12", "--rng-seed", "99", "--outdir", "{tmp}"],
        ["assignments.tsv", "network.tsv", "ground_truth.tsv"],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs(name, capsys, tmp_path):
    argv_template, files = GOLDEN_CASES[name]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv_template]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.stdout.json").read_text(encoding="utf-8")
    for fname in files:
        produced = (tmp_path / fname).read_bytes()
        assert produced == (GOLDEN / f"{name}.{fname}").read_bytes(), fname


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_determinism_across_runs_and_worker_counts(name, capsys, tmp_path):
    """Two runs give the same bytes. (There is no worker count any more;
    `--workers` is a usage error, see test_bad_workers_value.)"""
    argv_template, files = GOLDEN_CASES[name]
    outputs = []
    for run in (1, 2):
        rundir = tmp_path / f"run{run}"
        rundir.mkdir()
        argv = [a.replace("{tmp}", str(rundir)) for a in argv_template]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        blobs = {"stdout": out.encode()}
        for fname in files:
            blobs[fname] = (rundir / fname).read_bytes()
        outputs.append(blobs)
    assert outputs[0] == outputs[1]


def _forbid_assignments_view(monkeypatch):
    def no_view(self):
        raise AssertionError("Corpus.assignments was built")

    monkeypatch.setattr(Corpus, "assignments", property(no_view))


@pytest.mark.parametrize("name", ["stats", "classify", "recency", "generate", "recommend",
                                  "evaluate"])
def test_analysis_reads_columns_without_the_assignments_view(name, capsys, tmp_path,
                                                             monkeypatch):
    _forbid_assignments_view(monkeypatch)
    argv_template, files = GOLDEN_CASES[name]
    code, _, err = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv_template))
    assert code == 0, err
    for fname in files:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / f"{name}.{fname}").read_bytes()


@pytest.mark.parametrize("name", ["recommend", "evaluate"])
def test_reranked_runs_read_columns_without_the_assignments_view(name, capsys, tmp_path,
                                                                 monkeypatch):
    """--rerank hybrid builds the similarity index from the columns too: the
    run's bytes equal those of the same run with the view allowed."""
    argv_template, files = GOLDEN_CASES[name]
    outputs = []
    for run in ("view", "columns"):
        if run == "columns":
            _forbid_assignments_view(monkeypatch)
        rundir = tmp_path / run
        rundir.mkdir()
        argv = [a.replace("{tmp}", str(rundir)) for a in argv_template]
        code, out, err = run_cli(capsys, *argv, "--rerank", "hybrid", "--lambda", "0.5")
        assert code == 0, err
        outputs.append([out, *((rundir / fname).read_bytes() for fname in files)])
    assert outputs[0] == outputs[1]


def test_inputs_are_not_mutated(capsys, tmp_path):
    before = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (DATA / "assignments.tsv", DATA / "network.tsv")
    }
    for name in ("stats", "classify", "recency", "evaluate"):
        argv_template, _ = GOLDEN_CASES[name]
        rundir = tmp_path / name
        rundir.mkdir()
        code, _, _ = run_cli(capsys, *[a.replace("{tmp}", str(rundir)) for a in argv_template])
        assert code == 0
    after = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (DATA / "assignments.tsv", DATA / "network.tsv")
    }
    assert before == after


def test_crlf_and_bom_inputs_classify_like_lf(capsys, tmp_path, monkeypatch):
    outputs = []
    for name, prefix, newline in (("lf", b"", b"\n"), ("crlf", b"\xef\xbb\xbf", b"\r\n")):
        rundir = tmp_path / name
        rundir.mkdir()
        for fname in ("assignments.tsv", "network.tsv"):
            text = (DATA / fname).read_bytes()
            (rundir / fname).write_bytes(prefix + text.replace(b"\n", newline))
        # same relative paths, so the echoed config is identical too
        monkeypatch.chdir(rundir)
        code, out, _ = run_cli(
            capsys, "classify", "--assignments", "assignments.tsv",
            "--network", "network.tsv", "--per-assignment", "labels.tsv",
        )
        assert code == 0
        outputs.append((out, (rundir / "labels.tsv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_no_temp_files_left_behind(capsys, tmp_path):
    argv_template, _ = GOLDEN_CASES["recency"]
    run_cli(capsys, *[a.replace("{tmp}", str(tmp_path)) for a in argv_template])
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("at", [-(10**20), 0, 2**63, 10**20])
@pytest.mark.parametrize("rerank", [False, True])
def test_recommend_at_extreme_times_gives_the_api_items(capsys, at, rerank):
    # reference times far outside int64 reach the recommenders' array code
    corpus = load_corpus(DATA / "assignments.tsv", DATA / "network.tsv")
    index = CorpusIndex(corpus)
    sim_index = SimilarityIndex.from_corpus(corpus, before=at)
    for algo in ALGORITHM_NAMES:
        items = recommend(algo, index, "u1", at, 10)
        if rerank:
            items = rerank_hybrid(normalize_scores(items), HybridParams(0.5), sim_index)
        code, out, _ = run_cli(
            capsys, "recommend", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--algo", algo, "--user", "u1",
            "--at", str(at), *(["--rerank", "hybrid", "--lambda", "0.5"] if rerank else []),
        )
        assert code == 0, (algo, at)
        assert json.loads(out)["items"] == [{"hashtag": ht, "score": score}
                                            for ht, score in items], (algo, at)


def test_recommend_mp_serves_a_user_without_followee_entry(capsys):
    corpus = load_corpus(DATA / "assignments.tsv", DATA / "network.tsv")
    assert "nobody" not in corpus.network.edges
    items = recommend("mp", CorpusIndex(corpus), "nobody", 10**10, 10)
    code, out, _ = run_cli(
        capsys, "recommend", "--assignments", "tests/data/assignments.tsv",
        "--network", "tests/data/network.tsv", "--algo", "mp", "--user", "nobody",
        "--at", str(10**10),
    )
    assert code == 0 and items
    assert json.loads(out)["items"] == [{"hashtag": ht, "score": score} for ht, score in items]


def test_bench_tracer_installs():
    # bench/tracing.py wraps functions of the package by name, so deleting
    # one it wraps fails here too, not only in the benchmark's own tests
    code = "import sys; sys.path[:0] = sys.argv[1:]; from tracing import Tracer; Tracer().install()"
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "bench"), str(ROOT / "src")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.fixture(scope="module")
def merged_jsonl(tmp_path_factory) -> tuple[list[str], dict[str, str]]:
    """The input options of a merged synth JSONL corpus, and its first seed
    user and a time after its last tweet."""
    corpus = merged_synth_corpus(GenParams(
        n_seed_users=6, n_followees_per_seed=2, n_background_users=4,
        vocab_size=30, n_tweets_per_user=24, rng_seed=7), 3)
    tmp = tmp_path_factory.mktemp("merged")
    apath, npath = tmp / "a.jsonl", tmp / "n.tsv"
    write_corpus(corpus, apath, npath, fmt="jsonl")
    inputs = ["--assignments", str(apath), "--network", str(npath), "--format", "jsonl"]
    return inputs, {"user": min(corpus.seed_users), "at": str(int(corpus.ts.max()) + 1)}


def _main_in_fresh_process(argv: list[str]) -> list[str]:
    """The exit code of cli.main(argv) in a fresh process, and whether
    numpy.ma is imported after it, as printed."""
    code = ("import sys; sys.path[:0] = sys.argv[1:2]; from tagreuse import cli;"
            " code = cli.main(sys.argv[2:]); print(code, 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), *argv],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()[-2:]


def test_rerank_evaluate_does_not_import_numpy_ma(tmp_path, merged_jsonl):
    # numpy's set operations import numpy.ma on first use (np.unique; np.isin
    # when it sorts), which costs a fresh process milliseconds for nothing
    inputs, _ = merged_jsonl
    argv = ["evaluate", *inputs, "--algos", ",".join(ALGORITHM_NAMES), "--kmax", "8",
            "--rerank", "hybrid", "--lambda", "0.5", "--outdir", str(tmp_path / "eval")]
    assert _main_in_fresh_process(argv) == ["0", "False"]
    assert (tmp_path / "eval" / "cf.tsv").exists()


@pytest.mark.parametrize("args, output", [
    (["classify", "--per-assignment", "{out}/labels.tsv"], "labels.tsv"),
    (["recency", "--outdir", "{out}"], "individual.tsv"),
    (["recommend", "--algo", "bll_is", "--user", "{user}", "--at", "{at}", "--rerank", "hybrid",
      "--out", "{out}/rec.json"], "rec.json"),
], ids=["classify", "recency", "recommend"])
def test_other_subcommands_do_not_import_numpy_ma(tmp_path, merged_jsonl, args, output):
    inputs, fields = merged_jsonl
    argv = [args[0], *inputs, *(a.format(out=tmp_path, **fields) for a in args[1:])]
    assert _main_in_fresh_process(argv) == ["0", "False"]
    assert (tmp_path / output).exists()


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_missing_input_file_exits_2_with_path(self, capsys):
        code, _, err = run_cli(
            capsys, "stats", "--assignments", "no/such/file.tsv",
            "--network", "tests/data/network.tsv",
        )
        assert code == 2
        assert "no/such/file.tsv" in err

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--assignments", "tests/data/assignments.tsv")
        assert code == 1
        assert "--network" in err

    def test_bad_flag_value(self, capsys):
        code, _, _ = run_cli(
            capsys, "recommend", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--algo", "bll_i",
            "--user", "u1", "--at", "notanumber",
        )
        assert code == 1

    def test_out_of_range_parameter(self, capsys):
        code, _, _ = run_cli(
            capsys, "recommend", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--algo", "bll_is",
            "--user", "u1", "--at", "600", "--beta", "3.0",
        )
        assert code == 1
        for k in ("0", "-3"):  # rejected before the load: the inputs do not exist
            code, out, err = run_cli(
                capsys, "recommend", "--assignments", "missing.tsv", "--network", "missing.tsv",
                "--algo", "mp", "--user", "u1", "--at", "600", "--k", k,
            )
            assert (code, out) == (1, "")
            assert f"k must be >= 1, got {k}" in err

    def test_unknown_user_is_a_data_error(self, capsys):
        code, _, err = run_cli(
            capsys, "recommend", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--algo", "bll_i",
            "--user", "nobody", "--at", "600",
        )
        assert code == 2
        assert "nobody" in err

    def test_malformed_data_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u1\tt1\tnot_a_ts\talpha\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "stats", "--assignments", str(bad),
            "--network", "tests/data/network.tsv",
        )
        assert code == 2

    def test_invalid_generator_params_exit_1(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "generate", "--p-individual", "0.9", "--p-social", "0.9",
            "--p-network", "0.0", "--p-external", "0.0", "--outdir", str(tmp_path),
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_generator_param_exit_1(self, capsys, tmp_path, value):
        outdir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "generate", f"--p-individual={value}", "--outdir", str(outdir),
        )
        assert code == 1
        assert out == ""
        assert "usage error: p_individual must be a finite number" in err
        assert not outdir.exists()

    def test_out_naming_a_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run_cli(
            capsys, "stats", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert "data error" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken"]

    def test_outdir_below_a_file_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "generate", "--outdir", "/dev/null/x")
        assert code == 2
        assert out == ""
        assert "data error" in err and "Traceback" not in err
        # the same below a regular file of our own
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "generate", "--outdir", str(blocker / "x"))
        assert code == 2
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["file"]

    def test_large_recency_exponent_generates(self, capsys, tmp_path):
        # every delta^-800 draw weight underflows to 0.0
        code, out, _ = run_cli(
            capsys, "generate", "--p-individual", "1", "--p-social", "0",
            "--p-network", "0", "--p-external", "0", "--recency-exponent", "800",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["stats"]["hashtag_assignments"] == 50 * 50
        corpus = load_corpus(tmp_path / "assignments.tsv", tmp_path / "network.tsv")
        corpus.validate()
        rows = (tmp_path / "ground_truth.tsv").read_text(encoding="utf-8").splitlines()
        sources = [row.split("\t")[2] for row in rows]
        assert len(sources) == 20 * 50
        assert set(sources) == {"individual", "external"}
        assert sources.count("individual") > len(sources) // 2

    def test_large_decay_exponent_gives_finite_scores(self, capsys):
        # every dt^-d term underflows at d = 60 with deltas near 10^6 s
        code, out, _ = run_cli(
            capsys, "recommend", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--algo", "bll_i",
            "--user", "u1", "--at", "1000000", "--d", "60",
        )
        assert code == 0
        scores = [item["score"] for item in json.loads(out)["items"]]
        assert scores and all(math.isfinite(s) for s in scores)

    @pytest.mark.parametrize("which", ["assignments", "network", "config"])
    def test_non_utf8_input_exits_2(self, capsys, tmp_path, which):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfeu1\tt1\t5\talpha\n")
        paths = {"assignments": "tests/data/assignments.tsv",
                 "network": "tests/data/network.tsv", "config": None}
        paths[which] = str(binary)
        argv = ["stats", "--assignments", paths["assignments"], "--network", paths["network"]]
        if paths["config"]:
            argv += ["--config", paths["config"]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "data error" in err and "Traceback" not in err

    def test_option_value_of_a_lone_double_dash_exit_1(self, capsys, tmp_path):
        # argparse drops a "--" value and would hand the handler an empty list
        for argv in (["generate", "--p-individual=--", "--outdir", str(tmp_path / "g")],
                     ["recommend", "--assignments", "tests/data/assignments.tsv",
                      "--network", "tests/data/network.tsv", "--algo", "bll_i",
                      "--user", "u1", "--at", "600", "--d=--"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert "needs a value" in err and "Traceback" not in err
        assert not (tmp_path / "g").exists()

    def test_bad_workers_value(self, capsys):
        # the flag is gone: any worker count is an unrecognized argument
        code, out, err = run_cli(
            capsys, "stats", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--workers", "2",
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --workers" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["-0.1", "1.5", "nan"])
    @pytest.mark.parametrize("subcommand", ["recommend", "evaluate"])
    def test_hybrid_lambda_out_of_range_exit_1(self, capsys, tmp_path, subcommand, value):
        # the input file does not exist: the value is rejected before any load
        extra = {
            "recommend": ["--algo", "bll_i", "--user", "u1", "--at", "600"],
            "evaluate": ["--outdir", str(tmp_path / "out")],
        }[subcommand]
        code, out, err = run_cli(
            capsys, subcommand, "--assignments", "no/such/file.tsv",
            "--network", "tests/data/network.tsv", *extra,
            "--rerank", "hybrid", f"--lambda={value}",
        )
        assert code == 1
        assert out == ""
        assert "lambda" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("subcommand", ["recommend", "evaluate"])
    def test_non_finite_decay_exponent_exit_1(self, capsys, tmp_path, subcommand, value):
        extra = {
            "recommend": ["--algo", "bll_i", "--user", "u1", "--at", "600"],
            "evaluate": ["--outdir", str(tmp_path / "out")],
        }[subcommand]
        code, out, err = run_cli(
            capsys, subcommand, "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", *extra, f"--d={value}",
        )
        assert code == 1
        assert out == ""
        assert "decay exponent" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--max-hours", "--min-hours"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_recency_bounds_exit_1(self, capsys, tmp_path, option, value):
        code, out, err = run_cli(
            capsys, "recency", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", option, value,
            "--outdir", str(tmp_path / "out"),
        )
        assert code == 1
        assert out == ""
        assert "finite" in err and "Traceback" not in err
        assert not list(tmp_path.glob("out/*"))

    @pytest.mark.parametrize("bins, message", [
        ("1", "need at least 2 bins, got 1"),
        (str(temporal.MAX_BINS + 1), f"need at most {temporal.MAX_BINS} bins"),
    ])
    def test_recency_bins_checked_before_the_load_exit_1(self, capsys, tmp_path, bins,
                                                         message):
        # the inputs do not exist, so only a check before the load gives exit 1
        code, out, err = run_cli(
            capsys, "recency", "--assignments", "missing.tsv", "--network", "missing.tsv",
            "--bins", bins, "--outdir", str(tmp_path / "out"),
        )
        assert (code, out) == (1, "")
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kmax, code", [(MAX_K + 1, 1), (MAX_K, 2)])
    def test_evaluate_kmax_checked_before_the_load(self, capsys, tmp_path, kmax, code):
        # the inputs do not exist: a k_max past MAX_K exits 1 before the
        # load, and MAX_K itself passes the check and reaches the load (exit 2)
        got, out, err = run_cli(
            capsys, "evaluate", "--assignments", "missing.tsv", "--network", "missing.tsv",
            "--kmax", str(kmax), "--outdir", str(tmp_path / "out"),
        )
        assert (got, out) == (code, "")
        assert ("usage error: k_max must be in" in err) == (code == 1)
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_corpus_beyond_the_sort_keys_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(classify, "KEY_BITS", 2)
        code, out, err = run_cli(
            capsys, "classify", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv",
        )
        assert (code, out) == (2, "")
        assert "sort keys" in err and "Traceback" not in err

    def test_recency_with_two_bins(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "recency", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--bins", "2",
            "--outdir", str(tmp_path),
        )
        assert code == 0, err
        summary = json.loads(out)
        for kind in ("individual", "social"):
            counts = [int(line.split("\t")[1]) for line in
                      (tmp_path / f"{kind}.tsv").read_text().splitlines()[2:]]
            assert len(counts) == 2 and sum(counts) == summary[kind]["n_samples"]


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax=2\nneighbors=5\n", encoding="utf-8")
        outdir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "evaluate", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--config", str(cfg),
            "--kmax", "3", "--algos", "mp", "--outdir", str(outdir),
        )
        assert code == 0
        report = json.loads(out)
        assert report["k_max"] == 3  # flag beat the config file
        assert report["meta"]["config"]["neighbors"] == 5  # config file applied

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("does_not_exist=1\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "stats", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--config", str(cfg),
        )
        assert code == 1
        assert "does_not_exist" in err

    def test_missing_config_file_is_data_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "stats", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--config", "no/conf.cfg",
        )
        assert code == 2

    def test_config_can_supply_required_options(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        # with a byte-order mark and CRLF endings, as some editors save it
        cfg.write_bytes(
            b"\xef\xbb\xbfassignments=tests/data/assignments.tsv\r\n"
            b"network=tests/data/network.tsv\r\n"
        )
        code, out, _ = run_cli(capsys, "stats", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["hashtag_assignments"] == 10


class TestOutputOptions:
    def test_out_file_matches_stdout_payload(self, capsys, tmp_path):
        argv, _ = GOLDEN_CASES["stats"]
        code, out, _ = run_cli(capsys, *argv)
        target = tmp_path / "stats.json"
        code2, out2, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == code2 == 0
        assert out2 == ""
        assert target.read_text(encoding="utf-8") == out

    def test_rerank_flag_runs_end_to_end(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "evaluate", "--assignments", "tests/data/assignments.tsv",
            "--network", "tests/data/network.tsv", "--algos", "bll_is", "--kmax", "3",
            "--rerank", "hybrid", "--lambda", "0.5", "--outdir", str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        rows = report["algorithms"]["bll_is"]
        assert all("ild" in row and "serendipity" in row for row in rows)
        header = (tmp_path / "bll_is.tsv").read_text().splitlines()[1]
        assert header == "# k\tprecision\trecall\tild\tserendipity"


class TestArgvFuzz:
    """Random argv drawn from SUBCOMMAND_OPTS, with bad values and bad
    paths, always ends in exit 0, 1 or 2 and never in a traceback."""

    @staticmethod
    def _paths(tmp_path: Path) -> dict[str, list[str]]:
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        a_file = tmp_path / "a_file"
        a_file.write_text("u1\tt1\t5\n", encoding="utf-8")
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe\x00k=v\n\x80")
        config = tmp_path / "ok.cfg"
        config.write_text("kmax=3\nd=0.5\n", encoding="utf-8")
        bad_paths = [str(a_dir), str(a_file / "x"), str(tmp_path / "missing"), str(binary),
                     str(locked / "x"), ""]
        return {
            "input": ["tests/data/assignments.tsv", "tests/data/network.tsv", *bad_paths],
            "output": [str(tmp_path / "out" / "x.json"), str(a_dir), str(a_file),
                       str(a_file / "x"), str(locked / "x"), str(locked)],
            "config": [str(config), "tests/data/evaluate.cfg", *bad_paths],
        }

    @staticmethod
    def _value(rng: random.Random, opt, paths: dict[str, list[str]]) -> str:
        if opt.name in ("assignments", "network"):
            return rng.choice(paths["input"])
        if opt.name in ("out", "outdir", "per_assignment"):
            return rng.choice(paths["output"])
        junk = ["", "abc", "-1", "0", "nan", "inf", "1e309", "--", "1.5"]
        if opt.choices:
            return rng.choice([*opt.choices, *opt.choices, "zzz", ""])
        if opt.typ is int:
            return rng.choice(["0", "1", "2", "3", "-2", "600", *junk])
        if opt.typ is float:
            return rng.choice(["0", "0.25", "0.5", "1", "2", "60", *junk])
        if opt.name == "algos":
            return rng.choice(["bll_i,mp", "cf", "bll_s,bll_is", ",", "mp,nope", *junk])
        return rng.choice(["u1", "u2", "nobody", *junk])

    def test_random_argv_exit_cleanly(self, capsys, tmp_path):
        rng = random.Random(1305)
        paths = self._paths(tmp_path)
        failures = []
        for _ in range(250):
            name = rng.choice(sorted(cli.SUBCOMMAND_OPTS))
            argv = [name]
            for opt in cli.SUBCOMMAND_OPTS[name]:
                if rng.random() < (0.9 if opt.required else 0.3):
                    flag = "--lambda" if opt.name == "lambda_param" else \
                        "--" + opt.name.replace("_", "-")
                    argv.append(f"{flag}={self._value(rng, opt, paths)}")
            if rng.random() < 0.1:
                argv.append(f"--config={rng.choice(paths['config'])}")
            if rng.random() < 0.05:
                argv.append(rng.choice(["--bogus", "stray", "--k"]))
            if rng.random() < 0.2:
                options = argv[1:]
                rng.shuffle(options)
                argv[1:] = options
            try:
                code, _, err = run_cli(capsys, *argv)
            except Exception as exc:  # report every failing argv, not just the first
                failures.append((argv, repr(exc)))
                continue
            if code not in (0, 1, 2) or "Traceback" in err:
                failures.append((argv, code, err[-300:]))
        assert not failures, failures[:5]


def _fixture_jsonl() -> list[str]:
    """tests/data/assignments.tsv as JSONL lines, one per tweet."""
    tweets: dict[str, dict] = {}
    for line in (DATA / "assignments.tsv").read_text(encoding="utf-8").splitlines():
        user, tweet, ts, tag = line.split("\t")
        record = tweets.setdefault(tweet, {"user": user, "tweet": tweet, "ts": int(ts),
                                           "hashtags": []})
        record["hashtags"].append(tag)
    return [json.dumps(record) for record in tweets.values()]


_TOKENS = ["", "0", "-5", "7", "+9", " 5", "1_0", "٣", "1e3", "9" * 19, str(2**63), "u1", "u2",
           "u3", "u9", "t01", "t02", "alpha", "#Beta", "#", "x y", "İ", "ñ", "\ufeff", "\x00",
           "\t", "null", "true", "[]", "{}", '"u1"', "[1]", '["a", 3]']
_JSON_VALUES = [*_TOKENS, None, True, 0, -5, 7, 2**63, 1.5, [], {}, [1], ["a", 3], ["#Beta", ""]]
_SNIPPETS = st.text(st.sampled_from(list("\t\r\n\"{}[],:#\\ a1\x00\ufeffé")), max_size=3)


@st.composite
def _mutated_lines(draw, lines: list[str], jsonl: bool) -> list[str]:
    """The lines after up to five mutations: a line dropped, duplicated or
    cut short, a snippet spliced in, or a field (a JSON key) replaced by a
    token or removed."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(["drop", "dup", "cut", "splice", "field"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines:
            lines.append("")
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif op == "cut":
            lines[i] = line[:at]
        elif op == "splice":
            lines[i] = line[:at] + draw(_SNIPPETS) + line[at:]
        elif jsonl:
            try:
                record = json.loads(line)
                key = draw(st.sampled_from(["user", "tweet", "ts", "hashtags", "other"]))
                if draw(st.booleans()):
                    record[key] = draw(st.sampled_from(_JSON_VALUES))
                else:
                    record.pop(key, None)
                lines[i] = json.dumps(record, ensure_ascii=draw(st.booleans()))
            except (ValueError, TypeError, AttributeError):  # no longer an object
                lines[i] = draw(st.sampled_from(_TOKENS))
        else:
            parts = line.split("\t")
            j = draw(st.integers(0, len(parts)))
            token = draw(st.sampled_from(_TOKENS))
            parts[j : j + draw(st.integers(0, 1))] = [token]
            lines[i] = "\t".join(parts)
    return lines


@st.composite
def _file_bytes(draw, lines: list[str], jsonl: bool) -> bytes:
    """Mutated lines joined by LF, CRLF or CR, maybe after a BOM, and
    rarely with a byte that is not UTF-8."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(draw(_mutated_lines(lines, jsonl))) + end * draw(st.booleans())
    data = draw(st.sampled_from([b"", codecs.BOM_UTF8])) + text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


_ARGVS = st.one_of(
    st.just(["stats", "--out", "{tmp}/stats.json"]),
    st.just(["recency", "--outdir", "{tmp}/recency"]),
    st.tuples(st.sampled_from(ALGORITHM_NAMES), st.sampled_from(["u1", "u2", "u5", "nobody"]),
              st.sampled_from(["0", "150", "260", str(10**10), str(2**63)]),
              st.sampled_from(["1", "3"]), st.booleans()).map(
        lambda a: ["recommend", "--algo", a[0], "--user", a[1], "--at", a[2], "--k", a[3],
                   *(["--rerank", "hybrid", "--lambda", "0.5"] if a[4] else [])]),
    st.tuples(st.lists(st.sampled_from(ALGORITHM_NAMES), min_size=1, max_size=3, unique=True),
              st.sampled_from(["1", "4"]), st.booleans()).map(
        lambda a: ["evaluate", "--algos", ",".join(a[0]), "--kmax", a[1],
                   "--outdir", "{tmp}/eval", *(["--rerank", "hybrid"] if a[2] else [])]),
    st.tuples(*[st.integers(0, 2)] * 4).map(
        lambda a: ["generate", "--seed-users", str(a[0]), "--followees-per-seed", str(a[1]),
                   "--background-users", str(a[2]), "--tweets-per-user", str(a[3]),
                   "--vocab-size", "5", "--outdir", "{tmp}/gen"]),
)


def _reference_edges(path: Path) -> dict[str, set[str]]:
    """The follow network of a file the loader accepted, line by line."""
    edges: dict[str, set[str]] = {}
    text = path.read_bytes().decode("utf-8-sig")
    for line in re.split(r"\r\n|\r|\n", text):
        if line:
            seed_user, *followee = line.split("\t")
            edges.setdefault(seed_user, set()).update(followee)
    return edges


class TestInputFuzz:
    """A differential property over mutated tests/data inputs, in both
    formats and both --on-malformed modes: every subcommand ends in exit 0,
    1 or 2 with no traceback, and when classify succeeds its per-assignment
    labels are the brute-force labels of the corpus the reference parser
    reads from the same file."""

    TSV = (DATA / "assignments.tsv").read_text(encoding="utf-8").splitlines()
    JSONL = _fixture_jsonl()
    NETWORK = (DATA / "network.tsv").read_text(encoding="utf-8").splitlines()

    @seed(20261022)
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["tsv", "jsonl"]), st.sampled_from(["raise", "count"]),
           _ARGVS)
    def test_mutated_inputs(self, data, fmt, mode, argv):
        assignments = data.draw(_file_bytes(self.JSONL if fmt == "jsonl" else self.TSV,
                                            fmt == "jsonl"))
        network = data.draw(_file_bytes(self.NETWORK, False)) if data.draw(st.booleans()) \
            else (DATA / "network.tsv").read_bytes()
        with tempfile.TemporaryDirectory() as tmp:
            apath, npath, labels = Path(tmp, f"a.{fmt}"), Path(tmp, "n.tsv"), Path(tmp, "l.tsv")
            apath.write_bytes(assignments)
            npath.write_bytes(network)
            inputs = ["--assignments", str(apath), "--network", str(npath), "--format", fmt,
                      "--on-malformed", mode]
            runs = [["classify", *inputs, "--out", f"{tmp}/c.json", "--per-assignment",
                     str(labels)]]
            runs.append([a.replace("{tmp}", tmp) for a in argv])
            if argv[0] != "generate":
                runs[-1][1:1] = inputs
            codes = []
            for run in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes.append(cli.main(run))
                assert codes[-1] in (0, 1, 2) and "Traceback" not in err.getvalue(), run
            if codes[0] == 0:
                records, bad = reference_parse_assignments(apath, fmt)
                assert not bad or mode == "count"
                corpus = Corpus.from_tweets(records, _reference_edges(npath))
                expected = [(a.user_id, a.tweet_id, str(a.timestamp), a.hashtag,
                             brute_force_label(corpus, a).value)
                            for a in corpus.assignments if a.user_id in corpus.seed_users]
                got = labels.read_text(encoding="utf-8").split("\n")[2:-1]
                assert [tuple(line.split("\t")) for line in got] == expected
