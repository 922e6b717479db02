"""Tests of the benchmark itself:

    python3 -m pytest bench/

Tiny-scale runs of every workload, untraced and traced, must emit exactly
the metrics BENCHMARK.json names and pass every check; the checks and the
span arithmetic are tested on hand-made inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import eval_curves_valid, identical_trees, label_mismatches
from tracing import summarize, tail
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_and_passes_checks(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert result["metrics"]["classify.gt_mismatch"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_lists_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = bench("--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    dump = {
        "spans": [
            ["cli.evaluate", 0.0, 10.0, -1],
            ["evaluation.evaluate", 1.0, 9.0, 0],
            ["recommend.cf", 2.0, 5.0, 1],
            ["recommend.cf", 5.0, 6.0, 1],
        ],
        "counts": {"index.profile_calls": 7},
        "gc_s": 0.5,
        "gc_collections": 2,
    }
    m = summarize(dump, ("recommend",))
    assert m["cli.self_s"] == 2.0
    assert m["evaluation.self_s"] == 4.0
    assert m["recommend.self_s"] == 4.0
    assert m["recommend.cf.queries"] == 2 and m["recommend.cf.total_s"] == 4.0
    assert m["trace.named_share"] == 0.4
    assert m["index.profile_calls"] == 7 and m["corpus.lines"] == 0


def test_tail_keeps_ten_samples_beyond_it():
    assert tail([float(i) for i in range(100)])[0] == 90.0
    assert tail([float(i) for i in range(1000)])[0] == 99.0
    assert tail([1.0, 2.0, 3.0])[0] == 50.0


def test_checks_catch_wrong_outputs(tmp_path):
    (tmp_path / "truth.tsv").write_text("t1\tv1\tindividual\nt2\tv2\tsocial\n")
    (tmp_path / "labels.tsv").write_text(
        "# header\ns0\tt1\t5\tv1\tindividual\ns0\tt2\t6\tv2\tnetwork\n")
    assert label_mismatches(tmp_path / "labels.tsv", tmp_path / "truth.tsv") == 1

    (tmp_path / "mp.tsv").write_text("# header\n1\t0.5\t0.25\n2\t0.5\t0.2\n")
    assert "recall decreases" in eval_curves_valid(tmp_path, ["mp"], 2)
    (tmp_path / "mp.tsv").write_text("# header\n1\t0.5\t0.25\n2\t1.5\t0.5\n")
    assert "outside [0, 1]" in eval_curves_valid(tmp_path, ["mp"], 2)

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "x.tsv").write_text("1\n")
    (tmp_path / "b" / "x.tsv").write_text("2\n")
    assert identical_trees(tmp_path / "a", tmp_path / "b")
