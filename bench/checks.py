"""Correctness checks on a pipeline run's result files.

Each check is one operation of the run: it passes with an empty problem
string and fails with a description. They read only the files the CLI
wrote and the synth ground truth, never the program's internals.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import Workload, input_paths


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]


def label_mismatches(labels_tsv: Path, truth_tsv: Path) -> int:
    """Seed assignments whose classify label differs from the synth source
    (synth draws from disjoint pools, so they must agree exactly)."""
    truth = {(tweet, tag): source for tweet, tag, source in _rows(truth_tsv)}
    got = {(tweet, tag): label for _, tweet, _, tag, label in _rows(labels_tsv)}
    wrong = sum(1 for key, source in truth.items() if got.get(key) != source)
    return wrong + len(got.keys() - truth.keys())


def recency_matches_labels(classify_json: Path, recency_stdout: Path) -> str:
    counts = json.loads(classify_json.read_text(encoding="utf-8"))["counts"]
    summary = json.loads(recency_stdout.read_text(encoding="utf-8"))
    both = counts["individual_social"]
    expected = {"individual": counts["individual"] + both, "social": counts["social"] + both}
    got = {kind: summary[kind]["n_samples"] for kind in expected}
    return "" if got == expected else f"recency samples {got} != label-bit counts {expected}"


def _option(command: tuple[str, ...], flag: str) -> str:
    return command[command.index(flag) + 1]


def eval_curves_valid(eval_dir: Path, algos: list[str], k_max: int) -> str:
    """Precision and recall lie in [0, 1] at k = 1..k_max and recall does
    not decrease in k."""
    for algo in algos:
        rows = _rows(eval_dir / f"{algo}.tsv")
        if [int(r[0]) for r in rows] != list(range(1, k_max + 1)):
            return f"{algo}: k column is not 1..{k_max}"
        recall_prev = 0.0
        for row in rows:
            precision, recall = float(row[1]), float(row[2])
            if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
                return f"{algo}: precision/recall outside [0, 1] at k={row[0]}"
            if recall < recall_prev:
                return f"{algo}: recall decreases at k={row[0]}"
            recall_prev = recall
    return ""


def identical_trees(a: Path, b: Path) -> str:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return f"result files differ: {files_a} vs {files_b}"
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return f"{rel} differs between the untraced and traced runs"
    return ""


READ_ERRORS = (OSError, ValueError, KeyError, IndexError)


def _attempt(check, *args) -> str:
    try:
        return check(*args)
    except READ_ERRORS as exc:
        return f"unreadable output: {exc!r}"


def check_outputs(w: Workload, indir: Path, outdir: Path) -> tuple[dict[str, str], int]:
    """Run every check that applies to the workload; returns the problem
    per check and the number of classify labels that disagree with the
    ground truth."""
    problems: dict[str, str] = {}
    mismatches = 0
    subs = {command[0]: command for command in w.commands}
    if "classify" in subs and w.checks_labels:
        try:
            mismatches = label_mismatches(outdir / "labels.tsv", input_paths(indir, w.fmt)[2])
            problems["labels"] = (
                f"{mismatches} labels differ from the ground truth" if mismatches else "")
        except READ_ERRORS as exc:
            problems["labels"] = f"unreadable output: {exc!r}"
    if "classify" in subs and "recency" in subs:
        problems["recency"] = _attempt(
            recency_matches_labels, outdir / "classify.json", outdir / "recency.stdout")
    if "evaluate" in subs:
        cmd = subs["evaluate"]
        problems["evaluate"] = _attempt(
            eval_curves_valid, outdir / "eval", _option(cmd, "--algos").split(","),
            int(_option(cmd, "--kmax")))
    return problems, mismatches
