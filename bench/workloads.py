"""Workloads of the tagreuse benchmark.

A workload is a synthetic corpus shape plus the CLI subcommands run over
it. This module is plain data, so the benchmark driver reads it without
importing tagreuse; `child.py` builds the inputs and runs the commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_users: int
    background_users: int
    tweets_per_user: int
    fmt: str  # assignments file format handed to the CLI
    merge: int  # runs of this many consecutive tweets of a user become one tweet
    commands: tuple[tuple[str, ...], ...]  # CLI argv after the input options
    named_layers: tuple[str, ...]  # layers expected to hold most of the self time

    def gen_params(self, seed: int, scale: float) -> dict[str, Any]:
        """synth.GenParams fields; the criterion-9 mixture of recency-biased
        reuse with few external tags."""
        return dict(
            n_seed_users=self.seed_users,
            n_followees_per_seed=5,
            n_background_users=self.background_users,
            vocab_size=5000,
            n_tweets_per_user=max(20, round(self.tweets_per_user * scale)),
            p_individual=0.43,
            p_social=0.3,
            p_network=0.25,
            p_external=0.02,
            recency_exponent=1.5,
            rng_seed=seed,
        )

    @property
    def checks_labels(self) -> bool:
        """Merging tweets changes who used a tag first, so synth ground
        truth only holds for unmerged corpora."""
        return self.merge == 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="analyze",
            why="reuse analysis on a background-heavy TSV corpus: corpus load, classify, "
            "recency and CLI output do the work; index, recommend and diversity are idle",
            seed_users=100,
            background_users=500,
            tweets_per_user=160,
            fmt="tsv",
            merge=1,
            commands=(
                ("stats", "--out", "{out}/stats.json"),
                ("classify", "--out", "{out}/classify.json",
                 "--per-assignment", "{out}/labels.tsv"),
                ("recency", "--outdir", "{out}/recency"),
            ),
            named_layers=("corpus", "classify", "temporal", "cli"),
        ),
        Workload(
            name="evaluate",
            why="all five recommenders on the criterion-9 TSV shape: recommend and index "
            "do the work (cf most); classify, temporal and diversity are idle",
            seed_users=100,
            background_users=100,
            tweets_per_user=170,
            fmt="tsv",
            merge=1,
            commands=(
                ("evaluate", "--algos", "bll_i,bll_s,bll_is,cf,mp", "--kmax", "10",
                 "--outdir", "{out}/eval"),
            ),
            named_layers=("recommend", "index"),
        ),
        Workload(
            name="rerank",
            why="hybrid re-ranking over a multi-hashtag JSONL corpus: diversity does the "
            "work, and the JSONL parser and from_tweets dedupe are exercised",
            seed_users=100,
            background_users=100,
            tweets_per_user=160,
            fmt="jsonl",
            merge=4,
            commands=(
                ("evaluate", "--algos", "bll_i,mp", "--kmax", "30", "--rerank", "hybrid",
                 "--lambda", "0.5", "--outdir", "{out}/eval"),
            ),
            named_layers=("diversity",),
        ),
    )
}


def input_paths(indir: Path, fmt: str) -> tuple[Path, Path, Path]:
    """(assignments, network, ground truth) file paths of one input set."""
    return indir / f"assignments.{fmt}", indir / "network.tsv", indir / "ground_truth.tsv"
