"""Fresh-process side of the benchmark; run.py starts one process per step.

    python3 bench/child.py setup --workload W --seed N --scale X --result R
    python3 bench/child.py pipeline --workload W --result R [--trace SPANS]

Both run in the benchmark's work directory and need src/ on PYTHONPATH.
`setup` builds the workload's input files in in/ from its seed through the
public synth.generate, Corpus.from_tweets and write_corpus functions.
`pipeline` runs the workload's CLI subcommands in sequence through
tagreuse.cli.main, each one's standard output going to a file next to its
result files, under out/ (traced/ when traced). With --trace it installs
the tracer first and writes its spans to SPANS at the end. Each writes a
JSON report to R.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time
import traceback
from pathlib import Path

from tagreuse import cli
from tagreuse.corpus import Corpus, TweetRecord, write_corpus
from tagreuse.synth import GenParams, generate, write_ground_truth

from tracing import Tracer
from workloads import WORKLOADS, Workload, input_paths

INPUT_DIR = Path("in")


def merged_tweets(corpus: Corpus, run: int) -> list[TweetRecord]:
    """Merge each run of `run` consecutive tweets of one user into a single
    tweet record carrying their hashtags, at the run's last tweet id and
    timestamp. Turns synth's one-tag tweets into multi-tag ones."""
    pending: dict[str, list[tuple[str, int, str]]] = {}
    records: list[TweetRecord] = []
    for a in corpus.assignments:  # one assignment per synth tweet, in time order
        buf = pending.setdefault(a.user_id, [])
        buf.append((a.tweet_id, a.timestamp, a.hashtag))
        if len(buf) == run:
            tweet_id, ts, _ = buf[-1]
            records.append((a.user_id, tweet_id, ts, tuple(ht for _, _, ht in buf)))
            buf.clear()
    for user_id, buf in pending.items():
        if buf:
            tweet_id, ts, _ = buf[-1]
            records.append((user_id, tweet_id, ts, tuple(ht for _, _, ht in buf)))
    return records


def build_inputs(w: Workload, seed: int, scale: float) -> dict[str, float]:
    """Write the workload's input files for `seed`; returns the set-up
    timings in seconds. setup_s covers generate, the multi-tag derivation
    and write_corpus; the ground-truth file is the checker's input, not the
    program's, and is written outside it."""
    INPUT_DIR.mkdir(exist_ok=True)
    apath, npath, gpath = input_paths(INPUT_DIR, w.fmt)
    t0 = time.perf_counter()
    corpus, truth = generate(GenParams(**w.gen_params(seed, scale)))
    t1 = time.perf_counter()
    from_tweets_s = 0.0
    if w.merge > 1:
        records = merged_tweets(corpus, w.merge)
        t = time.perf_counter()
        corpus = Corpus.from_tweets(records, corpus.network.edges)
        from_tweets_s = time.perf_counter() - t
    t2 = time.perf_counter()
    write_corpus(corpus, apath, npath, fmt=w.fmt)
    t3 = time.perf_counter()
    if w.checks_labels:
        write_ground_truth(truth, gpath)
    return {
        "setup_s": t3 - t0,
        "synth.generate_s": t1 - t0,
        "corpus.from_tweets_s": from_tweets_s,
        "corpus.write_s": t3 - t2,
    }


def run_pipeline(w: Workload, outdir: Path, tracer: Tracer | None) -> dict:
    """Run the workload's subcommands in-process; a nonzero exit code or an
    exception escaping cli.main marks that invocation as failed."""
    apath, npath, _ = input_paths(INPUT_DIR, w.fmt)
    inputs = ["--assignments", str(apath), "--network", str(npath), "--format", w.fmt]
    outdir.mkdir()
    if tracer is not None:
        tracer.install()
    ops = []
    t0 = time.perf_counter()
    for sub, *options in w.commands:
        argv = [sub, *inputs, *(o.format(out=outdir) for o in options)]
        with open(outdir / f"{sub}.stdout", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            try:
                ops.append({"argv": argv, "rc": cli.main(argv), "error": ""})
            except Exception:
                ops.append({"argv": argv, "rc": None, "error": traceback.format_exc()})
    wall_s = time.perf_counter() - t0
    return {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "pipeline"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    if args.step == "setup":
        report = build_inputs(w, args.seed, args.scale)
    else:
        tracer = Tracer() if args.trace else None
        report = run_pipeline(w, Path("traced" if tracer else "out"), tracer)
        if tracer is not None:
            tracer.dump(args.trace)
    args.result.write_text(json.dumps(report))


if __name__ == "__main__":
    main()
