"""Benchmark of the tagreuse batch pipelines.

    python3 bench/run.py --workload {analyze,evaluate,rerank} --seed N \
        --seconds S --trace {0,1} [--scale X]

Run it from anywhere inside a checkout; it works in bench/.work/ and
removes that directory's run folder when done. One repetition builds the
workload's input files from the seed in a fresh process (setup_s), then
runs the workload's CLI subcommands in another fresh single-threaded
process (wall_s, peak_rss_mb) and checks the result files. Repetitions
continue until the next one would end past --seconds, and at least three
run; every time reported is a median over them.

With --trace 1 each repetition also runs the pipeline a second time with
the tracer installed, checks that its result files are byte-identical to
the untraced run's, and reports the per-layer metrics instead of the
end-to-end ones, with the traced-minus-untraced wall time as
trace.overhead_s. Which metrics exist, with their units, is read from
BENCHMARK.json at the root of the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. An operation is one CLI
invocation or one output check; failed / attempted is ops_failed_frac.
--scale shrinks the tweets per user (the tests run at a tiny scale).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_outputs, identical_trees
from tracing import summarize
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # a run must exit within 180 s


class RunFailed(Exception):
    """A child process died, so the repetition has no measurements."""


class Run:
    """One benchmark run: its work directory, operations and measurements."""

    def __init__(self, w: Workload, seed: int, scale: float, workdir: Path, deadline: float):
        self.w, self.seed, self.scale = w, seed, scale
        self.workdir, self.deadline = workdir, deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[dict] = []
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.traced_walls: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.gt_mismatch = 0

    def op(self, name: str, problem: str) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{name}: {problem}")

    def child(self, step: str, *options: str) -> dict:
        """Run one child.py step in a fresh process and return its report."""
        report = self.workdir / f"{step}.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), step, "--workload", self.w.name,
               "--result", str(report), *options]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        stderr = self.workdir / f"{step}.stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(stderr, "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run(cmd, cwd=self.workdir, env=env, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise RunFailed(f"{step} did not finish within the run's time limit") from None
        if proc.returncode != 0 or not report.is_file():
            log = stderr.read_text(encoding="utf-8", errors="replace")
            raise RunFailed(f"{step} exited with {proc.returncode}:\n{log[-2000:]}")
        return json.loads(report.read_text(encoding="utf-8"))

    def pipeline(self, *options: str) -> dict:
        """Run the CLI pipeline; an invocation fails on a traceback (an
        exception escaping cli.main) or a nonzero exit code."""
        result = self.child("pipeline", *options)
        for op in result["ops"]:
            problem = op["error"] or (f"exit code {op['rc']}" if op["rc"] != 0 else "")
            self.op("tagreuse " + " ".join(op["argv"]), problem)
        return result

    def repetition(self, traced: bool) -> None:
        for name in ("out", "traced"):
            shutil.rmtree(self.workdir / name, ignore_errors=True)
        self.setups.append(
            self.child("setup", "--seed", str(self.seed), "--scale", repr(self.scale)))
        plain = self.pipeline()
        self.walls.append(plain["wall_s"])
        self.rss.append(plain["peak_rss_mb"])
        problems, mismatches = check_outputs(self.w, self.workdir / "in", self.workdir / "out")
        for name, problem in problems.items():
            self.op(f"check {name}", problem)
        self.gt_mismatch = max(self.gt_mismatch, mismatches)
        if traced:
            spans = self.workdir / "spans.json"
            self.traced_walls.append(self.pipeline("--trace", str(spans))["wall_s"])
            self.op("check traced outputs",
                    identical_trees(self.workdir / "out", self.workdir / "traced"))
            dump = json.loads(spans.read_text(encoding="utf-8"))
            self.layers.append(summarize(dump, self.w.named_layers))

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(s["setup_s"] for s in self.setups),
            "wall_s": statistics.median(self.walls),
            "peak_rss_mb": statistics.median(self.rss),
        }

    def per_layer(self) -> dict[str, float]:
        out = {key: statistics.median(layer[key] for layer in self.layers)
               for key in self.layers[0]}
        for key in self.setups[0].keys() - {"setup_s"}:  # the set-up phases
            out[key] = statistics.median(s[key] for s in self.setups)
        out["classify.gt_mismatch"] = self.gt_mismatch
        out["trace.wall_s"] = statistics.median(self.traced_walls)
        out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(self.walls)
        return out


def measure(run: Run, seconds: float, traced: bool) -> None:
    """Repeat until the next repetition would end past `seconds`."""
    start = time.monotonic()
    durations: list[float] = []
    while True:
        t = time.monotonic()
        run.repetition(traced)
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(durations) >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tagreuse" / "__init__.py").is_file():
        print(f"error: no tagreuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    w = WORKLOADS[args.workload]
    workdir = BENCH / ".work" / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(w, args.seed, args.scale, workdir, time.monotonic() + RUN_LIMIT_S)
    try:
        measure(run, args.seconds, bool(args.trace))
    except RunFailed as exc:
        run.op("repetition", str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not run.walls or (args.trace and not run.layers):
        print("error: no complete repetition\n" + "\n".join(run.problems), file=sys.stderr)
        return 1

    values = run.per_layer() if args.trace else run.end_to_end()
    if values.keys() != declared.keys():
        raise SystemExit(f"metrics out of step with BENCHMARK.json: "
                         f"{sorted(values.keys() ^ declared.keys())}")
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {w.name}, seed {args.seed}: {len(run.walls)} repetitions, "
          f"ops_failed_frac {run.failed}/{run.attempted}")
    for name, unit in declared.items():
        print(f"  {name:34s} {values[name]!r:>24} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
