"""Out-of-program tracing of tagreuse for the benchmark's traced run.

`Tracer.install` replaces public functions with timing wrappers at the
module that calls them (for example `tagreuse.evaluation.recommend` or
`tagreuse.cli.load_corpus`), so nothing under src/ is edited. Each call
becomes a span (name, start, end, parent) kept in memory and written out
when the run ends. High-frequency calls (`CorpusIndex.profile_before`,
`SimilarityIndex.similarity`) are only counted, with no span. A
generator's span (`classify.sweep`) runs from its call to its exhaustion,
so it includes the consumer's per-item work.

`summarize` turns one dump into the per-layer metrics; a span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = ("corpus", "index", "classify", "temporal", "recommend", "diversity",
          "evaluation", "cli")
ALGOS = ("bll_i", "bll_s", "bll_is", "cf", "mp")
SUBCOMMANDS = ("stats", "classify", "recency", "evaluate")

# span name -> per-layer metric holding the spans' summed duration
DURATION_METRICS = {
    "corpus.load": "corpus.load_s",
    "corpus.stats": "corpus.stats_s",
    "index.build": "index.build_s",
    "classify.sweep": "classify.sweep_s",
    "temporal.individual_samples": "temporal.individual_samples_s",
    "temporal.social_samples": "temporal.social_samples_s",
    "temporal.histogram": "temporal.histogram_s",
    "diversity.simindex": "diversity.simindex_s",
    "diversity.rerank": "diversity.rerank_s",
    "diversity.ild": "diversity.ild_s",
    "diversity.serendipity": "diversity.serendipity_s",
    "evaluation.split": "evaluation.split_s",
    **{f"cli.{sub}": f"cli.{sub}_s" for sub in SUBCOMMANDS},
}
COUNT_METRICS = ("corpus.lines", "corpus.malformed", "index.profile_calls",
                 "classify.labeled", "temporal.samples", "recommend.empty_lists",
                 "diversity.similarity_calls", "evaluation.users")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter[str] = Counter()
        self.loaded_paths: list[str] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._gc_start = 0.0

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        end = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")
        name, start, _, parent = self.spans[sid]
        self.spans[sid] = (name, start, end, parent)

    def wrap(self, owner: Any, attr: str, name: str | Callable[..., str],
             after: Callable[[Any, tuple], None] | None = None) -> None:
        """Replace owner.attr by a wrapper recording one span per call.
        `name` may be a function of the call's arguments; `after` sees the
        result and arguments once the span has ended."""
        orig = getattr(owner, attr)
        name_of = name if callable(name) else (lambda *_: name)

        @functools.wraps(orig, updated=())
        def traced(*args, **kwargs):
            sid = self.begin(name_of(*args))
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig, updated=())
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                yield from orig(*args, **kwargs)
            finally:
                self.end(sid)

        setattr(owner, attr, traced)

    def count(self, owner: Any, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig, updated=())
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def install(self) -> None:
        """Wrap the public calls each tagreuse module makes into the others."""
        # Imported here: the driver uses summarize() without tagreuse on its path.
        from tagreuse import classify, cli, diversity, evaluation, index, temporal

        def add(key: str, n: int) -> None:
            self.counts[key] += n

        def on_load(corpus, args) -> None:
            self.loaded_paths.append(str(args[0]))
            add("corpus.malformed", corpus.n_malformed_lines)

        self.wrap(cli, "main", lambda argv, *_: f"cli.{argv[0]}")
        self.wrap(cli, "load_corpus", "corpus.load", on_load)
        self.wrap(cli, "compute_stats", "corpus.stats")
        self.wrap(cli, "evaluate", "evaluation.evaluate")
        self.wrap(classify, "classify_all", "classify.classify_all",
                  lambda res, _: add("classify.labeled", len(res[0])))
        self.wrap_generator(classify, "sweep", "classify.sweep")
        for fn, span in (("individual_recency_samples", "temporal.individual_samples"),
                         ("social_recency_samples", "temporal.social_samples")):
            self.wrap(temporal, fn, span, lambda res, _: add("temporal.samples", len(res)))
        self.wrap(temporal, "build_histogram", "temporal.histogram")
        self.wrap(temporal, "detect_daily_peak", "temporal.peak")
        self.wrap(evaluation, "make_split", "evaluation.split",
                  lambda res, _: add("evaluation.users", len(res.users)))
        self.wrap(evaluation, "CorpusIndex", "index.build")
        self.wrap(evaluation, "recommend", lambda algo, *_: f"recommend.{algo}",
                  lambda res, _: add("recommend.empty_lists", int(not res)))
        # The wrapper keeps the classmethod bound to the class; evaluation
        # calls it through the class, so no instance is bound in front.
        self.wrap(diversity.SimilarityIndex, "from_corpus", "diversity.simindex")
        self.wrap(evaluation, "normalize_scores", "diversity.normalize")
        self.wrap(evaluation, "rerank_hybrid", "diversity.rerank")
        self.wrap(evaluation, "intra_list_diversity", "diversity.ild")
        self.wrap(evaluation, "serendipity", "diversity.serendipity")
        self.wrap(index.CorpusIndex, "own_tags_before", "index.own_tags")
        self.wrap(index.CorpusIndex, "followee_tags_before", "index.followee_tags")
        self.count(index.CorpusIndex, "profile_before", "index.profile_calls")
        self.count(diversity.SimilarityIndex, "similarity", "diversity.similarity_calls")
        gc.callbacks.append(self._on_gc)

    def dump(self, path: Path) -> None:
        """Write spans and counts; lines read are counted here, after every
        timed region has ended."""
        gc.callbacks.remove(self._on_gc)
        for p in self.loaded_paths:
            with open(p, "rb") as fh:
                self.counts["corpus.lines"] += sum(1 for _ in fh)
        path.write_text(json.dumps({
            "spans": self.spans,
            "counts": dict(self.counts),
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }))


def tail(durations_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest of TAIL_PERCENTILES that leaves
    at least ten samples beyond it; the median when there are too few."""
    n = len(durations_ms)
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct), 6) >= 1000.0:
            break
    if n < 2:
        return pct, durations_ms[0] if durations_ms else 0.0
    cuts = statistics.quantiles(durations_ms, n=1000, method="inclusive")
    return pct, cuts[round(pct * 10) - 1]


def summarize(dump: dict, named_layers: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    spans = dump["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    total_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    per_query_ms: dict[str, list[float]] = defaultdict(list)
    n_sweeps = 0
    for sid, (name, start, end, _) in enumerate(spans):
        dur = end - start
        total_s[name] += dur
        layer_self[name.split(".", 1)[0]] += dur - child_s[sid]
        if name.startswith("recommend."):
            per_query_ms[name.split(".", 1)[1]].append(dur * 1e3)
        n_sweeps += name == "classify.sweep"

    out: dict[str, float] = {metric: total_s[span] for span, metric in DURATION_METRICS.items()}
    out.update({key: dump["counts"].get(key, 0) for key in COUNT_METRICS})
    out["classify.sweep_calls"] = n_sweeps
    for algo in ALGOS:
        ms = per_query_ms[algo]
        pct, tail_ms = tail(ms)
        out[f"recommend.{algo}.total_s"] = sum(ms) / 1e3
        out[f"recommend.{algo}.p50_ms"] = statistics.median(ms) if ms else 0.0
        out[f"recommend.{algo}.tail_ms"] = tail_ms
        out[f"recommend.{algo}.tail_pct"] = pct
        out[f"recommend.{algo}.queries"] = len(ms)
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds
    summed = sum(layer_self.values())
    out["trace.named_share"] = (
        sum(layer_self[layer] for layer in named_layers) / summed if summed else 0.0
    )
    out["process.gc_s"] = dump["gc_s"]
    out["process.gc_collections"] = dump["gc_collections"]
    return out
