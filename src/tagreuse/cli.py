"""Single executable exposing all pipelines.

Subcommands: stats, classify, recency, recommend, evaluate, generate.
Every option can also come from a key=value config file (--config);
explicit flags win. Each output embeds the tool version, the effective
configuration and its hash, so results are self-describing; output
locations are deliberately not part of that echo, keeping output bytes
independent of where they are written. Files are written atomically
(temp file + rename).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, classify, temporal
from .corpus import Corpus, CorpusError, atomic_open, compute_stats, load_corpus, write_corpus
from .diversity import HybridParams, SimilarityIndex, rerank_block
from .evaluation import EvalConfig, NoEvaluableUsers, evaluate
from .index import CorpusIndex
from .recommend import (ALGORITHM_NAMES, BLLParams, CFParams, MixParams, NoPriorUsage,
                        _group_minmax, recommend_many)
from .synth import GenParams, InvalidParams, generate, write_ground_truth

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# Option values that name output destinations or the config file; they do
# not affect result bytes and are excluded from the echoed config.
NON_RESULT_KEYS = frozenset({"out", "outdir", "per_assignment", "config"})


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}")


@dataclass(frozen=True)
class Opt:
    name: str
    typ: type
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str = ""


_INPUT_OPTS = [
    Opt("assignments", str, required=True, help="assignments file (TSV or JSONL)"),
    Opt("network", str, required=True, help="follow network TSV"),
    Opt("format", str, default="tsv", choices=("tsv", "jsonl"), help="assignments format"),
    Opt("on_malformed", str, default="raise", choices=("raise", "count"),
        help="raise on the first malformed line, or count and skip"),
]

_RECOMMENDER_OPTS = [
    Opt("d", float, default=0.5, help="activation decay exponent"),
    Opt("beta", float, default=0.5, help="individual weight in the mixed recommender"),
    Opt("neighbors", int, default=20, help="neighborhood size for collaborative filtering"),
    Opt("rerank", str, default=None, choices=("hybrid",), help="re-rank recommendations"),
    Opt("lambda_param", float, default=0.7,
        help="accuracy weight of the hybrid re-ranker (flag: --lambda)"),
]

SUBCOMMAND_OPTS: dict[str, list[Opt]] = {
    "stats": [*_INPUT_OPTS, Opt("out", str, help="output JSON path (default stdout)")],
    "classify": [
        *_INPUT_OPTS,
        Opt("out", str, help="output JSON path (default stdout)"),
        Opt("per_assignment", str, help="also write a per-assignment label TSV here"),
    ],
    "recency": [
        *_INPUT_OPTS,
        Opt("bins", int, default=temporal.DEFAULT_N_BINS, help="number of histogram bins"),
        Opt("min_hours", float, default=temporal.DEFAULT_MIN_HOURS, help="lowest bin edge"),
        Opt("max_hours", float, default=temporal.DEFAULT_MAX_HOURS, help="highest bin edge"),
        Opt("outdir", str, required=True, help="directory for the per-kind histogram files"),
    ],
    "recommend": [
        *_INPUT_OPTS,
        Opt("algo", str, required=True, choices=ALGORITHM_NAMES, help="algorithm"),
        Opt("user", str, required=True, help="seed user to recommend for"),
        Opt("at", int, required=True, help="reference time (unix seconds)"),
        Opt("k", int, default=10, help="list length"),
        *_RECOMMENDER_OPTS,
        Opt("out", str, help="output JSON path (default stdout)"),
    ],
    "evaluate": [
        *_INPUT_OPTS,
        Opt("algos", str, default="bll_i,bll_s,bll_is,cf,mp",
            help="comma-separated algorithm names"),
        Opt("kmax", int, default=10, help="evaluate k = 1..kmax"),
        *_RECOMMENDER_OPTS,
        Opt("outdir", str, required=True, help="directory for per-algorithm k/precision/recall files"),
    ],
    "generate": [
        # one option per GenParams field, named without its "n_" prefix
        *(Opt(f.name.removeprefix("n_"), type(f.default), f.default) for f in fields(GenParams)),
        Opt("outdir", str, required=True, help="directory for the generated dataset"),
    ],
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tagreuse", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tagreuse {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, opts in SUBCOMMAND_OPTS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", dest="config", default=None,
                        help="key=value config file; flags override it")
        for opt in opts:
            flag = "--lambda" if opt.name == "lambda_param" else "--" + opt.name.replace("_", "-")
            kwargs: dict[str, Any] = {"dest": opt.name, "default": None, "help": opt.help}
            if opt.choices:
                kwargs["choices"] = opt.choices
            if opt.typ is not str:
                kwargs["type"] = opt.typ
            sp.add_argument(flag, **kwargs)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    values: dict[str, str] = {}
    for line_no, line in enumerate(p.read_text(encoding="utf-8-sig").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{p}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _effective_config(subcommand: str, args: argparse.Namespace) -> dict[str, Any]:
    opts = SUBCOMMAND_OPTS[subcommand]
    by_name = {o.name: o for o in opts}
    file_values: dict[str, str] = {}
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(by_name)
        if unknown:
            raise UsageError(f"unknown config key(s) for {subcommand}: {sorted(unknown)}")
    effective: dict[str, Any] = {}
    for opt in opts:
        value = getattr(args, opt.name, None)
        if isinstance(value, list):  # argparse drops a lone "--" value, as in --d=--
            raise UsageError(f"option --{opt.name.replace('_', '-')} needs a value")
        if value is None and opt.name in file_values:
            raw = file_values[opt.name]
            try:
                value = opt.typ(raw)
            except ValueError as exc:
                raise UsageError(f"config key {opt.name}: {exc}") from exc
            if opt.choices and value not in opt.choices:
                raise UsageError(f"config key {opt.name}: must be one of {opt.choices}")
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise UsageError(f"missing required option --{opt.name.replace('_', '-')}")
        effective[opt.name] = value
    return effective


def _meta(subcommand: str, cfg: dict[str, Any]) -> dict[str, Any]:
    echoed = {k: v for k, v in sorted(cfg.items()) if k not in NON_RESULT_KEYS and v is not None}
    digest = hashlib.sha256(
        "\n".join(f"{k}={v!r}" for k, v in echoed.items()).encode("utf-8")
    ).hexdigest()[:12]
    return {
        "tool": "tagreuse",
        "version": __version__,
        "subcommand": subcommand,
        "config": echoed,
        "config_hash": digest,
    }


def _json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(Path(out), text)


def _load(cfg: dict[str, Any]) -> Corpus:
    return load_corpus(cfg["assignments"], cfg["network"], cfg["format"], cfg["on_malformed"])


def _header_lines(meta: dict[str, Any], columns: str) -> list[str]:
    return [
        f"# tagreuse {meta['subcommand']} v{meta['version']} config_hash={meta['config_hash']}",
        f"# {columns}",
    ]


def _cmd_stats(cfg: dict[str, Any]) -> int:
    stats = compute_stats(_load(cfg))
    obj = {"meta": _meta("stats", cfg), **stats.to_json_dict()}
    _emit(_json_text(obj), cfg["out"])
    return EXIT_OK


def _cmd_classify(cfg: dict[str, Any]) -> int:
    corpus = _load(cfg)
    labels, breakdown = classify.classify_all(corpus)
    meta = _meta("classify", cfg)
    obj = {"meta": meta, **breakdown.to_json_dict()}
    _emit(_json_text(obj), cfg["out"])
    if cfg["per_assignment"]:
        path = Path(cfg["per_assignment"])
        path.parent.mkdir(parents=True, exist_ok=True)
        users, tweet_ids, tags = corpus.users, corpus.tweet_ids, corpus.tags
        values = [label.value for label in classify.LABELS]
        rows = labels.rows
        columns = (corpus.user[rows], corpus.tweet[rows], corpus.ts[rows], corpus.tag[rows],
                   labels.codes)
        with atomic_open(path) as fh:
            fh.write("\n".join(_header_lines(meta, "user\ttweet\tts\thashtag\tlabel")) + "\n")
            for u, tw, ts, t, code in zip(*map(memoryview, columns)):
                fh.write(f"{users[u]}\t{tweet_ids[tw]}\t{ts}\t{tags[t]}\t{values[code]}\n")
    return EXIT_OK


def _peak_json(hist: temporal.RecencyHistogram) -> dict[str, Any] | None:
    try:
        peak = temporal.detect_daily_peak(hist)
    except (temporal.InvalidRange, temporal.RangeExcludes24h):
        return None
    return {"is_peak": peak.is_peak, "bin_index": peak.bin_index}


def _cmd_recency(cfg: dict[str, Any]) -> int:
    bins = (cfg["bins"], cfg["min_hours"], cfg["max_hours"])
    try:
        temporal.check_histogram(*bins)
    except temporal.InvalidRange as exc:
        raise UsageError(str(exc)) from exc
    corpus = _load(cfg)
    meta = _meta("recency", cfg)
    outdir = Path(cfg["outdir"])
    summary: dict[str, Any] = {"meta": meta}
    individual, social = temporal.recency_samples(corpus)
    for kind, samples in (("individual", individual), ("social", social)):
        hist = temporal.build_histogram(samples, *bins)
        lines = _header_lines(meta, "bin_center_hours\tcount")
        for center, count in zip(hist.bin_centers_hours, hist.counts):
            lines.append(f"{center!r}\t{count}")
        _write_atomic(outdir / f"{kind}.tsv", "\n".join(lines) + "\n")
        summary[kind] = {"n_samples": len(samples), "peak": _peak_json(hist)}
    sys.stdout.write(_json_text(summary))
    return EXIT_OK


def _recommender_params(
    cfg: dict[str, Any],
) -> tuple[BLLParams, MixParams, CFParams, HybridParams | None]:
    """Validated recommender parameters; the hybrid ones only with
    --rerank hybrid. Called before the corpus is loaded."""
    try:
        return (
            BLLParams(d=cfg["d"]),
            MixParams(beta=cfg["beta"]),
            CFParams(n_neighbors=cfg["neighbors"]),
            HybridParams(cfg["lambda_param"]) if cfg["rerank"] == "hybrid" else None,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_recommend(cfg: dict[str, Any]) -> int:
    bll, mix, cf, hybrid = _recommender_params(cfg)
    if cfg["k"] < 1:
        raise UsageError(f"k must be >= 1, got {cfg['k']}")
    corpus = _load(cfg)
    block = recommend_many(CorpusIndex(corpus), [cfg["algo"]], [cfg["user"]], [cfg["at"]],
                           cfg["k"], bll, mix, cf)
    ids, scores, lengths = next(block)[3][cfg["algo"]]
    if hybrid is not None:
        # a block of one list; only its order is printed, so no item is outside
        sim_index = SimilarityIndex.from_corpus(corpus, before=cfg["at"])
        picks = rerank_block(ids, scores, lengths, hybrid.lambda_param, sim_index,
                             np.zeros(len(ids), dtype=bool), 1)[0]
        ids, scores = ids[picks], _group_minmax(np.zeros_like(ids), scores)[picks]
    obj = {
        "meta": _meta("recommend", cfg),
        "items": [{"hashtag": corpus.tags[t], "score": score}
                  for t, score in zip(ids.tolist(), scores.tolist())],
    }
    _emit(_json_text(obj), cfg["out"])
    return EXIT_OK


def _cmd_evaluate(cfg: dict[str, Any]) -> int:
    bll, mix, cf, hybrid = _recommender_params(cfg)
    algos = [a.strip() for a in cfg["algos"].split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHM_NAMES:
            raise UsageError(f"unknown algorithm {a!r}; expected one of {ALGORITHM_NAMES}")
    if not algos:
        raise UsageError("no algorithms given")
    try:
        config = EvalConfig(
            k_max=cfg["kmax"], bll=bll, mix=mix, cf=cf,
            rerank_lambda=hybrid.lambda_param if hybrid is not None else None,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = evaluate(_load(cfg), algos, config)
    meta = _meta("evaluate", cfg)
    outdir = Path(cfg["outdir"])
    with_beyond = hybrid is not None
    columns = "k\tprecision\trecall" + ("\tild\tserendipity" if with_beyond else "")
    for algo, points in report.algorithms.items():
        lines = _header_lines(meta, columns)
        for p in points:
            row = f"{p.k}\t{p.precision!r}\t{p.recall!r}"
            if with_beyond:
                row += f"\t{p.ild!r}\t{p.serendipity!r}"
            lines.append(row)
        _write_atomic(outdir / f"{algo}.tsv", "\n".join(lines) + "\n")
    sys.stdout.write(_json_text({"meta": meta, **report.to_json_dict()}))
    return EXIT_OK


def _cmd_generate(cfg: dict[str, Any]) -> int:
    # Each GenParams field is the option of its name without an "n_" prefix.
    params = GenParams(**{f.name: cfg[f.name.removeprefix("n_")] for f in fields(GenParams)})
    try:
        params.validate()
    except InvalidParams as exc:
        raise UsageError(str(exc)) from exc
    corpus, ground_truth = generate(params)
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    apath, npath, gpath = (outdir / f"{f}.tsv" for f in ("assignments", "network", "ground_truth"))
    write_corpus(corpus, apath, npath, fmt="tsv")
    write_ground_truth(ground_truth, gpath)
    stats = compute_stats(corpus)
    obj = {
        "meta": _meta("generate", cfg),
        "files": {"assignments": apath.name, "network": npath.name, "ground_truth": gpath.name},
        "stats": stats.to_json_dict(),
    }
    sys.stdout.write(_json_text(obj))
    return EXIT_OK


_HANDLERS = {
    "stats": _cmd_stats,
    "classify": _cmd_classify,
    "recency": _cmd_recency,
    "recommend": _cmd_recommend,
    "evaluate": _cmd_evaluate,
    "generate": _cmd_generate,
}

_DATA_ERRORS = (
    CorpusError,
    OSError,  # a missing input, or an output path that cannot be written
    UnicodeDecodeError,  # an input or config file that is not UTF-8 text
    NoEvaluableUsers,
    NoPriorUsage,
    temporal.InvalidRange,
    temporal.RangeExcludes24h,
)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            raise UsageError(parser.format_usage())
        cfg = _effective_config(args.subcommand, args)
        return _HANDLERS[args.subcommand](cfg)
    except UsageError as exc:
        message = str(exc)
        print(f"usage error: {message}", file=sys.stderr)
        if "usage:" not in message:
            print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
