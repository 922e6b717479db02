"""Dataset model: hashtag assignments, the follow network, and corpus statistics.

A corpus is an immutable, time-sorted list of hashtag assignments (one
(user, tweet, hashtag, timestamp) event per row) plus a static follow
network mapping each seed user to the set of accounts they follow.
Everything downstream (reuse classification, recency analysis,
recommenders) reads this structure and never mutates it.

`load_corpus` reads a file in one pass: the TSV and JSONL readers split
lines into fields and share one validation step, and the assembly into a
`Corpus` is shared with `Corpus.from_tweets`, so both give the same corpus.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import unicodedata
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, TextIO

log = logging.getLogger(__name__)

# One parsed tweet: (user_id, tweet_id, timestamp, hashtags).
TweetRecord = tuple[str, str, int, tuple[str, ...]]
# One assignment before assembly: (timestamp, tweet_id, hashtag, user_id).
_Row = tuple[int, str, str, str]


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause cyclic gc for a bulk pass that makes many objects and no
    cycles; restores the caller's setting, off if it was off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Open a UTF-8 text file that replaces `path` only once fully written.

    The text goes to a new temp file in `path`'s directory, renamed over
    `path` when the block ends without an error. On any error the temp
    file is removed and `path` keeps its previous bytes (or stays absent).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class CorpusError(Exception):
    """Base class for data errors raised by this package."""


class EmptyAfterNormalization(CorpusError):
    """Hashtag normalization left nothing (e.g. the raw string was just '#')."""


class ParseError(CorpusError):
    """A malformed line in an input file."""

    def __init__(self, line_no: int, reason: str, path: str | None = None):
        self.line_no = line_no
        self.reason = reason
        self.path = path
        where = f"{path}:{line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {reason}")


class InconsistentNetwork(CorpusError):
    """The follow network violates its invariants (e.g. a self-follow edge)."""


class NotSeedUser(CorpusError):
    """Operation requires a user with a known followee set."""


def normalize_hashtag(raw: str) -> str:
    """Canonical form of a hashtag: leading '#' stripped, NFC, lowercase.

    Case variants of the same tag ("#MAGA", "#maga") normalize to the
    same string. Raises EmptyAfterNormalization if nothing remains, and
    ValueError if the tag still contains whitespace (not normalizable).
    """
    s = raw.strip().lstrip("#")
    s = unicodedata.normalize("NFC", s).casefold()
    if not s:
        raise EmptyAfterNormalization(f"hashtag empty after normalization: {raw!r}")
    if s.split() != [s]:  # same whitespace test as str.isspace, done in C
        raise ValueError(f"hashtag contains whitespace: {raw!r}")
    return s


@dataclass(frozen=True, slots=True)
class HashtagAssignment:
    """One hashtag occurring in one tweet: the atomic unit of the corpus."""

    user_id: str
    tweet_id: str
    hashtag: str
    timestamp: int  # Unix seconds, UTC

    @property
    def sort_key(self) -> tuple[int, str, str]:
        return (self.timestamp, self.tweet_id, self.hashtag)


@dataclass(frozen=True)
class FollowNetwork:
    """Static seed-user -> followee-set map. Keys define the seed users."""

    edges: dict[str, frozenset[str]]

    def followees(self, user_id: str) -> frozenset[str]:
        try:
            return self.edges[user_id]
        except KeyError:
            raise NotSeedUser(f"no followee set known for user {user_id!r}") from None

    def is_seed(self, user_id: str) -> bool:
        return user_id in self.edges

    def all_followees(self) -> frozenset[str]:
        out: set[str] = set()
        for f in self.edges.values():
            out |= f
        return frozenset(out)


@dataclass(frozen=True)
class Corpus:
    """Immutable, validated dataset. Safe for shared read-only access."""

    assignments: list[HashtagAssignment]
    network: FollowNetwork
    seed_users: frozenset[str]
    tweet_index: dict[str, tuple[str, int]]  # tweet_id -> (user_id, timestamp)
    n_malformed_lines: int = field(default=0, compare=False)

    @classmethod
    def from_tweets(
        cls,
        tweets: Iterable[TweetRecord],
        edges: dict[str, Iterable[str]],
        n_malformed_lines: int = 0,
    ) -> "Corpus":
        """Assemble a corpus from already-normalized tweet records.

        Collapses duplicate hashtags within a tweet, sorts assignments by
        (timestamp, tweet_id, hashtag) and indexes every tweet, including
        tweets that carry no hashtags.
        """
        net: dict[str, frozenset[str]] = {}
        for seed, followees in edges.items():
            fset = frozenset(followees)
            if seed in fset:
                raise InconsistentNetwork(f"seed user {seed!r} follows itself")
            net[seed] = fset
        with _gc_paused():
            tweet_index: dict[str, tuple[str, int]] = {}
            rows: dict[_Row, None] = {}
            for user_id, tweet_id, ts, hashtags in tweets:
                meta = (user_id, ts)
                if tweet_index.setdefault(tweet_id, meta) != meta:
                    raise CorpusError(
                        f"tweet {tweet_id!r} appears with conflicting metadata"
                    )
                for ht in hashtags:
                    rows[ts, tweet_id, ht, user_id] = None
            return _assemble(FollowNetwork(net), tweet_index, rows, n_malformed_lines)

    def all_users(self) -> frozenset[str]:
        """Every distinct user id in the assignments or the network."""
        users = {u for (u, _) in self.tweet_index.values()}
        users |= self.seed_users
        users |= self.network.all_followees()
        return frozenset(users)

    def validate(self) -> None:
        """Check corpus invariants; raises CorpusError on violation."""
        for seed in self.seed_users:
            if seed not in self.network.edges:
                raise InconsistentNetwork(f"seed {seed!r} missing from network")
        prev_key: tuple[int, str, str] | None = None
        for a in self.assignments:
            if a.timestamp <= 0:
                raise CorpusError(f"non-positive timestamp on {a}")
            if normalize_hashtag(a.hashtag) != a.hashtag:
                raise CorpusError(f"hashtag not normalized: {a.hashtag!r}")
            if a.tweet_id not in self.tweet_index:
                raise CorpusError(f"assignment references unknown tweet {a.tweet_id!r}")
            if self.tweet_index[a.tweet_id] != (a.user_id, a.timestamp):
                raise CorpusError(f"assignment disagrees with tweet index: {a}")
            key = a.sort_key
            if prev_key is not None and key <= prev_key:
                raise CorpusError(f"assignments not in strict sort order at {a}")
            prev_key = key


def _assemble(
    network: FollowNetwork,
    tweet_index: dict[str, tuple[str, int]],
    rows: dict[_Row, None],
    n_malformed_lines: int,
) -> Corpus:
    """The corpus of validated rows. A dict collapses duplicates and keeps
    input order, so the sort is linear on a sorted file; a tweet has one
    (user, timestamp), so rows sort like `HashtagAssignment.sort_key`."""
    return Corpus(
        assignments=[HashtagAssignment(u, tw, ht, ts) for ts, tw, ht, u in sorted(rows)],
        network=network,
        seed_users=frozenset(network.edges),
        tweet_index=tweet_index,
        n_malformed_lines=n_malformed_lines,
    )


@dataclass(frozen=True)
class CorpusStats:
    """Headline corpus counts: seed users, users, tweets, hashtags, assignments."""

    n_seed_users: int
    n_users: int
    n_tweets: int
    n_distinct_hashtags: int
    n_assignments: int

    def to_json_dict(self) -> dict[str, int]:
        return {
            "seed_users": self.n_seed_users,
            "users": self.n_users,
            "tweets": self.n_tweets,
            "distinct_hashtags": self.n_distinct_hashtags,
            "hashtag_assignments": self.n_assignments,
        }


def compute_stats(corpus: Corpus) -> CorpusStats:
    """Exact, deterministic corpus counts."""
    return CorpusStats(
        n_seed_users=len(corpus.seed_users),
        n_users=len(corpus.all_users()),
        n_tweets=len(corpus.tweet_index),
        n_distinct_hashtags=len({a.hashtag for a in corpus.assignments}),
        n_assignments=len(corpus.assignments),
    )


def _tsv_fields(line: str) -> tuple | None:
    """`user \t tweet \t ts \t hashtag`: one assignment per line."""
    line = line.rstrip("\r\n")
    if not line:
        return None
    parts = line.split("\t")
    if len(parts) != 4:
        raise ValueError(f"expected 4 tab-separated fields, got {len(parts)}")
    user_id, tweet_id, ts_raw, ht_raw = parts
    if not user_id or not tweet_id:
        raise ValueError("empty user or tweet id")
    ts = int(ts_raw)
    if ts <= 0:
        raise ValueError(f"non-positive timestamp {ts}")
    return user_id, tweet_id, ts, (ht_raw,)


def _jsonl_fields(line: str) -> tuple | None:
    """`{"user": ..., "tweet": ..., "ts": ..., "hashtags": [...]}`: one tweet
    per line, possibly with no hashtags."""
    line = line.strip()
    if not line:
        return None
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object per line")
    user_id = obj["user"]
    tweet_id = obj["tweet"]
    ts = obj["ts"]
    raw_tags = obj["hashtags"]
    if not isinstance(user_id, str) or not user_id:
        raise ValueError("bad 'user' field")
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("bad 'tweet' field")
    if not isinstance(ts, int) or isinstance(ts, bool) or ts <= 0:
        raise ValueError(f"bad 'ts' field: {ts!r}")
    if not isinstance(raw_tags, list):
        raise ValueError("'hashtags' must be a list")
    if not all(isinstance(t, str) for t in raw_tags):
        raise ValueError("'hashtags' must hold strings")
    return user_id, tweet_id, ts, raw_tags


def _read_assignments(
    path: Path, fmt: str, on_malformed: str
) -> tuple[dict[str, tuple[str, int]], dict[_Row, None], int]:
    """(tweet_index, rows, malformed line count) of an assignments file. A
    line is kept whole or not at all. Only successful normalizations are
    cached, so a bad raw tag fails on every line that carries it."""
    fields_of = _tsv_fields if fmt == "tsv" else _jsonl_fields
    tweet_index: dict[str, tuple[str, int]] = {}
    rows: dict[_Row, None] = {}
    users: dict[str, str] = {}  # interned user ids
    normalized: dict[str, str] = {}  # raw hashtag -> normalize_hashtag(raw)
    n_bad = 0
    # JSONL reads with universal newlines; TSV keeps a lone '\r' in a line
    with path.open("r", encoding="utf-8-sig", newline="" if fmt == "tsv" else None) as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                fields = fields_of(line)
                if fields is None:
                    continue
                user_id, tweet_id, ts, raw_tags = fields
                tags = []
                for raw in raw_tags:
                    ht = normalized.get(raw)
                    if ht is None:
                        ht = normalized[raw] = normalize_hashtag(raw)
                    tags.append(ht)
                user_id = users.setdefault(user_id, user_id)
                meta = (user_id, ts)
                if tweet_index.setdefault(tweet_id, meta) != meta:
                    raise ValueError(
                        f"tweet {tweet_id!r} already seen with different user/timestamp"
                    )
            except (ValueError, KeyError, EmptyAfterNormalization) as exc:
                n_bad += 1
                if on_malformed == "raise":
                    raise ParseError(line_no, str(exc), str(path)) from exc
                log.warning("%s:%d: skipping malformed line: %s", path, line_no, exc)
                continue
            for ht in tags:
                rows[ts, tweet_id, ht, user_id] = None
    if n_bad:
        log.warning("%s: %d malformed line(s) skipped", path, n_bad)
    return tweet_index, rows, n_bad


def _load_network(path: Path) -> FollowNetwork:
    """Network TSV: `seed \t followee` per edge; a single-column row declares a
    seed with no followees. Seeds are exactly the column-1 ids."""
    edges: dict[str, set[str]] = {}
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (1, 2) or not parts[0]:
                raise ParseError(line_no, "expected 1 or 2 tab-separated fields", str(path))
            seed = parts[0]
            edges.setdefault(seed, set())
            if len(parts) == 2:
                followee = parts[1]
                if not followee:
                    raise ParseError(line_no, "empty followee id", str(path))
                if followee == seed:
                    raise InconsistentNetwork(
                        f"{path}:{line_no}: seed user {seed!r} follows itself"
                    )
                edges[seed].add(followee)
    return FollowNetwork({seed: frozenset(f) for seed, f in edges.items()})


def load_corpus(
    assignments_path: str | Path,
    network_path: str | Path,
    fmt: str = "tsv",
    on_malformed: str = "raise",
) -> Corpus:
    """Parse, normalize, validate and index a dataset.

    One pass with cyclic gc paused: each line is validated once, each
    distinct raw hashtag normalized once and user ids interned. The result
    equals `Corpus.from_tweets` over the file's valid tweet records.

    Lines may end in LF or CRLF, and a leading UTF-8 byte-order mark is
    skipped. `on_malformed` is "raise" (default: first bad line raises
    ParseError) or "count" (bad lines are logged, counted on the returned
    corpus, and skipped; never silently dropped).
    """
    if on_malformed not in ("raise", "count"):
        raise ValueError(f"on_malformed must be 'raise' or 'count', got {on_malformed!r}")
    apath, npath = Path(assignments_path), Path(network_path)
    for p in (apath, npath):
        if not p.is_file():
            raise FileNotFoundError(f"input file not found: {p}")
    if fmt not in ("tsv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r} (expected 'tsv' or 'jsonl')")

    network = _load_network(npath)
    with _gc_paused():
        tweet_index, rows, n_bad = _read_assignments(apath, fmt, on_malformed)
        corpus = _assemble(network, tweet_index, rows, n_bad)
    log.info(
        "loaded %d assignments, %d tweets, %d seed users from %s",
        len(corpus.assignments), len(corpus.tweet_index), len(corpus.seed_users), apath,
    )
    return corpus


def write_corpus(
    corpus: Corpus,
    assignments_path: str | Path,
    network_path: str | Path,
    fmt: str = "tsv",
) -> None:
    """Serialize a corpus back to its file formats, canonically ordered.

    TSV cannot represent tweets without hashtags; use jsonl to round-trip
    corpora that contain them. Each file is written atomically (see
    atomic_open): a failed write leaves the previous file in place.
    """
    if fmt not in ("tsv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r} (expected 'tsv' or 'jsonl')")
    with atomic_open(assignments_path) as fh:
        if fmt == "tsv":
            for a in corpus.assignments:
                fh.write(f"{a.user_id}\t{a.tweet_id}\t{a.timestamp}\t{a.hashtag}\n")
        else:
            tags_by_tweet: dict[str, list[str]] = {t: [] for t in corpus.tweet_index}
            for a in corpus.assignments:
                tags_by_tweet[a.tweet_id].append(a.hashtag)
            for tweet_id in sorted(
                corpus.tweet_index, key=lambda t: (corpus.tweet_index[t][1], t)
            ):
                user_id, ts = corpus.tweet_index[tweet_id]
                obj = {
                    "user": user_id,
                    "tweet": tweet_id,
                    "ts": ts,
                    "hashtags": sorted(tags_by_tweet[tweet_id]),
                }
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
    with atomic_open(network_path) as fh:
        for seed in sorted(corpus.network.edges):
            followees = sorted(corpus.network.edges[seed])
            if not followees:
                fh.write(f"{seed}\n")
            for f in followees:
                fh.write(f"{seed}\t{f}\n")
