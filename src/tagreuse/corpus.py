"""Dataset model: hashtag assignments, the follow network, and corpus statistics.

A corpus holds its hashtag assignments (one (user, tweet, hashtag,
timestamp) event each) as four parallel columns in strict
(timestamp, tweet, hashtag) order: `ts` (int64 Unix seconds), `user` and
`tag` (int32 ids into the `users` and `tags` tables) and `tweets` (tweet
id strings). The tables list each distinct user id and hashtag in order
of first appearance in the columns, so corpora with the same rows have
the same tables. `tweet_index` maps every tweet, including tweets without
hashtags, to its (user, timestamp), and a static follow network maps each
seed user to the set of accounts they follow. `Corpus.assignments` is a
list of `HashtagAssignment` objects over the same rows, built on first
read and cached for callers that want objects; the package itself reads
only the columns. Everything downstream reads this structure and never
mutates it.

`load_corpus` reads a file once, in chunks of lines. A TSV chunk is
checked with bulk string and list operations; only a chunk that fails a
check (it holds a malformed line), and every JSONL chunk, goes to the line
reader, which raises and counts exactly as a line-at-a-time parser does.
The rows of a load and of `Corpus.from_tweets` go through one assembly
step, which sorts and deduplicates rows not already in strict order, so
every route gives the same corpus.
"""

from __future__ import annotations

import gc
import json
import logging
import operator
import os
import unicodedata
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

log = logging.getLogger(__name__)

# One parsed tweet: (user_id, tweet_id, timestamp, hashtags).
TweetRecord = tuple[str, str, int, tuple[str, ...]]

MAX_TIMESTAMP = 2**63 - 1  # largest value of the int64 `ts` column
# Characters per `readlines` call of the assignments reader: enough lines to
# amortize the per-chunk work, few enough that the chunk's split fields
# stay small next to the corpus itself.
_CHUNK_CHARS = 1 << 18


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


def _intern(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """(table, ids): the distinct values in order of first appearance, and
    each value's int32 index into that table."""
    table = list(dict.fromkeys(values))
    id_of = dict(zip(table, range(len(table))))
    return table, np.fromiter(map(id_of.__getitem__, values), np.int32, len(values))


class Corpus:
    """Immutable, validated dataset. Safe for shared read-only access.

    The assignments are the parallel columns `ts`, `user`, `tag` and
    `tweets` (see the module docstring); `users[user[i]]` and
    `tags[tag[i]]` are the user id and hashtag of row i. Two corpora are
    equal when their rows, network, seed users and tweet index are.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        assignments: Iterable[HashtagAssignment],
        network: FollowNetwork,
        seed_users: frozenset[str],
        tweet_index: dict[str, tuple[str, int]],  # tweet_id -> (user_id, timestamp)
        n_malformed_lines: int = 0,
    ):
        """The corpus of `assignments` in the given order, which `validate`
        checks."""
        assignments = list(assignments)
        self._set(
            [a.timestamp for a in assignments], [a.tweet_id for a in assignments],
            [a.user_id for a in assignments], [a.hashtag for a in assignments],
            network, seed_users, tweet_index, n_malformed_lines,
        )
        self._assignments = assignments

    @classmethod
    def from_columns(
        cls,
        ts: Sequence[int],
        tweets: Sequence[str],
        users: Sequence[str],
        tags: Sequence[str],
        network: FollowNetwork,
        tweet_index: dict[str, tuple[str, int]],
        n_malformed_lines: int = 0,
    ) -> "Corpus":
        """The corpus of parallel, time-sorted columns of timestamps, tweet
        ids, user ids and normalized hashtags; the seed users are the
        network's."""
        corpus = cls.__new__(cls)
        corpus._set(ts, tweets, users, tags, network, frozenset(network.edges), tweet_index,
                    n_malformed_lines)
        return corpus

    def _set(self, ts, tweets, users, tags, network, seed_users, tweet_index,
             n_malformed_lines) -> None:
        if not len(ts) == len(tweets) == len(users) == len(tags):
            raise ValueError("corpus columns differ in length")
        self.ts = np.array(ts, dtype=np.int64)
        self.users, self.user = _intern(users)
        self.tags, self.tag = _intern(tags)
        self.tweets = list(tweets)
        self.network = network
        self.seed_users = seed_users
        self.tweet_index = tweet_index
        self.n_malformed_lines = n_malformed_lines
        self._assignments: list[HashtagAssignment] | None = None

    @cached_property
    def tag_ids(self) -> dict[str, int]:
        """Hashtag -> its id, the index into `tags`; built on first read."""
        return dict(zip(self.tags, range(len(self.tags))))

    @property
    def assignments(self) -> list[HashtagAssignment]:
        """The rows as objects, in column order; built on first read."""
        if self._assignments is None:
            # A row's timestamp is its tweet's (see validate): reading it from
            # the tweet index shares that int object instead of making a new one.
            self._assignments = list(map(
                HashtagAssignment,
                map(self.users.__getitem__, memoryview(self.user)),
                self.tweets,
                map(self.tags.__getitem__, memoryview(self.tag)),
                map(operator.itemgetter(1), map(self.tweet_index.__getitem__, self.tweets)),
            ))
        return self._assignments

    def __eq__(self, other: object) -> bool:
        # The tables follow first appearance, so equal rows mean equal ids.
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.tweets == other.tweets
            and self.users == other.users
            and self.tags == other.tags
            and np.array_equal(self.ts, other.ts)
            and np.array_equal(self.user, other.user)
            and np.array_equal(self.tag, other.tag)
            and self.network == other.network
            and self.seed_users == other.seed_users
            and self.tweet_index == other.tweet_index
        )

    def __repr__(self) -> str:
        return (f"Corpus({len(self.tweets)} assignments, {len(self.tweet_index)} tweets, "
                f"{len(self.seed_users)} seed users)")

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
            rows = _Rows({}, [], [], [], [], {}, {})
            for user_id, tweet_id, ts, hashtags in tweets:
                meta = (user_id, ts)
                if rows.tweet_index.setdefault(tweet_id, meta) != meta:
                    raise CorpusError(f"tweet {tweet_id!r} appears with conflicting metadata")
                rows.add(user_id, tweet_id, ts, hashtags)
            return _assemble(FollowNetwork(net), rows, n_malformed_lines)

    def all_users(self) -> frozenset[str]:
        """Every distinct user id in the assignments or the network."""
        return frozenset(chain(map(operator.itemgetter(0), self.tweet_index.values()),
                               self.seed_users, *self.network.edges.values()))

    def validate(self) -> None:
        """Check corpus invariants on the columns; raises CorpusError on
        violation."""
        for seed in self.seed_users:
            if seed not in self.network.edges:
                raise InconsistentNetwork(f"seed {seed!r} missing from network")
        prev_key: tuple[int, str, str] | None = None
        users, tags = self.users, self.tags
        for u, tweet_id, t, ts in zip(memoryview(self.user), self.tweets, memoryview(self.tag),
                                      memoryview(self.ts)):
            a = HashtagAssignment(users[u], tweet_id, tags[t], ts)
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


class _Rows(NamedTuple):
    """Assignment rows in input order, as columns, with the tweet index; and
    the interned user ids and normalized-tag cache that a file load builds
    them from."""

    tweet_index: dict[str, tuple[str, int]]
    ts: list[int]
    tweets: list[str]
    users: list[str]
    tags: list[str]
    interned: dict[str, str]  # user id -> its first string object
    normalized: dict[str, str]  # raw hashtag -> normalize_hashtag(raw)

    def add(self, user_id: str, tweet_id: str, ts: int, tags: Iterable[str]) -> None:
        """Append a tweet's row for each of its hashtags."""
        for ht in tags:
            self.ts.append(ts)
            self.tweets.append(tweet_id)
            self.users.append(user_id)
            self.tags.append(ht)


def _assemble(network: FollowNetwork, rows: _Rows, n_malformed_lines: int) -> Corpus:
    """The corpus of validated rows. Rows in strict (timestamp, tweet,
    hashtag) order are its columns as they are; others are sorted, which
    is linear on a nearly sorted input, and deduplicated. A tweet has one
    (user, timestamp), so rows sort like `HashtagAssignment.sort_key`."""
    ts, tweets, users, tags = rows.ts, rows.tweets, rows.users, rows.tags
    keys = zip(ts, tweets, tags)
    if not (all(map(operator.lt, ts, islice(ts, 1, None)))  # ties: whole keys
            or all(map(operator.lt, keys, islice(zip(ts, tweets, tags), 1, None)))):
        srt = sorted(zip(ts, tweets, tags, users))
        ts, tweets, tags, users = zip(*compress(  # equal rows are neighbours once sorted
            srt, chain((True,), map(operator.ne, islice(srt, 1, None), srt))))
    return Corpus.from_columns(ts, tweets, users, tags, network, rows.tweet_index,
                               n_malformed_lines)


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
        n_distinct_hashtags=len(corpus.tags),
        n_assignments=len(corpus.tweets),
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
    if ts > MAX_TIMESTAMP:
        raise ValueError(f"timestamp {ts} exceeds {MAX_TIMESTAMP}")
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
    user_id, tweet_id, ts, raw_tags = obj["user"], obj["tweet"], obj["ts"], obj["hashtags"]
    if not isinstance(user_id, str) or not user_id:
        raise ValueError("bad 'user' field")
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("bad 'tweet' field")
    if not isinstance(ts, int) or isinstance(ts, bool) or not 0 < ts <= MAX_TIMESTAMP:
        raise ValueError(f"bad 'ts' field: {ts!r}")
    if not isinstance(raw_tags, list):
        raise ValueError("'hashtags' must be a list")
    if not all(isinstance(t, str) for t in raw_tags):
        raise ValueError("'hashtags' must hold strings")
    return user_id, tweet_id, ts, raw_tags


def _add_tsv_chunk(rows: _Rows, chunk: list[str]) -> bool:
    """Add a chunk of TSV lines to `rows` with bulk string and list
    operations if they find every line well formed and in agreement with
    its tweet's first line; otherwise leave `rows` as it was and return
    False. Each new raw hashtag is normalized once."""
    lines = list(filter(None, map(str.rstrip, chunk, repeat("\r\n"))))
    if not lines:
        return True
    if set(map(str.count, lines, repeat("\t"))) != {3}:
        return False
    fields = "\t".join(lines).split("\t")
    users, tweets, raw_tags = fields[0::4], fields[1::4], fields[3::4]
    if "" in users or "" in tweets:
        return False
    try:
        ts = list(map(int, fields[2::4]))
        new_tags = {raw: normalize_hashtag(raw)
                    for raw in dict.fromkeys(raw_tags).keys() - rows.normalized.keys()}
    except (ValueError, EmptyAfterNormalization):
        return False
    if min(ts) <= 0 or max(ts) > MAX_TIMESTAMP:
        return False
    interned, tweet_index = rows.interned, rows.tweet_index
    n_users, n_tweets = len(interned), len(tweet_index)
    users = list(map(interned.setdefault, users, users))
    metas = list(zip(users, ts))
    # setdefault keeps each tweet's first (user, timestamp), so a line agrees with
    # its tweet when it gets its own back; popping the entries added undoes the chunk.
    if list(map(tweet_index.setdefault, tweets, metas)) != metas:
        for d, n in ((interned, n_users), (tweet_index, n_tweets)):
            for _ in range(len(d) - n):
                d.popitem()
        return False
    rows.normalized.update(new_tags)
    rows.ts.extend(ts)
    rows.tweets.extend(tweets)
    rows.users.extend(users)
    rows.tags.extend(map(rows.normalized.__getitem__, raw_tags))
    return True


def _add_lines(rows: _Rows, chunk: list[str], n_before: int,
               fields_of: Callable[[str], tuple | None], on_malformed: str, path: Path) -> int:
    """Add the well-formed lines of a chunk to `rows` one at a time, the
    chunk's lines numbered from `n_before + 1`; returns the number of
    malformed lines. A line is kept whole or not at all. Only successful
    normalizations are cached, so a bad raw tag fails on every line that
    carries it."""
    tweet_index, interned, normalized = rows.tweet_index, rows.interned, rows.normalized
    n_bad = 0
    for line_no, line in enumerate(chunk, n_before + 1):
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
            user_id = interned.setdefault(user_id, user_id)
            meta = (user_id, ts)
            if tweet_index.setdefault(tweet_id, meta) != meta:
                raise ValueError(f"tweet {tweet_id!r} already seen with different user/timestamp")
        except (ValueError, KeyError, EmptyAfterNormalization) as exc:
            n_bad += 1
            if on_malformed == "raise":
                raise ParseError(line_no, str(exc), str(path)) from exc
            log.warning("%s:%d: skipping malformed line: %s", path, line_no, exc)
            continue
        rows.add(user_id, tweet_id, ts, tags)
    return n_bad


def _read_assignments(path: Path, fmt: str, on_malformed: str) -> tuple[_Rows, int]:
    """The rows and tweet index of an assignments file, and its malformed
    line count. The file is read once, in chunks of lines: a TSV chunk goes
    through the bulk checks of `_add_tsv_chunk`, and only a chunk that
    fails them, or a JSONL chunk, goes through `_add_lines`."""
    fields_of = _tsv_fields if fmt == "tsv" else _jsonl_fields
    rows = _Rows({}, [], [], [], [], {}, {})
    n_read = n_bad = 0
    # Both formats end a line at '\n', '\r\n' or a lone '\r'; newline=""
    # keeps the ending on the line for the field readers to strip.
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        while chunk := fh.readlines(_CHUNK_CHARS):
            if fmt == "jsonl" or not _add_tsv_chunk(rows, chunk):
                n_bad += _add_lines(rows, chunk, n_read, fields_of, on_malformed, path)
            n_read += len(chunk)
    if n_bad:
        log.warning("%s: %d malformed line(s) skipped", path, n_bad)
    return rows, n_bad


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

    Cyclic gc is paused throughout. The file is read once, in chunks; a TSV
    chunk that fails the bulk checks, and any JSONL chunk, is read line by
    line. Either way each line is validated once, each distinct raw
    hashtag normalized once and user ids interned, and the result equals
    `Corpus.from_tweets` over the file's valid tweet records.

    Lines may end in LF, CRLF or a lone CR, and a leading UTF-8 byte-order
    mark is skipped. `on_malformed` is "raise" (default: first bad line raises
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
        corpus = _assemble(network, *_read_assignments(apath, fmt, on_malformed))
    log.info(
        "loaded %d assignments, %d tweets, %d seed users from %s",
        len(corpus.tweets), len(corpus.tweet_index), len(corpus.seed_users), apath,
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
    tags = list(map(corpus.tags.__getitem__, memoryview(corpus.tag)))
    with atomic_open(assignments_path) as fh:
        if fmt == "tsv":
            rows = zip(map(corpus.users.__getitem__, memoryview(corpus.user)), corpus.tweets,
                       memoryview(corpus.ts), tags)
            for user_id, tweet_id, ts, ht in rows:
                fh.write(f"{user_id}\t{tweet_id}\t{ts}\t{ht}\n")
        else:
            tags_by_tweet: dict[str, list[str]] = {t: [] for t in corpus.tweet_index}
            for tweet_id, ht in zip(corpus.tweets, tags):
                tags_by_tweet[tweet_id].append(ht)
            for tweet_id in sorted(
                corpus.tweet_index, key=lambda t: (corpus.tweet_index[t][1], t)
            ):
                user_id, ts = corpus.tweet_index[tweet_id]
                obj = {"user": user_id, "tweet": tweet_id, "ts": ts,
                       "hashtags": sorted(tags_by_tweet[tweet_id])}
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
    with atomic_open(network_path) as fh:
        for seed in sorted(corpus.network.edges):
            followees = sorted(corpus.network.edges[seed])
            if not followees:
                fh.write(f"{seed}\n")
            for f in followees:
                fh.write(f"{seed}\t{f}\n")
