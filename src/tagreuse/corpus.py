"""Dataset model: hashtag assignments, the follow network, and corpus statistics.

A corpus holds its hashtag assignments (one (user, tweet, hashtag,
timestamp) event each) as four parallel row columns in strict
(timestamp, tweet, hashtag) order: `ts` (int64 Unix seconds) and `user`,
`tweet` and `tag` (int32 ids into the `users`, `tweet_ids` and `tags`
tables). `tweet_ids` lists every tweet, hashtag-less ones included, in
order of first appearance in the input; `tweet_user` (int32) and
`tweet_ts` (int64) give each tweet's user id and timestamp, which its rows
share. `tags` lists the hashtags in order of first appearance in the rows,
and `users` the users of the rows in that order and then, by user id, the
users seen only on hashtag-less tweets, so corpora with the same rows and
tweets have the same ids. A static follow network maps each seed user to
the set of accounts they follow. `Corpus.tweet_index` (tweet id -> (user,
timestamp)) and `Corpus.assignments` (`HashtagAssignment` objects) are
views built on first read and cached; the package itself reads only the
columns. Everything downstream reads this structure and never mutates it.

`load_corpus` reads a file once, as bytes, in chunks of whole lines. A
TSV chunk is one numpy program over its bytes: it finds the line ends and
tabs, checks that each line has four fields and a user and a tweet, reads
the timestamps by digit arithmetic (int() takes any field that is not 1 to
18 ASCII digits), and interns users and raw hashtags by sorting their
byte keys, so only the distinct ones are decoded. Only a chunk that the
program cannot prove well formed (it holds a malformed line), and every
JSONL chunk, is decoded to lines for the line reader, which raises and
counts exactly as a line-at-a-time parser does. A load and
`Corpus.from_tweets` feed one accumulator and one assembly step, which
sorts and deduplicates rows not already in strict order, so every route
gives the same corpus.
"""

from __future__ import annotations

import codecs
import gc
import io
import json
import logging
import operator
import os
import unicodedata
import uuid
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, filterfalse, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)

# One parsed tweet: (user_id, tweet_id, timestamp, hashtags).
TweetRecord = tuple[str, str, int, tuple[str, ...]]

MAX_TIMESTAMP = 2**63 - 1  # largest value of the int64 `ts` column
# Bytes per read of the assignments reader: enough lines to amortize the
# per-chunk work, few enough that a chunk's arrays stay small next to the
# corpus itself.
_CHUNK_BYTES = 1 << 18
# Up to this many ASCII digits a timestamp is read by digit arithmetic:
# 10**18 - 1 < MAX_TIMESTAMP.
_PLAIN_DIGITS = 18


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


@dataclass(frozen=True)
class FollowNetwork:
    """Static seed-user -> followee-set map. Keys define the seed users."""

    edges: dict[str, frozenset[str]]

    def __post_init__(self):
        _check_ids("user id", [*self.edges, *chain.from_iterable(self.edges.values())])

    def followees(self, user_id: str) -> frozenset[str]:
        try:
            return self.edges[user_id]
        except KeyError:
            raise NotSeedUser(f"no followee set known for user {user_id!r}") from None


def _check_ids(kind: str, ids: list[str]) -> None:
    """Raise CorpusError, in the JSONL reader's wording, on the first of ids
    that no TSV field can hold: an empty one, or one holding a tab, CR or
    LF. The scans run in C, the last three over the ids joined."""
    joined = "".join(ids)
    if all(ids) and "\t" not in joined and "\r" not in joined and "\n" not in joined:
        return
    bad = next(i for i in ids if not i or "\t" in i or "\r" in i or "\n" in i)
    raise CorpusError(f"bad {kind} {bad!r}: {kind}s are non-empty strings with no tab, CR or LF")


def _intern(ids: dict[str, int], values: list[str]) -> np.ndarray:
    """Each value's int32 id in `ids`, which gives new values the next ids."""
    new = list(filterfalse(ids.__contains__, dict.fromkeys(values)))
    ids.update(zip(new, range(len(ids), len(ids) + len(new))))
    return np.fromiter(map(ids.__getitem__, values), np.int32, len(values))


def first_of_runs(*keys: np.ndarray) -> np.ndarray:
    """Mask of the first position of each run of equal values in all keys."""
    first = np.zeros(len(keys[0]), dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return first


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of the ranges starts[i] + [0, lengths[i]), range by
    range, as the cumulative sum of their steps: one array is allocated."""
    starts, lengths = starts[lengths > 0], lengths[lengths > 0]
    ends = np.cumsum(lengths)
    steps = np.ones(ends[-1] if len(ends) else 0, dtype=np.int64)
    steps[:1] = starts[:1]
    steps[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(steps, out=steps)


def _by_first_use(table: list[str], uses: np.ndarray, *columns: np.ndarray) -> tuple:
    """(table, *columns) with ids renumbered by first use in `uses`; unused ids are dropped."""
    top = np.maximum.accumulate(uses)
    if len(uses) and top[0] == 0 and (np.diff(top) <= 1).all():  # first used in id order
        if top[-1] + 1 == len(table):
            return (table, *columns)
        order = np.arange(top[-1] + 1)
    else:
        first = np.full(len(table), len(uses))
        np.minimum.at(first, uses, np.arange(len(uses)))
        order = np.flatnonzero(first < len(uses))
        order = order[np.argsort(first[order])]
    new_id = np.zeros(len(table), np.int32)
    new_id[order] = np.arange(len(order))
    return ([table[i] for i in order.tolist()], *(new_id[c] for c in columns))


def string_ranks(table: list[str], ids: np.ndarray) -> np.ndarray:
    """Rank of each table[ids[i]] among the strings of ids."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    names = list(map(table.__getitem__, distinct.tolist()))
    # the inverse of the sorting permutation ranks each distinct id
    return np.argsort(sorted(range(len(names)), key=names.__getitem__))[inverse]


def _order_break(ts: np.ndarray, tweet: np.ndarray, tag: np.ndarray,
                 tweet_ids: list[str], tags: list[str]) -> int | None:
    """The first row whose (timestamp, tweet id, hashtag) key is not above the
    previous row's, or None; strings are compared only where timestamps tie."""
    later = ts[1:] > ts[:-1]
    if later.all():
        return None
    bad = ts[1:] < ts[:-1]
    tie = np.flatnonzero(~(later | bad))
    same = tweet[tie] == tweet[tie + 1]
    for ids, table, pairs in ((tag, tags, tie[same]), (tweet, tweet_ids, tie[~same])):
        names = (map(table.__getitem__, memoryview(ids[p])) for p in (pairs, pairs + 1))
        bad[pairs] = ~np.fromiter(map(operator.lt, *names), bool, len(pairs))
    breaks = np.flatnonzero(bad)
    return int(breaks[0]) + 1 if len(breaks) else None


class Corpus:
    """Immutable, validated dataset. Safe for shared read-only access.

    Row i has user `users[user[i]]`, tweet `tweet_ids[tweet[i]]`, hashtag
    `tags[tag[i]]` and timestamp `ts[i]`; equal corpora have equal rows,
    tweets, network and seed users (see the module docstring)."""

    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_columns(cls, tweet: np.ndarray, tag: np.ndarray, tweet_user: np.ndarray,
                     tweet_ts: np.ndarray, users: list[str], tweet_ids: list[str],
                     tags: list[str], network: FollowNetwork,
                     n_malformed_lines: int = 0) -> "Corpus":
        """The corpus of rows in strict (timestamp, tweet, hashtag) order, as
        int32 tweet and tag ids, and of the tweets' int32 user ids and int64
        timestamps; the seed users are the network's. The tables may list
        unused ids. User and tag ids become canonical (module docstring).
        CorpusError if a used user id or hashtag, or any tweet id, is one no
        TSV field can hold (see _check_ids)."""
        if len(tweet) != len(tag) or len(tweet_user) != len(tweet_ts):
            raise ValueError("corpus columns differ in length")
        self = cls.__new__(cls)
        user = tweet_user[tweet]
        tagless_only = np.zeros(len(users), dtype=bool)
        tagless_only[tweet_user] = True
        tagless_only[user] = False
        tail = sorted(np.flatnonzero(tagless_only).tolist(), key=users.__getitem__)
        self.users, self.tweet_user, self.user = _by_first_use(
            users, np.append(user, np.array(tail, np.int32)) if tail else user, tweet_user, user)
        self.tags, self.tag = _by_first_use(tags, tag, tag)
        for kind, ids in (("user id", self.users), ("tweet id", tweet_ids), ("hashtag", self.tags)):
            _check_ids(kind, ids)
        self.ts = tweet_ts[tweet]
        self.tweet, self.tweet_ts, self.tweet_ids = tweet, tweet_ts, tweet_ids
        self.network, self.seed_users = network, frozenset(network.edges)
        self.n_malformed_lines = n_malformed_lines
        return self

    @cached_property
    def tag_ids(self) -> dict[str, int]:
        """Hashtag -> its id, the index into `tags`; built on first read."""
        return dict(zip(self.tags, range(len(self.tags))))

    @cached_property
    def user_ids(self) -> dict[str, int]:
        """User id -> its id, the index into `users`; built on first read."""
        return dict(zip(self.users, range(len(self.users))))

    @cached_property
    def assignments(self) -> list[HashtagAssignment]:
        """The rows as objects, in column order; built on first read."""
        return list(map(
            HashtagAssignment,
            map(self.users.__getitem__, memoryview(self.user)),
            map(self.tweet_ids.__getitem__, memoryview(self.tweet)),
            map(self.tags.__getitem__, memoryview(self.tag)),
            memoryview(self.ts),
        ))

    def _tweet_dict(self) -> dict[str, tuple[str, int]]:
        """Tweet id -> (user id, timestamp), in table order."""
        users = map(self.users.__getitem__, memoryview(self.tweet_user))
        return dict(zip(self.tweet_ids, zip(users, memoryview(self.tweet_ts))))

    tweet_index = cached_property(_tweet_dict)  # built on first read

    def __eq__(self, other: object) -> bool:
        # The user and tag ids are canonical; the tweet tables may differ in order.
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            (self.users, self.tags, self.network, self.seed_users)
            == (other.users, other.tags, other.network, other.seed_users)
            and all(np.array_equal(getattr(self, c), getattr(other, c))
                    for c in ("ts", "user", "tag"))
            and list(map(self.tweet_ids.__getitem__, memoryview(self.tweet)))
            == list(map(other.tweet_ids.__getitem__, memoryview(other.tweet)))
            and self._tweet_dict() == other._tweet_dict()
        )

    def __repr__(self) -> str:
        return (f"Corpus({len(self.tag)} assignments, {len(self.tweet_ids)} tweets, "
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
        (timestamp, tweet_id, hashtag) and keeps every tweet, including
        tweets that carry no hashtags.
        """
        net: dict[str, frozenset[str]] = {}
        for seed, followees in edges.items():
            fset = frozenset(followees)
            if seed in fset:
                raise InconsistentNetwork(f"seed user {seed!r} follows itself")
            net[seed] = fset
        with _gc_paused():
            rows = _Rows()
            for user_id, tweet_id, ts, hashtags in tweets:
                if not rows.add(user_id, tweet_id, ts, map(rows.tag_id, hashtags)):
                    raise CorpusError(f"tweet {tweet_id!r} appears with conflicting metadata")
            return _assemble(FollowNetwork(net), rows, n_malformed_lines)

    def all_users(self) -> frozenset[str]:
        """Every distinct user id in the tweets or the network."""
        return frozenset(chain(self.users, self.seed_users, *self.network.edges.values()))

    def validate(self) -> None:
        """Check corpus invariants on the columns; raises CorpusError."""
        for ht in self.tags:
            if normalize_hashtag(ht) != ht:
                raise CorpusError(f"hashtag not normalized: {ht!r}")
        if len(self.ts) and self.ts.min() <= 0:
            raise CorpusError(f"non-positive timestamp on {self.assignments[np.argmin(self.ts)]}")
        i = _order_break(self.ts, self.tweet, self.tag, self.tweet_ids, self.tags)
        if i is not None:
            raise CorpusError(f"assignments not in strict sort order at {self.assignments[i]}")


class _Rows:
    """What a load or `Corpus.from_tweets` has read: rows as int32 tweet
    slot and tag ids, and each slot's user id and timestamp. A tweet is
    known by its first slot; the bulk TSV reader gives every line a slot,
    the line reader only a new tweet. Ids follow first appearance."""

    def __init__(self) -> None:
        self.user_ids, self.tweet_slot, self.tag_ids = {}, {}, {}  # -> user id, first slot, tag id
        self.normalized: dict[str, int] = {}  # raw hashtag -> tag id of its normal form
        self.slot_user, self.slot_ts, self.tweet, self.tag = map(array, "iqii")  # int32/64

    def tag_id(self, hashtag: str) -> int:
        return self.tag_ids.setdefault(hashtag, len(self.tag_ids))

    def add(self, user_id: str, tweet_id: str, ts: int, tag_ids: Iterable[int]) -> bool:
        """Add a tweet's row for each of its tag ids; False, with no row
        added, if the tweet was seen before with another user or timestamp."""
        user = self.user_ids.setdefault(user_id, len(self.user_ids))
        slot = self.tweet_slot.setdefault(tweet_id, len(self.slot_ts))
        if slot == len(self.slot_ts):
            self.slot_user.append(user)
            self.slot_ts.append(ts)
        elif (self.slot_user[slot], self.slot_ts[slot]) != (user, ts):
            return False
        for tag in tag_ids:
            self.tweet.append(slot)
            self.tag.append(tag)
        return True


def _assemble(network: FollowNetwork, rows: _Rows, n_malformed_lines: int) -> Corpus:
    """The corpus of validated rows. Rows out of strict (timestamp, tweet,
    hashtag) order are sorted by timestamp, near-linear when nearly sorted,
    then rows that tie on it by their tweet id and hashtag string ranks;
    equal neighbours are dropped. A tweet has one timestamp, so rows sort
    by (timestamp, tweet id, hashtag)."""
    tweet_ids, tags = list(rows.tweet_slot), list(rows.tag_ids)
    first_slot = np.fromiter(rows.tweet_slot.values(), np.int32, len(tweet_ids))  # ascending
    rows.tweet_slot.clear()  # the largest dict of a load; the list keeps its keys
    arrays = (rows.slot_user, rows.slot_ts, rows.tweet, rows.tag)
    tweet_user, tweet_ts, tweet, tag = (np.frombuffer(a, a.typecode) for a in arrays)
    if len(first_slot) < len(tweet_ts):  # slots of later lines of a tweet
        tweet_of_slot = np.zeros(len(tweet_ts), np.int32)
        tweet_of_slot[first_slot] = np.arange(len(first_slot))
        tweet = tweet_of_slot[tweet]
        tweet_user, tweet_ts = tweet_user[first_slot], tweet_ts[first_slot]
    ts = tweet_ts[tweet]
    if _order_break(ts, tweet, tag, tweet_ids, tags) is not None:
        order = np.argsort(ts, kind="stable")
        tied = ts[order[1:]] == ts[order[:-1]]
        in_tie = np.append(tied, False) | np.append(False, tied)
        group = np.cumsum(np.append(True, ~tied))[in_tie]
        sub = order[in_tie]
        order[in_tie] = sub[np.lexsort((string_ranks(tags, tag[sub]),
                                        string_ranks(tweet_ids, tweet[sub]), group))]
        tweet, tag = tweet[order], tag[order]
        keep = np.ones(len(tweet), dtype=bool)
        keep[1:] = (tweet[1:] != tweet[:-1]) | (tag[1:] != tag[:-1])
        tweet, tag = tweet[keep], tag[keep]
    return Corpus.from_columns(tweet, tag, tweet_user, tweet_ts, list(rows.user_ids), tweet_ids,
                               tags, network, n_malformed_lines)


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
        n_tweets=len(corpus.tweet_ids),
        n_distinct_hashtags=len(corpus.tags),
        n_assignments=len(corpus.tag),
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
    for name, value in (("user", user_id), ("tweet", tweet_id)):  # as a TSV field, too
        if not isinstance(value, str) or not value or any(c in value for c in "\t\r\n"):
            raise ValueError(f"bad {name!r} field: ids are non-empty strings with no tab, CR or LF")
    if not isinstance(ts, int) or isinstance(ts, bool) or not 0 < ts <= MAX_TIMESTAMP:
        raise ValueError(f"bad 'ts' field: {ts!r}")
    if not isinstance(raw_tags, list):
        raise ValueError("'hashtags' must be a list")
    if not all(isinstance(t, str) for t in raw_tags):
        raise ValueError("'hashtags' must hold strings")
    return user_id, tweet_id, ts, raw_tags


def _strings(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list[str]:
    """The fields buf[start:start + len], decoded as UTF-8 by one gather, one
    decode and one split. No field holds a tab, and a byte of `buf` follows
    each (its separator)."""
    text = buf[concat_ranges(starts, lens + 1)]  # each field and the byte after it
    text[np.cumsum(lens + 1) - 1] = ord("\t")
    return text.tobytes().decode().split("\t")[:-1]


_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # a word's first k bytes
# At [k + 1], a word's end mark at byte k, for k = -1..8: none before and after the word.
_END_MARK = np.array([0] + [0xFF << 8 * k for k in range(8)] + [0], np.uint64)


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An order that sorts `key`, and the mask of the first of each run of
    equal values in that order."""
    order = np.argsort(key)
    return order, first_of_runs(key[order])


def _distinct(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct fields buf[start:start + len], decoded, in order of first
    appearance, and each field's int32 index into them. Fields are grouped
    by exact byte keys: a field's bytes, an end mark 0xFF and zeros, as
    little-endian 8-byte words, so "t" and "t\\0" differ. One sort groups
    the fields by their first word, and each further word splits the groups
    by a sort of the word and one of (group, rank of the word). A key table
    that would outgrow four times the chunk (a few long fields) gives way
    to a dict over the decoded fields. `buf` ends in at least 8 more zeros
    than the longest field."""
    n = len(lens)
    width = int(lens.max()) // 8 + 1  # words per key, with room for the end mark
    if 8 * width * n > 4 * len(buf):
        ids: dict[str, int] = {}
        inverse = _intern(ids, _strings(buf, starts, lens))
        return list(ids), inverse
    keys = sliding_window_view(buf, 8 * width)[starts].view("<u8")
    for j, word in enumerate(keys.T):
        left = np.clip(lens - 8 * j, -1, 8)  # field bytes in this word; -1 past the end mark
        word &= _LOW_BYTES[np.maximum(left, 0)]
        word |= _END_MARK[left + 1]
    order, new = _runs(keys[:, 0])
    for word in keys.T[1:]:
        group = np.empty(n, np.int64)
        group[order] = np.cumsum(new) - 1
        by_word, new_word = _runs(word)
        group[by_word] = group[by_word] * n + np.cumsum(new_word) - 1  # below n * n < 2**63
        order, new = _runs(group)
    first = np.minimum.reduceat(order, np.flatnonzero(new))  # each key's first field
    by_appearance = np.argsort(first)
    group_id = np.empty(len(first), np.int32)
    group_id[by_appearance] = np.arange(len(first))
    inverse = np.empty(n, np.int32)
    inverse[order] = group_id[np.cumsum(new) - 1]
    first = first[by_appearance]
    return _strings(buf, starts[first], lens[first]), inverse


def _timestamps(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray | None:
    """The int64 value of each timestamp field, or None if one is not an
    int() in [1, MAX_TIMESTAMP]. A field of 1 to 18 ASCII digits is read by
    digit arithmetic (it fits an int64); any other goes through int().
    `buf` ends in at least 18 zeros."""
    width = min(max(int(lens.max()), 1), _PLAIN_DIGITS)
    # One row per digit place; bytes below '0' wrap past 9.
    digits = np.ascontiguousarray(sliding_window_view(buf, width)[starts].T) - ord("0")
    inside = np.arange(width)[:, None] < lens
    plain = (lens > 0) & (lens <= width) & ((digits <= 9) | ~inside).all(axis=0)
    ts = np.zeros(len(lens), np.int64)
    for place, into in zip(digits, inside):  # Horner's rule, digit by digit
        ts = np.where(into, ts * 10 + place, ts)
    for i in np.flatnonzero(~plain).tolist():
        try:
            value = int(buf[starts[i]:starts[i] + lens[i]].tobytes().decode())
        except ValueError:  # UnicodeDecodeError too: the line reader raises it again
            return None
        if not 0 < value <= MAX_TIMESTAMP:
            return None
        ts[i] = value
    return ts if ts.min() > 0 else None


def _add_tsv_bytes(rows: _Rows, chunk: bytes) -> int | None:
    """Add a chunk of TSV lines, each ended, to `rows` by array passes over
    its bytes, and return its line count, if they find every line well
    formed and in agreement with its tweet's first line; otherwise leave
    `rows` as it was and return None. Each distinct user and raw hashtag of
    the chunk is decoded once, and each new raw hashtag normalized once."""
    buf = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero((buf == ord("\n")) | (buf == ord("\r")))
    n_lines = len(ends) - np.count_nonzero(
        (ends[1:] == ends[:-1] + 1) & (buf[ends[:-1]] == ord("\r")) & (buf[ends[1:]] == ord("\n")))
    starts = np.append(0, ends[:-1] + 1)
    full = ends > starts  # blank lines, and the gap inside a CRLF, are empty
    starts, ends = starts[full], ends[full]
    n = len(starts)
    if not n:
        return n_lines
    tabs = np.flatnonzero(buf == ord("\t"))
    if len(tabs) != 3 * n:
        return None
    # With 3n tabs in all, each line holds exactly its own three when these hold.
    t0, t1, t2 = tabs.reshape(n, 3).T
    if not ((t0 > starts).all() and (t1 > t0 + 1).all() and (t2 < ends).all()):
        return None
    # Zeros past the chunk: a window as wide as a field plus a word, or as
    # a timestamp, stays inside.
    buf = np.concatenate((buf, np.zeros(int((ends - starts).max()) + _PLAIN_DIGITS, np.uint8)))
    ts = _timestamps(buf, t1 + 1, t2 - t1 - 1)
    if ts is None:
        return None
    raw_tags, raw_tag = _distinct(buf, t2 + 1, ends - t2 - 1)
    tag_of = np.fromiter(map(rows.normalized.get, raw_tags, repeat(-1)), np.int32, len(raw_tags))
    new = np.flatnonzero(tag_of < 0)
    new_tags = list(map(raw_tags.__getitem__, new.tolist()))
    try:
        normal = list(map(normalize_hashtag, new_tags))
    except (ValueError, EmptyAfterNormalization):
        return None
    users, user = _distinct(buf, starts, t0 - starts)
    tweets = _strings(buf, t0 + 1, t1 - t0 - 1)
    n_users, n_tweets, n_slots = len(rows.user_ids), len(rows.tweet_slot), len(rows.slot_ts)
    user = _intern(rows.user_ids, users)[user]
    # Line i takes slot n_slots + i; it agrees with its tweet if the tweet's first slot matches.
    slot = np.fromiter(map(rows.tweet_slot.setdefault, tweets, count(n_slots)), np.int32, n)
    rows.slot_user.frombytes(user.tobytes())
    rows.slot_ts.frombytes(ts.tobytes())
    if not (np.array_equal(np.frombuffer(rows.slot_user, np.int32)[slot], user)
            and np.array_equal(np.frombuffer(rows.slot_ts, np.int64)[slot], ts)):
        for d, k in ((rows.user_ids, n_users), (rows.tweet_slot, n_tweets)):
            for _ in range(len(d) - k):
                d.popitem()
        del rows.slot_user[n_slots:], rows.slot_ts[n_slots:]
        return None
    new_ids = list(map(rows.tag_id, normal))
    rows.normalized.update(zip(new_tags, new_ids))
    tag_of[new] = new_ids
    rows.tweet.frombytes(slot.tobytes())
    rows.tag.frombytes(tag_of[raw_tag].tobytes())
    return n_lines


def _add_lines(rows: _Rows, chunk: list[str], n_before: int,
               fields_of: Callable[[str], tuple | None], on_malformed: str, path: Path) -> int:
    """Add the well-formed lines of a chunk to `rows` one at a time, the
    chunk's lines numbered from `n_before + 1`; returns the number of
    malformed lines. A line is kept whole or not at all. Only successful
    normalizations are cached, so a bad raw tag fails on every line that
    carries it."""
    normalized = rows.normalized
    n_bad = 0
    for line_no, line in enumerate(chunk, n_before + 1):
        try:
            fields = fields_of(line)
            if fields is None:
                continue
            user_id, tweet_id, ts, raw_tags = fields
            tags = []
            for raw in raw_tags:
                tag = normalized.get(raw)
                if tag is None:
                    tag = normalized[raw] = rows.tag_id(normalize_hashtag(raw))
                tags.append(tag)
            if not rows.add(user_id, tweet_id, ts, tags):
                raise ValueError(f"tweet {tweet_id!r} already seen with different user/timestamp")
        except (ValueError, KeyError, EmptyAfterNormalization) as exc:
            n_bad += 1
            if on_malformed == "raise":
                raise ParseError(line_no, str(exc), str(path)) from exc
            log.warning("%s:%d: skipping malformed line: %s", path, line_no, exc)
    return n_bad


def _chunks(fh: io.BufferedReader) -> Iterator[bytes]:
    """The bytes of a file after a leading UTF-8 byte-order mark, in chunks
    of whole lines of about _CHUNK_BYTES. A line ends at LF, CRLF or a lone
    CR, so a chunk never ends between a CR and its LF. The file's last block
    is not cut, so a file of one block is one chunk; a last line with no
    ending is given a LF."""
    rest = bytearray(fh.read(len(codecs.BOM_UTF8)))
    if rest == codecs.BOM_UTF8:
        rest.clear()
    while block := fh.read(_CHUNK_BYTES):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        # A line longer than a block (or one that may end in CRLF), or the last block.
        if not cut or not fh.peek(1):
            rest += block
            continue
        view = memoryview(block)
        chunk, rest = b"".join((rest, view[:cut])), bytearray(view[cut:])
        del view, block  # only the chunk is held while it is read
        yield chunk
    if rest:
        yield bytes(rest) if rest.endswith((b"\n", b"\r")) else bytes(rest + b"\n")


def _lines(chunk: bytes) -> list[str]:
    """The chunk's lines, decoded, without their endings: the lines that
    readlines gives under newline="". str.splitlines would also split at
    \\x0b, \\x1c, \\x85 and \\u2028."""
    text = chunk.decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")[:-1]  # the chunk ends with a line end


def _read_assignments(path: Path, fmt: str, on_malformed: str) -> tuple[_Rows, int]:
    """The rows and tweets of an assignments file, and its malformed line
    count. The file is read once, as bytes, in chunks of whole lines: a TSV
    chunk goes through the array program of `_add_tsv_bytes`, and only
    a chunk that it cannot prove well formed, or a JSONL chunk, is decoded
    to lines for `_add_lines`. Bytes that are not UTF-8 raise
    UnicodeDecodeError."""
    fields_of = _tsv_fields if fmt == "tsv" else _jsonl_fields
    rows = _Rows()
    n_read = n_bad = 0
    with path.open("rb") as fh:
        for chunk in _chunks(fh):
            n_lines = _add_tsv_bytes(rows, chunk) if fmt == "tsv" else None
            if n_lines is None:
                lines = _lines(chunk)
                n_bad += _add_lines(rows, lines, n_read, fields_of, on_malformed, path)
                n_lines = len(lines)
            n_read += n_lines
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

    Cyclic gc is paused throughout. The file is read once, as bytes, in
    chunks of whole lines. A TSV chunk is read by one array program over
    its bytes (see the module docstring); a chunk that it cannot prove well
    formed, and any JSONL chunk, is decoded and read line by line. Either
    way each line is validated once, each distinct raw hashtag normalized
    once and user ids interned, and the result equals `Corpus.from_tweets`
    over the file's valid tweet records.

    Lines may end in LF, CRLF or a lone CR, and a leading UTF-8 byte-order
    mark is skipped; bytes that are not UTF-8 raise UnicodeDecodeError.
    `on_malformed` is "raise" (default: first bad line raises ParseError)
    or "count" (bad lines are logged, counted on the returned corpus, and
    skipped; never silently dropped).
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
        len(corpus.tag), len(corpus.tweet_ids), len(corpus.seed_users), apath,
    )
    return corpus


def _keep_leading_feff(fh: TextIO, first_id: str) -> None:
    """Write a byte-order mark ahead of a first id that starts with U+FEFF:
    the readers skip one leading mark, and keep the id's own."""
    if first_id.startswith("\ufeff"):
        fh.write("\ufeff")


def write_corpus(
    corpus: Corpus,
    assignments_path: str | Path,
    network_path: str | Path,
    fmt: str = "tsv",
) -> None:
    """Serialize a corpus back to its file formats, canonically ordered.

    TSV cannot represent tweets without hashtags; use jsonl to round-trip
    corpora that contain them. A TSV file whose first id starts with U+FEFF
    begins with a byte-order mark, so it reads back with that character.
    Each file is written atomically (see atomic_open): a failed write leaves
    the previous file in place.
    """
    if fmt not in ("tsv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r} (expected 'tsv' or 'jsonl')")
    users, tweet_ids = corpus.users, corpus.tweet_ids
    tags = list(map(corpus.tags.__getitem__, memoryview(corpus.tag)))
    with atomic_open(assignments_path) as fh:
        if fmt == "tsv":
            _keep_leading_feff(fh, users[corpus.user[0]] if len(corpus.user) else "")
            rows = zip(map(users.__getitem__, memoryview(corpus.user)),
                       map(tweet_ids.__getitem__, memoryview(corpus.tweet)),
                       memoryview(corpus.ts), tags)
            for user_id, tweet_id, ts, ht in rows:
                fh.write(f"{user_id}\t{tweet_id}\t{ts}\t{ht}\n")
        else:
            tags_by_tweet: list[list[str]] = [[] for _ in tweet_ids]
            for tweet, ht in zip(memoryview(corpus.tweet), tags):
                tags_by_tweet[tweet].append(ht)
            tweet_user, tweet_ts = corpus.tweet_user.tolist(), corpus.tweet_ts.tolist()
            for tweet in sorted(range(len(tweet_ids)), key=lambda t: (tweet_ts[t], tweet_ids[t])):
                obj = {"user": users[tweet_user[tweet]], "tweet": tweet_ids[tweet],
                       "ts": tweet_ts[tweet], "hashtags": sorted(tags_by_tweet[tweet])}
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
    with atomic_open(network_path) as fh:
        _keep_leading_feff(fh, min(corpus.network.edges, default=""))
        for seed in sorted(corpus.network.edges):
            followees = sorted(corpus.network.edges[seed])
            if not followees:
                fh.write(f"{seed}\n")
            for f in followees:
                fh.write(f"{seed}\t{f}\n")
