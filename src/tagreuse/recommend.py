"""Hashtag recommenders scored at a reference point in time.

All recommenders are pure functions of (index, user, ref_time, k): they
look only at usage strictly before ref_time and produce a deterministic
ranked list of at most k (hashtag, score) pairs, ordered by score, then
global usage frequency before ref_time, then the hashtag string.

Queries (user, ref_time) are scored in blocks: each algorithm is a few
array passes over the rows that all of a block's queries read, gathered
from the index's sorted orders (see CorpusIndex), and one ranking names
the tags of every query at once. `recommend` is a block of one, and
`recommend_many` cuts a sequence of queries into blocks of at most
_BLOCK_ROWS gathered rows. Every value of a query is computed from that
query's own rows alone, so a list does not depend on the block it was
scored in, nor on the order of the queries.

Scoring models:

  bll_i   activation over the user's own usage history. The activation of
          a hashtag with past usage times t_j is ln(sum_j dt_j^-d) with
          dt_j = max(ref_time - t_j, min_delta): frequent and recent
          usage both raise it, with power-law decay d.
  bll_s   the same activation over the pooled usage times of the user's
          followees (all social exposures form one trace).
  bll_is  min-max normalized mix: beta * individual + (1-beta) * social.
  cf      user-based collaborative filtering, cosine similarity between
          hashtag count profiles, scores summed over the top neighbors.
  mp      most popular: global usage counts (plain baseline).

One kernel (_activations_of) scores every trace of a block, and
bll_activation calls the same kernel, so there is one arithmetic path.
Its terms come from the C library's pow through math.pow, and each
trace's terms are added in time order from 0.0, one column of terms at a
time (_run_sums), before math.log. numpy's power and log may dispatch to
SIMD code that is not the C library's pow/log, and numpy's sums and
builtin sum() (compensated on Python >= 3.12) add in another order, so
any of them would change the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import string_ranks
from .index import CorpusIndex, run_bounds, size_cuts, user_pairs

Ranked = list[tuple[str, float]]

ALGORITHM_NAMES = ("bll_i", "bll_s", "bll_is", "cf", "mp")

# Rows a block of queries gathers at most (one query may gather more): the
# block's temporaries stay within a few MB while numpy's per-call overhead
# is shared by many queries.
_BLOCK_ROWS = 1 << 13

# Reference times and timestamps in this range have int64 differences.
_SAFE_TIME = 2**62


class NoPriorUsage(Exception):
    """Activation is undefined without at least one usage before ref_time."""


@dataclass(frozen=True)
class BLLParams:
    d: float = 0.5
    min_delta_seconds: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError(f"decay exponent d must be a finite number > 0, got {self.d}")
        if self.min_delta_seconds < 1:
            raise ValueError(f"min_delta_seconds must be >= 1, got {self.min_delta_seconds}")


@dataclass(frozen=True)
class MixParams:
    beta: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class CFParams:
    n_neighbors: int = 20

    def __post_init__(self):
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")


def bll_activation(
    usage_timestamps: Sequence[int],
    ref_time: int,
    params: BLLParams = BLLParams(),
) -> float:
    """ln(sum over prior usages of max(ref_time - t, min_delta)^-d).

    Usages at or after ref_time are ignored; raises NoPriorUsage if none
    remain. The remaining trace is scored by the same kernel as the
    recommenders' traces (see _activations_of).
    """
    trace = [t for t in usage_timestamps if t < ref_time]
    if not trace:
        raise NoPriorUsage(f"no usage strictly before ref_time={ref_time}")
    try:
        times = np.array(trace, dtype=np.int64)
    except OverflowError:
        times = np.array(trace, dtype=object)
    return float(_activations_of(times, np.array([0, len(trace)]), [ref_time],
                                 np.zeros(1, dtype=np.int64), params)[0])


def _run_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum of each non-empty run values[bounds[i]:bounds[i + 1]], added in
    order from 0.0: pass j adds the j-th value of every run longer than j,
    so each sum is the plain loop's."""
    at, stop = bounds[:-1].copy(), bounds[1:]
    totals = np.zeros(len(at))
    live = np.arange(len(at))
    while len(live):
        totals[live] += values[at[live]]
        at[live] += 1
        live = live[at[live] < stop[live]]
    return totals


def _activations_of(times: np.ndarray, bounds: np.ndarray, refs: Sequence[int],
                    owner: np.ndarray, params: BLLParams) -> np.ndarray:
    """Activation of each non-empty trace times[bounds[i]:bounds[i + 1]] at
    the reference time refs[owner[i]], every time strictly before it: ln of
    the sum of max(ref - t, min_delta)^-d, added in time order from 0.0.

    The differences are exact: int64 where every time and reference time
    lies within +-2**62, Python ints otherwise. When every term of a trace
    underflows (large d and old usages), its sum is taken in log space
    instead: with x_j = -d ln dt_j and m = max x_j,
    ln sum_j exp(x_j) = m + ln sum_j exp(x_j - m).
    """
    d, min_delta = params.d, params.min_delta_seconds
    exact = times.dtype == np.int64 and all(-_SAFE_TIME <= r <= _SAFE_TIME for r in refs) and \
        (not len(times) or -_SAFE_TIME <= times.min() and times.max() <= _SAFE_TIME)
    if not exact:
        times = times.astype(object)
    dt = np.array(refs, dtype=times.dtype)[np.repeat(owner, np.diff(bounds))]
    dt -= times
    np.maximum(dt, min_delta, out=dt)
    # int -> float rounds as Python's int ** float does before calling pow
    base = dt.astype(np.float64)
    del dt
    terms = np.fromiter(map(math.pow, memoryview(base), repeat(-d)), np.float64, len(base))
    del base
    totals = _run_sums(terms, bounds)
    under = np.flatnonzero(totals == 0.0)
    totals[under] = 1.0
    log = math.log
    scores = np.fromiter(map(log, memoryview(totals)), np.float64, len(totals))
    for i in under.tolist():
        ref = refs[owner[i]]
        logs = [-d * log(max(ref - t, min_delta)) for t in times[bounds[i]:bounds[i + 1]].tolist()]
        m = max(logs)
        scores[i] = m + log(sum(math.exp(x - m) for x in logs))
    return scores


def _group_minmax(group: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Min-max rescaling to [0, 1] over each run of equal `group` values:
    (score - lo) / (hi - lo) per run. A degenerate range (one score, or all
    equal) maps every score of the run to 1.0."""
    if not len(scores):
        return scores
    bounds = run_bounds(group)
    starts, sizes = bounds[:-1], np.diff(bounds)
    lo = np.repeat(np.minimum.reduceat(scores, starts), sizes)
    span = np.repeat(np.maximum.reduceat(scores, starts), sizes) - lo
    out = np.ones_like(scores)
    np.divide(scores - lo, span, out=out, where=span != 0.0)
    return out


def _top_per_group(group: np.ndarray, values: np.ndarray, k: int,
                   tiebreaks: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> np.ndarray:
    """Positions of the k best items of each group (fewer if it has fewer),
    group by group, best first: by value descending, then by the arrays
    tiebreaks(positions) ascending, the first of them leading. `group` is
    ascending. Only items at or above their group's k-th largest value can
    be among its best k, so the tie-breaks are computed for just those."""
    if k < 1 or not len(group):
        return np.zeros(0, dtype=np.int64)
    bounds = run_bounds(group)
    starts, sizes = bounds[:-1], np.diff(bounds)
    keep = np.arange(len(group))
    if sizes.max() > k:
        least = np.full(len(starts), -np.inf)
        for g in np.flatnonzero(sizes > k).tolist():
            least[g] = np.partition(values[starts[g] : starts[g] + sizes[g]], -k)[-k]
        keep = np.flatnonzero(values >= np.repeat(least, sizes))
    keep = keep[np.lexsort((*tiebreaks(keep)[::-1], -values[keep], group[keep]))]
    kept = group[keep]
    return keep[np.arange(len(keep)) - np.searchsorted(kept, kept) < k]


def _rank_lists(index: CorpusIndex, ends: np.ndarray, query: np.ndarray, tags: np.ndarray,
                scores: np.ndarray, k: int) -> list[Ranked]:
    """Deterministic top-k per query of the candidates (query[i], tags[i],
    scores[i]), query ascending: by score desc, global frequency before the
    query's `end` desc, hashtag asc; one list per entry of `ends`."""
    names = index.corpus.tags

    def tiebreaks(kept: np.ndarray) -> tuple[np.ndarray, ...]:
        t = tags[kept]
        return -index.tag_counts(t, ends[query[kept]]), string_ranks(names, t)

    top = _top_per_group(query, scores, k, tiebreaks)
    bounds = np.searchsorted(query[top], np.arange(len(ends) + 1)).tolist()
    items = list(zip(map(names.__getitem__, tags[top].tolist()), scores[top].tolist()))
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _most_popular(index: CorpusIndex, ends: np.ndarray, k: int) -> list[Ranked]:
    """mp's list at each end. One cursor moves through the rows in order of
    the ends and keeps every tag's count; at each end only the tags at or
    above the k-th largest count go on to the ranking."""
    tag, n_tags = index.corpus.tag, len(index.corpus.tags)
    counts = np.zeros(n_tags, dtype=np.int64)
    at = 0
    kept: list = [np.zeros(0, dtype=np.int64)] * len(ends)
    for q in np.argsort(ends, kind="stable").tolist() if k >= 1 else ():
        end = int(ends[q])
        if end > at:
            counts += np.bincount(tag[at:end], minlength=n_tags)
            at = end
        least = np.partition(counts, n_tags - k)[n_tags - k] if k < n_tags else 0
        kept[q] = np.flatnonzero(counts >= max(least, 1))
    ids = np.concatenate([np.zeros(0, dtype=np.int64), *kept])
    query = np.repeat(np.arange(len(ends)), list(map(len, kept)))
    return _rank_lists(index, ends, query, ids, index.tag_counts(ids, ends[query])
                       .astype(np.float64), k)


class _Block:
    """Seed users' queries scored together: query q is at refs[q], below row
    ends[q]; `own` and `social` are the user_pairs of the block's queries. A
    part that several algorithms read (the traces, the bll_i and bll_s
    scores) is computed once, on first read, from the rows below each
    query's end."""

    def __init__(self, index: CorpusIndex, refs: Sequence[int], ends: np.ndarray,
                 own: tuple[np.ndarray, np.ndarray], social: tuple[np.ndarray, np.ndarray],
                 k: int, bll: BLLParams, mix: MixParams, cf: CFParams):
        self.index, self.refs, self.ends, self.k = index, refs, ends, k
        self._own, self._social = own, social
        self.bll_params, self.mix_params, self.cf_params = bll, mix, cf
        self.n_tags = len(index.corpus.tags)

    def _traces(self, pairs: tuple[np.ndarray, np.ndarray]):
        query, users = pairs
        return self.index.grouped_rows(query, users, self.ends[query], len(self.ends))

    @cached_property
    def own_traces(self):
        return self._traces(self._own)

    @cached_property
    def social_traces(self):
        return self._traces(self._social)

    def _bll_scores(self, traces) -> tuple[np.ndarray, np.ndarray]:
        keys, bounds, rows = traces
        return keys, _activations_of(self.index.corpus.ts[rows], bounds, self.refs,
                                     keys // self.n_tags, self.bll_params)

    @cached_property
    def own_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """(query * T + tag id, activation) of every own trace, in key order."""
        return self._bll_scores(self.own_traces)

    @cached_property
    def social_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """(query * T + tag id, activation) of every pooled followee trace."""
        return self._bll_scores(self.social_traces)

    def _ranked(self, keys: np.ndarray, scores: np.ndarray, lo: int = 0,
                hi: int | None = None) -> list[Ranked]:
        """The lists of queries lo..hi-1 from their candidates (query * T +
        tag id, score), in key order."""
        query = keys // self.n_tags
        return _rank_lists(self.index, self.ends[lo:hi], query - lo, keys - query * self.n_tags,
                           scores, self.k)

    def bll_i(self) -> list[Ranked]:
        return self._ranked(*self.own_scores)

    def bll_s(self) -> list[Ranked]:
        return self._ranked(*self.social_scores)

    def bll_is(self) -> list[Ranked]:
        """Each component min-max normalized per query over its own
        candidates (a candidate missing from one contributes 0 there), then
        beta * individual + (1 - beta) * social."""
        beta = self.mix_params.beta
        keys_i, scores_i = self.own_scores
        keys_s, scores_s = self.social_scores
        keys = np.concatenate((keys_i, keys_s))
        keys.sort()
        keys = keys[run_bounds(keys)[:-1]]
        norm_i, norm_s = np.zeros(len(keys)), np.zeros(len(keys))
        norm_i[np.searchsorted(keys, keys_i)] = _group_minmax(keys_i // self.n_tags, scores_i)
        norm_s[np.searchsorted(keys, keys_s)] = _group_minmax(keys_s // self.n_tags, scores_s)
        return self._ranked(keys, beta * norm_i + (1.0 - beta) * norm_s)

    def cf(self) -> list[Ranked]:
        """Neighbors are the top n_neighbors users (anyone in the dataset
        except the query user) by cosine similarity at the query's end; a
        candidate's score is the similarity-weighted sum of neighbor usage
        counts, added per hashtag in neighbor order from 0.0. An empty query
        profile is a cold start and yields an empty list.

        The dot products come from the rows of the query profile's tags
        (their postings), so only users sharing a tag are seen. Dot products
        and squared norms are exact integers (see index.MAX_USER_ROWS)."""
        index, ends = self.index, self.ends
        keys, bounds, _ = self.own_traces
        owner = keys // self.n_tags
        # the profile entries (owner, tag, count) and the number of their
        # tags' rows below the owner's end (postings)
        tags, counts = keys - owner * self.n_tags, np.diff(bounds)
        postings = index.tag_counts(tags, ends[owner])
        per_query = np.bincount(owner, postings, minlength=len(ends))
        max_n = max(_BLOCK_ROWS // max(len(index.corpus.users), 1), 1)
        neighbors = []
        for lo, hi in size_cuts(per_query, _BLOCK_ROWS, max_n):
            a, b = np.searchsorted(owner, [lo, hi])
            neighbors.append(self._neighbors(lo, hi, owner[a:b], tags[a:b], counts[a:b],
                                             postings[a:b]))
        query, users, sims = map(np.concatenate, zip(*neighbors))
        lengths = index.user_row_counts(users, ends[query])
        lists = []
        for lo, hi in size_cuts(np.bincount(query, lengths, minlength=len(ends)), _BLOCK_ROWS,
                            len(ends)):
            a, b = np.searchsorted(query, [lo, hi])
            lists += self._ranked(*self._neighbor_sums(query[a:b], users[a:b], sims[a:b],
                                                       lengths[a:b]), lo, hi)
        return lists

    def _neighbors(self, lo: int, hi: int, owner: np.ndarray, tags: np.ndarray,
                   counts: np.ndarray, postings: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(query, user id, cosine) of the top n_neighbors of queries lo..hi-1
        by (cosine desc, user id string asc), from their profile entries
        (owner[i], tags[i], counts[i]) with postings[i] rows each; the
        query's own user is left out. The dot products are counted in
        (query, user) bins, from a few entries' postings at a time."""
        index, ends = self.index, self.ends
        n_users = len(index.corpus.users)
        dots = np.zeros((hi - lo) * n_users)
        for a, b in size_cuts(postings, _BLOCK_ROWS, len(postings)):
            lengths = postings[a:b]
            rows = index.tag_rows(tags[a:b], lengths)
            pair = np.repeat((owner[a:b] - lo) * n_users, lengths)
            pair += index.corpus.user[rows]
            del rows
            dots += np.bincount(pair, np.repeat(counts[a:b], lengths), minlength=len(dots))
            del pair
        pair = np.flatnonzero(dots)
        query, users = np.divmod(pair, n_users)
        query += lo
        own = self._own[1][np.searchsorted(self._own[0], query)]
        other = np.flatnonzero(users != own)
        query, users, own, dots = query[other], users[other], own[other], dots[pair[other]]
        norms = np.sqrt(index.squared_norms(users, ends[query]).astype(np.float64))
        own_norms = np.sqrt(index.squared_norms(own, ends[query]).astype(np.float64))
        sims = dots / (own_norms * norms)
        names = index.corpus.users
        top = _top_per_group(query, sims, self.cf_params.n_neighbors,
                             lambda kept: (string_ranks(names, users[kept]),))
        return query[top], users[top], sims[top]

    def _neighbor_sums(self, query: np.ndarray, users: np.ndarray, sims: np.ndarray,
                       lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query * T + tag id, score) of every tag of the given queries'
        neighbors (query, users[i], sims[i]), with lengths[i] rows each, in
        each query's neighbor order: sim * count summed per tag in that
        order."""
        index, n_tags = self.index, self.n_tags
        # each neighbor's count of each tag, keyed (query, tag, neighbor rank)
        rows = index.user_rows(users, lengths)
        key = np.repeat(query * n_tags, lengths)
        key += index.corpus.tag[rows]
        key <<= index.row_bits
        key |= np.repeat(np.arange(len(query)) - np.searchsorted(query, query), lengths)
        del rows
        key.sort()
        change = run_bounds(key)
        key, counts = key[change[:-1]], np.diff(change)
        del change
        rank = key & ((1 << index.row_bits) - 1)
        key >>= index.row_bits
        weights = sims[np.searchsorted(query, key // n_tags) + rank] * counts
        runs = run_bounds(key)
        return key[runs[:-1]], _run_sums(weights, runs)


def recommend_many(
    index: CorpusIndex,
    algorithms: Sequence[str],
    users: Sequence[str],
    ref_times: Sequence[int],
    k: int,
    bll: BLLParams = BLLParams(),
    mix: MixParams = MixParams(),
    cf: CFParams = CFParams(),
) -> Iterator[dict[str, Ranked]]:
    """{algorithm: recommend(algorithm, index, users[i], ref_times[i], k)}
    for each query i in order, scored in blocks of at most _BLOCK_ROWS rows
    of the users' and their followees' history; a name given twice is
    scored once."""
    algorithms = list(dict.fromkeys(algorithms))
    if not algorithms:
        raise ValueError(f"no algorithm given; expected some of {ALGORITHM_NAMES}")
    for algo in algorithms:
        if algo not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHM_NAMES}")
    refs, users = list(ref_times), list(users)
    ends = np.array([index.end(ref) for ref in refs], dtype=np.int64)
    popular = _most_popular(index, ends, k) if "mp" in algorithms else None
    others = [algo for algo in algorithms if algo != "mp"]
    if not others:
        for lists in popular:
            yield {"mp": lists}
        return
    pairs = user_pairs(index.corpus, users, False), user_pairs(index.corpus, users, True)
    sizes = sum(np.bincount(q, index.user_row_counts(u, ends[q]), minlength=len(users))
                for q, u in pairs)
    for lo, hi in size_cuts(sizes, _BLOCK_ROWS, index.max_queries):
        cut = []
        for q, u in pairs:
            a, b = np.searchsorted(q, (lo, hi))
            cut.append((q[a:b] - lo, u[a:b]))
        block = _Block(index, refs[lo:hi], ends[lo:hi], *cut, k, bll, mix, cf)
        lists = {algo: getattr(block, algo)() for algo in others}
        for q in range(hi - lo):
            yield {algo: popular[lo + q] if algo == "mp" else lists[algo][q]
                   for algo in algorithms}


def recommend(
    algo: str,
    index: CorpusIndex,
    user_id: str,
    ref_time: int,
    k: int,
    bll: BLLParams = BLLParams(),
    mix: MixParams = MixParams(),
    cf: CFParams = CFParams(),
) -> Ranked:
    """Dispatch by algorithm name (one of ALGORITHM_NAMES): a block of one.
    A user with no followee entry raises NotSeedUser unless algo is mp."""
    return next(recommend_many(index, [algo], [user_id], [ref_time], k, bll, mix, cf))[algo]
