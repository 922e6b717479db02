"""Hashtag recommenders scored at a reference point in time.

All recommenders are pure functions of (index, user, ref_time, k): they
look only at usage strictly before ref_time and produce a deterministic
ranked list of at most k (hashtag, score) pairs, ordered by score, then
global usage frequency before ref_time, then the hashtag string. The
answer does not depend on query order. Each recommender scores tag ids
from the index's sorted order of the corpus columns (see CorpusIndex);
_rank alone names them. The tie-break's global counts and the bll_i and
bll_s score arrays are cached on the index for the latest ref_time, so
bll_is at the same (user, ref_time, params) reuses them.

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

One kernel (_activations) scores all traces of one flat time list in a
single loop, and bll_activation filters its input and calls the same
kernel, so there is one arithmetic path. Its sum is a plain in-order loop
from 0.0: builtin sum() of floats is compensated on Python >= 3.12, and
numpy's power/log may dispatch to SIMD code that is not the C library's
pow/log, so either would change the bits.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import NotSeedUser
from .index import CorpusIndex

Ranked = list[tuple[str, float]]

ALGORITHM_NAMES = ("bll_i", "bll_s", "bll_is", "cf", "mp")


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
    recommenders' traces (see _activations).
    """
    trace = [t for t in usage_timestamps if t < ref_time]
    if not trace:
        raise NoPriorUsage(f"no usage strictly before ref_time={ref_time}")
    return _activations(trace, [0, len(trace)], ref_time, params)[0]


def _activations(
    times: list[int], bounds: list[int], ref_time: int, params: BLLParams
) -> list[float]:
    """Activation of each non-empty trace times[bounds[i]:bounds[i + 1]]
    of times strictly before ref_time, in trace order: ln of the sum of
    max(ref_time - t, min_delta)^-d, added in time order from 0.0.

    When every term underflows (large d and old usages), the sum is taken
    in log space instead: with x_j = -d ln dt_j and m = max x_j,
    ln sum_j exp(x_j) = m + ln sum_j exp(x_j - m).

    The direct sum is a plain loop, never sum() or numpy (see the module
    docstring).
    """
    d, min_delta = params.d, params.min_delta_seconds
    neg_d, log = -d, math.log
    scores = []
    for a, b in zip(bounds, bounds[1:]):
        trace = times[a:b]
        total = 0.0
        for t in trace:
            dt = ref_time - t
            total += (dt if dt > min_delta else min_delta) ** neg_d
        if total == 0.0:
            logs = [-d * log(max(ref_time - t, min_delta)) for t in trace]
            m = max(logs)
            scores.append(m + log(sum(math.exp(x - m) for x in logs)))
        else:
            scores.append(log(total))
    return scores


def _top(ids: np.ndarray, values: np.ndarray, k: int, key) -> list[tuple[int, float]]:
    """heapq.nsmallest(k, zip(ids, values), key) for a key that leads with
    -value: only items at or above the k-th largest value can be in the
    top k, so the Python-keyed heap sees just those (ties included)."""
    if 0 < k < len(ids):
        keep = values >= np.partition(values, -k)[-k]
        ids, values = ids[keep], values[keep]
    return heapq.nsmallest(k, zip(ids.tolist(), values.tolist()), key=key)


def _rank(ids: np.ndarray, scores: np.ndarray, k: int, index: CorpusIndex, ref_time: int) -> Ranked:
    """Deterministic top-k of the tag ids by score desc, global pre-ref
    frequency desc, hashtag asc."""
    freq, tags = index.global_counts_before(ref_time), index.corpus.tags
    top = _top(ids, scores, k, lambda item: (-item[1], -freq[item[0]], tags[item[0]]))
    return [(tags[t], score) for t, score in top]


def minmax_normalize(scores: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]. A degenerate score range (single
    candidate, or all equal) maps every candidate to 1.0."""
    if not len(scores):
        return scores
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.ones_like(scores)
    return (scores - lo) / (hi - lo)


def _require_seed(index: CorpusIndex, user_id: str) -> None:
    if not index.network.is_seed(user_id):
        raise NotSeedUser(f"user {user_id!r} has no followee entry")


def _bll_scores(
    index: CorpusIndex, kind: str, user_id: str, ref_time: int, params: BLLParams
) -> tuple[np.ndarray, np.ndarray]:
    """(tag ids, activations) over the user's own traces (kind "i") or over
    the followees' traces pooled per tag (kind "s"), cached on the index
    for ref_time."""
    users = [user_id] if kind == "i" else index.network.followees(user_id)

    def compute():
        ids, times, bounds = index.traces(users, index.end(ref_time))
        return ids, np.array(_activations(times, bounds, ref_time, params))

    return index.cached(ref_time, (kind, user_id, params), compute)


def recommend_bll_i(
    index: CorpusIndex,
    user_id: str,
    ref_time: int,
    k: int,
    params: BLLParams = BLLParams(),
) -> Ranked:
    """Rank the user's own previously used hashtags by activation."""
    _require_seed(index, user_id)
    return _rank(*_bll_scores(index, "i", user_id, ref_time, params), k, index, ref_time)


def recommend_bll_s(
    index: CorpusIndex,
    user_id: str,
    ref_time: int,
    k: int,
    params: BLLParams = BLLParams(),
) -> Ranked:
    """Rank hashtags previously used by the user's followees, activation
    computed over the union of all followees' usage times."""
    _require_seed(index, user_id)
    return _rank(*_bll_scores(index, "s", user_id, ref_time, params), k, index, ref_time)


def recommend_bll_is(
    index: CorpusIndex,
    user_id: str,
    ref_time: int,
    k: int,
    params: BLLParams = BLLParams(),
    mix: MixParams = MixParams(),
) -> Ranked:
    """Convex mix of the individual and social activations.

    Each component is min-max normalized over its own candidate set
    (candidates missing from a component contribute 0 there), then
    combined as beta * individual + (1 - beta) * social.
    """
    _require_seed(index, user_id)
    ids_i, scores_i = _bll_scores(index, "i", user_id, ref_time, params)
    ids_s, scores_s = _bll_scores(index, "s", user_id, ref_time, params)
    ids = np.union1d(ids_i, ids_s)
    norm_i, norm_s = np.zeros(len(ids)), np.zeros(len(ids))
    norm_i[np.searchsorted(ids, ids_i)] = minmax_normalize(scores_i)
    norm_s[np.searchsorted(ids, ids_s)] = minmax_normalize(scores_s)
    return _rank(ids, mix.beta * norm_i + (1.0 - mix.beta) * norm_s, k, index, ref_time)


def recommend_cf(
    index: CorpusIndex,
    user_id: str,
    ref_time: int,
    k: int,
    params: CFParams = CFParams(),
) -> Ranked:
    """User-based collaborative filtering over hashtag count profiles.

    Neighbors are the top n_neighbors users (anyone in the dataset except
    the query user) by cosine similarity at ref_time; a candidate's score
    is the similarity-weighted sum of neighbor usage counts. An empty
    query profile is a cold start and yields an empty list.

    Only users sharing a hashtag with the query user have a nonzero
    similarity. Dot products and squared norms are exact integer-valued
    float64 sums (see index.MAX_USER_ROWS).
    """
    _require_seed(index, user_id)
    corpus, end = index.corpus, index.end(ref_time)
    profile_ids, profile_counts, _ = index.profiles([user_id], end)
    if not len(profile_ids):
        return []
    users = corpus.user[:end].astype(np.intp)  # bincount with weights is slower on int32
    weights = np.zeros(len(corpus.tags))
    weights[profile_ids] = profile_counts
    dots = np.bincount(users, weights=weights[corpus.tag[:end]], minlength=len(corpus.users))
    norms = np.sqrt(np.bincount(users, weights=index.sq[:end], minlength=len(corpus.users)))
    u = index.user_ids[user_id]
    dots[u] = 0.0
    sims = np.divide(dots, norms[u] * norms, out=np.zeros_like(dots), where=dots > 0)
    near, names = np.flatnonzero(sims), corpus.users
    top = _top(near, sims[near], params.n_neighbors, key=lambda item: (-item[1], names[item[0]]))
    ids, counts, owners = index.profiles([names[v] for v, _ in top], end)
    # each neighbor's sim * count, added per hashtag in neighbor order from
    # 0.0; every term is positive, so the candidates are the nonzero totals
    totals = np.bincount(ids, weights=sims[owners] * counts)
    candidates = np.flatnonzero(totals)
    return _rank(candidates, totals[candidates], k, index, ref_time)


def recommend_most_popular(index: CorpusIndex, ref_time: int, k: int) -> Ranked:
    """Global usage counts strictly before ref_time, by count, then hashtag."""
    counts = index.global_counts_before(ref_time)
    used = np.flatnonzero(counts)
    return _rank(used, counts[used].astype(np.float64), k, index, ref_time)


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
    """Dispatch by algorithm name (one of ALGORITHM_NAMES)."""
    if algo == "bll_i":
        return recommend_bll_i(index, user_id, ref_time, k, bll)
    if algo == "bll_s":
        return recommend_bll_s(index, user_id, ref_time, k, bll)
    if algo == "bll_is":
        return recommend_bll_is(index, user_id, ref_time, k, bll, mix)
    if algo == "cf":
        return recommend_cf(index, user_id, ref_time, k, cf)
    if algo == "mp":
        return recommend_most_popular(index, ref_time, k)
    raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHM_NAMES}")
