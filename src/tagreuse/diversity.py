"""Beyond-accuracy metrics and a greedy accuracy/diversity re-ranker.

Hashtag similarity is grounded in tweet-level co-occurrence: two hashtags
are similar when they tend to appear in the same tweets. SimilarityIndex
keeps the counts in CSR form over the corpus's tag ids, counted in one
array program over the tweets' runs of rows.

Ranked lists are scored in blocks: rerank_block builds the pair tables of
all of a block's lists at once, by sparse accumulation over their tags'
CSR rows (SimilarityIndex._tables), then runs the re-ranker, the ILD of
every prefix and the serendipity of every prefix as array passes over
(lists x positions) arrays, each list padded to the block's longest.
Every value takes the arithmetic, in the order, of a plain loop over its
own list, so it does not depend on the block. The per-list functions are
blocks of one:

  intra_list_diversity_at_k
                        1 - mean pairwise similarity of every prefix of a
                        ranked list, from the list's pair table
  intra_list_diversity  the same for the whole list only
  serendipity           fraction of recommendations outside the user's
                        own + followee history (their reuse bubble)
  rerank_hybrid         marginal-relevance greedy reorder trading
                        accuracy against dissimilarity to what is
                        already selected
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .index import concat_ranges, run_bounds
from .recommend import Ranked, _group_minmax


@dataclass(frozen=True)
class HybridParams:
    """lambda_param is the accuracy weight: 1.0 keeps the input order,
    0.0 ranks purely by dissimilarity to already-selected items."""

    lambda_param: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.lambda_param <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lambda_param}")


class SimilarityIndex:
    """Sparse tweet co-occurrence vectors per hashtag, on the corpus's tag ids.

    vector(a)[b] = number of tweets containing both a and b (a != b).
    Symmetric by construction; built from assignments strictly before
    `before` when given (the training portion).

    The counts are kept in CSR form: row r is the tag `tags[r]`, id r in
    `tag_ids`, and holds the neighbour ids `_indices[_indptr[r]:_indptr[r +
    1]]` and their int counts in the same slice of `_counts`. One
    more empty row, id `len(tags)`, stands for every unknown tag. `_squares`
    holds each row's squared norm and `_norms` its norm, 0.0 for an empty
    row.

    Cosines are read from pair tables (see _tables), whose dot products are
    float64 sums of products of counts. Every partial sum there is an
    integer no larger than the larger squared norm, so the sum is exact in
    any order as long as every squared norm is below 2**53; the constructor
    rejects counts that break that bound.
    """

    def __init__(self, tags: list[str], tag_ids: dict[str, int], indptr: np.ndarray,
                 indices: np.ndarray, counts: np.ndarray):
        """Row r of the CSR arrays (indptr has len(tags) + 1 entries) holds
        the distinct neighbour ids of tags[r] and their positive int counts."""
        squared = _squared_norms(tags, indptr, counts)
        self._tags, self._ids, self._indices, self._counts = tags, tag_ids, indices, counts
        self._indptr = np.append(indptr, indptr[-1])
        self._squares = np.append(squared, 0.0)
        self._norms = np.sqrt(self._squares)

    @classmethod
    def from_corpus(cls, corpus: Corpus, before: int | None = None,
                    exclude_tweets: frozenset[str] | set[str] | None = None) -> "SimilarityIndex":
        """The index of the corpus's tweets, read from its columns: rows at
        or after `before` and tweets in `exclude_tweets` are left out.

        The rows are in (timestamp, tweet, tag) order and a tweet has one
        timestamp, so the rows before `before` are a prefix, and each tweet
        is one run of rows with distinct tags. Each ordered pair of rows in
        a run counts once, under the key tag_a * T + tag_b (T tags), so the
        sorted distinct keys are the CSR entries in order."""
        n = len(corpus.tweet) if before is None else bisect_left(memoryview(corpus.ts), before)
        tweet, n_tags = corpus.tweet[:n], len(corpus.tags)
        same = np.zeros(n + 1, dtype=bool)  # same[i]: row i continues row i - 1's tweet
        same[1:n] = tweet[1:] == tweet[:-1]
        starts = np.flatnonzero(~same[:-1] & same[1:])  # runs of two rows or more
        lengths = np.flatnonzero(same[:-1] & ~same[1:]) + 1 - starts
        if exclude_tweets:
            held = np.fromiter(map(exclude_tweets.__contains__, corpus.tweet_ids), bool,
                               len(corpus.tweet_ids))
            kept = ~np.isin(tweet[starts], np.flatnonzero(held))
            starts, lengths = starts[kept], lengths[kept]
        keys = _pair_keys(corpus.tag, starts, lengths, n_tags)
        keys.sort()
        # Where each run of equal keys starts, then the end. The distinct keys
        # are taken first, so the pair-sized array goes before the run bounds
        # come; the counts (below 2**31 pairs) are int32.
        change = np.ones(len(keys) + 1, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=change[1:-1])
        keys = keys[change[:-1]]
        bounds = np.flatnonzero(change)
        del change
        counts = np.empty(len(keys), dtype=np.int32)
        np.subtract(bounds[1:], bounds[:-1], out=counts, casting="unsafe")
        del bounds  # before the constructor's temporaries
        indptr = np.searchsorted(keys, np.arange(n_tags + 1) * n_tags)
        keys %= n_tags  # now the neighbour ids
        return cls(corpus.tags, corpus.tag_ids, indptr, keys, counts)

    def _rows(self, tags: list[str]) -> np.ndarray:
        get, unknown = self._ids.get, len(self._tags)
        return np.fromiter((get(ht, unknown) for ht in tags), np.intp, len(tags))

    def vector(self, hashtag: str) -> dict[str, int]:
        """The counts of one tag, rebuilt from its CSR row ({} if none)."""
        lo, hi = self._indptr[self._rows([hashtag])[0] + np.arange(2)]
        return dict(zip(map(self._tags.__getitem__, self._indices[lo:hi].tolist()),
                        self._counts[lo:hi].tolist()))

    def _tables(self, tags: list[str], lengths: np.ndarray) -> np.ndarray:
        """The pair tables of a block of lists, list i being the next
        lengths[i] tags: tables[i, p, q] is the cosine of the co-occurrence
        vectors of its p-th and q-th tags, 0 where their dot product is 0,
        which covers tags with no vector and cells past a list's end.

        The lists' CSR entries are grouped by (list, neighbour id). In each
        group of two or more, every ordered pair of entries adds the product
        of their counts to its cell's dot product, an exact integer (see the
        class docstring); a diagonal cell's dot product is its row's squared
        norm. No count matrix is made."""
        rows = self._rows(tags)
        n_lists, width = len(lengths), int(lengths.max(initial=0))
        slots = np.flatnonzero(np.arange(width) < lengths[:, None])  # list * width + position
        sizes = self._indptr[rows + 1] - self._indptr[rows]
        at = concat_ranges(self._indptr[rows], sizes)
        group = np.repeat(np.repeat(np.arange(n_lists), lengths) * len(self._norms), sizes)
        group += self._indices[at]
        order = np.argsort(group, kind="stable")
        group = group[order]
        runs = np.diff(run_bounds(group))
        shared = np.repeat(runs > 1, runs)
        order, bounds = order[shared], run_bounds(group[shared])
        del group, shared
        slot = np.repeat(slots, sizes)[order]
        count = self._counts[at[order]].astype(np.float64)
        del at, order
        runs = np.diff(bounds)
        size = np.repeat(runs, runs)  # each entry's group size
        left = np.repeat(np.arange(len(slot)), size)
        right = concat_ranges(np.repeat(bounds[:-1], runs), size)
        cells = slot[left] * width
        cells += slot[right] % width
        dot = np.bincount(cells, count[left] * count[right], minlength=n_lists * width * width)
        del left, right, cells
        dot = dot.astype(np.float64, copy=False)  # int when there is no pair
        dot[slots * width + slots % width] = self._squares[rows]
        dot = dot.reshape(n_lists, width, width)
        nrm = _padded(self._norms[rows], lengths, 0.0)
        np.divide(dot, nrm[:, :, None] * nrm[:, None, :], out=dot, where=dot != 0.0)
        return dot

    def pair_table(self, tags: list[str]) -> list[list[float]]:
        """table[i][j] is the cosine of the co-occurrence vectors of tags[i]
        and tags[j]: the pair table of a block of one list (see _tables)."""
        return self._tables(tags, np.array([len(tags)]))[0].tolist()

    def similarity(self, ht_a: str, ht_b: str) -> float:
        """Cosine of the two co-occurrence vectors; 0 if either is empty."""
        return self.pair_table([ht_a, ht_b])[0][1]


def _squared_norms(tags: list[str], indptr: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each CSR row's sum of squared counts, exact; ValueError from 2**53 on."""
    # The squares are not negative, so each partial sum of a row is at most
    # its total; rounding is monotone, so the float64 sums are exact below
    # 2**53, in any order, and reach 2**53 whenever the exact sum does.
    squares = np.square(counts[: indptr[-1]], dtype=np.float64)
    sums = np.zeros(len(indptr) - 1)
    full = np.flatnonzero(indptr[1:] > indptr[:-1])
    sums[full] = np.add.reduceat(squares, indptr[full])
    wide = np.flatnonzero(sums >= 2.0**53)
    if len(wide):
        r = wide[0]
        norm = sum(c * c for c in counts[indptr[r] : indptr[r + 1]].tolist())
        raise ValueError(f"co-occurrence vector of {tags[r]!r} has squared norm {norm} >= 2**53;"
                         " its cosines would not be exact")
    return sums


def _pair_keys(tag: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
               n_tags: int) -> np.ndarray:
    """tag[a] * n_tags + tag[b] for each ordered pair of distinct rows a, b in
    each run of rows starts[i] + [0, lengths[i]), one block per run length,
    written into one array: no other pair-sized array is allocated."""
    keys = np.empty(int(np.dot(lengths, lengths - 1)), dtype=np.int64)
    at = 0
    for size in np.unique(lengths).tolist():
        tags = tag[starts[lengths == size, None] + np.arange(size)].astype(np.int64)
        block = keys[at : at + tags.size * (size - 1)].reshape(len(tags), size, size - 1)
        at += block.size
        np.multiply(tags[:, :, None], n_tags, out=block)
        for j in range(1, size):  # the other rows of each position, in run order
            block[:, :, j - 1] += tags[:, (np.arange(size) + j) % size]
    return keys


def _hashtags(items: Ranked | list[str]) -> list[str]:
    return [it[0] if isinstance(it, tuple) else it for it in items]


def _padded(values: np.ndarray, lengths: np.ndarray, fill) -> np.ndarray:
    """A (lists, longest list) array: row i holds the next lengths[i]
    values, then `fill`."""
    out = np.full((len(lengths), int(lengths.max(initial=0))), fill, dtype=values.dtype)
    out[np.arange(out.shape[1]) < lengths[:, None]] = values
    return out


def _greedy(scores: np.ndarray, lengths: np.ndarray, tables: np.ndarray,
            lam: float) -> np.ndarray:
    """order[i, t]: the position of list i picked at step t, for t below
    lengths[i]. Each step picks, in every list at once, the first position
    of the highest lam * score + (1 - lam) * (1 - max similarity to the
    positions picked), among those not picked yet; scores and tables are
    padded past each list's end (see _padded and SimilarityIndex._tables)."""
    n_lists, width = scores.shape
    lists = np.arange(n_lists)
    accuracy = lam * scores
    closed = np.where(np.arange(width) < lengths[:, None], 0.0, -np.inf)  # picked or padding
    max_sim = np.zeros_like(scores)
    order = np.zeros((n_lists, width), dtype=np.intp)
    for step in range(width):
        gain = accuracy + (1.0 - lam) * (1.0 - max_sim)
        gain += closed
        best = gain.argmax(axis=1)
        order[:, step] = best
        closed[lists, best] = -np.inf
        np.maximum(max_sim, tables[lists, best], out=max_sim)
    return order


def _ild_prefixes(tables: np.ndarray) -> np.ndarray:
    """ild[i, k - 1]: the intra-list diversity of the first k items of list
    i, from its pair table in list order. Each prefix adds its pairs (p, q),
    p < q, from 0.0 in row-major order: one step per pair adds its cosine
    to the sums of every prefix that holds it, in every list at once. A
    pair whose cosine is 0 in every list is skipped, as adding 0.0 to a
    sum of cosines (never negative) changes no bit."""
    n_lists, width = tables.shape[:2]
    sums = np.zeros((width + 1, n_lists))  # sums[k]: the prefixes of k items
    for p, q in zip(*map(np.ndarray.tolist, np.nonzero(np.triu(tables.any(axis=0), 1)))):
        sums[q + 1 :] += tables[:, p, q]
    ild = np.zeros((n_lists, width))  # one item has no pairs
    k = np.arange(2, width + 1)
    ild[:, 1:] = (1.0 - sums[2:] / (k * (k - 1) / 2)[:, None]).T
    return ild


def _serendipity_prefixes(outside: np.ndarray) -> np.ndarray:
    """The share of the first k items of list i that are outside, at [i, k - 1]."""
    return np.cumsum(outside, axis=1) / np.arange(1, outside.shape[1] + 1)


def _at_k(prefixes: np.ndarray, lengths: np.ndarray, k_max: int) -> np.ndarray:
    """The prefix values at k = 1..k_max: the whole list's past its end,
    0.0 (a prefix of no item) for an empty list."""
    prefixes = np.hstack((np.zeros((len(lengths), 1)), prefixes))
    return np.take_along_axis(prefixes, np.minimum(np.arange(1, k_max + 1), lengths[:, None]), 1)


def rerank_block(lists: Sequence[Ranked], lam: float, index: SimilarityIndex,
                 outside: np.ndarray, k_max: int) -> tuple[list[Ranked], np.ndarray, np.ndarray]:
    """Each list re-ranked as rerank_hybrid(normalize_scores(list)) does,
    and the ILD and the serendipity of each re-ranked list's first k items
    for k = 1..k_max, as (lists, k_max) arrays: the whole list's past its
    end, 0.0 for an empty list. outside[j] says whether the j-th item of
    the lists, concatenated in input order, is outside its user's history.
    The block's arrays hold len(lists) x (longest list) ** 2 cells."""
    lengths = np.fromiter(map(len, lists), np.int64, len(lists))
    tags = [ht for rec in lists for ht, _ in rec]
    scores = _group_minmax(np.repeat(np.arange(len(lists)), lengths),
                           np.fromiter((s for rec in lists for _, s in rec), np.float64, len(tags)))
    tables = index._tables(tags, lengths)
    order = _greedy(_padded(scores, lengths, 0.0), lengths, tables, lam)
    at = np.arange(len(lists))[:, None, None]
    tables = tables[at, order[:, :, None], order[:, None, :]]  # in re-ranked order
    picks = (order + (np.cumsum(lengths) - lengths)[:, None])[
        np.arange(order.shape[1]) < lengths[:, None]]
    items = list(map(list(zip(tags, scores.tolist())).__getitem__, picks.tolist()))
    bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
    return ([items[a:b] for a, b in zip(bounds, bounds[1:])],
            _at_k(_ild_prefixes(tables), lengths, k_max),
            _at_k(_serendipity_prefixes(_padded(outside[picks], lengths, False)), lengths, k_max))


def intra_list_diversity_at_k(items: Ranked | list[str], index: SimilarityIndex) -> list[float]:
    """Element k-1 is the intra-list diversity of items[:k], for every k:
    1 - the mean cosine of its pairs, added in row-major order (i
    ascending, then j > i ascending), so each value is bit-identical to
    scoring that prefix alone. A block of one list (see rerank_block)."""
    tags = _hashtags(items)
    return _ild_prefixes(index._tables(tags, np.array([len(tags)])))[0].tolist()


def intra_list_diversity(items: Ranked | list[str], index: SimilarityIndex) -> float:
    """1 - mean pairwise similarity over all unordered pairs; 0 for lists
    with fewer than two items. The last value of the per-prefix table
    (see intra_list_diversity_at_k)."""
    at_k = intra_list_diversity_at_k(items, index)
    return at_k[-1] if at_k else 0.0


def serendipity(
    items: Ranked | list[str],
    individual_history: set[str],
    social_history: set[str],
) -> float:
    """Fraction of recommended hashtags in neither the user's own nor their
    followees' history. Empty recommendation lists score 0."""
    tags = _hashtags(items)
    if not tags:
        return 0.0
    outside = [ht not in individual_history and ht not in social_history for ht in tags]
    return float(_serendipity_prefixes(np.array([outside]))[0, -1])


def normalize_scores(candidates: Ranked) -> Ranked:
    """A ranked list's scores min-max rescaled, in its order: a block of one
    list (see rerank_block)."""
    scores = _group_minmax(np.zeros(len(candidates), dtype=np.int64),
                           np.array([score for _, score in candidates], dtype=np.float64))
    return [(ht, score) for (ht, _), score in zip(candidates, scores.tolist())]


def rerank_hybrid(candidates: Ranked, params: HybridParams, index: SimilarityIndex) -> Ranked:
    """Greedy marginal-relevance reorder of the candidate list.

    Repeatedly selects the candidate maximizing
        lambda * accuracy + (1 - lambda) * (1 - max similarity to selected)
    with nothing selected yet the dissimilarity term is 1, so the first
    pick is the accuracy argmax. Candidate scores must already be
    normalized to [0, 1] (see normalize_scores). Ties resolve to the
    earlier input position, so lambda = 1 reproduces the input order.
    A block of one list (see rerank_block).
    """
    lengths = np.array([len(candidates)])
    scores = np.array([[score for _, score in candidates]], dtype=np.float64)
    tables = index._tables([ht for ht, _ in candidates], lengths)
    return [candidates[pos] for pos in _greedy(scores, lengths, tables, params.lambda_param)[0]]
