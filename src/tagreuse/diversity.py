"""Beyond-accuracy metrics and a greedy accuracy/diversity re-ranker.

Hashtag similarity is grounded in tweet-level co-occurrence: two hashtags
are similar when they tend to appear in the same tweets. SimilarityIndex
keeps the counts in CSR form over the corpus's tag ids, counted in one
array program over the tweets' runs of rows. Every cosine comes
from SimilarityIndex.pair_table, which gathers the listed tags' rows by
array indexing and scores all pairs of one list with a single float64
matrix product; the counts keep that product exact (see SimilarityIndex).
A caller that scores one list several times builds its table once and
passes it on: `evaluate` hands the candidates' table to the re-ranker and,
permuted to the re-ranked order, to the ILD. On top of that:

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

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .recommend import Ranked, minmax_normalize


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
    more empty row, id `len(tags)`, stands for every unknown tag. `_norms`
    holds each row's norm, 0.0 for an empty row.

    Cosines are read from pair tables (see pair_table), built by a float64
    matrix product of the counts. Every partial sum of a dot product there
    is an integer no larger than the larger squared norm, so the product
    is exact in any summation order as long as every squared norm is below
    2**53; the constructor rejects counts that break that bound.
    """

    def __init__(self, tags: list[str], tag_ids: dict[str, int], indptr: np.ndarray,
                 indices: np.ndarray, counts: np.ndarray):
        """Row r of the CSR arrays (indptr has len(tags) + 1 entries) holds
        the distinct neighbour ids of tags[r] and their positive int counts."""
        squared = _squared_norms(tags, indptr, counts)
        self._tags, self._ids, self._indices, self._counts = tags, tag_ids, indices, counts
        self._indptr = np.append(indptr, indptr[-1])
        self._norms = np.sqrt(np.append(squared, 0).astype(np.float64))

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

    def pair_table(self, tags: list[str]) -> list[list[float]]:
        """table[i][j] is the cosine of the co-occurrence vectors of tags[i]
        and tags[j]; 0 where their dot product is 0, which covers tags with
        no vector. The rows' CSR slices are gathered into an n x U counts
        matrix with one column per distinct neighbour id of the listed
        tags; it lives only for this call."""
        rows = self._rows(tags)
        starts = self._indptr[rows]
        lengths = self._indptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        # entry t of the gather lies in row i with ends[i] - lengths[i] <= t < ends[i]
        pos = np.arange(ends[-1] if len(tags) else 0) + np.repeat(starts - ends + lengths, lengths)
        cols, inverse = np.unique(self._indices[pos], return_inverse=True)
        m = np.zeros((len(tags), len(cols)))
        m[np.repeat(np.arange(len(tags)), lengths), inverse] = self._counts[pos]
        dot = m @ m.T  # exact: see the class docstring
        nrm = self._norms[rows]
        table = np.zeros_like(dot)
        np.divide(dot, nrm[:, None] * nrm[None, :], out=table, where=dot != 0.0)
        return table.tolist()

    def similarity(self, ht_a: str, ht_b: str) -> float:
        """Cosine of the two co-occurrence vectors; 0 if either is empty."""
        return self.pair_table([ht_a, ht_b])[0][1]


def _squared_norms(tags: list[str], indptr: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each CSR row's sum of squared counts, exact; ValueError from 2**53 on."""
    # A count of 2**27 breaks the bound alone. Below it, a square splits at
    # bit 27 into two parts below 2**28; a row holds fewer than 2**31 (one
    # per distinct neighbour id), so their row sums, as differences of int64
    # cumulative sums, are exact whatever those wrap to. One buffer holds
    # the squares, one part and its cumulative sums in turn.
    total = np.zeros(len(counts) + 1, dtype=np.int64)
    squares = total[1:]
    sums = []
    for part, operand in ((np.right_shift, 27), (np.bitwise_and, 2**27 - 1)):
        np.minimum(counts, 2**27, out=squares)
        squares *= squares
        part(squares, operand, out=squares)
        np.cumsum(squares, out=squares)
        sums.append(np.diff(total[indptr]))
    high, low = sums
    wide = np.flatnonzero(high + (low >> 27) >= 2**26)
    if len(wide):
        r = wide[0]
        raise ValueError(f"co-occurrence vector of {tags[r]!r} has squared norm"
                         f" {int(high[r]) * 2**27 + int(low[r])} >= 2**53;"
                         " its cosines would not be exact")
    return (high << 27) + low


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


def intra_list_diversity_at_k(
    items: Ranked | list[str], index: SimilarityIndex, *, table: list[list[float]] | None = None
) -> list[float]:
    """Element k-1 is the intra-list diversity of items[:k], for every k.

    The list's pair table is built once, unless the caller passes it as
    `table`. Every prefix then adds up its own pairs from the table in
    row-major order (i ascending, then j > i ascending), with a plain
    loop, so each value is bit-identical to scoring that prefix alone.
    """
    tags = _hashtags(items)
    n = len(tags)
    if table is None:
        table = index.pair_table(tags)
    out = [0.0] if n else []  # one item has no pairs
    for k in range(2, n + 1):
        total = 0.0
        for i in range(k - 1):
            for sim in table[i][i + 1 : k]:
                total += sim
        out.append(1.0 - total / (k * (k - 1) / 2))
    return out


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
    outside = sum(
        1 for ht in tags if ht not in individual_history and ht not in social_history
    )
    return outside / len(tags)


def normalize_scores(candidates: Ranked) -> Ranked:
    """`minmax_normalize` over a ranked list's scores, keeping its order."""
    scores = minmax_normalize(np.array([score for _, score in candidates], dtype=np.float64))
    return [(ht, score) for (ht, _), score in zip(candidates, scores.tolist())]


def rerank_hybrid(
    candidates: Ranked,
    params: HybridParams,
    index: SimilarityIndex,
    *,
    table: list[list[float]] | None = None,
) -> Ranked:
    """Greedy marginal-relevance reorder of the candidate list.

    Repeatedly selects the candidate maximizing
        lambda * accuracy + (1 - lambda) * (1 - max similarity to selected)
    with nothing selected yet the dissimilarity term is 1, so the first
    pick is the accuracy argmax. Candidate scores must already be
    normalized to [0, 1] (see normalize_scores). Ties resolve to the
    earlier input position, so lambda = 1 reproduces the input order.
    Every similarity is read from the candidates' one pair table, built
    here unless the caller passes it as `table`.
    """
    lam = params.lambda_param
    if table is None:
        table = index.pair_table([ht for ht, _ in candidates])
    remaining = list(range(len(candidates)))
    selected: list[int] = []
    max_sim_to_selected = [0.0] * len(candidates)
    while remaining:
        best_pos = None
        best_score = -math.inf
        for pos in remaining:
            score = lam * candidates[pos][1] + (1.0 - lam) * (1.0 - max_sim_to_selected[pos])
            if score > best_score:
                best_score = score
                best_pos = pos
        remaining.remove(best_pos)
        selected.append(best_pos)
        sims = table[best_pos]
        for pos in remaining:
            sim = sims[pos]
            if sim > max_sim_to_selected[pos]:
                max_sim_to_selected[pos] = sim
    return [candidates[pos] for pos in selected]
