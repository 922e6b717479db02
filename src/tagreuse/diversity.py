"""Beyond-accuracy metrics and a greedy accuracy/diversity re-ranker.

Hashtag similarity is grounded in tweet-level co-occurrence: two hashtags
are similar when they tend to appear in the same tweets. On top of that:

  intra_list_diversity_at_k
                        1 - mean pairwise similarity of every prefix of a
                        ranked list, from one table of its pair
                        similarities (each pair computed once)
  intra_list_diversity  the same for the whole list only
  serendipity           fraction of recommendations outside the user's
                        own + followee history (their reuse bubble)
  rerank_hybrid         marginal-relevance greedy reorder trading
                        accuracy against dissimilarity to what is
                        already selected
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import Corpus
from .recommend import Ranked


@dataclass(frozen=True)
class HybridParams:
    """lambda_param is the accuracy weight: 1.0 keeps the input order,
    0.0 ranks purely by dissimilarity to already-selected items."""

    lambda_param: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.lambda_param <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lambda_param}")


class SimilarityIndex:
    """Sparse tweet co-occurrence vectors per hashtag.

    vector(a)[b] = number of tweets containing both a and b (a != b).
    Symmetric by construction; built from assignments strictly before
    `before` when given (the training portion).
    """

    def __init__(self, vectors: dict[str, dict[str, int]]):
        self._vectors = vectors
        self._norms = {
            ht: math.sqrt(sum(c * c for c in vec.values()))
            for ht, vec in vectors.items()
        }

    @classmethod
    def from_corpus(
        cls,
        corpus: Corpus,
        before: int | None = None,
        exclude_tweets: frozenset[str] | set[str] | None = None,
    ) -> "SimilarityIndex":
        by_tweet: dict[str, set[str]] = {}
        for a in corpus.assignments:
            if before is not None and a.timestamp >= before:
                continue
            if exclude_tweets is not None and a.tweet_id in exclude_tweets:
                continue
            by_tweet.setdefault(a.tweet_id, set()).add(a.hashtag)
        vectors: dict[str, dict[str, int]] = {}
        for tags in by_tweet.values():
            if len(tags) < 2:
                continue
            ordered = sorted(tags)
            for i, a in enumerate(ordered):
                va = vectors.setdefault(a, {})
                for b in ordered[i + 1 :]:
                    va[b] = va.get(b, 0) + 1
                    vb = vectors.setdefault(b, {})
                    vb[a] = vb.get(a, 0) + 1
        return cls(vectors)

    def vector(self, hashtag: str) -> dict[str, int]:
        return self._vectors.get(hashtag, {})

    def similarity(self, ht_a: str, ht_b: str) -> float:
        """Cosine of the two co-occurrence vectors; 0 if either is empty."""
        va, vb = self.vector(ht_a), self.vector(ht_b)
        if not va or not vb:
            return 0.0
        if len(va) > len(vb):
            va, vb = vb, va
        dot = 0
        for ht, c in va.items():
            cb = vb.get(ht)
            if cb:
                dot += c * cb
        if dot == 0:
            return 0.0
        return dot / (self._norms[ht_a] * self._norms[ht_b])


def _hashtags(items: Ranked | list[str]) -> list[str]:
    return [it[0] if isinstance(it, tuple) else it for it in items]


def intra_list_diversity_at_k(items: Ranked | list[str], index: SimilarityIndex) -> list[float]:
    """Element k-1 is the intra-list diversity of items[:k], for every k.

    Each unordered pair's similarity is computed once into a per-list
    table. Every prefix then adds up its own pairs from the table in
    row-major order (i ascending, then j > i ascending), with a plain
    loop, so each value is bit-identical to scoring that prefix alone.
    """
    tags = _hashtags(items)
    n = len(tags)
    # rows[i][j - i - 1] = similarity of tags[i] and tags[j], for j > i
    rows = [[index.similarity(tags[i], tags[j]) for j in range(i + 1, n)] for i in range(n)]
    out = [0.0] if n else []  # one item has no pairs
    for k in range(2, n + 1):
        total = 0.0
        for i in range(k - 1):
            for sim in rows[i][: k - 1 - i]:
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
    bubble = individual_history | social_history
    outside = sum(1 for ht in tags if ht not in bubble)
    return outside / len(tags)


def normalize_scores(candidates: Ranked) -> Ranked:
    """Min-max rescale scores to [0, 1] preserving order; a degenerate
    range maps everything to 1.0."""
    if not candidates:
        return []
    values = [s for _, s in candidates]
    lo, hi = min(values), max(values)
    if hi == lo:
        return [(ht, 1.0) for ht, _ in candidates]
    span = hi - lo
    return [(ht, (s - lo) / span) for ht, s in candidates]


def rerank_hybrid(
    candidates: Ranked,
    params: HybridParams,
    index: SimilarityIndex,
) -> Ranked:
    """Greedy marginal-relevance reorder of the candidate list.

    Repeatedly selects the candidate maximizing
        lambda * accuracy + (1 - lambda) * (1 - max similarity to selected)
    with nothing selected yet the dissimilarity term is 1, so the first
    pick is the accuracy argmax. Candidate scores must already be
    normalized to [0, 1] (see normalize_scores). Ties resolve to the
    earlier input position, so lambda = 1 reproduces the input order.
    """
    lam = params.lambda_param
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
        chosen_ht = candidates[best_pos][0]
        for pos in remaining:
            sim = index.similarity(candidates[pos][0], chosen_ht)
            if sim > max_sim_to_selected[pos]:
                max_sim_to_selected[pos] = sim
    return [candidates[pos] for pos in selected]
