"""Leave-latest-out benchmarking of the recommenders.

For every seed user with at least two hashtag-bearing tweets, the most
recent such tweet is held out: its hashtags are the targets and its
timestamp is the reference time, so each recommender sees exactly the
events strictly before that user's query. Precision/recall are macro
averaged over users at every k up to k_max, optionally after hybrid
re-ranking and with diversity/serendipity columns.

`evaluate` answers all queries from one CorpusIndex in one pass over the
split: `recommend_many` scores the users in blocks, every algorithm as
array passes over a whole block, and each list equals the one-query
`recommend` list whatever block it was scored in. With re-ranking, the
lists of a block of users go to `rerank_block` together, which re-ranks
them and scores the ILD and serendipity of every prefix as array passes
over the block. The per-k sums are added one user at a time in the
split's user-id order, which fixes their bits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from .corpus import Corpus
# The per-list functions stay bound, though evaluate scores blocks through
# rerank_block: bench/tracing.py wraps them by name here.
from .diversity import (
    HybridParams,
    SimilarityIndex,
    intra_list_diversity,
    normalize_scores,
    rerank_block,
    rerank_hybrid,
    serendipity,
)
from .index import CorpusIndex, size_cuts, user_pairs
# recommend stays bound too: bench/tracing.py wraps it by name here.
from .recommend import BLLParams, CFParams, MixParams, Ranked, recommend, recommend_many


# At most this many k: the per-user hits, the points and the report text
# all grow with it.
MAX_K = 1000

# A block of re-ranked users' size at most (one user may exceed it), in
# array cells: its lists' pair tables, k_max ** 2 cells each, and the
# history rows of its users and their followees. Its temporaries, its tags'
# co-occurrence entries among them, grow with it.
_BLOCK_CELLS = 1 << 14


class EmptyTestSet(Exception):
    """precision/recall are undefined against an empty target set."""


class NoEvaluableUsers(Exception):
    """No seed user has enough history to form a train/test split."""


@dataclass(frozen=True)
class UserSplit:
    user_id: str
    test_tweet_id: str
    test_hashtags: frozenset[str]
    ref_time: int


@dataclass(frozen=True)
class EvalSplit:
    users: tuple[UserSplit, ...]  # sorted by user_id

    @property
    def test_tweet_ids(self) -> frozenset[str]:
        return frozenset(u.test_tweet_id for u in self.users)


def make_split(corpus: Corpus) -> EvalSplit:
    """Hold out each seed user's most recent hashtag-bearing tweet.

    Users with fewer than two hashtag-bearing tweets are excluded; ties on
    timestamp resolve to the larger tweet id (the corpus sort order).
    """
    # The rows are in (timestamp, tweet, hashtag) order, so a tweet's rows
    # are adjacent and a user's latest tweet is the one of its last row.
    n_rows = np.bincount(corpus.user, minlength=len(corpus.users))
    last = np.zeros(len(corpus.users), dtype=np.int64)
    np.maximum.at(last, corpus.user, np.arange(len(corpus.user), dtype=np.int32))
    tweet, splits = memoryview(corpus.tweet), []
    for u in np.flatnonzero(n_rows).tolist():
        hi = start = int(last[u])
        while start and tweet[start - 1] == tweet[hi]:
            start -= 1
        if corpus.users[u] in corpus.seed_users and n_rows[u] > hi + 1 - start:
            test_tags = frozenset(map(corpus.tags.__getitem__, corpus.tag[start : hi + 1].tolist()))
            splits.append(UserSplit(corpus.users[u], corpus.tweet_ids[tweet[hi]], test_tags,
                                    int(corpus.ts[hi])))
    splits.sort(key=lambda us: us.user_id)
    return EvalSplit(users=tuple(splits))


def precision_recall_at_k(
    recommended: Ranked, test_hashtags: frozenset[str] | set[str], k: int
) -> tuple[float, float]:
    """hits / k and hits / |test| over the top-k prefix of the list."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not test_hashtags:
        raise EmptyTestSet("test hashtag set is empty")
    hits = sum(1 for ht, _ in recommended[:k] if ht in test_hashtags)
    return hits / k, hits / len(test_hashtags)


@dataclass(frozen=True)
class EvalConfig:
    k_max: int = 10
    bll: BLLParams = field(default_factory=BLLParams)
    mix: MixParams = field(default_factory=MixParams)
    cf: CFParams = field(default_factory=CFParams)
    rerank_lambda: float | None = None  # enables hybrid re-ranking + extra columns

    def __post_init__(self):
        if not 1 <= self.k_max <= MAX_K:
            raise ValueError(f"k_max must be in [1, {MAX_K}], got {self.k_max}")
        if self.rerank_lambda is not None:
            HybridParams(self.rerank_lambda)  # raises on a lambda outside [0, 1]


@dataclass(frozen=True)
class KPoint:
    k: int
    precision: float
    recall: float
    ild: float | None = None
    serendipity: float | None = None

    def to_json_dict(self) -> dict:
        return {name: v for name, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class PerUserResult:
    hits_at_k: tuple[int, ...]
    n_test: int


@dataclass(frozen=True)
class EvalReport:
    n_users_evaluated: int
    k_max: int
    algorithms: dict[str, tuple[KPoint, ...]]
    per_user: dict[str, dict[str, PerUserResult]]  # algo -> user -> detail

    def to_json_dict(self) -> dict:
        return {
            "n_users_evaluated": self.n_users_evaluated,
            "k_max": self.k_max,
            "algorithms": {
                algo: [p.to_json_dict() for p in points]
                for algo, points in self.algorithms.items()
            },
        }


def evaluate(
    corpus: Corpus,
    algorithms: list[str],
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run every algorithm over the split and macro-average the metrics.

    Users whose recommendation list is empty contribute zeros. Each user's
    terms are added to the per-k sums in the split's user-id order:
    floating-point sums depend on their order, and this one does not
    depend on reference times or block boundaries, so results are
    reproducible to the bit. With re-ranking, each block of users' lists
    is re-ranked and scored by rerank_block; a list's items are outside
    its user's history when neither the user nor a followee used the tag
    before the user's reference time.
    """
    split = make_split(corpus)
    if not split.users:
        raise NoEvaluableUsers("no seed user has >= 2 hashtag-bearing tweets")
    index = CorpusIndex(corpus)
    users = [us.user_id for us in split.users]

    k_max = config.k_max
    ks = range(1, k_max + 1)
    # algo -> per-k sums of precision and recall, then of ILD and serendipity
    sums = {algo: ([0.0] * k_max, [0.0] * k_max, np.zeros(k_max), np.zeros(k_max))
            for algo in algorithms}
    per_user: dict[str, dict[str, PerUserResult]] = {algo: {} for algo in algorithms}
    names = list(sums)  # a name given twice is scored once, as it has one set of sums
    lists = recommend_many(index, names, users, [us.ref_time for us in split.users], k_max,
                           bll=config.bll, mix=config.mix, cf=config.cf)
    cells = np.full(len(users), _BLOCK_CELLS)  # one user a block: none is re-ranked
    with_beyond = config.rerank_lambda is not None
    if with_beyond:
        sim_index = SimilarityIndex.from_corpus(corpus, exclude_tweets=split.test_tweet_ids)
        ends = np.array([index.end(us.ref_time) for us in split.users], dtype=np.int64)
        # (query, user id) of each query's user and followees, query ascending
        query, user = map(np.concatenate, zip(user_pairs(corpus, users, False),
                                              user_pairs(corpus, users, True)))
        order = np.argsort(query, kind="stable")
        query, user = query[order], user[order]
        cells = np.bincount(query, index.user_row_counts(user, ends[query]), len(users))
        cells += len(names) * k_max**2
    for lo, hi in size_cuts(cells, _BLOCK_CELLS, index.max_queries):
        recs = [rec[algo] for rec in islice(lists, hi - lo) for algo in names]
        if with_beyond:
            a, b = np.searchsorted(query, (lo, hi))
            history = index.grouped_rows(query[a:b] - lo, user[a:b], ends[query[a:b]], hi - lo)[0]
            recs, ild, ser = rerank_block(recs, config.rerank_lambda, sim_index,
                                          _outside(corpus, recs, len(names), history), k_max)
        for j, rec in enumerate(recs):
            us, algo = split.users[lo + j // len(names)], names[j % len(names)]
            sum_p, sum_r, sum_ild, sum_ser = sums[algo]
            n_test = len(us.test_hashtags)
            hits_at_k = []
            hits = 0
            for k in ks:
                if k <= len(rec) and rec[k - 1][0] in us.test_hashtags:
                    hits += 1
                hits_at_k.append(hits)
                sum_p[k - 1] += hits / k
                sum_r[k - 1] += hits / n_test
            if with_beyond:
                sum_ild += ild[j]
                sum_ser += ser[j]
            per_user[algo][us.user_id] = PerUserResult(tuple(hits_at_k), n_test)

    n_users = len(split.users)
    algo_points: dict[str, tuple[KPoint, ...]] = {}
    for algo, (sum_p, sum_r, sum_ild, sum_ser) in sums.items():
        ild, ser = (sum_ild / n_users).tolist(), (sum_ser / n_users).tolist()
        algo_points[algo] = tuple(
            KPoint(
                k=k,
                precision=sum_p[k - 1] / n_users,
                recall=sum_r[k - 1] / n_users,
                ild=ild[k - 1] if with_beyond else None,
                serendipity=ser[k - 1] if with_beyond else None,
            )
            for k in ks
        )
    return EvalReport(
        n_users_evaluated=n_users,
        k_max=k_max,
        algorithms=algo_points,
        per_user=per_user,
    )


def _outside(corpus: Corpus, recs: list[Ranked], n_algos: int,
             history: np.ndarray) -> np.ndarray:
    """Whether each item of the lists, n_algos lists per query and
    concatenated, is outside its query's history: the sorted keys query * T
    + tag id of the tags its user and followees used before its end."""
    keys = np.repeat(np.arange(len(recs)) // n_algos * len(corpus.tags), list(map(len, recs)))
    keys += np.fromiter((corpus.tag_ids[ht] for rec in recs for ht, _ in rec), np.int64, len(keys))
    history = np.append(history, np.iinfo(np.int64).max)  # no search runs past the end
    return history[np.searchsorted(history, keys)] != keys
