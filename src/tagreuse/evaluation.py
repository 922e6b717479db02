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
`recommend` list whatever block it was scored in. The per-k sums are
added one user at a time in the split's user-id order, which fixes their
bits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import Corpus
# All stay bound, intra_list_diversity too: bench/tracing.py wraps them by name here.
from .diversity import (
    HybridParams,
    SimilarityIndex,
    intra_list_diversity,
    intra_list_diversity_at_k,
    normalize_scores,
    rerank_hybrid,
    serendipity,
)
from .index import CorpusIndex
# recommend stays bound too: bench/tracing.py wraps it by name here.
from .recommend import BLLParams, CFParams, MixParams, Ranked, recommend, recommend_many


# At most this many k: the per-user hits, the points and the report text
# all grow with it.
MAX_K = 1000


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
    terms are added to the per-k sums as the user's lists come, in the
    split's user-id order: floating-point sums depend on their order, and
    this one does not depend on reference times or block boundaries, so
    results are reproducible to the bit. With re-ranking, each list's pair
    similarities are built once, as the candidates' pair table: the
    re-ranker reads it, and the ILD at every k (intra_list_diversity_at_k)
    reads it permuted to the re-ranked order; for k past the end of a
    short list the ILD is the whole list's value.
    """
    split = make_split(corpus)
    if not split.users:
        raise NoEvaluableUsers("no seed user has >= 2 hashtag-bearing tweets")
    index = CorpusIndex(corpus)

    with_beyond = config.rerank_lambda is not None
    if with_beyond:
        sim_index = SimilarityIndex.from_corpus(corpus, exclude_tweets=split.test_tweet_ids)
        hybrid = HybridParams(lambda_param=config.rerank_lambda)

    k_max = config.k_max
    ks = range(1, k_max + 1)
    # algo -> per-k sums of precision, recall, ILD and serendipity
    sums = {algo: [[0.0] * k_max for _ in range(4)] for algo in algorithms}
    per_user: dict[str, dict[str, PerUserResult]] = {algo: {} for algo in algorithms}
    # a name given twice is scored once, as it has one set of sums
    lists = recommend_many(index, list(sums), [us.user_id for us in split.users],
                           [us.ref_time for us in split.users], k_max,
                           bll=config.bll, mix=config.mix, cf=config.cf)
    for us, recs in zip(split.users, lists):
        n_test = len(us.test_hashtags)
        if with_beyond:
            own = index.own_tags_before(us.user_id, us.ref_time)
            social = index.followee_tags_before(us.user_id, us.ref_time)
        for algo, (sum_p, sum_r, sum_ild, sum_ser) in sums.items():
            rec = recs[algo]
            if with_beyond:
                candidates = normalize_scores(rec)
                table = sim_index.pair_table([ht for ht, _ in candidates])
                rec = rerank_hybrid(candidates, hybrid, sim_index, table=table)
            hits_at_k = []
            hits = 0
            for k in ks:
                if k <= len(rec) and rec[k - 1][0] in us.test_hashtags:
                    hits += 1
                hits_at_k.append(hits)
                sum_p[k - 1] += hits / k
                sum_r[k - 1] += hits / n_test
            if with_beyond:
                # the candidates' table in re-ranked order: an entry depends
                # only on its two tags, so this equals a fresh table of rec
                at = {ht: pos for pos, (ht, _) in enumerate(candidates)}
                order = [at[ht] for ht, _ in rec]
                ild = intra_list_diversity_at_k(
                    rec, sim_index, table=[[table[i][j] for j in order] for i in order]
                )
                # past the end of a short list, rec[:k] is the whole list
                ild += [ild[-1] if ild else 0.0] * (k_max - len(ild))
                for k in ks:
                    sum_ild[k - 1] += ild[k - 1]
                    sum_ser[k - 1] += serendipity(rec[:k], own, social)
            per_user[algo][us.user_id] = PerUserResult(tuple(hits_at_k), n_test)

    n_users = len(split.users)
    algo_points: dict[str, tuple[KPoint, ...]] = {}
    for algo, (sum_p, sum_r, sum_ild, sum_ser) in sums.items():
        algo_points[algo] = tuple(
            KPoint(
                k=k,
                precision=sum_p[k - 1] / n_users,
                recall=sum_r[k - 1] / n_users,
                ild=(sum_ild[k - 1] / n_users) if with_beyond else None,
                serendipity=(sum_ser[k - 1] / n_users) if with_beyond else None,
            )
            for k in ks
        )
    return EvalReport(
        n_users_evaluated=n_users,
        k_max=k_max,
        algorithms=algo_points,
        per_user=per_user,
    )
