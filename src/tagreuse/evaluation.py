"""Leave-latest-out benchmarking of the recommenders.

For every seed user with at least two hashtag-bearing tweets, the most
recent such tweet is held out: its hashtags are the targets and its
timestamp is the reference time, so each recommender sees exactly the
events strictly before that user's query. Precision/recall are macro
averaged over users at every k up to k_max, optionally after hybrid
re-ranking and with diversity/serendipity columns.

`evaluate` answers all queries from one CorpusIndex in one pass over the
split: `recommend_many` scores the users in blocks, and each list equals
the one-query `recommend` list whatever block it was scored in. A block's
items become keys query * T + tag id (T tags), and its hits at every k,
and with re-ranking its items outside their users' history, come from
membership in sorted keys and prefix sums. `rerank_block` re-ranks the
lists on their keys' tag ids and scores the ILD and serendipity of every
prefix. Each list's per-k terms are added in the split's user-id order,
fixing the sums' bits.
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
from .index import (CorpusIndex, at_k, first_of_runs, member, padded, run_start,
                    size_cuts, user_pairs)
# recommend stays bound too: bench/tracing.py wraps it by name here.
from .recommend import BLLParams, CFParams, MixParams, Ranked, recommend, recommend_many


# At most this many k: the per-user hits, the points and the report text
# all grow with it.
MAX_K = 1000

# A block of users' size at most (one user may exceed it), in array cells:
# k_max per list, or with re-ranking k_max ** 2 (its pair table) per list
# and the history rows of its users and followees. Its temporaries, its
# tags' co-occurrence entries among them, grow with it.
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
    # are a run and a user's latest tweet is the one of its last row.
    n_rows = np.bincount(corpus.user, minlength=len(corpus.users))
    last = np.zeros(len(corpus.users), dtype=np.int64)
    np.maximum.at(last, corpus.user, np.arange(len(corpus.user), dtype=np.int32))
    users = sorted(np.flatnonzero(n_rows).tolist(), key=corpus.users.__getitem__)
    start = run_start(first_of_runs(corpus.tweet))[last[users]]
    splits = []  # in user-id order
    for u, hi, lo in zip(users, last[users].tolist(), start.tolist()):
        if corpus.users[u] in corpus.seed_users and n_rows[u] > hi + 1 - lo:
            test_tags = frozenset(map(corpus.tags.__getitem__, corpus.tag[lo : hi + 1].tolist()))
            splits.append(UserSplit(corpus.users[u], corpus.tweet_ids[corpus.tweet[hi]],
                                    test_tags, int(corpus.ts[hi])))
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
    n_tags, tag_ids = len(corpus.tags), corpus.tag_ids

    k_max = config.k_max
    # algo -> per-k sums of precision, recall, ILD and serendipity
    sums = {algo: np.zeros((4, k_max)) for algo in algorithms}
    per_user: dict[str, dict[str, PerUserResult]] = {algo: {} for algo in algorithms}
    names = list(sums)  # a name given twice is scored once, as it has one set of sums
    n_test = [len(us.test_hashtags) for us in split.users]
    # the sorted keys query * T + tag id of each user's test hashtags
    targets = np.sort(np.fromiter((q * n_tags + tag_ids[ht] for q, us in enumerate(split.users)
                                   for ht in us.test_hashtags), np.int64, sum(n_test)))
    lists = recommend_many(index, names, users, [us.ref_time for us in split.users], k_max,
                           bll=config.bll, mix=config.mix, cf=config.cf)
    cells = np.full(len(users), len(names) * k_max)
    with_beyond = config.rerank_lambda is not None
    if with_beyond:
        sims = SimilarityIndex.from_corpus(corpus, exclude_tweets=split.test_tweet_ids)
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
        lengths = np.fromiter(map(len, recs), np.int64, len(recs))
        # each item's key query * T + tag id
        keys = np.repeat((lo + np.arange(len(recs)) // len(names)) * n_tags, lengths)
        keys += np.fromiter((tag_ids[ht] for rec in recs for ht, _ in rec), np.int64, len(keys))
        terms = np.zeros((len(recs), 4, k_max))  # each list's per-k terms, as in sums
        if with_beyond:
            a, b = np.searchsorted(query, (lo, hi))
            history = index.grouped_rows(query[a:b] - lo, user[a:b], ends[query[a:b]], hi - lo)[0]
            scores = np.fromiter((s for rec in recs for _, s in rec), np.float64, len(keys))
            picks, terms[:, 2], terms[:, 3] = rerank_block(
                keys % n_tags, scores, lengths, config.rerank_lambda, sims,
                ~member(history + lo * n_tags, keys), k_max)
            keys = keys[picks]
        hit = padded(member(targets, keys), lengths, False)  # whether each item is a target
        hits = at_k(np.cumsum(hit, axis=1), lengths, k_max)
        terms[:, 0] = hits / np.arange(1, k_max + 1)
        terms[:, 1] = hits / np.repeat(n_test[lo:hi], len(names))[:, None]
        for j, (row, hits_at_k) in enumerate(zip(terms, hits.tolist())):
            q, algo = lo + j // len(names), names[j % len(names)]
            sums[algo] += row
            per_user[algo][users[q]] = PerUserResult(tuple(hits_at_k), n_test[q])

    n_users = len(split.users)
    algo_points: dict[str, tuple[KPoint, ...]] = {}
    for algo, algo_sums in sums.items():
        p, r, ild, ser = (algo_sums / n_users).tolist()
        algo_points[algo] = tuple(
            KPoint(
                k=k,
                precision=p[k - 1],
                recall=r[k - 1],
                ild=ild[k - 1] if with_beyond else None,
                serendipity=ser[k - 1] if with_beyond else None,
            )
            for k in range(1, k_max + 1)
        )
    return EvalReport(
        n_users_evaluated=n_users,
        k_max=k_max,
        algorithms=algo_points,
        per_user=per_user,
    )
