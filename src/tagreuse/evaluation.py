"""Leave-latest-out benchmarking of the recommenders.

For every seed user with at least two hashtag-bearing tweets, the most
recent such tweet is held out: its hashtags are the targets and its
timestamp is the reference time, so each recommender sees exactly the
events strictly before that user's query. Precision/recall are macro
averaged over users at every k up to k_max, optionally after hybrid
re-ranking and with diversity/serendipity columns.

`evaluate` answers all queries in one chronological pass: users are
visited in ascending reference time, so the shared CorpusIndex cursor
advances once over the corpus, and every algorithm scores a user before
the cursor moves on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .recommend import BLLParams, CFParams, MixParams, Ranked, recommend


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
    tweets_by_user: dict[str, dict[str, int]] = {}
    tags_by_tweet: dict[str, set[str]] = {}
    for a in corpus.assignments:
        if a.user_id in corpus.seed_users:
            tweets_by_user.setdefault(a.user_id, {})[a.tweet_id] = a.timestamp
            tags_by_tweet.setdefault(a.tweet_id, set()).add(a.hashtag)
    splits = []
    for user_id in sorted(tweets_by_user):
        tweets = tweets_by_user[user_id]
        if len(tweets) < 2:
            continue
        test_tweet = max(tweets, key=lambda t: (tweets[t], t))
        splits.append(
            UserSplit(
                user_id=user_id,
                test_tweet_id=test_tweet,
                test_hashtags=frozenset(tags_by_tweet[test_tweet]),
                ref_time=tweets[test_tweet],
            )
        )
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
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


@dataclass(frozen=True)
class KPoint:
    k: int
    precision: float
    recall: float
    ild: float | None = None
    serendipity: float | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"k": self.k, "precision": self.precision, "recall": self.recall}
        if self.ild is not None:
            out["ild"] = self.ild
        if self.serendipity is not None:
            out["serendipity"] = self.serendipity
        return out


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

    Users whose recommendation list is empty contribute zeros. Queries run
    in ascending (ref_time, user_id) order, so the index's time cursor
    only moves forward; each user's per-k contributions are kept and then
    summed in sorted user-id order, so results are reproducible to the
    bit. With re-ranking, the ILD at every k comes from one table of each
    list's pair similarities (intra_list_diversity_at_k); for k past the
    end of a short list it is the whole list's value.
    """
    split = make_split(corpus)
    if not split.users:
        raise NoEvaluableUsers("no seed user has >= 2 hashtag-bearing tweets")
    index = CorpusIndex(corpus)

    with_beyond = config.rerank_lambda is not None
    sim_index: SimilarityIndex | None = None
    if with_beyond:
        sim_index = SimilarityIndex.from_corpus(corpus, exclude_tweets=split.test_tweet_ids)
        hybrid = HybridParams(lambda_param=config.rerank_lambda)

    k_max = config.k_max
    ks = range(1, k_max + 1)
    # algo -> user -> (hits at each k, ild at each k, serendipity at each k)
    rows: dict[str, dict[str, tuple[list[int], list[float], list[float]]]] = {
        algo: {} for algo in algorithms
    }
    for us in sorted(split.users, key=lambda u: (u.ref_time, u.user_id)):
        if with_beyond:
            own = index.own_tags_before(us.user_id, us.ref_time)
            social = index.followee_tags_before(us.user_id, us.ref_time)
        for algo in algorithms:
            rec = recommend(
                algo, index, us.user_id, us.ref_time, k_max,
                bll=config.bll, mix=config.mix, cf=config.cf,
            )
            if with_beyond:
                rec = rerank_hybrid(normalize_scores(rec), hybrid, sim_index)
            hits_at_k = []
            hits = 0
            for k in ks:
                if k <= len(rec) and rec[k - 1][0] in us.test_hashtags:
                    hits += 1
                hits_at_k.append(hits)
            ild, ser = [], []
            if with_beyond:
                ild = intra_list_diversity_at_k(rec, sim_index)
                # past the end of a short list, rec[:k] is the whole list
                ild += [ild[-1] if ild else 0.0] * (k_max - len(ild))
                ser = [serendipity(rec[:k], own, social) for k in ks]
            rows[algo][us.user_id] = (hits_at_k, ild, ser)

    n_users = len(split.users)
    algo_points: dict[str, tuple[KPoint, ...]] = {}
    per_user: dict[str, dict[str, PerUserResult]] = {}
    for algo in algorithms:
        sum_p = [0.0] * k_max
        sum_r = [0.0] * k_max
        sum_ild = [0.0] * k_max
        sum_ser = [0.0] * k_max
        details: dict[str, PerUserResult] = {}
        for us in split.users:
            hits_at_k, ild, ser = rows[algo][us.user_id]
            n_test = len(us.test_hashtags)
            for k in ks:
                hits = hits_at_k[k - 1]
                sum_p[k - 1] += hits / k
                sum_r[k - 1] += hits / n_test
            if with_beyond:
                for k in ks:
                    sum_ild[k - 1] += ild[k - 1]
                    sum_ser[k - 1] += ser[k - 1]
            details[us.user_id] = PerUserResult(tuple(hits_at_k), n_test)
        points = tuple(
            KPoint(
                k=k,
                precision=sum_p[k - 1] / n_users,
                recall=sum_r[k - 1] / n_users,
                ild=(sum_ild[k - 1] / n_users) if with_beyond else None,
                serendipity=(sum_ser[k - 1] / n_users) if with_beyond else None,
            )
            for k in ks
        )
        algo_points[algo] = points
        per_user[algo] = details
    return EvalReport(
        n_users_evaluated=n_users,
        k_max=k_max,
        algorithms=algo_points,
        per_user=per_user,
    )
