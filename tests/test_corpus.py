"""Corpus loading, normalization, statistics, and round-trip invariants."""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagreuse.corpus import (
    Corpus,
    EmptyAfterNormalization,
    InconsistentNetwork,
    ParseError,
    _gc_paused,
    compute_stats,
    load_corpus,
    normalize_hashtag,
    write_corpus,
)

from conftest import corpus_from_tweets, random_corpus, reference_parse_assignments


class TestNormalizeHashtag:
    def test_strips_hash_and_lowercases(self):
        assert normalize_hashtag("#MAGA") == "maga"

    def test_identity_on_plain_tag(self):
        assert normalize_hashtag("fakepresident") == "fakepresident"

    def test_case_variants_collide(self):
        assert normalize_hashtag("#FakePresident") == normalize_hashtag("#fakepresident")

    def test_unicode_composition(self):
        # decomposed e + combining acute == precomposed e-acute
        assert normalize_hashtag("Café") == normalize_hashtag("café")

    def test_empty_after_normalization(self):
        with pytest.raises(EmptyAfterNormalization):
            normalize_hashtag("#")
        with pytest.raises(EmptyAfterNormalization):
            normalize_hashtag("   ")

    def test_interior_whitespace_rejected(self):
        with pytest.raises(ValueError):
            normalize_hashtag("#two words")

    def test_whitespace_rule_matches_isspace_on_every_code_point(self):
        for cp in range(sys.maxunicode + 1):
            c = chr(cp)
            for s in ("a" + c + "b", c):
                assert (s.split() != [s]) == any(ch.isspace() for ch in s), hex(cp)
            if c.isspace():
                with pytest.raises(ValueError):
                    normalize_hashtag("a" + c + "b")
            else:
                normalize_hashtag("a" + c + "b")

    def test_whitespace_after_hash_rejected(self):
        # "# a".split() has one element; the tag still holds whitespace
        with pytest.raises(ValueError):
            normalize_hashtag("# a")

    @given(st.text(min_size=1, max_size=30))
    def test_idempotent_and_invariant_shaped(self, raw):
        try:
            once = normalize_hashtag(raw)
        except (EmptyAfterNormalization, ValueError):
            return
        assert once == normalize_hashtag(once)
        assert once and not once.startswith("#")
        assert not any(c.isspace() for c in once)


class TestLoadCorpus:
    def _write(self, tmp_path, assignments: str, network: str = "u1\tu2\n"):
        apath = tmp_path / "a.tsv"
        npath = tmp_path / "n.tsv"
        apath.write_text(assignments, encoding="utf-8")
        npath.write_text(network, encoding="utf-8")
        return apath, npath

    def test_three_line_fixture_collapses_duplicates(self, tmp_path):
        # one user, one tweet, two distinct hashtags after normalization
        apath, npath = self._write(
            tmp_path, "u1\tt1\t100\ta\nu1\tt1\t100\tb\nu1\tt1\t100\t#A\n"
        )
        corpus = load_corpus(apath, npath)
        assert len(corpus.assignments) == 2
        assert {a.hashtag for a in corpus.assignments} == {"a", "b"}

    def test_empty_assignments_file(self, tmp_path):
        apath, npath = self._write(tmp_path, "")
        corpus = load_corpus(apath, npath)
        assert corpus.assignments == []
        corpus.validate()

    def test_bad_timestamp_raises_parse_error_with_line(self, tmp_path):
        apath, npath = self._write(tmp_path, "u1\tt1\t100\ta\nu1\tt2\tabc\tb\n")
        with pytest.raises(ParseError) as err:
            load_corpus(apath, npath)
        assert err.value.line_no == 2

    def test_nonpositive_timestamp_rejected(self, tmp_path):
        apath, npath = self._write(tmp_path, "u1\tt1\t0\ta\n")
        with pytest.raises(ParseError):
            load_corpus(apath, npath)

    def test_tweet_metadata_conflict_rejected(self, tmp_path):
        apath, npath = self._write(tmp_path, "u1\tt1\t100\ta\nu2\tt1\t100\tb\n")
        with pytest.raises(ParseError):
            load_corpus(apath, npath)

    def test_count_mode_skips_and_counts(self, tmp_path):
        apath, npath = self._write(
            tmp_path, "u1\tt1\t100\ta\nbroken line\nu1\tt2\tabc\tb\nu1\tt3\t300\tc\n"
        )
        corpus = load_corpus(apath, npath, on_malformed="count")
        assert corpus.n_malformed_lines == 2
        assert len(corpus.assignments) == 2

    def test_self_follow_rejected(self, tmp_path):
        apath, npath = self._write(tmp_path, "u1\tt1\t100\ta\n", network="u1\tu1\n")
        with pytest.raises(InconsistentNetwork):
            load_corpus(apath, npath)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.tsv", tmp_path / "alsono.tsv")

    def test_seed_with_empty_followee_row(self, tmp_path):
        apath, npath = self._write(tmp_path, "u1\tt1\t100\ta\n", network="u1\tu2\nu3\n")
        corpus = load_corpus(apath, npath)
        assert corpus.seed_users == {"u1", "u3"}
        assert corpus.network.followees("u3") == frozenset()

    def test_jsonl_format(self, tmp_path):
        lines = [
            '{"user": "u1", "tweet": "t1", "ts": 100, "hashtags": ["#A", "b"]}',
            '{"user": "u2", "tweet": "t2", "ts": 200, "hashtags": []}',
        ]
        apath = tmp_path / "a.jsonl"
        apath.write_text("\n".join(lines) + "\n", encoding="utf-8")
        npath = tmp_path / "n.tsv"
        npath.write_text("u1\tu2\n", encoding="utf-8")
        corpus = load_corpus(apath, npath, fmt="jsonl")
        assert len(corpus.assignments) == 2
        # the hashtag-less tweet still counts toward the tweet total
        assert len(corpus.tweet_index) == 2
        assert compute_stats(corpus).n_tweets == 2

    def test_jsonl_malformed_line(self, tmp_path):
        apath = tmp_path / "a.jsonl"
        apath.write_text('{"user": "u1"}\n', encoding="utf-8")
        npath = tmp_path / "n.tsv"
        npath.write_text("u1\tu2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_corpus(apath, npath, fmt="jsonl")


NETWORK = "u1\tu2\nu3\n"
EDGES = {"u1": {"u2"}, "u3": set()}

# Small pools, so rows repeat and tweets recur with conflicting metadata.
_USERS = ["u1", "u2", "u3", ""]
_TWEETS = ["t1", "t2", "t3", "t4", ""]
_TAGS = ["a", "A", "#a", "##A", "b", "#B", "Café", "Cafe\u0301", "STRASSE", "straße",
         "", "#", "  ", "a b", "# a", "#x\u3000y", " c ", "a\x85b"]
_tsv_line = st.one_of(
    st.tuples(
        st.sampled_from(_USERS),
        st.sampled_from(_TWEETS),
        st.sampled_from(["5", "7", "9", "0", "-3", "abc", "+9", ""]),
        st.sampled_from(_TAGS),
    ).map("\t".join),
    st.sampled_from(["", "broken line", "u1\tt1\t5", "u1\tt1\t5\ta\tb"]),
)
_jsonl_line = st.one_of(
    st.fixed_dictionaries({
        "user": st.sampled_from(_USERS + [7]),
        "tweet": st.sampled_from(_TWEETS),
        "ts": st.sampled_from([5, 7, 9, 0, -3, True, "5", 5.0]),
        "hashtags": st.lists(st.sampled_from(_TAGS), max_size=4) | st.just("a"),
    }).map(json.dumps),
    st.sampled_from(["", "{", "[1, 2]", '{"user": "u1"}', "null"]),
)


def _assignment_file(lines: list[str], ending: str, bom: bool) -> bytes:
    text = "".join(line + ending for line in lines)
    return (("\ufeff" if bom else "") + text).encode("utf-8")


class TestLoaderEquivalence:
    """load_corpus against Corpus.from_tweets over the line-by-line
    reference parser in conftest, on files full of malformed lines."""

    def _check(self, fmt: str, data: bytes) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            apath, npath = Path(tmp) / f"a.{fmt}", Path(tmp) / "n.tsv"
            apath.write_bytes(data)
            npath.write_text(NETWORK, encoding="utf-8")
            records, bad = reference_parse_assignments(apath, fmt)
            expected = Corpus.from_tweets(records, EDGES)

            counted = load_corpus(apath, npath, fmt, on_malformed="count")
            assert counted == expected
            assert list(counted.tweet_index) == list(expected.tweet_index)
            assert counted.n_malformed_lines == len(bad)

            if bad:
                with pytest.raises(ParseError) as err:
                    load_corpus(apath, npath, fmt)
                assert err.value.line_no == bad[0]
            else:
                assert load_corpus(apath, npath, fmt) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_tsv_line, max_size=25), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_tsv_matches_reference_parser(self, lines, ending, bom):
        self._check("tsv", _assignment_file(lines, ending, bom))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_jsonl_line, max_size=25), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_jsonl_matches_reference_parser(self, lines, ending, bom):
        self._check("jsonl", _assignment_file(lines, ending, bom))

    def test_bad_tag_is_rejected_on_every_line(self, tmp_path):
        apath, npath = tmp_path / "a.tsv", tmp_path / "n.tsv"
        apath.write_text("u1\tt1\t5\ta b\nu1\tt2\t6\ta\nu1\tt3\t7\ta b\n", encoding="utf-8")
        npath.write_text(NETWORK, encoding="utf-8")
        corpus = load_corpus(apath, npath, on_malformed="count")
        assert corpus.n_malformed_lines == 2
        assert [a.tweet_id for a in corpus.assignments] == ["t2"]

    def test_non_string_jsonl_hashtag_is_a_parse_error(self, tmp_path):
        apath, npath = tmp_path / "a.jsonl", tmp_path / "n.tsv"
        apath.write_text(
            '{"user": "u1", "tweet": "t1", "ts": 5, "hashtags": ["a"]}\n'
            '{"user": "u1", "tweet": "t2", "ts": 6, "hashtags": [["a"], 1]}\n',
            encoding="utf-8",
        )
        npath.write_text(NETWORK, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_corpus(apath, npath, fmt="jsonl")
        assert err.value.line_no == 2
        assert load_corpus(apath, npath, fmt="jsonl", on_malformed="count").n_malformed_lines == 1


class TestGcPaused:
    def test_restores_enabled_gc(self):
        assert gc.isenabled()
        with _gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_disabled_gc_disabled(self):
        gc.disable()
        try:
            with _gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restores_on_exception(self):
        with pytest.raises(ParseError):
            with _gc_paused():
                raise ParseError(1, "boom")
        assert gc.isenabled()


class TestComputeStats:
    def test_fixture_counts(self, stats_fixture_corpus):
        stats = compute_stats(stats_fixture_corpus)
        assert (
            stats.n_seed_users,
            stats.n_users,
            stats.n_tweets,
            stats.n_distinct_hashtags,
            stats.n_assignments,
        ) == (2, 3, 4, 3, 6)

    def test_empty_corpus(self):
        corpus = corpus_from_tweets([], {})
        stats = compute_stats(corpus)
        assert (
            stats.n_seed_users,
            stats.n_users,
            stats.n_tweets,
            stats.n_distinct_hashtags,
            stats.n_assignments,
        ) == (0, 0, 0, 0, 0)

    def test_followee_only_users_count(self):
        corpus = corpus_from_tweets([("u1", "t1", 10, ("a",))], {"u1": {"ghost"}})
        assert compute_stats(corpus).n_users == 2

    def test_json_field_names(self, stats_fixture_corpus):
        d = compute_stats(stats_fixture_corpus).to_json_dict()
        assert set(d) == {
            "seed_users", "users", "tweets", "distinct_hashtags", "hashtag_assignments",
        }

    def test_additivity_over_disjoint_copies(self, stats_fixture_corpus):
        base = stats_fixture_corpus
        k = 3
        tweets = []
        edges = {}
        for i in range(k):
            for a in base.assignments:
                tweets.append(
                    (f"{a.user_id}_{i}", f"{a.tweet_id}_{i}", a.timestamp, (f"{a.hashtag}_{i}",))
                )
            for seed, fs in base.network.edges.items():
                edges[f"{seed}_{i}"] = {f"{f}_{i}" for f in fs}
        combined = compute_stats(corpus_from_tweets(tweets, edges))
        single = compute_stats(base)
        assert combined.n_seed_users == k * single.n_seed_users
        assert combined.n_users == k * single.n_users
        assert combined.n_tweets == k * single.n_tweets
        assert combined.n_distinct_hashtags == k * single.n_distinct_hashtags
        assert combined.n_assignments == k * single.n_assignments


class TestRoundTrip:
    def test_tsv_roundtrip_identity(self, tmp_path, stats_fixture_corpus):
        a1, n1 = tmp_path / "a1.tsv", tmp_path / "n1.tsv"
        write_corpus(stats_fixture_corpus, a1, n1)
        reloaded = load_corpus(a1, n1)
        assert reloaded == stats_fixture_corpus
        # serializing the reload reproduces the bytes
        a2, n2 = tmp_path / "a2.tsv", tmp_path / "n2.tsv"
        write_corpus(reloaded, a2, n2)
        assert a2.read_bytes() == a1.read_bytes()
        assert n2.read_bytes() == n1.read_bytes()

    def test_jsonl_roundtrip_keeps_tagless_tweets(self, tmp_path):
        corpus = corpus_from_tweets(
            [("u1", "t1", 10, ("a",)), ("u2", "t2", 20, ())], {"u1": {"u2"}}
        )
        a1, n1 = tmp_path / "a.jsonl", tmp_path / "n.tsv"
        write_corpus(corpus, a1, n1, fmt="jsonl")
        reloaded = load_corpus(a1, n1, fmt="jsonl")
        assert reloaded == corpus

    def test_random_corpora_roundtrip(self, tmp_path):
        rng = random.Random(2024)
        for i in range(10):
            corpus = random_corpus(rng, max_users=12, max_assignments=80)
            a, n = tmp_path / f"a{i}.tsv", tmp_path / f"n{i}.tsv"
            write_corpus(corpus, a, n)
            assert load_corpus(a, n) == corpus

    def test_failed_replace_keeps_previous_files(self, tmp_path, monkeypatch,
                                                  stats_fixture_corpus):
        a, n = tmp_path / "a.tsv", tmp_path / "n.tsv"
        write_corpus(stats_fixture_corpus, a, n)
        before = {p.name: p.read_bytes() for p in (a, n)}
        other = corpus_from_tweets([("x", "t9", 5, ("zz",))], {"x": set()})

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        for fmt in ("tsv", "jsonl"):
            with pytest.raises(OSError, match="replace failed"):
                write_corpus(other, a, n, fmt=fmt)
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestInvariants:
    def test_sort_key_total_order(self):
        rng = random.Random(7)
        for _ in range(20):
            corpus = random_corpus(rng, max_users=10, max_assignments=120, max_timestamp=20)
            keys = [a.sort_key for a in corpus.assignments]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            corpus.validate()

    def test_validate_rejects_unsorted(self, stats_fixture_corpus):
        broken = Corpus(
            assignments=list(reversed(stats_fixture_corpus.assignments)),
            network=stats_fixture_corpus.network,
            seed_users=stats_fixture_corpus.seed_users,
            tweet_index=stats_fixture_corpus.tweet_index,
        )
        with pytest.raises(Exception):
            broken.validate()
