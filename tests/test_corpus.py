"""Corpus loading, normalization, statistics, and round-trip invariants."""

from __future__ import annotations

import codecs
import gc
import json
import os
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tagreuse import cli
from tagreuse import corpus as corpus_module
from tagreuse.corpus import (
    MAX_TIMESTAMP,
    Corpus,
    CorpusError,
    EmptyAfterNormalization,
    FollowNetwork,
    InconsistentNetwork,
    ParseError,
    _add_tsv_bytes,
    _gc_paused,
    _read_assignments,
    _Rows,
    compute_stats,
    load_corpus,
    normalize_hashtag,
    write_corpus,
)
from tagreuse.synth import GenParams, generate

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


def _line_read_chunks(apath, npath, fmt: str = "tsv") -> tuple[Corpus, list[range]]:
    """The corpus of a count-mode load, and the line numbers of each chunk
    that the load sent to the line reader, in file order."""
    with mock.patch.object(corpus_module, "_add_lines", wraps=corpus_module._add_lines) as spy:
        corpus = load_corpus(apath, npath, fmt, on_malformed="count")
    return corpus, [range(c.args[2] + 1, c.args[2] + 1 + len(c.args[1]))
                    for c in spy.call_args_list]


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

    def test_lone_cr_ends_a_line(self, tmp_path):
        # newline="" keeps universal line boundaries: the '\r' splits the
        # first line, so "b" is a one-field line 2, in both readers
        apath, npath = self._write(tmp_path, "")
        apath.write_bytes(b"u1\tt1\t5\ta\rb\n")
        assert _line_read_chunks(apath, npath)[1] == [range(1, 3)]
        with pytest.raises(ParseError) as err:
            _read_assignments(apath, "tsv", "raise")
        assert err.value.line_no == 2
        with pytest.raises(ParseError) as err:
            load_corpus(apath, npath)
        assert err.value.line_no == 2
        assert err.value.reason == "expected 4 tab-separated fields, got 1"
        # as a plain line ending, a lone '\r' is accepted by the bulk reader
        apath.write_bytes(b"u1\tt1\t5\ta\ru2\tt2\t6\tb\r")
        assert _line_read_chunks(apath, npath)[1] == []
        assert [a.tweet_id for a in load_corpus(apath, npath).assignments] == ["t1", "t2"]

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_timestamp_beyond_int64_is_malformed(self, tmp_path, fmt):
        npath = tmp_path / "n.tsv"
        npath.write_text("u1\tu2\n", encoding="utf-8")
        apath = tmp_path / f"a.{fmt}"
        lines = [(MAX_TIMESTAMP, "ok"), (MAX_TIMESTAMP + 1, "big")]
        if fmt == "tsv":
            text = "".join(f"u1\tt{ht}\t{ts}\t{ht}\n" for ts, ht in lines)
        else:
            text = "".join(json.dumps({"user": "u1", "tweet": f"t{ht}", "ts": ts,
                                       "hashtags": [ht]}) + "\n" for ts, ht in lines)
        apath.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_corpus(apath, npath, fmt)
        assert err.value.line_no == 2
        corpus = load_corpus(apath, npath, fmt, on_malformed="count")
        assert corpus.n_malformed_lines == 1
        assert corpus.ts.tolist() == [MAX_TIMESTAMP]

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

    @pytest.mark.parametrize("field", ["user", "tweet"])
    @pytest.mark.parametrize("bad", ["\t", "\r", "\n", "a\tb", "a\r\nb"])
    def test_jsonl_id_with_tab_or_line_break_is_malformed(self, tmp_path, field, bad):
        # no TSV output (write_corpus, classify --per-assignment) could hold it
        good = {"user": "u1", "tweet": "t1", "ts": 100, "hashtags": ["a"]}
        apath, npath = tmp_path / "a.jsonl", tmp_path / "n.tsv"
        apath.write_text(json.dumps(good) + "\n" + json.dumps(
            {**good, "tweet": "t2", "ts": 200, field: bad}) + "\n", encoding="utf-8")
        npath.write_text("u1\tu2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="no tab, CR or LF") as err:
            load_corpus(apath, npath, fmt="jsonl")
        assert err.value.line_no == 2
        corpus = load_corpus(apath, npath, fmt="jsonl", on_malformed="count")
        assert corpus.n_malformed_lines == 1
        assert corpus == corpus_from_tweets([("u1", "t1", 100, ("a",))], {"u1": {"u2"}})
        a2, n2 = tmp_path / "a2.tsv", tmp_path / "n2.tsv"
        write_corpus(corpus, a2, n2, fmt="tsv")
        assert load_corpus(a2, n2) == corpus


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
        "user": st.sampled_from(_USERS + [7, "u\t1"]),
        "tweet": st.sampled_from(_TWEETS + ["t1\n", "t\r2"]),
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

    def _check(self, fmt: str, data: bytes) -> list[range]:
        """Also returns the line numbers of the chunks read line by line:
        for TSV, exactly the chunks that hold a malformed line."""
        with tempfile.TemporaryDirectory() as tmp:
            apath, npath = Path(tmp) / f"a.{fmt}", Path(tmp) / "n.tsv"
            apath.write_bytes(data)
            npath.write_text(NETWORK, encoding="utf-8")
            records, bad = reference_parse_assignments(apath, fmt)
            expected = Corpus.from_tweets(records, EDGES)

            counted, line_read = _line_read_chunks(apath, npath, fmt)
            if fmt == "tsv":
                assert all(set(chunk) & set(bad) for chunk in line_read)
                assert set(bad) <= {n for chunk in line_read for n in chunk}
            else:
                with apath.open(encoding="utf-8-sig", newline="") as fh:
                    n_lines = sum(1 for _ in fh)
                assert [n for chunk in line_read for n in chunk] == list(range(1, n_lines + 1))
            assert counted == expected
            assert list(counted.tweet_index) == list(expected.tweet_index)
            assert counted.n_malformed_lines == len(bad)

            if bad:
                with pytest.raises(ParseError) as err:
                    load_corpus(apath, npath, fmt)
                assert err.value.line_no == bad[0]
            else:
                assert load_corpus(apath, npath, fmt) == expected
        return line_read

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_tsv_line, max_size=25), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_tsv_matches_reference_parser(self, lines, ending, bom):
        self._check("tsv", _assignment_file(lines, ending, bom))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_jsonl_line, max_size=25), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_jsonl_matches_reference_parser(self, lines, ending, bom):
        self._check("jsonl", _assignment_file(lines, ending, bom))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["a", "b", "#A", "c"])),
                 max_size=30),
        st.booleans(),
        st.lists(st.integers(0, 29), max_size=2),
        st.sampled_from([1, 40, 1 << 18]),
    )
    def test_tsv_in_chunks_matches_reference_parser(self, rows, ordered, flips, chunk):
        """Tweet i is by u1, u2 or u3 at 1 + i // 2, so two tweets share each
        timestamp. Ordered files without flipped users take the bulk reader,
        repeated keys included, in chunks down to one line each."""
        def key(row):
            i, raw = row
            return 1 + i // 2, f"t{i}", normalize_hashtag(raw)

        if ordered:
            rows = sorted(rows, key=key)
        lines = [
            f"{'u9' if n in flips else f'u{i % 3 + 1}'}\tt{i}\t{1 + i // 2}\t{raw}"
            for n, (i, raw) in enumerate(rows)
        ]
        data = _assignment_file(lines, "\n", False)
        with mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk):
            line_read = self._check("tsv", data)
        if ordered and not set(flips) & set(range(len(rows))):
            assert line_read == []

    # CRLF, a lone CR and LF endings, blank lines, multibyte ids, ids that
    # differ only by a trailing NUL, and a last line with no ending.
    _EDGE_LINES = ("ü1\tté\t5\ta\r\n", "u\tt\t6\tB\r", "\n", "ü1\t日本\t7\tc\n", "\r\n",
                   "u\x00\tt\x00\t8\ta\x00\r", "u\tt2\t9\tb")

    def test_tsv_at_every_chunk_cut(self):
        """Chunks of 1 byte up to the whole file cut inside the CRLF pair, at
        the lone CR and next to each multibyte id; every cut gives the
        reference corpus through the byte reader, and a malformed line the
        reference's line number and count."""
        data = "".join(self._EDGE_LINES).encode()
        flawed = "".join(self._EDGE_LINES[:4] + ("broken\r",) + self._EDGE_LINES[4:]).encode()
        for chunk in range(1, len(data) + 2):
            with mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk):
                assert self._check("tsv", data) == []
                assert self._check("tsv", flawed)
                assert self._check("jsonl", data)
        with tempfile.TemporaryDirectory() as tmp:
            apath, npath = Path(tmp) / "a.tsv", Path(tmp) / "n.tsv"
            apath.write_bytes(data)
            npath.write_text(NETWORK, encoding="utf-8")
            corpus = load_corpus(apath, npath)
        assert corpus.tweet_ids == ["té", "t", "日本", "t\x00", "t2"]
        assert corpus.users == ["ü1", "u", "u\x00"]
        assert corpus.tags == ["a", "b", "c", "a\x00"]

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    @pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf", b"\n\r\n\r\n", b"\xef\xbb\xbf\r\n\n"],
                             ids=["empty", "bom_only", "blank_lines", "bom_and_blank_lines"])
    def test_file_with_no_rows(self, fmt, data):
        line_read = self._check(fmt, data)
        assert fmt == "jsonl" or line_read == []

    @pytest.mark.parametrize("raw, value", [
        ("+9", 9), (" 5", 5), ("5 ", 5), ("0005", 5), ("1_0", 10), ("\u0663", 3),
        ("9" * 18, 10**18 - 1), (str(MAX_TIMESTAMP), MAX_TIMESTAMP),
        (str(MAX_TIMESTAMP + 1), None), ("1" * 25, None), ("0" * 25, None), ("", None),
        ("-3", None), ("1e3", None), ("5\u00a0x", None),
    ])
    def test_timestamp_field_is_accepted_as_int_accepts_it(self, raw, value):
        """A timestamp field is accepted exactly when int() gives a value in
        [1, MAX_TIMESTAMP]; only a chunk holding one that is not goes to the
        line reader."""
        data = f"u1\tt1\t4\ta\nu2\tt2\t{raw}\tb\nu3\tt3\t7\tc\n".encode()
        line_read = self._check("tsv", data)
        if value is None:
            assert line_read
        else:
            assert line_read == []
            with tempfile.TemporaryDirectory() as tmp:
                apath, npath = Path(tmp) / "a.tsv", Path(tmp) / "n.tsv"
                apath.write_bytes(data)
                npath.write_text(NETWORK, encoding="utf-8")
                assert load_corpus(apath, npath).tweet_index["t2"] == ("u2", value)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("malformed", [None, b"broken", b"u0\tt0\t4\tx y"])
    @pytest.mark.parametrize("ended", [True, False])
    def test_invalid_utf8_raises(self, tmp_path, capsys, field, malformed, ended):
        """Bytes that are not UTF-8 in any field of the last line raise
        UnicodeDecodeError in both modes, the CLI exits 2, and a malformed
        first line does not hide them, also when the last line has no
        ending: a file of one block is one chunk."""
        fields = [b"u2", b"t2", b"6", b"b"]
        fields[field] = b"x\xff" if field != 2 else b"6\xff"
        lines = [malformed] * bool(malformed) + [b"u1\tt1\t5\ta", b"\t".join(fields)]
        apath, npath = tmp_path / "a.tsv", tmp_path / "n.tsv"
        apath.write_bytes(b"\n".join(lines) + b"\n" * ended)
        npath.write_text(NETWORK, encoding="utf-8")
        for mode in ("raise", "count"):
            with pytest.raises(UnicodeDecodeError):
                load_corpus(apath, npath, on_malformed=mode)
        assert cli.main(["stats", "--assignments", str(apath), "--network", str(npath)]) == 2
        assert "data error" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.from_regex(r"[a-z0-9_]+", fullmatch=True), min_size=1, max_size=12),
           st.data())
    def test_plain_tags_and_an_empty_tag_field(self, tags, data):
        """Every string over [a-z0-9_] is its own normal form and loads by the
        byte reader; an empty tag field among them is malformed, in both
        modes."""
        assert [normalize_hashtag(t) for t in tags] == tags
        lines = [f"u{i % 3 + 1}\tt{i}\t{i + 1}\t{tag}" for i, tag in enumerate(tags)]
        assert self._check("tsv", _assignment_file(lines, "\n", False)) == []
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = lines[k].rsplit("\t", 1)[0] + "\t"
        assert self._check("tsv", _assignment_file(lines, "\n", False))

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


# Ids that share their first or their second key word; ids that differ by
# trailing NULs; multibyte ids; a 300-byte id that makes the key table give
# way to a dict.
_FIELD_POOL = ["a1234567a", "a1234567b", "b1234567a", "t", "t\x00", "t\x00\x00", "abcdefgh",
               "abcdefgh\x00", "ü", "日本語のタグ", "x" * 300, "", "1"]


class TestDistinct:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_FIELD_POOL)
                    | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t"),
                              max_size=20), min_size=1, max_size=40))
    def test_matches_first_appearance_interning(self, fields):
        """_distinct groups byte fields exactly, as a dict does: the distinct
        fields in order of first appearance and each field's index."""
        data = "".join(f + "\t" for f in fields).encode()
        lens = np.array([len(f.encode()) for f in fields])
        starts = np.cumsum(lens + 1) - lens - 1
        buf = np.frombuffer(data + bytes(int(lens.max()) + 8), np.uint8)
        distinct, index = corpus_module._distinct(buf, starts, lens)
        expected = list(dict.fromkeys(fields))
        assert distinct == expected
        assert [distinct[i] for i in index.tolist()] == fields

    def test_keys_that_share_a_word_are_told_apart(self):
        fields = ["a1234567a", "a1234567b", "b1234567a"] * 3 + ["a1234567a\x00", "a1234567"]
        data = "".join(f + "\t" for f in fields).encode()
        lens = np.array([len(f.encode()) for f in fields])
        starts = np.cumsum(lens + 1) - lens - 1
        distinct, index = corpus_module._distinct(np.frombuffer(data + bytes(18), np.uint8),
                                                  starts, lens)
        assert distinct == ["a1234567a", "a1234567b", "b1234567a", "a1234567a\x00", "a1234567"]
        assert index.tolist() == [0, 1, 2] * 3 + [3, 4]


def _ordered_tsv_lines(n_tweets: int) -> list[str]:
    """Valid lines in strict (timestamp, tweet, hashtag) order: tweet i by
    u1, u2 or u3 at 100 + 10 i; every third tweet has a second hashtag."""
    lines = []
    for i in range(n_tweets):
        tags = ["a", f"h{i % 7}"] if i % 3 == 0 else [f"h{i % 7}"]
        lines += [f"u{i % 3 + 1}\tt{i:04d}\t{100 + 10 * i}\t{ht}" for ht in tags]
    return lines


def _field(line: str, k: int) -> str:
    return line.split("\t")[k]


def _late_line(lines: list[str], continues_tweet: bool) -> int:
    """Index of the first line at or after 40 that continues (or starts) a
    tweet."""
    return next(k for k in range(40, len(lines))
                if (_field(lines[k], 1) == _field(lines[k - 1], 1)) == continues_tweet)


# Each edit returns the edited lines and the index of the flawed line.
def _with_malformed_line(lines):
    k = _late_line(lines, False)
    return lines[:k] + ["broken line"] + lines[k:], k


def _with_conflicting_tweet(lines):
    # tweet t0001 of the first chunk again, by another user, in time order
    k = _late_line(lines, False)
    ts = int(_field(lines[k - 1], 2)) + 1
    return lines[:k] + [f"u9\tt0001\t{ts}\tz"] + lines[k:], k


def _with_conflicting_line(lines):
    # the second line of a tweet by another user than its first
    k = _late_line(lines, True)
    return lines[:k] + ["u9\t" + lines[k].split("\t", 1)[1]] + lines[k + 1:], k


def _with_out_of_order_rows(lines):
    k = _late_line(lines, False)
    return lines[:k - 1] + [lines[k], lines[k - 1]] + lines[k + 1:], k


def _with_duplicate_row(lines):
    k = _late_line(lines, False)
    return lines[:k] + [lines[3]] + lines[k:], k


def _with_repeated_line(lines):
    k = _late_line(lines, False)
    return lines[:k] + [lines[k]] + lines[k:], k


# flaw -> (edit, ParseError reason, with {tweet} the flawed line's tweet,
# or None when the file is valid)
_CONFLICT = "tweet '{tweet}' already seen with different user/timestamp"
_LATE_FLAWS = {
    "malformed": (_with_malformed_line, "expected 4 tab-separated fields, got 1"),
    "conflicting_tweet": (_with_conflicting_tweet, _CONFLICT),
    "conflicting_line": (_with_conflicting_line, _CONFLICT),
    "out_of_order": (_with_out_of_order_rows, None),
    "duplicate_row": (_with_duplicate_row, None),
    "repeated_line": (_with_repeated_line, None),
}
_SMALL_CHUNK = 200  # bytes; about a dozen lines


class TestChunkedReader:
    """The bulk TSV reader in chunks of a few lines: a malformed line sends
    its chunk, and no other, to the line reader, and the load gives the
    same errors, line numbers, counts and corpus as the reference parser.
    Repeated and out-of-order rows are valid, and are settled when the rows
    are assembled, so no chunk of such a file is read line by line."""

    def _paths(self, tmp_path, lines):
        apath, npath = tmp_path / "a.tsv", tmp_path / "n.tsv"
        apath.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        npath.write_text(NETWORK, encoding="utf-8")
        return apath, npath

    def test_clean_file_takes_the_bulk_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", _SMALL_CHUNK)
        lines = _ordered_tsv_lines(40)
        assert sum(len(line) + 1 for line in lines) > 4 * _SMALL_CHUNK
        apath, npath = self._paths(tmp_path, lines)
        records, bad = reference_parse_assignments(apath, "tsv")
        assert not bad
        assert _line_read_chunks(apath, npath)[1] == []
        assert load_corpus(apath, npath) == Corpus.from_tweets(records, EDGES)

    @pytest.mark.parametrize("chunk", [1, _SMALL_CHUNK])
    @pytest.mark.parametrize("flaw", sorted(_LATE_FLAWS))
    def test_flaw_in_a_later_chunk(self, tmp_path, monkeypatch, flaw, chunk):
        monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", chunk)
        edit, reason = _LATE_FLAWS[flaw]
        lines, k = edit(_ordered_tsv_lines(40))
        assert sum(len(line) + 1 for line in lines[:k - 1]) > 2 * _SMALL_CHUNK
        apath, npath = self._paths(tmp_path, lines)
        records, bad = reference_parse_assignments(apath, "tsv")
        expected = Corpus.from_tweets(records, EDGES)

        counted, line_read = _line_read_chunks(apath, npath)
        if reason is None:
            assert line_read == []
        else:
            assert len(line_read) == 1 and k + 1 in line_read[0]
        self._check_against_reference(apath, npath, counted, reason, k, lines)

    def _check_against_reference(self, apath, npath, counted, reason, k, lines):
        """`counted` is the count-mode load of `apath`; `reason` is the
        ParseError reason of line k + 1, or None for a valid file."""
        records, bad = reference_parse_assignments(apath, "tsv")
        expected = Corpus.from_tweets(records, EDGES)
        assert counted == expected
        assert list(counted.tweet_index) == list(expected.tweet_index)
        assert counted.n_malformed_lines == len(bad)
        if reason is None:
            assert not bad
            assert load_corpus(apath, npath) == expected
        else:
            if "{tweet}" in reason:
                reason = reason.format(tweet=_field(lines[k], 1))
            assert bad == [k + 1]
            with pytest.raises(ParseError) as err:
                load_corpus(apath, npath)
            assert (err.value.line_no, err.value.reason) == (k + 1, reason)
            assert str(err.value) == f"{apath}:{k + 1}: {reason}"

    @pytest.mark.parametrize("flaw", ["duplicate_last_row", "swapped_halves", "malformed_first"])
    def test_file_level_flaw(self, tmp_path, monkeypatch, flaw):
        monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", _SMALL_CHUNK)
        lines = _ordered_tsv_lines(40)
        half = len(lines) // 2
        k, reason = 2, "expected 4 tab-separated fields, got 1"
        if flaw == "duplicate_last_row":
            lines, reason = lines + lines[-1:], None
        elif flaw == "swapped_halves":
            lines, reason = lines[half:] + lines[:half], None
        else:
            lines = lines[:k] + ["broken line"] + lines[k:]
        apath, npath = self._paths(tmp_path, lines)
        counted, line_read = _line_read_chunks(apath, npath)
        if reason is None:
            assert line_read == []
        else:  # the first chunk alone; the chunks after it take the bulk reader
            assert len(line_read) == 1 and line_read[0][0] == 1 and k + 1 in line_read[0]
            assert line_read[0][-1] < len(lines)
        self._check_against_reference(apath, npath, counted, reason, k, lines)

    def test_failed_chunk_leaves_the_rows_as_they_were(self):
        def state(rows):
            return ([list(d.items()) for d in (rows.user_ids, rows.tweet_slot, rows.tag_ids,
                                               rows.normalized)],
                    [a.tolist() for a in (rows.slot_user, rows.slot_ts, rows.tweet, rows.tag)])

        rows = _Rows()
        assert _add_tsv_bytes(rows, b"u1\tt1\t5\ta\nu2\tt2\t6\tB\n") == 2
        before = state(rows)
        # new users, tweets and tags, then a line at odds with tweet t1
        assert _add_tsv_bytes(rows, b"u3\tt3\t7\tc\nu4\tt4\t8\td\nu4\tt1\t9\ta\n") is None
        assert state(rows) == before


    @pytest.mark.parametrize("mode", ["raise", "count"])
    def test_conflicting_tweet_across_a_chunk_boundary(self, tmp_path, monkeypatch, mode):
        """Tweet t0001 of the first chunk comes back in a later chunk by
        another user: the bulk reader and the line reader alone agree."""
        monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", _SMALL_CHUNK)
        lines, k = _with_conflicting_tweet(_ordered_tsv_lines(40))
        apath, npath = self._paths(tmp_path, lines)

        def load():
            try:
                return load_corpus(apath, npath, on_malformed=mode)
            except ParseError as err:
                return err.line_no, err.reason

        bulk = load()
        with mock.patch.object(corpus_module, "_add_tsv_bytes", return_value=None):
            by_line = load()
        if mode == "raise":
            assert bulk == by_line == (k + 1, _CONFLICT.format(tweet="t0001"))
        else:
            assert bulk == by_line
            assert bulk.n_malformed_lines == by_line.n_malformed_lines == 1

    def test_duplicate_row_in_a_generated_file(self, tmp_path):
        """One row of a generated file again at its end: the load sorts it
        into place and drops it, and equals from_tweets over the records."""
        generated, _ = generate(GenParams(n_seed_users=10, n_background_users=40,
                                          n_followees_per_seed=3, n_tweets_per_user=30))
        apath, npath = tmp_path / "a.tsv", tmp_path / "n.tsv"
        write_corpus(generated, apath, npath)
        with apath.open("a", encoding="utf-8") as fh:
            fh.write(apath.read_text(encoding="utf-8").splitlines(keepends=True)[3])
        records, bad = reference_parse_assignments(apath, "tsv")
        assert not bad
        loaded = load_corpus(apath, npath)
        assert loaded == Corpus.from_tweets(records, generated.network.edges) == generated


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


def _old_tweet_index(records) -> dict[str, tuple[str, int]]:
    """The tweet index as a dict filled in record order."""
    index: dict[str, tuple[str, int]] = {}
    for user_id, tweet_id, ts, _ in records:
        index.setdefault(tweet_id, (user_id, ts))
    return index


class TestTweetTable:
    RECORDS = [
        ("u2", "t9", 30, ("b", "a")),
        ("u1", "t1", 10, ()),
        ("ghost", "t5", 20, ()),
        ("u1", "t3", 30, ("a",)),
        ("u2", "t9", 30, ("c", "a")),
        ("u3", "t2", 5, ("a",)),
    ]

    def test_tweet_index_view_is_the_dict_of_first_appearance(self, tmp_path):
        expected = list(_old_tweet_index(self.RECORDS).items())
        built = Corpus.from_tweets(self.RECORDS, EDGES)
        assert list(built.tweet_index.items()) == expected
        apath, npath = tmp_path / "a.jsonl", tmp_path / "n.tsv"
        apath.write_text("".join(
            json.dumps({"user": u, "tweet": t, "ts": ts, "hashtags": list(tags)}) + "\n"
            for u, t, ts, tags in self.RECORDS), encoding="utf-8")
        npath.write_text(NETWORK, encoding="utf-8")
        loaded = load_corpus(apath, npath, fmt="jsonl")
        assert list(loaded.tweet_index.items()) == expected
        assert loaded.tweet_ids == [t for t, _ in expected]
        assert loaded == built

    def test_user_seen_only_on_hashtagless_tweets_counts(self):
        corpus = Corpus.from_tweets(self.RECORDS, {})
        # the users of the rows first, by first row, then the others by id
        assert corpus.users == ["u3", "u1", "u2", "ghost"]
        assert corpus.all_users() == {"u1", "u2", "u3", "ghost"}
        stats = compute_stats(corpus)
        assert (stats.n_users, stats.n_tweets, stats.n_assignments) == (4, 5, 5)

    def test_load_peak_memory(self, tmp_path):
        """The tracemalloc peak of loading 10^5 generated-shape TSV rows (one
        hashtag per tweet) is 19.6 MB on CPython 3.11 with numpy 2. The
        bound lies midway to the 26.1 MB of a layout that keeps a tweet id
        string per row and a (user, timestamp) tuple per tweet."""
        apath, npath = tmp_path / "a.tsv", tmp_path / "n.tsv"
        with apath.open("w", encoding="utf-8") as fh:
            for i in range(100_000):
                fh.write(f"u{i % 200:03d}\tt{i:08d}\t{1_500_000_000 + i}\th{i * 7919 % 5000}\n")
        npath.write_text("u000\tu001\n", encoding="utf-8")
        gc.collect()
        tracemalloc.start()
        try:
            corpus = load_corpus(apath, npath)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        print(f"load peak {peak:.2f} MB (tracemalloc, 10^5 rows)")
        assert peak < 22.9
        assert len(corpus.tweet_ids) == 100_000


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


def _normalized_or_none(raw: str) -> str | None:
    try:
        return normalize_hashtag(raw)
    except (EmptyAfterNormalization, ValueError):
        return None


_ROUNDTRIP_TAGS = st.one_of(
    st.sampled_from(["a", "b", "café", "strasse", "日本"]),
    st.text(min_size=1, max_size=6).map(_normalized_or_none).filter(bool),
)


@st.composite
def _roundtrip_corpora(draw, tagless: bool) -> Corpus:
    """Corpora of up to 12 tweets over four users (one non-ASCII) and four
    timestamps, so ties are common, with Unicode hashtags."""
    n = draw(st.integers(0, 12))
    tweets = [
        (
            draw(st.sampled_from(["u1", "u2", "u3", "ü4"])),
            f"t{i}",
            draw(st.integers(1, 4)),
            tuple(draw(st.lists(_ROUNDTRIP_TAGS, min_size=0 if tagless else 1, max_size=3))),
        )
        for i in range(n)
    ]
    return Corpus.from_tweets(tweets, {"u1": {"u2", "ü4"}, "u3": set()})


def _reencode(path: Path, crlf: bool, bom: bool) -> None:
    data = path.read_bytes()
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + data)


def _rebuilt(corpus: Corpus) -> Corpus:
    """The corpus again from its two views: a record per tweet of the
    tweet index, hashtag-less ones included, and one per row."""
    tweets = [(user, tweet, ts, ()) for tweet, (user, ts) in corpus.tweet_index.items()]
    rows = [(a.user_id, a.tweet_id, a.timestamp, (a.hashtag,)) for a in corpus.assignments]
    return Corpus.from_tweets(tweets + rows, corpus.network.edges)


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(_roundtrip_corpora(tagless=False), st.booleans(), st.booleans(),
           st.sampled_from([1, 64, 1 << 18]))
    def test_tsv_write_then_load_is_identity(self, corpus, crlf, bom, chunk):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(corpus_module, "_CHUNK_BYTES", chunk):
            apath, npath = Path(tmp) / "a.tsv", Path(tmp) / "n.tsv"
            write_corpus(corpus, apath, npath)
            _reencode(apath, crlf, bom)
            _reencode(npath, crlf, bom)
            assert _line_read_chunks(apath, npath)[1] == []  # written files take the bulk reader
            loaded = load_corpus(apath, npath)
        assert loaded == corpus
        assert _rebuilt(loaded) == loaded
        assert _rebuilt(corpus) == loaded

    @settings(max_examples=100, deadline=None)
    @given(_roundtrip_corpora(tagless=True), st.booleans(), st.booleans())
    def test_jsonl_write_then_load_is_identity(self, corpus, crlf, bom):
        with tempfile.TemporaryDirectory() as tmp:
            apath, npath = Path(tmp) / "a.jsonl", Path(tmp) / "n.tsv"
            write_corpus(corpus, apath, npath, fmt="jsonl")
            _reencode(apath, crlf, bom)
            _reencode(npath, crlf, bom)
            loaded = load_corpus(apath, npath, fmt="jsonl")
        assert loaded == corpus
        assert len(loaded.tweet_index) == len(corpus.tweet_index)  # tagless tweets kept
        assert _rebuilt(loaded) == loaded


def _tsv_safe(value: str) -> bool:
    """Whether a TSV field can hold the id, by a per-character loop."""
    return value != "" and all(c not in "\t\r\n" for c in value)


@st.composite
def _any_id_corpora(draw):
    """Tweet records and edges over arbitrary Unicode ids, some starting
    with U+FEFF, with positive timestamps and normalized hashtags; a tweet
    id names one tweet, and no seed follows itself. About half the draws
    swap one id for an empty one or one holding a tab, CR or LF."""
    ids = st.one_of(st.sampled_from(["u1", "u2", "ü3", "\ufeffu4"]),
                    st.text(min_size=1, max_size=4), st.text(max_size=3).map("\ufeff".__add__))
    records = [
        (draw(ids), tweet_id, draw(st.integers(1, 4)),
         tuple(draw(st.lists(_ROUNDTRIP_TAGS, max_size=3))))
        for tweet_id in draw(st.lists(ids, max_size=8, unique=True))
    ]
    edges = {seed: {f for f in draw(st.lists(ids, max_size=3)) if f != seed}
             for seed in draw(st.lists(ids, max_size=3, unique=True))}
    bad = draw(st.sampled_from([None, None, None, "", "\t", "a\rb", "c\n"]))
    if bad is not None and records:
        user, tweet_id, ts, tags = records[-1]
        records[-1] = (bad, tweet_id, ts, tags) if draw(st.booleans()) else (user, bad, ts, tags)
    elif bad is not None:
        edges[bad] = set()
    return records, edges


class TestIdRule:
    """Every route to a corpus rejects an id no TSV field can hold, in the
    JSONL reader's wording."""

    GOOD = [("u1", "t1", 5, ("a",)), ("u2", "t2", 6, ())]

    @pytest.mark.parametrize("bad", ["", "\t", "\r", "\n", "u\t1", "a\r\nb"])
    @pytest.mark.parametrize("field, kind", [("user", "user id"), ("tweet", "tweet id"),
                                             ("tag", "hashtag"), ("seed", "user id"),
                                             ("followee", "user id")])
    def test_from_tweets_rejects(self, field, kind, bad):
        record = {"user": (bad, "t3", 7, ("b",)), "tweet": ("u1", bad, 7, ("b",)),
                  "tag": ("u1", "t3", 7, ("b", bad))}.get(field, ("u1", "t3", 7, ("b",)))
        edges = {"seed": {bad: {"u1"}}, "followee": {"u1": {"u2", bad}}}.get(field, {})
        with pytest.raises(CorpusError, match=f"bad {kind} .*: {kind}s are non-empty strings"
                                              " with no tab, CR or LF"):
            Corpus.from_tweets(self.GOOD + [record], edges)

    def test_from_columns_rejects_a_tweet_id_of_a_hashtagless_tweet(self, stats_fixture_corpus):
        c = stats_fixture_corpus
        tables = (c.users, c.tweet_ids + ["t\tx"], c.tags, c.network)
        tweet_user, tweet_ts = np.append(c.tweet_user, 0), np.append(c.tweet_ts, 9)
        with pytest.raises(CorpusError, match=r"bad tweet id 't\\tx'"):
            Corpus.from_columns(c.tweet, c.tag, tweet_user, tweet_ts, *tables)

    def test_from_columns_drops_an_unused_bad_user_or_hashtag(self, stats_fixture_corpus):
        c = stats_fixture_corpus
        tables = (c.users + ["u\t9"], c.tweet_ids, c.tags + ["h\n9"], c.network)
        assert Corpus.from_columns(c.tweet, c.tag, c.tweet_user, c.tweet_ts, *tables) == c

    @pytest.mark.parametrize("edges", [{"s\r": frozenset()}, {"s": frozenset({"a", ""})},
                                       {"": frozenset({"a"})}])
    def test_follow_network_rejects(self, edges):
        with pytest.raises(CorpusError, match="bad user id .*: user ids are non-empty"):
            FollowNetwork(edges)

    @seed(20261021)
    @settings(max_examples=150, deadline=None)
    @given(_any_id_corpora())
    def test_an_accepted_corpus_is_written_back(self, drawn):
        """load_corpus(write_corpus(c)) == c for every corpus from_tweets
        accepts, in JSONL and, when every tweet has a hashtag, in TSV, a
        first id that starts with U+FEFF included; it rejects exactly the
        corpora with an id no TSV field can hold."""
        records, edges = drawn
        ids = [i for user, tweet, _, _ in records for i in (user, tweet)]
        ids += [i for seed_user, followees in edges.items() for i in (seed_user, *followees)]
        try:
            corpus = Corpus.from_tweets(records, edges)
        except CorpusError:
            assert not all(map(_tsv_safe, ids))
            return
        assert all(map(_tsv_safe, ids))
        formats = ["jsonl"] + ["tsv"] * all(tags for *_, tags in records)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in formats:
                apath, npath = Path(tmp) / f"a.{fmt}", Path(tmp) / "n.tsv"
                write_corpus(corpus, apath, npath, fmt=fmt)
                assert load_corpus(apath, npath, fmt=fmt) == corpus

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_first_ids_that_start_with_a_bom_are_written_back(self, tmp_path, fmt):
        corpus = Corpus.from_tweets([("\ufeffu", "t1", 5, ("a",)), ("v", "\ufefft", 6, ("b",))],
                                    {"\ufeffs": ["x"]})
        apath, npath = tmp_path / f"a.{fmt}", tmp_path / "n.tsv"
        write_corpus(corpus, apath, npath, fmt=fmt)
        assert npath.read_bytes().startswith(codecs.BOM_UTF8 + "\ufeffs".encode())
        loaded = load_corpus(apath, npath, fmt=fmt)
        assert loaded == corpus
        assert (loaded.users[0], loaded.seed_users) == ("\ufeffu", frozenset({"\ufeffs"}))


class TestColumns:
    def test_layout_of_a_small_corpus(self, stats_fixture_corpus):
        c = stats_fixture_corpus
        assert (c.ts.dtype, c.user.dtype, c.tag.dtype) == (np.int64, np.int32, np.int32)
        assert (c.tweet.dtype, c.tweet_user.dtype, c.tweet_ts.dtype) == (np.int32, np.int32,
                                                                       np.int64)
        assert c.users == ["u1", "u2", "u3"]
        assert c.tags == ["h1", "h2", "h3"]
        assert c.ts.tolist() == [100, 100, 200, 300, 300, 400]
        assert c.user.tolist() == [0, 0, 0, 1, 1, 2]
        assert c.tag.tolist() == [0, 1, 0, 1, 2, 0]
        assert c.tweet_ids == ["t1", "t2", "t3", "t4"]
        assert c.tweet.tolist() == [0, 0, 1, 2, 2, 3]
        assert c.tweet_user.tolist() == [0, 0, 1, 2]
        assert c.tweet_ts.tolist() == [100, 200, 300, 400]

    def test_assignments_view_is_built_once_from_the_columns(self, stats_fixture_corpus):
        c = stats_fixture_corpus
        view = c.assignments
        assert view is c.assignments
        assert [(a.user_id, a.tweet_id, a.hashtag, a.timestamp) for a in view] == [
            (c.users[u], c.tweet_ids[tw], c.tags[t], ts)
            for u, tw, t, ts in zip(c.user.tolist(), c.tweet.tolist(), c.tag.tolist(),
                                    c.ts.tolist())
        ]

    def test_routes_give_equal_corpora(self, tmp_path):
        generated, _ = generate(GenParams(n_seed_users=3, n_background_users=4,
                                          n_followees_per_seed=2, n_tweets_per_user=6))
        apath, npath = tmp_path / "a.tsv", tmp_path / "n.tsv"
        write_corpus(generated, apath, npath)
        loaded = load_corpus(apath, npath)
        tweets = [(a.user_id, a.tweet_id, a.timestamp, (a.hashtag,))
                  for a in reversed(generated.assignments)]
        from_tweets = Corpus.from_tweets(tweets, generated.network.edges)
        for other in (loaded, from_tweets, _rebuilt(generated)):
            assert other == generated and generated == other

    def test_validate_checks_the_columns(self, stats_fixture_corpus):
        c = stats_fixture_corpus
        tables = (c.users, c.tweet_ids, c.tags, c.network)
        assert Corpus.from_columns(c.tweet, c.tag, c.tweet_user, c.tweet_ts, *tables) == c
        c.validate()
        tweet_ts = c.tweet_ts.copy()
        tweet_ts[1] = 0  # tweet t2, row 2
        zero = Corpus.from_columns(c.tweet, c.tag, c.tweet_user, tweet_ts, *tables)
        with pytest.raises(CorpusError, match="non-positive timestamp on .*t2"):
            zero.validate()
        swapped = Corpus.from_columns(c.tweet, c.tag[[1, 0, 2, 3, 4, 5]], c.tweet_user,
                                      c.tweet_ts, *tables)
        with pytest.raises(CorpusError, match="not in strict sort order at .*'t1', hashtag='h1'"):
            swapped.validate()
        with pytest.raises(ValueError, match="differ in length"):
            Corpus.from_columns(c.tweet[:-1], c.tag, c.tweet_user, c.tweet_ts, *tables)

    def test_a_changed_row_is_unequal(self, stats_fixture_corpus):
        c = stats_fixture_corpus
        tag = c.tag.copy()
        tag[2] = len(c.tags)  # row 2's hashtag becomes h9
        other = Corpus.from_columns(c.tweet, tag, c.tweet_user, c.tweet_ts, c.users,
                                    c.tweet_ids, c.tags + ["h9"], c.network)
        assert other.assignments[2].hashtag == "h9"
        assert other != c


class TestInvariants:
    def test_sort_key_total_order(self):
        rng = random.Random(7)
        for _ in range(20):
            corpus = random_corpus(rng, max_users=10, max_assignments=120, max_timestamp=20)
            keys = [(a.timestamp, a.tweet_id, a.hashtag) for a in corpus.assignments]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            corpus.validate()

    def test_validate_rejects_unsorted(self, stats_fixture_corpus):
        c = stats_fixture_corpus
        broken = Corpus.from_columns(c.tweet[::-1], c.tag[::-1], c.tweet_user, c.tweet_ts,
                                     c.users, c.tweet_ids, c.tags, c.network)
        with pytest.raises(Exception):
            broken.validate()
