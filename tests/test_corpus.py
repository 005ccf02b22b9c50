from __future__ import annotations

import codecs
import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from herdpulse import (
    CorpusFormatError,
    LineError,
    TweetRecord,
    filter_by_hashtag,
    load_corpus,
    merge_corpora,
    save_corpus,
)

from .conftest import make_corpus, make_record, record_line


def test_three_valid_lines(corpus_file):
    path = corpus_file([record_line(tweet_id=f"t{i}") for i in range(3)])
    result = load_corpus(path, "demo")
    assert len(result.corpus) == 3
    assert result.invalid == []
    assert [r.tweet_id for r in result.corpus] == ["t0", "t1", "t2"]
    assert result.corpus.source_label == "demo"


def test_missing_tweet_id_reported_with_line_number(corpus_file):
    bad = json.loads(record_line())
    del bad["tweet_id"]
    path = corpus_file([record_line(tweet_id="t1"), record_line(tweet_id="t2"), json.dumps(bad)])
    result = load_corpus(path, "demo")
    assert len(result.corpus) == 2
    assert len(result.invalid) == 1
    assert result.invalid[0].line_no == 3
    assert "tweet_id" in result.invalid[0].reason


def test_duplicate_tweet_id_keeps_first(corpus_file):
    path = corpus_file([record_line(tweet_id="t1", text="first"), record_line(tweet_id="t1", text="second")])
    result = load_corpus(path, "demo")
    assert len(result.corpus) == 1
    assert result.corpus.records[0].text == "first"
    assert result.invalid[0].line_no == 2
    assert "duplicate" in result.invalid[0].reason


def test_unreadable_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "nope.jsonl", "demo")


def test_mostly_invalid_file_is_fatal(corpus_file):
    path = corpus_file([record_line(), "garbage", "{broken", "also not json"])
    with pytest.raises(CorpusFormatError):
        load_corpus(path, "demo")


def test_invalid_json_and_non_object_lines(corpus_file):
    path = corpus_file([record_line(), record_line(tweet_id="t2"), '"just a string"'])
    result = load_corpus(path, "demo")
    assert len(result.corpus) == 2
    assert result.invalid[0].line_no == 3


def test_unknown_keys_counted_not_fatal(corpus_file):
    path = corpus_file([record_line(tweet_id="t1", lang="en", source="web")])
    result = load_corpus(path, "demo")
    assert len(result.corpus) == 1
    assert result.unknown_key_count == 2


def test_hashtags_normalized_lowercase_no_hash(corpus_file):
    path = corpus_file([record_line(hashtags=["#WestBengal", "Vote2021"])])
    result = load_corpus(path, "demo")
    assert result.corpus.records[0].hashtags == ("westbengal", "vote2021")


def test_hashtag_with_whitespace_rejected(corpus_file):
    path = corpus_file([record_line(tweet_id="ok"), record_line(tweet_id="bad", hashtags=["west bengal"])])
    result = load_corpus(path, "demo")
    assert len(result.corpus) == 1
    assert "hashtag" in result.invalid[0].reason


def test_self_mentions_dropped(corpus_file):
    path = corpus_file([record_line(author_id="a1", mentions=["a1", "a2"])])
    result = load_corpus(path, "demo")
    assert result.corpus.records[0].mentions == ("a2",)


def test_negative_follower_count_invalid(corpus_file):
    path = corpus_file([record_line(tweet_id="ok"), record_line(tweet_id="bad", follower_count=-1)])
    result = load_corpus(path, "demo")
    assert len(result.invalid) == 1
    assert "follower_count" in result.invalid[0].reason


def test_timestamp_formats(corpus_file):
    path = corpus_file(
        [
            record_line(tweet_id="t1", timestamp="2021-02-01T12:00:00Z"),
            record_line(tweet_id="t2", timestamp="2021-02-01T12:00:00+00:00"),
            record_line(tweet_id="t3", timestamp="2021-02-01T17:30:00+05:30"),
            record_line(tweet_id="t4", timestamp="not a time"),
        ]
    )
    result = load_corpus(path, "demo")
    assert len(result.corpus) == 3
    t1, t2, t3 = result.corpus.records
    assert t1.timestamp == t2.timestamp == t3.timestamp
    assert "timestamp" in result.invalid[0].reason


def test_round_trip_is_fixed_point(corpus_file, tmp_path):
    path = corpus_file(
        [
            record_line(tweet_id="t1", text="héllo ünïcode", hashtags=["Tag"], mentions=["b"]),
            record_line(tweet_id="t2", retweet_of="zed", follower_count=42),
        ]
    )
    first = load_corpus(path, "demo")
    out = tmp_path / "resaved.jsonl"
    save_corpus(first.corpus, out)
    second = load_corpus(out, "demo")
    assert second.corpus == first.corpus
    assert second.invalid == []
    # a second round-trip reproduces the file byte for byte
    out2 = tmp_path / "resaved2.jsonl"
    save_corpus(second.corpus, out2)
    assert out2.read_bytes() == out.read_bytes()


def test_invalid_utf8_line_is_a_line_error(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = [record_line(tweet_id=f"t{i}").encode("utf-8") for i in (1, 2)]
    path.write_bytes(b"\n".join([good[0], b'{"text": "caf\xe9"}', good[1]]) + b"\n")
    result = load_corpus(path, "demo")
    assert [r.tweet_id for r in result.corpus] == ["t1", "t2"]
    assert result.invalid == [LineError(2, "invalid UTF-8")]


def test_leading_bom_is_stripped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(codecs.BOM_UTF8 + record_line().encode("utf-8") + b"\n")
    result = load_corpus(path, "demo")
    assert [r.tweet_id for r in result.corpus] == ["t1"]
    assert result.invalid == []


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_unicode_line_separator_in_text_keeps_line_whole(tmp_path, separator):
    lines = [
        json.dumps(json.loads(record_line(tweet_id="t1", text=f"a{separator}b")), ensure_ascii=False),
        record_line(tweet_id="t2"),
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = load_corpus(path, "demo")
    assert [r.text for r in result.corpus] == [f"a{separator}b", "hello"]
    assert result.invalid == []


FULL_UNICODE = st.text(st.characters(codec="utf-8"))
NON_EMPTY = st.text(st.characters(codec="utf-8"), min_size=1)


@st.composite
def tweet_records(draw, tweet_id):
    author = draw(NON_EMPTY)
    stamp = draw(st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2099, 12, 31)))
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author,
        text=draw(FULL_UNICODE),
        timestamp=stamp.replace(microsecond=0, tzinfo=timezone.utc),
        hashtags=tuple(draw(st.lists(st.text("abcxyz", min_size=1), max_size=3))),
        mentions=tuple(m for m in draw(st.lists(NON_EMPTY, max_size=3)) if m != author),
        retweet_of=draw(st.none() | NON_EMPTY),
        follower_count=draw(st.integers(min_value=0, max_value=10**9)),
    )


@given(st.lists(NON_EMPTY, max_size=5, unique=True).flatmap(
    lambda ids: st.tuples(*(tweet_records(i) for i in ids))
))
def test_save_then_load_round_trips_full_unicode(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        save_corpus(make_corpus(records), path)
        result = load_corpus(path, "test")
    assert result.corpus.records == records
    assert result.invalid == []


def test_filter_by_hashtag_direct_membership():
    corpus = make_corpus(
        [
            make_record(tweet_id="t1", hashtags=["westbengal"]),
            make_record(tweet_id="t2", hashtags=["cricket"]),
        ]
    )
    kept = filter_by_hashtag(corpus, "#WestBengal")
    assert [r.tweet_id for r in kept] == ["t1"]
    assert kept.source_label == "westbengal"


def test_filter_by_hashtag_no_match_is_empty():
    corpus = make_corpus([make_record(tweet_id="t1", hashtags=["cricket"])])
    assert len(filter_by_hashtag(corpus, "football")) == 0


def test_filter_multi_tag_record_matches():
    corpus = make_corpus([make_record(tweet_id="t1", hashtags=["westbengal", "bengalelection2021"])])
    assert len(filter_by_hashtag(corpus, "bengalelection2021")) == 1


def test_filter_rejects_empty_tag():
    corpus = make_corpus([make_record()])
    with pytest.raises(ValueError):
        filter_by_hashtag(corpus, "")


def test_merge_corpora_dedups_across_files(corpus_file):
    p1 = corpus_file([record_line(tweet_id="t1"), record_line(tweet_id="t2")], name="a.jsonl")
    p2 = corpus_file([record_line(tweet_id="t2"), record_line(tweet_id="t3")], name="b.jsonl")
    merged = merge_corpora([load_corpus(p1, "a"), load_corpus(p2, "b")], "all")
    assert [r.tweet_id for r in merged.corpus] == ["t1", "t2", "t3"]


@given(
    tags=st.lists(
        st.lists(st.sampled_from(["alpha", "beta", "gamma"]), max_size=3), max_size=12
    ),
    wanted=st.sampled_from(["alpha", "beta", "gamma"]),
)
def test_filter_result_is_subsequence(tags, wanted):
    corpus = make_corpus(
        [make_record(tweet_id=f"t{i}", hashtags=ts) for i, ts in enumerate(tags)]
    )
    kept = filter_by_hashtag(corpus, wanted).records
    ids = [r.tweet_id for r in corpus.records]
    kept_ids = [r.tweet_id for r in kept]
    # subsequence check: the kept ids appear in the same relative order
    it = iter(ids)
    assert all(k in it for k in kept_ids)
    assert all(wanted in r.hashtags for r in kept)


def test_valid_plus_invalid_equals_non_empty_lines(corpus_file):
    lines = [
        record_line(tweet_id="t1"),
        "",
        "not json",
        record_line(tweet_id="t2"),
        "   ",
        record_line(tweet_id="t2"),
    ]
    path = corpus_file(lines)
    result = load_corpus(path, "demo")
    non_empty = sum(1 for line in lines if line.strip())
    assert len(result.corpus) + len(result.invalid) == non_empty
