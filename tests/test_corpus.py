from __future__ import annotations

import codecs
import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from herdpulse import load_corpus
from herdpulse.corpus import (
    REQUIRED_KEYS,
    CorpusFormatError,
    LineError,
    TweetRecord,
    _parse_timestamp,
    load_corpora,
)

from .conftest import make_record, record_line
from .oracles import reference_load_files, reference_load_lines, reference_timestamp


def test_three_valid_lines(corpus_file):
    path = corpus_file([record_line(tweet_id=f"t{i}") for i in range(3)])
    result = load_corpus(path)
    assert len(result.corpus.records) == 3
    assert result.invalid == []
    assert [r.tweet_id for r in result.corpus.records] == ["t0", "t1", "t2"]


def test_missing_tweet_id_reported_with_line_number(corpus_file):
    bad = json.loads(record_line())
    del bad["tweet_id"]
    path = corpus_file([record_line(tweet_id="t1"), record_line(tweet_id="t2"), json.dumps(bad)])
    result = load_corpus(path)
    assert len(result.corpus.records) == 2
    assert len(result.invalid) == 1
    assert result.invalid[0].line_no == 3
    assert "tweet_id" in result.invalid[0].reason


def test_duplicate_tweet_id_keeps_first(corpus_file):
    path = corpus_file([record_line(tweet_id="t1", text="first"), record_line(tweet_id="t1", text="second")])
    result = load_corpus(path)
    assert len(result.corpus.records) == 1
    assert result.corpus.records[0].text == "first"
    assert result.invalid[0].line_no == 2
    assert "duplicate" in result.invalid[0].reason


def test_unreadable_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "nope.jsonl")


def test_mostly_invalid_file_is_fatal(corpus_file):
    path = corpus_file([record_line(), "garbage", "{broken", "also not json"])
    with pytest.raises(CorpusFormatError):
        load_corpus(path)


def test_invalid_json_and_non_object_lines(corpus_file):
    path = corpus_file([record_line(), record_line(tweet_id="t2"), '"just a string"'])
    result = load_corpus(path)
    assert len(result.corpus.records) == 2
    assert result.invalid[0].line_no == 3


def test_unknown_keys_counted_not_fatal(corpus_file):
    path = corpus_file([record_line(tweet_id="t1", lang="en", source="web")])
    result = load_corpus(path)
    assert len(result.corpus.records) == 1
    assert result.unknown_key_count == 2


def test_hashtags_normalized_lowercase_no_hash(corpus_file):
    path = corpus_file([record_line(hashtags=["#WestBengal", "Vote2021"])])
    result = load_corpus(path)
    assert result.corpus.records[0].hashtags == ("westbengal", "vote2021")


def test_hashtag_with_whitespace_rejected(corpus_file):
    path = corpus_file([record_line(tweet_id="ok"), record_line(tweet_id="bad", hashtags=["west bengal"])])
    result = load_corpus(path)
    assert len(result.corpus.records) == 1
    assert "hashtag" in result.invalid[0].reason


def test_self_mentions_dropped(corpus_file):
    path = corpus_file([record_line(author_id="a1", mentions=["a1", "a2"])])
    result = load_corpus(path)
    assert result.corpus.records[0].mentions == ("a2",)


def test_negative_follower_count_invalid(corpus_file):
    path = corpus_file([record_line(tweet_id="ok"), record_line(tweet_id="bad", follower_count=-1)])
    result = load_corpus(path)
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
    result = load_corpus(path)
    assert len(result.corpus.records) == 3
    t1, t2, t3 = result.corpus.records
    assert t1.timestamp == t2.timestamp == t3.timestamp
    assert "timestamp" in result.invalid[0].reason


def test_invalid_utf8_line_is_a_line_error(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = [record_line(tweet_id=f"t{i}").encode("utf-8") for i in (1, 2)]
    path.write_bytes(b"\n".join([good[0], b'{"text": "caf\xe9"}', good[1]]) + b"\n")
    result = load_corpus(path)
    assert [r.tweet_id for r in result.corpus.records] == ["t1", "t2"]
    assert result.invalid == [LineError(2, "invalid UTF-8")]


def test_leading_bom_is_stripped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(codecs.BOM_UTF8 + record_line().encode("utf-8") + b"\n")
    result = load_corpus(path)
    assert [r.tweet_id for r in result.corpus.records] == ["t1"]
    assert result.invalid == []


@pytest.mark.parametrize(
    "line, reason",
    [
        (record_line(timestamp="0001-01-01T00:00:00+01:00"), "timestamp out of range: '0001-01-01T00:00:00+01:00'"),
        (record_line(timestamp="9999-12-31T23:59:59-01:00"), "timestamp out of range: '9999-12-31T23:59:59-01:00'"),
        ("[" * 100_000, "invalid JSON: nested too deeply"),
        ('{"follower_count": ' + "1" * 5000 + "}", "invalid JSON: integer too long"),
        ("\ufeff" + record_line(), "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (record_line(tweet_id="\ud800"), "tweet_id contains a lone surrogate"),
        (record_line(author_id="a\udfff"), "author_id contains a lone surrogate"),
        (record_line(text="\ude00\ud83d"), "text contains a lone surrogate"),
        (record_line(hashtags=["ok", "x\udc00"]), "hashtags contains a lone surrogate"),
        (record_line(mentions=["\ud800"]), "mentions contains a lone surrogate"),
        (record_line(retweet_of="\udbff"), "retweet_of contains a lone surrogate"),
        (record_line(hashtags=["west\u3000bengal"]), "hashtag contains whitespace or '#': 'west\\u3000bengal'"),
        (record_line(hashtags=["#a\x1c"]), "hashtag contains whitespace or '#': '#a\\x1c'"),
        (record_line(mentions=["a2", ""]), "mentions must be an array of non-empty strings"),
    ],
    ids=["year_1", "year_9999", "nesting", "long_int", "later_bom"]
    + [f"surrogate_{key}" for key in ("tweet_id", "author_id", "text", "hashtags", "mentions", "retweet_of")]
    + ["ideographic_space_tag", "separator_control_tag", "empty_mention"],
)
def test_hostile_line_is_a_line_error(tmp_path, line, reason):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([record_line(tweet_id="t0"), line]) + "\n", encoding="utf-8")
    result = load_corpus(path)
    assert [r.tweet_id for r in result.corpus.records] == ["t0"]
    assert result.invalid == [LineError(2, reason)]


def test_surrogate_pair_escape_and_unknown_key_surrogate_are_kept(corpus_file):
    # a pair of \u escapes is one astral character; an unknown key is never stored
    path = corpus_file([record_line(text="\U0001f600", extra="\ud800")])
    result = load_corpus(path)
    assert result.invalid == []
    assert result.corpus.records[0].text == "\U0001f600"


def test_timestamp_drops_microseconds_after_conversion(corpus_file):
    path = corpus_file(
        [
            record_line(tweet_id="t1", timestamp="2021-02-01T17:30:00.999999+05:30"),
            record_line(tweet_id="t2", timestamp="2021-02-01T12:00:00.5"),
        ]
    )
    t1, t2 = load_corpus(path).corpus.records
    assert t1.timestamp == t2.timestamp == datetime(2021, 2, 1, 12, 0, 0, tzinfo=timezone.utc)
    assert t1.timestamp.microsecond == t2.timestamp.microsecond == 0
    assert t1.timestamp.tzinfo is t2.timestamp.tzinfo is timezone.utc


def test_tweet_record_is_an_immutable_hashable_record():
    record = make_record()
    with pytest.raises(AttributeError):
        record.text = "changed"
    assert record == make_record()
    assert hash(record) == hash(make_record())
    assert len({record, make_record(), make_record(tweet_id="t2")}) == 2
    assert TweetRecord._fields == REQUIRED_KEYS


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_unicode_line_separator_in_text_keeps_line_whole(tmp_path, separator):
    lines = [
        json.dumps(json.loads(record_line(tweet_id="t1", text=f"a{separator}b")), ensure_ascii=False),
        record_line(tweet_id="t2"),
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = load_corpus(path)
    assert [r.text for r in result.corpus.records] == [f"a{separator}b", "hello"]
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
    escaped = [record_line(**{**r._asdict(), "timestamp": f"{r.timestamp:%Y-%m-%dT%H:%M:%SZ}"}) for r in records]
    raw = [json.dumps(json.loads(line), ensure_ascii=False) for line in escaped]
    for lines in (escaped, raw):  # \u escapes, then raw UTF-8
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            result = load_corpus(path)
        assert result.corpus.records == records
        assert result.invalid == []


def _kept_ids(result):
    return [r.tweet_id for r in result.corpus.records]


def test_filter_by_hashtag_direct_membership(corpus_file):
    path = corpus_file(
        [
            record_line(tweet_id="t1", hashtags=["westbengal"]),
            record_line(tweet_id="t2", hashtags=["cricket"]),
        ]
    )
    result = load_corpora([path], "#WestBengal")
    assert _kept_ids(result) == ["t1"]
    assert result.loaded_records == 2


def test_filter_by_hashtag_no_match_is_empty(corpus_file):
    path = corpus_file([record_line(tweet_id="t1", hashtags=["cricket"])])
    result = load_corpora([path], "football")
    assert _kept_ids(result) == []
    assert (result.loaded_records, result.invalid) == (1, [])


def test_filter_multi_tag_record_matches(corpus_file):
    path = corpus_file([record_line(tweet_id="t1", hashtags=["westbengal", "bengalelection2021"])])
    assert _kept_ids(load_corpora([path], "bengalelection2021")) == ["t1"]


def test_filter_rejects_empty_tag(tmp_path):
    # the tag is checked before any file is opened, so the missing file does not fail first
    for tag, reason in [
        ("", "tag must be non-empty"),
        ("#", "tag must be non-empty after stripping '#'"),
        ("a b", "tag contains whitespace or '#' and can never match"),
    ]:
        with pytest.raises(ValueError) as caught:
            load_corpora([tmp_path / "missing.jsonl"], tag)
        assert type(caught.value) is ValueError
        assert str(caught.value) == reason


def test_merge_corpora_dedups_across_files(corpus_file):
    p1 = corpus_file([record_line(tweet_id="t1"), record_line(tweet_id="t2")], name="a.jsonl")
    p2 = corpus_file([record_line(tweet_id="t2"), record_line(tweet_id="t3")], name="b.jsonl")
    result = load_corpora([p1, p2])
    assert _kept_ids(result) == ["t1", "t2", "t3"]
    assert (result.loaded_records, result.invalid) == (3, [])


def test_first_occurrence_wins_across_files_before_the_filter(corpus_file):
    # t1 first lacks the tag, so its tagged copy in b is dropped, not kept
    p1 = corpus_file([record_line(tweet_id="t1", text="first")], name="a.jsonl")
    p2 = corpus_file(
        [record_line(tweet_id="t1", hashtags=["x"]), record_line(tweet_id="t2", hashtags=["x"])],
        name="b.jsonl",
    )
    result = load_corpora([p1, p2], "x")
    assert _kept_ids(result) == ["t2"]
    assert (result.loaded_records, result.invalid) == (2, [])
    assert [r.text for r in load_corpora([p1, p2]).corpus.records] == ["first", "hello"]


def test_duplicate_within_a_later_file_is_invalid_there(corpus_file):
    p1 = corpus_file([record_line(tweet_id="t1")], name="a.jsonl")
    p2 = corpus_file([record_line(tweet_id="t2"), record_line(tweet_id="t1"), record_line(tweet_id="t1")], name="b.jsonl")
    result = load_corpora([p1, p2])
    assert _kept_ids(result) == ["t1", "t2"]
    assert result.invalid == [LineError(3, "duplicate tweet_id: 't1'")]
    assert result.loaded_records == 2


def test_mostly_invalid_later_file_is_fatal(corpus_file):
    p1 = corpus_file([record_line(tweet_id="t1")], name="a.jsonl")
    p2 = corpus_file([record_line(tweet_id="t2"), "junk", "junk"], name="b.jsonl")
    with pytest.raises(CorpusFormatError, match="2 of 3 lines invalid in .*b.jsonl"):
        load_corpora([p1, p2], "x")


@given(
    tags=st.lists(
        st.lists(st.sampled_from(["alpha", "beta", "gamma"]), max_size=3), max_size=12
    ),
    wanted=st.sampled_from(["alpha", "beta", "gamma"]),
)
def test_filter_result_is_subsequence(tags, wanted):
    lines = [record_line(tweet_id=f"t{i}", hashtags=ts) for i, ts in enumerate(tags)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        everything = load_corpus(path).corpus.records
        kept = load_corpora([path], wanted)
    ids = [r.tweet_id for r in everything]
    kept_ids = _kept_ids(kept)
    # subsequence check: the kept ids appear in the same relative order
    it = iter(ids)
    assert all(k in it for k in kept_ids)
    assert all(wanted in r.hashtags for r in kept.corpus.records)
    assert kept.loaded_records == len(ids)


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
    result = load_corpus(path)
    non_empty = sum(1 for line in lines if line.strip())
    assert len(result.corpus.records) + len(result.invalid) == non_empty


def _plain(fields):
    """A record's fields with the timestamp as text plus whether it is UTC."""
    return fields[:3] + (fields[3].isoformat(), fields[3].tzinfo is timezone.utc) + fields[4:]


def rarely(usual, odd):
    """``odd`` about one draw in six, else ``usual``. ``n`` shrinks to 0, so a
    failing example shrinks towards ``usual`` values."""
    return st.integers(0, 5).flatmap(lambda n: odd if n == 1 else usual)


def _stamp_text(stamp: datetime, style: str) -> str:
    text = stamp.isoformat()
    return f" {text} " if style == " " else text.replace("+00:00", style) if style else text


WRONG_TYPES = st.sampled_from([None, 0, 1.5, True, [], {}])
ODD_STRINGS = st.sampled_from(["", "\ud800", "x\udfff", "\U0001f600"]) | st.text(st.characters(), max_size=4)
ZONES = [None, timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-1))]
TIMESTAMPS = rarely(
    st.builds(_stamp_text, st.datetimes(timezones=st.sampled_from(ZONES)), st.sampled_from(["", "Z", "z", " "])),
    st.sampled_from(["not a time", "", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59.5-01:00"]) | WRONG_TYPES,
)
# letters and digits of any script and case, with or without leading '#'
TAGS = st.builds(
    str.__add__, st.sampled_from(["", "#", "##"]), st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=4)
)
# '#', ASCII and Unicode spaces, control and format characters, anything
TAG_CHARS = (
    st.sampled_from("#aZ \u3000\x1c\x85\u200b")
    | st.characters(categories=["Zs", "Zl", "Zp", "Cc", "Cf"])
    | st.characters()
)
ODD_TAGS = st.text(TAG_CHARS, min_size=1, max_size=4) | st.sampled_from(["", "#", "##", "x\udc00"]) | WRONG_TYPES
SELF = "<the author>"  # placeholder in a drawn mention list for a self-mention
MENTIONS = st.sampled_from([SELF, "a", "b", "c"])
RECORDS = st.fixed_dictionaries({
    "tweet_id": rarely(st.text("tuv", min_size=1, max_size=3), ODD_STRINGS),
    "author_id": rarely(st.sampled_from(["a", "b"]), ODD_STRINGS),
    "text": st.text(),
    "timestamp": TIMESTAMPS,
    "hashtags": rarely(st.lists(TAGS, max_size=3), st.lists(TAGS | ODD_TAGS, min_size=1, max_size=3)),
    "mentions": rarely(st.lists(MENTIONS, max_size=4), st.lists(MENTIONS | ODD_STRINGS | WRONG_TYPES, max_size=4)),
    "retweet_of": rarely(st.sampled_from([None, "a"]), ODD_STRINGS),
    "follower_count": rarely(st.integers(0, 10**12), st.sampled_from([-1, True, 2.0, "7", None])),
})
BROKEN_KEYS = rarely(st.just([]), st.lists(st.sampled_from(REQUIRED_KEYS), min_size=1, max_size=2))
UNKNOWN_KEYS = st.dictionaries(st.sampled_from(["lang", "source", "\ud800"]), ODD_STRINGS, max_size=2)
# "\ufeff" stands for a BOM in front of the record; the rest replace it
ODD_LINES = st.sampled_from(
    ["\ufeff", "", "   ", "null", "[1]", '"str"', "{broken", "[" * 5000, '{"a": 1' + "0" * 5000 + "}"]
)


@st.composite
def corpus_lines(draw):
    """One line: a record with odd field values, missing, wrong-typed or
    unknown keys, serialized with or without \\u escapes; or junk."""
    obj = draw(RECORDS)
    obj["mentions"] = [obj["author_id"] if m == SELF else m for m in obj["mentions"]]
    for key in draw(BROKEN_KEYS):
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(WRONG_TYPES)
    obj.update(draw(UNKNOWN_KEYS))
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    if any("\ud800" <= ch <= "\udfff" for ch in line):
        line = json.dumps(obj)  # a raw lone surrogate cannot be written as UTF-8
    odd = draw(rarely(st.none(), ODD_LINES))
    return line if odd is None else "\ufeff" + line if odd == "\ufeff" else odd


@given(st.lists(corpus_lines(), min_size=1, max_size=8), st.integers(0, 8))
def test_load_corpus_matches_reference_ingestion(lines, padding):
    # valid lines after the drawn ones keep most files under the invalid-line limit
    lines = lines + [record_line(tweet_id=f"pad{i}") for i in range(padding)]
    records, errors, unknown = reference_load_lines(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        non_empty = len(records) + len(errors)
        if non_empty and len(errors) / non_empty > 0.5:
            with pytest.raises(CorpusFormatError):
                load_corpus(path)
            return
        result = load_corpus(path)

    assert [_plain(tuple(r)) for r in result.corpus.records] == [_plain(r) for r in records]
    assert [(e.line_no, e.reason) for e in result.invalid] == errors
    assert result.unknown_key_count == unknown
    assert result.loaded_records == len(records)


# few ids and tags, so ids repeat within and across files, with and without the tag
SIMPLE_LINES = st.builds(
    lambda tweet_id, tags, extra: record_line(tweet_id=tweet_id, hashtags=tags, **extra),
    st.sampled_from(["t1", "t2", "t3", "t4"]),
    st.sampled_from([[], ["x"], ["#X", "y"], ["y"]]),
    st.sampled_from([{}, {"lang": "en"}]),
)
CORPUS_FILES = st.lists(st.lists(rarely(SIMPLE_LINES, corpus_lines()), max_size=6), min_size=1, max_size=3)


@given(CORPUS_FILES, st.sampled_from([None, "x", "#X", "y"]))
@example([[record_line(tweet_id="t1")], [record_line(tweet_id="t1", hashtags=["x"])]], "x")
@example([[record_line(tweet_id="t1")], [record_line(tweet_id="t1"), record_line(tweet_id="t1")]], None)
def test_load_corpora_matches_load_merge_filter(files, tag):
    expected = reference_load_files(files, tag)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"corpus{i}.jsonl" for i in range(len(files))]
        for path, lines in zip(paths, files):
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        if expected is None:
            with pytest.raises(CorpusFormatError):
                load_corpora(paths, tag)
            return
        result = load_corpora(paths, tag)
    records, errors, unknown, merged = expected
    assert [_plain(tuple(r)) for r in result.corpus.records] == [_plain(r) for r in records]
    assert [(e.line_no, e.reason) for e in result.invalid] == errors
    assert result.unknown_key_count == unknown
    assert result.loaded_records == merged


@st.composite
def stamps(draw):
    """Near-RFC 3339 text: fields of the right or wrong width and range, odd
    separators, fractions and zones, sometimes padded with whitespace."""

    def number(low: int, high: int, width: int) -> str:
        return f"{draw(st.integers(low, high)):0{draw(rarely(st.just(width), st.integers(1, width + 1)))}d}"

    text = f"{number(0, 10000, 4)}-{number(0, 13, 2)}-{number(0, 32, 2)}"
    if draw(st.booleans()):
        text += draw(rarely(st.sampled_from("Tt "), st.sampled_from(["", "x", "_", "\t", "TT"])))
        text += f"{number(0, 24, 2)}:{number(0, 60, 2)}:{number(0, 61, 2)}"
        text += draw(st.just("") | st.text("0123456789", max_size=9).map(".".__add__))
        text += draw(
            st.sampled_from(["", "Z", "z"])
            | st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"), st.integers(0, 25), st.integers(0, 61))
            | st.sampled_from(["+0530", "+05", "+05:30:15", " +05:30", "Zz", "UTC"])
        )
    return draw(rarely(st.just(text), st.sampled_from([f" {text}", f"{text}\n", f"{text}\u3000", f"\u0661{text[1:]}"])))


# read by 3.11's datetime.fromisoformat (but for 2021-213), none of them RFC 3339
NOT_RFC3339 = [
    "2021-W31-1",
    "2021-W31",
    "20210801T000000Z",
    "20210801",
    "2021-213",
    "2021-08-01+05:30",
    "2021-08-01x12:00:00",
    "2021-08-01T12",
    "2021-08-01T1200",
    "2021-08-01T12:00",
    "2021-08-01T12:00:00,5",
    "2021-08-01T12:00:00.Z",
    "2021-08-01T12:00:00+0530",
    "2021-08-01T12:00:00+05",
    "2021-08-01T12:00:00+05:30:15",
    "2021-08-01T12:00:00+05:60",
    "2021-08-01T12:00:00 +05:30",
]


@given(stamps() | st.text("0123456789-:.+Zz T", max_size=30) | st.sampled_from(NOT_RFC3339))
@example("0001-01-01T00:00:00+00:01")
@example("9999-12-31T23:59:59.9999999-00:01")
@example("2000-02-29 23:59:59.000001z")
@example("1900-02-29T00:00:00")
def test_timestamp_matches_hand_written_grammar(value):
    try:
        expected = reference_timestamp(value)
    except ValueError as err:
        with pytest.raises(ValueError) as caught:
            _parse_timestamp(value)
        assert str(caught.value) == str(err)
        return
    parsed = _parse_timestamp(value)
    assert (parsed.isoformat(), parsed.tzinfo) == (expected.isoformat(), timezone.utc)


@pytest.mark.parametrize("stamp", NOT_RFC3339)
def test_timestamp_outside_the_grammar_is_a_line_error(corpus_file, stamp):
    path = corpus_file([record_line(tweet_id="t0"), record_line(tweet_id="t1", timestamp=stamp)])
    result = load_corpus(path)
    assert _kept_ids(result) == ["t0"]
    assert result.invalid == [LineError(2, f"timestamp not ISO-8601: {stamp!r}")]
