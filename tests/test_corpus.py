from __future__ import annotations

import codecs
import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import herdpulse.corpus as corpus
from herdpulse import load_corpora
from herdpulse.corpus import (
    REQUIRED_KEYS,
    CorpusFormatError,
    LineError,
    TweetRecord,
    _json_reason,
    _parse_timestamp,
)

from .conftest import make_record, record_line
from .oracles import reference_load_files, reference_load_lines, reference_timestamp


def test_three_valid_lines(corpus_file):
    path = corpus_file([record_line(tweet_id=f"t{i}") for i in range(3)])
    result = load_corpora([path])
    assert len(result.records) == 3
    assert result.invalid == []
    assert [r.tweet_id for r in result.records] == ["t0", "t1", "t2"]


def test_missing_tweet_id_reported_with_line_number(corpus_file):
    bad = json.loads(record_line())
    del bad["tweet_id"]
    path = corpus_file([record_line(tweet_id="t1"), record_line(tweet_id="t2"), json.dumps(bad)])
    result = load_corpora([path])
    assert len(result.records) == 2
    assert len(result.invalid) == 1
    assert result.invalid[0].line_no == 3
    assert "tweet_id" in result.invalid[0].reason


def test_duplicate_tweet_id_keeps_first(corpus_file):
    path = corpus_file([record_line(tweet_id="t1", text="first"), record_line(tweet_id="t1", text="second")])
    result = load_corpora([path])
    assert len(result.records) == 1
    assert result.records[0].text == "first"
    assert result.invalid[0].line_no == 2
    assert "duplicate" in result.invalid[0].reason


def test_unreadable_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_corpora([tmp_path / "nope.jsonl"])


def test_mostly_invalid_file_is_fatal(corpus_file):
    path = corpus_file([record_line(), "garbage", "{broken", "also not json"])
    with pytest.raises(CorpusFormatError):
        load_corpora([path])


def test_invalid_json_and_non_object_lines(corpus_file):
    path = corpus_file([record_line(), record_line(tweet_id="t2"), '"just a string"'])
    result = load_corpora([path])
    assert len(result.records) == 2
    assert result.invalid[0].line_no == 3


def test_unknown_keys_counted_not_fatal(corpus_file):
    path = corpus_file([record_line(tweet_id="t1", lang="en", source="web")])
    result = load_corpora([path])
    assert len(result.records) == 1
    assert result.unknown_key_count == 2


def test_hashtags_normalized_lowercase_no_hash(corpus_file):
    path = corpus_file([record_line(hashtags=["#WestBengal", "Vote2021"])])
    result = load_corpora([path])
    assert result.records[0].hashtags == ("westbengal", "vote2021")


@pytest.mark.parametrize(
    "tag, stored",
    [("\u2c2f", "\u2c2f"), ("#\u2c5f", "\u2c5f"), ("#\u00c9LECTION", "\u00c9lection")],
    ids=["U+2C2F", "U+2C5F", "accented"],
)
def test_tags_fold_ascii_letters_only(corpus_file, tag, stored):
    # 3.10 and 3.11+ lowercase U+2C2F differently; a fold of A-Z alone is the same everywhere
    path = corpus_file([record_line(hashtags=[tag])])
    assert load_corpora([path]).records[0].hashtags == (stored,)


def test_hashtag_filter_folds_ascii_letters_only(corpus_file):
    path = corpus_file(
        [
            record_line(tweet_id="t1", hashtags=["\u2c2f"]),
            record_line(tweet_id="t2", hashtags=["\u2c5f"]),
            record_line(tweet_id="t3", hashtags=["#\u2c5f", "Vote"]),
        ]
    )
    assert _kept_ids(load_corpora([path], "\u2c5f")) == ["t2", "t3"]
    assert _kept_ids(load_corpora([path], "#\u2c2f")) == ["t1"]
    assert _kept_ids(load_corpora([path], "VOTE")) == ["t3"]


def test_hashtag_with_whitespace_rejected(corpus_file):
    path = corpus_file([record_line(tweet_id="ok"), record_line(tweet_id="bad", hashtags=["west bengal"])])
    result = load_corpora([path])
    assert len(result.records) == 1
    assert "hashtag" in result.invalid[0].reason


def test_self_mentions_dropped(corpus_file):
    path = corpus_file([record_line(author_id="a1", mentions=["a1", "a2"])])
    result = load_corpora([path])
    assert result.records[0].mentions == ("a2",)


def test_negative_follower_count_invalid(corpus_file):
    path = corpus_file([record_line(tweet_id="ok"), record_line(tweet_id="bad", follower_count=-1)])
    result = load_corpora([path])
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
    result = load_corpora([path])
    assert _kept_ids(result) == ["t1", "t2", "t3"]
    assert "timestamp" in result.invalid[0].reason
    assert (
        _parse_timestamp("2021-02-01T12:00:00Z")
        == _parse_timestamp("2021-02-01T12:00:00+00:00")
        == _parse_timestamp("2021-02-01T17:30:00+05:30")
    )


def test_invalid_utf8_line_is_a_line_error(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = [record_line(tweet_id=f"t{i}").encode("utf-8") for i in (1, 2)]
    path.write_bytes(b"\n".join([good[0], b'{"text": "caf\xe9"}', good[1]]) + b"\n")
    result = load_corpora([path])
    assert [r.tweet_id for r in result.records] == ["t1", "t2"]
    assert result.invalid == [LineError(2, "invalid UTF-8")]


def test_leading_bom_is_stripped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(codecs.BOM_UTF8 + record_line().encode("utf-8") + b"\n")
    result = load_corpora([path])
    assert [r.tweet_id for r in result.records] == ["t1"]
    assert result.invalid == []


@pytest.mark.parametrize(
    "data, kept",
    [
        (codecs.BOM_UTF8 + b"\n" + record_line().encode("utf-8") + b"\n", ["t1"]),
        (codecs.BOM_UTF8, []),  # line 1 is "" once the BOM is gone, and "".isspace() is False
        # JSON whitespace is " \t\n\r", so a CRLF line with spaces and tabs around the object is a record
        ((" \t" + record_line() + " \r\n").encode("utf-8"), ["t1"]),
    ],
    ids=["bom_line", "bare_bom", "json_whitespace"],
)
def test_blank_and_padded_lines_are_not_errors(tmp_path, data, kept):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    result = load_corpora([path])
    assert [r.tweet_id for r in result.records] == kept
    assert result.invalid == []


def test_bad_tag_is_an_error_on_every_line_that_holds_it(corpus_file):
    lines = [record_line(tweet_id=f"t{i}", hashtags=tags) for i, tags in enumerate([["#X"], ["a b"], ["x"], ["a b"]])]
    result = load_corpora([corpus_file(lines)])
    assert [r.hashtags for r in result.records] == [("x",), ("x",)]
    assert result.invalid == [LineError(2, "hashtag can never match: 'a b'"), LineError(4, "hashtag can never match: 'a b'")]


@pytest.mark.parametrize(
    "line, reason",
    [
        (record_line(timestamp="0001-01-01T00:00:00+01:00"), "timestamp out of range: '0001-01-01T00:00:00+01:00'"),
        (record_line(timestamp="9999-12-31T23:59:59-01:00"), "timestamp out of range: '9999-12-31T23:59:59-01:00'"),
        ("[" * 100_000, "invalid JSON: nested too deeply"),
        ('{"follower_count": ' + "1" * 5000 + "}", "invalid JSON: integer too long"),
        ("\ufeff" + record_line(), "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"a": 1,}', "invalid JSON: Expecting property name enclosed in double quotes"),
        ("[1,]", "invalid JSON: Expecting value"),
        (record_line(tweet_id="\ud800"), "tweet_id contains a lone surrogate"),
        (record_line(author_id="a\udfff"), "author_id contains a lone surrogate"),
        (record_line(text="\ude00\ud83d"), "text contains a lone surrogate"),
        (record_line(hashtags=["ok", "x\udc00"]), "hashtags contains a lone surrogate"),
        (record_line(mentions=["\ud800"]), "mentions contains a lone surrogate"),
        (record_line(retweet_of="\udbff"), "retweet_of contains a lone surrogate"),
        (record_line(hashtags=["west\u3000bengal"]), "hashtag can never match: 'west\\u3000bengal'"),
        (record_line(hashtags=["#a\x1c"]), "hashtag can never match: '#a\\x1c'"),
        (record_line(mentions=["a2", ""]), "mentions must be an array of non-empty strings"),
        (record_line() + " " + record_line(), "invalid JSON: Extra data"),
        ("\x0c" + record_line(), "invalid JSON: Expecting value"),
        (record_line() + "\xa0", "invalid JSON: Extra data"),
        ("]", "invalid JSON: Expecting value"),
    ],
    ids=["year_1", "year_9999", "nesting", "long_int", "later_bom", "trailing_comma_object", "trailing_comma_array"]
    + [f"surrogate_{key}" for key in ("tweet_id", "author_id", "text", "hashtags", "mentions", "retweet_of")]
    + ["ideographic_space_tag", "separator_control_tag", "empty_mention"]
    + ["two_records", "form_feed_before", "nbsp_after", "close_bracket"],
)
def test_hostile_line_is_a_line_error(tmp_path, line, reason):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([record_line(tweet_id="t0"), line]) + "\n", encoding="utf-8")
    result = load_corpora([path])
    assert [r.tweet_id for r in result.records] == ["t0"]
    assert result.invalid == [LineError(2, reason)]


@pytest.mark.parametrize(
    "text, message, reason",
    [
        ('{"a": 1,}', "Illegal trailing comma before end of object", "Expecting property name enclosed in double quotes"),
        ("[1,]", "Illegal trailing comma before end of array", "Expecting value"),
        ("[1,,]", "Expecting value", "Expecting value"),
    ],
)
def test_json_reason_gives_the_pre_3_13_trailing_comma_wording(text, message, reason):
    # 3.13 raises the first message for a trailing comma; every interpreter must print the same reason
    assert _json_reason(json.JSONDecodeError(message, text, 1), text) == reason


def test_surrogate_pair_escape_and_unknown_key_surrogate_are_kept(corpus_file):
    # a pair of \u escapes is one astral character; an unknown key is never stored
    path = corpus_file([record_line(text="\U0001f600", extra="\ud800")])
    result = load_corpora([path])
    assert result.invalid == []
    assert result.records[0].text == "\U0001f600"


@pytest.mark.parametrize("text", ['say "hi"', "C:\\users", "a literal \\u0041", "\\\\u", "\\"])
def test_backslash_without_a_u_escape_is_kept(corpus_file, text):
    line = record_line(text=text)
    assert "\\" in line and "\\u" not in line.replace("\\\\", "")  # escaped quotes and backslashes only
    result = load_corpora([corpus_file([line])])
    assert result.invalid == []
    assert [record.text for record in result.records] == [text]


def test_timestamp_drops_microseconds_after_conversion(corpus_file):
    path = corpus_file(
        [
            record_line(tweet_id="t1", timestamp="2021-02-01T17:30:00.999999+05:30"),
            record_line(tweet_id="t2", timestamp="2021-02-01T12:00:00.5"),
        ]
    )
    assert _kept_ids(load_corpora([path])) == ["t1", "t2"]
    t1 = _parse_timestamp("2021-02-01T17:30:00.999999+05:30")
    t2 = _parse_timestamp("2021-02-01T12:00:00.5")
    assert t1 == t2 == datetime(2021, 2, 1, 12, 0, 0, tzinfo=timezone.utc)
    assert t1.microsecond == t2.microsecond == 0
    assert t1.tzinfo is t2.tzinfo is timezone.utc


def test_tweet_record_is_an_immutable_hashable_record():
    record = make_record()
    with pytest.raises(AttributeError):
        record.text = "changed"
    assert record == make_record()
    assert hash(record) == hash(make_record())
    assert len({record, make_record(), make_record(tweet_id="t2")}) == 2
    assert TweetRecord._fields == tuple(key for key in REQUIRED_KEYS if key not in ("timestamp", "follower_count"))


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_unicode_line_separator_in_text_keeps_line_whole(tmp_path, separator):
    lines = [
        json.dumps(json.loads(record_line(tweet_id="t1", text=f"a{separator}b")), ensure_ascii=False),
        record_line(tweet_id="t2"),
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = load_corpora([path])
    assert [r.text for r in result.records] == [f"a{separator}b", "hello"]
    assert result.invalid == []


FULL_UNICODE = st.text(st.characters(codec="utf-8"))
NON_EMPTY = st.text(st.characters(codec="utf-8"), min_size=1)


@st.composite
def tweet_records(draw, tweet_id):
    """A record and its line, which also carries a drawn timestamp and follower count."""
    author = draw(NON_EMPTY)
    stamp = draw(st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2099, 12, 31)))
    record = TweetRecord(
        tweet_id=tweet_id,
        author_id=author,
        text=draw(FULL_UNICODE),
        hashtags=tuple(draw(st.lists(st.text("abcxyz", min_size=1), max_size=3))),
        mentions=tuple(m for m in draw(st.lists(NON_EMPTY, max_size=3)) if m != author),
        retweet_of=draw(st.none() | NON_EMPTY),
    )
    count = draw(st.integers(min_value=0, max_value=10**9))
    return record, record_line(**record._asdict(), timestamp=f"{stamp:%Y-%m-%dT%H:%M:%SZ}", follower_count=count)


@given(st.lists(NON_EMPTY, max_size=5, unique=True).flatmap(
    lambda ids: st.tuples(*(tweet_records(i) for i in ids))
))
def test_save_then_load_round_trips_full_unicode(drawn):
    records = tuple(record for record, _ in drawn)
    escaped = [line for _, line in drawn]
    raw = [json.dumps(json.loads(line), ensure_ascii=False) for line in escaped]
    for lines in (escaped, raw):  # \u escapes, then raw UTF-8
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            result = load_corpora([path])
        assert result.records == records
        assert result.invalid == []


def _kept_ids(result):
    return [r.tweet_id for r in result.records]


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
        ("", "hashtag can never match: ''"),
        ("#", "hashtag can never match: '#'"),
        ("a b", "hashtag can never match: 'a b'"),
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


def _shared_strings(records):
    """Value -> the distinct objects holding it, over every id and tag of ``records``."""
    holders: dict[str, dict[int, str]] = {}
    for r in records:
        for value in (r.author_id, *r.hashtags, *r.mentions, r.retweet_of):
            if value is not None:
                holders.setdefault(value, {})[id(value)] = value
    return holders


def test_equal_ids_and_tags_of_kept_records_are_one_object(corpus_file):
    p1 = corpus_file(
        [
            record_line(tweet_id="t1", author_id="alice", hashtags=["#Rally", "vote"], mentions=["bobby", "carol"]),
            record_line(tweet_id="t2", author_id="bobby", hashtags=["rally"], retweet_of="alice"),
        ],
        name="a.jsonl",
    )
    p2 = corpus_file(
        [
            record_line(tweet_id="t3", author_id="carol", hashtags=["RALLY"], mentions=["alice", "bobby"]),
            record_line(tweet_id="t4", author_id="alice", hashtags=["#vote"], retweet_of="carol"),
        ],
        name="b.jsonl",
    )
    records = load_corpora([p1, p2]).records
    holders = _shared_strings(records)
    assert sorted(holders) == ["alice", "bobby", "carol", "rally", "vote"]
    assert all(len(objects) == 1 for objects in holders.values()), holders
    assert records[0].hashtags[0] is records[1].hashtags[0] is records[2].hashtags[0]
    assert records[0].mentions[0] is records[1].author_id is records[2].mentions[1]
    assert records[1].retweet_of is records[0].author_id is records[3].author_id


def test_shared_strings_change_no_output():
    from herdpulse import load_config
    from herdpulse.pipeline import analyze_corpus, bundle_files

    demo = Path(__file__).resolve().parent.parent / "demos" / "data"
    loaded = load_corpora([demo / "demo_tweets.jsonl"])
    config = load_config(demo / "demo_config.json")

    def fresh(value):
        return None if value is None else "".join(list(value))

    copies = tuple(
        r._replace(
            author_id=fresh(r.author_id),
            hashtags=tuple(map(fresh, r.hashtags)),
            mentions=tuple(map(fresh, r.mentions)),
            retweet_of=fresh(r.retweet_of),
        )
        for r in loaded.records
    )
    assert copies == loaded.records
    assert any(len(objects) > 1 for objects in _shared_strings(copies).values())
    assert all(len(objects) == 1 for objects in _shared_strings(loaded.records).values())
    shared = bundle_files(analyze_corpus(loaded, config))
    assert bundle_files(analyze_corpus(loaded._replace(records=copies), config)) == shared


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
    assert [r.text for r in load_corpora([p1, p2]).records] == ["first", "hello"]


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
        everything = load_corpora([path]).records
        kept = load_corpora([path], wanted)
    ids = [r.tweet_id for r in everything]
    kept_ids = _kept_ids(kept)
    # subsequence check: the kept ids appear in the same relative order
    it = iter(ids)
    assert all(k in it for k in kept_ids)
    assert all(wanted in r.hashtags for r in kept.records)
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
    result = load_corpora([path])
    non_empty = sum(1 for line in lines if line.strip())
    assert len(result.records) + len(result.invalid) == non_empty


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
# "\ufeff" stands for a BOM in front of the record; the rest replace it. Only
# " \t\n\r" is JSON whitespace: "\x0c" and "\xa0" around a record make it invalid
ODD = record_line(tweet_id="odd")
ODD_LINES = st.sampled_from(
    ["\ufeff", "", "   ", "null", "[1]", '"str"', "{broken", "[" * 5000, '{"a": 1' + "0" * 5000 + "}", "]", "{} {}"]
    + [" \t" + ODD + " \r", "\x0c" + ODD, ODD + "\xa0", ODD + " " + ODD]
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
                load_corpora([path])
            return
        result = load_corpora([path])

    assert list(result.records) == records
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
    _assert_matches_reference_files(files, tag)


def _assert_matches_reference_files(files: list[list[str]], tag: str | None) -> None:
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
    assert list(result.records) == records
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
    result = load_corpora([path])
    assert _kept_ids(result) == ["t0"]
    assert result.invalid == [LineError(2, f"timestamp not ISO-8601: {stamp!r}")]


@st.composite
def same_hour_stamps(draw):
    """A stamp of RFC 3339 shape, sometimes with a leading space, a bad date or
    hour 24, and a second stamp with the same first 14 characters."""
    stamp = "{}{}{}{:02d}:{:02d}:{:02d}{}{}".format(
        draw(rarely(st.just(""), st.just(" "))),
        draw(st.sampled_from(["2021-03-01", "2020-02-29", "2021-02-29", "0000-01-01", "0001-01-01", "9999-12-31"])),
        draw(st.sampled_from("Tt ")),
        draw(st.integers(0, 24)),
        draw(st.integers(0, 59)),
        draw(st.integers(0, 59)),
        draw(st.sampled_from(["", ".5", ".123456789"])),
        draw(st.sampled_from(["Z", "z", "", "+01:00", "-01:00"])),
    )
    rest = draw(
        st.sampled_from(["00:00Z", "59:59.5z", ":00:00Z", "00:00", "00:00+01:00", "60:00Z", "00:00Z ", "0:00Z"])
        | st.text("0123456789:.+-Zz ", max_size=12)
    )
    return stamp, stamp[:14] + rest


@given(st.lists(same_hour_stamps(), min_size=1, max_size=6), st.booleans(), st.booleans())
@example([(" 2021-03-01T10:00:00Z", " 2021-03-01T1000:00Z")], True, False)  # a leading space
@example(  # a 't' and a space separator
    [("2021-03-01t10:00:00Z", "2021-03-01t10:30:00Z"), ("2021-03-01 10:00:00Z", "2021-03-01 10:59:59Z")], True, True
)
@example(  # hour 24 after a valid hour 23
    [("2021-03-01T23:00:00Z", "2021-03-01T23:59:59Z"), ("2021-03-01T24:00:00Z", "2021-03-01T24:00:00Z")], True, False
)
@example([("2021-02-29T10:00:00Z", "2021-02-29T10:00:01Z")], True, False)
@example([("0000-01-01T00:00:00Z", "0000-01-01T00:00:01Z")], True, False)
@example(  # a '+' offset that overflows before year 1, and one that does not
    [("0001-01-01T00:00:00+01:00", "0001-01-01T00:00:00Z"), ("0001-01-01T05:00:00+01:00", "0001-01-01T05:59:59Z")],
    True,
    True,
)
@example([("2021-03-01T10:00:00.123Z", "2021-03-01T10:00:00.5Z")], True, False)  # a fraction
@example([("2021-03-01T10:00:00z", "2021-03-01T10:59:59z")], True, False)  # a lower-case z
@example([("2021-03-01T10:00:00Z", "2021-03-01T10:00:00.5z")], False, False)  # no valid stamp of the hour before
def test_stamps_of_a_seen_hour_match_reference_ingestion(pairs, valid_first, two_files):
    stamps = [stamp for pair in pairs for stamp in (pair if valid_first else pair[::-1])]
    # a valid line after each drawn one keeps every file under the invalid-line limit
    lines = [
        line
        for i, stamp in enumerate(stamps)
        for line in (record_line(tweet_id=f"t{i}", timestamp=stamp), record_line(tweet_id=f"pad{i}"))
    ]
    cut = len(lines) // 4 * 2 if two_files else len(lines)  # the hours seen in one file serve the next
    _assert_matches_reference_files([lines[:cut], lines[cut:]], None)


def test_each_hour_is_parsed_in_full_once(corpus_file, monkeypatch):
    calls = []
    parse = corpus._parse_timestamp
    monkeypatch.setattr(corpus, "_parse_timestamp", lambda value: calls.append(value) or parse(value))
    heads = [f"2021-03-0{day}{sep}{hour:02d}:" for day in (1, 2) for sep in "T " for hour in (0, 9, 23)]
    same_hour = [head + rest for head in heads for rest in ("00:00Z", "30:15z", "59:59.5Z")]
    # an offset, trailing space, hour 24 and second 60 are parsed in full every time
    in_full = ["2021-03-01T09:00:00+01:00", "2021-03-01T09:00:00Z ", "2021-03-01T24:00:00Z", "2021-03-01T09:00:60Z"]
    in_full *= 2
    stamps = same_hour + in_full
    result = load_corpora([corpus_file([record_line(tweet_id=f"t{i}", timestamp=s) for i, s in enumerate(stamps)])])
    assert len(result.records) == len(stamps) - 4
    assert calls == [head + "00:00Z" for head in heads] + in_full


def test_a_load_leaves_no_state_in_the_module(corpus_file):
    def state():
        return {name: repr(value) for name, value in vars(corpus).items() if not name.startswith("__")}

    before = state()
    lines = [record_line(tweet_id=f"t{i}", text="\\u", timestamp=f"2021-03-01T{i:02d}:00:00Z") for i in range(24)]
    assert len(load_corpora([corpus_file(lines)]).records) == 24
    assert state() == before
