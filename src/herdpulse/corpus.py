"""Offline tweet-corpus ingestion: validate, deduplicate and filter in one pass.

A corpus file is UTF-8, one JSON object per LF-terminated line, with keys:
``tweet_id``, ``author_id``, ``text``, ``timestamp`` (RFC 3339, read as UTC),
``hashtags``, ``mentions``, ``retweet_of`` (string or null) and
``follower_count``. The timestamp and follower count are validated but not
kept. Unknown keys are ignored but counted. ``load_corpora`` reads one or more
files at once: the first occurrence of a tweet_id across files wins, and with
a hashtag it keeps only the records that carry it.
"""

from __future__ import annotations

import codecs
import json
import re
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from .inputs import _NEVER_MATCHES, _SURROGATE, CorpusFormatError, _stored_tag


REQUIRED_KEYS = (
    "tweet_id",
    "author_id",
    "text",
    "timestamp",
    "hashtags",
    "mentions",
    "retweet_of",
    "follower_count",
)

# loading aborts when more than this fraction of a file's non-empty lines is invalid
MAX_INVALID_FRACTION = 0.5

_scan_once = json.JSONDecoder().scan_once  # the C scanner JSONDecoder.decode wraps
_JSON_SPACE = " \t\n\r"  # json's whitespace; str.strip() also strips e.g. "\x0c" and "\xa0"
_REQUIRED = frozenset(REQUIRED_KEYS)
# 3.13 names a trailing comma; 3.10-3.12 report the token they expected after it
_OLDER_JSON_MESSAGES = {
    "Illegal trailing comma before end of object": "Expecting property name enclosed in double quotes",
    "Illegal trailing comma before end of array": "Expecting value",
}
# RFC 3339 date-time or a bare date. Checked before fromisoformat, which on 3.11
# also reads week, ordinal and basic-format dates; on 3.10 it reads a fraction
# only of 3 or 6 digits, so the fraction is dropped before it is called. Each
# digit is spelled out: sre runs "[0-9]{2}" as a slower counted loop.
_RFC3339 = re.compile(
    r"[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]"
    r"(?:[Tt ][0-9][0-9]:[0-9][0-9]:[0-9][0-9](?:\.[0-9]+)?(?:[Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?)?"
)
# the rest of a UTC stamp after its 14-character head "YYYY-MM-DD?HH:"; a UTC stamp
# cannot overflow, so with a head that passed in full the whole stamp is valid
_SAME_HOUR_REST = re.compile(r"[0-5][0-9]:[0-5][0-9](?:\.[0-9]+)?[Zz]")


class TweetRecord(NamedTuple):
    """One ingested post, normalized (hashtags without leading '#', A-Z lowercased; no self-mentions)."""

    tweet_id: str
    author_id: str
    text: str
    hashtags: tuple[str, ...]
    mentions: tuple[str, ...]
    retweet_of: str | None


class LineError(NamedTuple):
    line_no: int
    reason: str


class LoadResult(NamedTuple):
    """Outcome of a load: kept records in ingestion order, per-line errors and the counts before the filter."""

    records: tuple[TweetRecord, ...]
    invalid: list[LineError]
    unknown_key_count: int
    loaded_records: int  # distinct valid tweet_ids across the files


def _parse_timestamp(value) -> datetime:
    if not isinstance(value, str) or not value:
        raise ValueError("timestamp must be an ISO-8601 string")
    text = value.strip()
    if not _RFC3339.fullmatch(text):
        raise ValueError(f"timestamp not ISO-8601: {value!r}")
    head, dot, tail = text.partition(".")
    if dot:  # seconds precision: sub-second detail is dropped deterministically
        text = head + tail.lstrip("0123456789")
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"timestamp not ISO-8601: {value!r}") from None
    if parsed.tzinfo is None:
        return parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)  # returns self when already UTC
    except OverflowError:
        raise ValueError(f"timestamp out of range: {value!r}") from None


def _decode_json(line: str):
    """``json.loads(line)`` for a str: what ``JSONDecoder.decode`` does, without its Python-level calls."""
    start = len(line) - len(line.lstrip(_JSON_SPACE))
    try:
        obj, end = _scan_once(line, start)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) from None
    if line[end:].lstrip(_JSON_SPACE):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


def _parse_hashtags(value) -> list[str]:
    if not isinstance(value, list):
        raise ValueError("hashtags must be an array of strings")
    tags = []
    for item in value:
        if not isinstance(item, str):
            raise ValueError("hashtags must be an array of strings")
        tag = _stored_tag(item)
        if tag is None:
            raise ValueError(_NEVER_MATCHES.format(item))
        tags.append(tag)
    return tags


def _json_reason(err: ValueError | RecursionError, text: str) -> str:
    """Why ``json`` could not decode ``text``, from the error it raised, without the position."""
    if isinstance(err, RecursionError):
        return "nested too deeply"
    if not isinstance(err, json.JSONDecodeError):  # an integer literal past the interpreter's digit limit
        return "integer too long"
    # json.loads names a leading U+FEFF; decode() only sees a bad value
    if text[:1] == "\ufeff":
        return "Unexpected UTF-8 BOM (decode using utf-8-sig)"
    return _OLDER_JSON_MESSAGES.get(err.msg, err.msg)


def _parse_line(line: str, hours: set[str]) -> tuple[tuple, int]:
    """Validate one non-blank line; returns (the fields of its record in
    ``TweetRecord`` order with lists for hashtags and mentions, unknown-key
    count). ``hours`` holds the heads (``YYYY-MM-DD?HH:``) of the stamps that
    passed in full so far; a new one is added."""
    try:
        obj = _decode_json(line)
    except (ValueError, RecursionError) as err:
        raise ValueError(f"invalid JSON: {_json_reason(err, line)}") from None
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    if not obj.keys() >= _REQUIRED:
        for key in REQUIRED_KEYS:
            if key not in obj:
                raise ValueError(f"missing {key}")
    unknown = len(obj) - len(REQUIRED_KEYS)

    tweet_id = obj["tweet_id"]
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("tweet_id must be a non-empty string")
    author_id = obj["author_id"]
    if not isinstance(author_id, str) or not author_id:
        raise ValueError("author_id must be a non-empty string")
    text = obj["text"]
    if not isinstance(text, str):
        raise ValueError("text must be a string")

    stamp = obj["timestamp"]
    if not (isinstance(stamp, str) and stamp[:14] in hours and _SAME_HOUR_REST.fullmatch(stamp, 14)):
        _parse_timestamp(stamp)
        # ':' at index 13 rules out leading whitespace; no hour-24 head, should a fromisoformat read 24:00:00
        if stamp[13:14] == ":" and stamp[11:13] < "24":
            hours.add(stamp[:14])
    hashtags = _parse_hashtags(obj["hashtags"])

    mentions = obj["mentions"]
    if not (isinstance(mentions, list) and all(map(isinstance, mentions, repeat(str))) and "" not in mentions):
        raise ValueError("mentions must be an array of non-empty strings")
    if author_id in mentions:  # self-mentions are dropped, not rejected
        mentions = [mention for mention in mentions if mention != author_id]

    retweet_of = obj["retweet_of"]
    if retweet_of is not None and (not isinstance(retweet_of, str) or not retweet_of):
        raise ValueError("retweet_of must be null or a non-empty string")

    follower_count = obj["follower_count"]
    if isinstance(follower_count, bool) or not isinstance(follower_count, int):
        raise ValueError("follower_count must be an integer")
    if follower_count < 0:
        raise ValueError("follower_count must be >= 0")

    fields = (tweet_id, author_id, text, hashtags, mentions, retweet_of)
    # a lone surrogate cannot be written back as UTF-8; raw lines are valid
    # UTF-8, so only a \u escape can make one
    if "\\" in line and "\\u" in line:  # a one-character search is a memchr, far cheaper
        for name, value in zip(TweetRecord._fields, fields):
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, str) and _SURROGATE.search(item):
                    raise ValueError(f"{name} contains a lone surrogate")
    return fields, unknown


def _shared(fields: tuple, strings: dict[str, str]) -> TweetRecord:
    """The record of ``fields``, with its author, tags, mentions and retweet target from ``strings``, added when new."""
    one = strings.setdefault
    tweet_id, author_id, text, hashtags, mentions, retweet_of = fields
    hashtags = tuple(map(one, hashtags, hashtags))
    mentions = tuple(map(one, mentions, mentions))
    retweet_of = None if retweet_of is None else one(retweet_of, retweet_of)
    return TweetRecord(tweet_id, one(author_id, author_id), text, hashtags, mentions, retweet_of)


def load_corpora(paths: list[str | Path], hashtag: str | None = None) -> LoadResult:
    """Load corpus files in one pass.

    Lines end at LF only and are decoded one by one, so a raw U+2028 in a
    text stays inside its line and bad UTF-8 spoils only its own line; a
    leading BOM is ignored. Invalid lines are kept as :class:`LineError`
    entries; a repeated tweet_id within a file is one. Across files the first
    occurrence wins, and only then does ``hashtag`` (leading '#'s stripped,
    A-Z lowercased) drop the records without it. Raises ``ValueError`` for a
    tag that can never match, before any file is read; ``OSError`` if a file
    is unreadable; :class:`CorpusFormatError` when more than half of a file's
    non-empty lines are invalid (wrong-format guard). Equal ids and tags of
    the kept records are one ``str`` object. Every line is validated in full,
    but each date and hour of a timestamp is parsed once per call; a record is
    built only for a line that is kept.
    """
    wanted = None if hashtag is None else _stored_tag(hashtag)
    if hashtag is not None and wanted is None:
        raise ValueError(_NEVER_MATCHES.format(hashtag))
    records: list[TweetRecord] = []
    strings: dict[str, str] = {}  # one object per distinct id and tag of the kept records
    invalid: list[LineError] = []
    unknown_keys = 0
    last_file: dict[str, int] = {}  # tweet_id -> index of the last file that held it
    hours: set[str] = set()  # heads of the stamps that passed in full, for _parse_line

    for index, path in enumerate(paths):
        before = len(invalid)
        non_empty = 0
        with open(path, "rb") as handle:
            for line_no, raw in enumerate(handle, start=1):
                if line_no == 1:
                    raw = raw.removeprefix(codecs.BOM_UTF8)
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    non_empty += 1
                    invalid.append(LineError(line_no, "invalid UTF-8"))
                    continue
                if not line or line.isspace():  # "" only on a line 1 that was a bare BOM
                    continue
                non_empty += 1
                try:
                    fields, unknown = _parse_line(line, hours)
                except ValueError as err:
                    invalid.append(LineError(line_no, str(err)))
                    continue
                tweet_id = fields[0]
                held = last_file.get(tweet_id)
                if held == index:
                    invalid.append(LineError(line_no, f"duplicate tweet_id: {tweet_id!r}"))
                    continue
                last_file[tweet_id] = index
                unknown_keys += unknown
                if held is None and (wanted is None or wanted in fields[3]):  # its stored tags
                    records.append(_shared(fields, strings))

        bad = len(invalid) - before
        if non_empty and bad / non_empty > MAX_INVALID_FRACTION:
            raise CorpusFormatError(
                f"{bad} of {non_empty} lines invalid in {path}; file does not look like a corpus"
            )

    return LoadResult(tuple(records), invalid, unknown_keys, loaded_records=len(last_file))
