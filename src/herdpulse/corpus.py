"""Offline tweet-corpus ingestion: validate, deduplicate and filter in one pass.

A corpus file is UTF-8, one JSON object per LF-terminated line, with keys:
``tweet_id``, ``author_id``, ``text``, ``timestamp`` (RFC 3339, read as UTC),
``hashtags``, ``mentions``, ``retweet_of`` (string or null) and
``follower_count``. Unknown keys are ignored but counted. ``load_corpora``
reads several files at once: the first occurrence of a tweet_id across files
wins, and with a hashtag it keeps only the records that carry it.
"""

from __future__ import annotations

import codecs
import json
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple


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

_decode_json = json.JSONDecoder().decode  # json.loads(str) without its per-call dispatch
_BAD_HASHTAG_CHAR = re.compile(r"[#\s]")  # '#' or a char for which str.isspace() holds
_SURROGATE = re.compile("[\ud800-\udfff]")
# RFC 3339 date-time or a bare date. Checked before fromisoformat, which on 3.11
# also reads week, ordinal and basic-format dates; on 3.10 it reads a fraction
# only of 3 or 6 digits, so the fraction is dropped before it is called. Each
# digit is spelled out: sre runs "[0-9]{2}" as a slower counted loop.
_RFC3339 = re.compile(
    r"[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]"
    r"(?:[Tt ][0-9][0-9]:[0-9][0-9]:[0-9][0-9](?:\.[0-9]+)?(?:[Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?)?"
)


class CorpusFormatError(ValueError):
    """Raised when a corpus file as a whole is unusable."""


class TweetRecord(NamedTuple):
    """One ingested post, normalized (lowercase hashtags, no self-mentions)."""

    tweet_id: str
    author_id: str
    text: str
    timestamp: datetime
    hashtags: tuple[str, ...]
    mentions: tuple[str, ...]
    retweet_of: str | None
    follower_count: int


class Corpus(NamedTuple):
    """Ordered, duplicate-free record list; order is ingestion order."""

    records: tuple[TweetRecord, ...]


class LineError(NamedTuple):
    line_no: int
    reason: str


class LoadResult(NamedTuple):
    """Outcome of a load: kept records, per-line errors and the counts before the filter."""

    corpus: Corpus
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


def _parse_hashtags(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ValueError("hashtags must be an array of strings")
    tags = []
    for item in value:
        if not isinstance(item, str):
            raise ValueError("hashtags must be an array of strings")
        tag = item.lstrip("#").lower()
        if not tag:
            raise ValueError("hashtag empty after normalization")
        if _BAD_HASHTAG_CHAR.search(tag):
            raise ValueError(f"hashtag contains whitespace or '#': {item!r}")
        tags.append(tag)
    return tuple(tags)


def _parse_line(line: str) -> tuple[TweetRecord, int]:
    """Validate one non-blank line; returns (record, unknown-key count)."""
    try:
        obj = _decode_json(line)
    except json.JSONDecodeError as err:
        # json.loads names a leading U+FEFF; decode() only sees a bad value
        msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if line[0] == "\ufeff" else err.msg
        raise ValueError(f"invalid JSON: {msg}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ValueError("invalid JSON: integer too long") from None
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
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

    timestamp = _parse_timestamp(obj["timestamp"])
    hashtags = _parse_hashtags(obj["hashtags"])

    raw_mentions = obj["mentions"]
    if not isinstance(raw_mentions, list):
        raise ValueError("mentions must be an array of non-empty strings")
    mentions = []
    for mention in raw_mentions:
        if not isinstance(mention, str) or not mention:
            raise ValueError("mentions must be an array of non-empty strings")
        if mention != author_id:  # self-mentions are dropped, not rejected
            mentions.append(mention)

    retweet_of = obj["retweet_of"]
    if retweet_of is not None and (not isinstance(retweet_of, str) or not retweet_of):
        raise ValueError("retweet_of must be null or a non-empty string")

    follower_count = obj["follower_count"]
    if isinstance(follower_count, bool) or not isinstance(follower_count, int):
        raise ValueError("follower_count must be an integer")
    if follower_count < 0:
        raise ValueError("follower_count must be >= 0")

    record = TweetRecord(
        tweet_id, author_id, text, timestamp, hashtags, tuple(mentions), retweet_of, follower_count
    )
    # a lone surrogate cannot be written back as UTF-8; raw lines are valid
    # UTF-8, so only a \u escape can make one
    if "\\u" in line:
        for name, value in zip(REQUIRED_KEYS, record):
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, str) and _SURROGATE.search(item):
                    raise ValueError(f"{name} contains a lone surrogate")
    return record, unknown


def load_corpora(paths: list[str | Path], hashtag: str | None = None) -> LoadResult:
    """Load corpus files in one pass.

    Lines end at LF only and are decoded one by one, so a raw U+2028 in a
    text stays inside its line and bad UTF-8 spoils only its own line; a
    leading BOM is ignored. Invalid lines are kept as :class:`LineError`
    entries; a repeated tweet_id within a file is one. Across files the first
    occurrence wins, and only then does ``hashtag`` (case-insensitive, leading
    '#' stripped) drop the records without it. Raises ``ValueError`` for a tag
    that can never match, before any file is read; ``OSError`` if a file is
    unreadable; :class:`CorpusFormatError` when more than half of a file's
    non-empty lines are invalid (wrong-format guard).
    """
    wanted = None if hashtag is None else hashtag.lstrip("#").lower()
    if hashtag == "":
        raise ValueError("tag must be non-empty")
    if wanted == "":
        raise ValueError("tag must be non-empty after stripping '#'")
    if wanted is not None and _BAD_HASHTAG_CHAR.search(wanted):
        raise ValueError("tag contains whitespace or '#' and can never match")
    records: list[TweetRecord] = []
    invalid: list[LineError] = []
    unknown_keys = 0
    last_file: dict[str, int] = {}  # tweet_id -> index of the last file that held it

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
                if not line.strip():
                    continue
                non_empty += 1
                try:
                    record, unknown = _parse_line(line)
                except ValueError as err:
                    invalid.append(LineError(line_no, str(err)))
                    continue
                held = last_file.get(record.tweet_id)
                if held == index:
                    invalid.append(LineError(line_no, f"duplicate tweet_id: {record.tweet_id!r}"))
                    continue
                last_file[record.tweet_id] = index
                unknown_keys += unknown
                if held is None and (wanted is None or wanted in record.hashtags):
                    records.append(record)

        bad = len(invalid) - before
        if non_empty and bad / non_empty > MAX_INVALID_FRACTION:
            raise CorpusFormatError(
                f"{bad} of {non_empty} lines invalid in {path}; file does not look like a corpus"
            )

    return LoadResult(Corpus(tuple(records)), invalid, unknown_keys, loaded_records=len(last_file))


def load_corpus(path: str | Path) -> LoadResult:
    """Load one corpus file, keeping every valid record in file order (see :func:`load_corpora`)."""
    return load_corpora([path])
