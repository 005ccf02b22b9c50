from __future__ import annotations

import json
from datetime import datetime, timezone

import pytest

from herdpulse.corpus import Corpus, TweetRecord
from herdpulse.graph import build_graph


def make_record(
    tweet_id="t1",
    author_id="a1",
    text="hello world",
    hashtags=(),
    mentions=(),
    retweet_of=None,
    follower_count=0,
):
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author_id,
        text=text,
        timestamp=datetime(2021, 2, 1, 12, 0, 0, tzinfo=timezone.utc),
        hashtags=tuple(hashtags),
        mentions=tuple(mentions),
        retweet_of=retweet_of,
        follower_count=follower_count,
    )


def make_corpus(records):
    return Corpus(records=tuple(records))


def graph_from_edges(edges, isolated=()):
    """``build_graph`` over one record per isolated node and one mention per edge."""
    records = [make_record(tweet_id=f"n{i}", author_id=node) for i, node in enumerate(isolated)]
    records += [make_record(tweet_id=f"e{i}", author_id=a, mentions=[b]) for i, (a, b) in enumerate(edges)]
    return build_graph(make_corpus(records))


def record_line(
    tweet_id="t1",
    author_id="a1",
    text="hello",
    timestamp="2021-02-01T12:00:00Z",
    hashtags=(),
    mentions=(),
    retweet_of=None,
    follower_count=0,
    **extra,
):
    obj = {
        "tweet_id": tweet_id,
        "author_id": author_id,
        "text": text,
        "timestamp": timestamp,
        "hashtags": list(hashtags),
        "mentions": list(mentions),
        "retweet_of": retweet_of,
        "follower_count": follower_count,
    }
    obj.update(extra)
    return json.dumps(obj)


@pytest.fixture
def corpus_file(tmp_path):
    def write(lines, name="corpus.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return write
