from __future__ import annotations

import json

import pytest

from herdpulse.corpus import LoadResult, TweetRecord
from herdpulse.graph import build_graph


def make_record(
    tweet_id="t1",
    author_id="a1",
    text="hello world",
    hashtags=(),
    mentions=(),
    retweet_of=None,
):
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author_id,
        text=text,
        hashtags=tuple(hashtags),
        mentions=tuple(mentions),
        retweet_of=retweet_of,
    )


def make_loaded(records):
    """The ``LoadResult`` of a clean load of ``records``."""
    return LoadResult(tuple(records), [], 0, loaded_records=len(records))


def edge_records(edges, isolated=()):
    """One record per isolated node, then one mention per edge."""
    records = [make_record(tweet_id=f"n{i}", author_id=node) for i, node in enumerate(isolated)]
    records += [make_record(tweet_id=f"e{i}", author_id=a, mentions=[b]) for i, (a, b) in enumerate(edges)]
    return records


def graph_from_edges(edges, isolated=()):
    """``build_graph`` over ``edge_records(edges, isolated)``."""
    return build_graph(edge_records(edges, isolated))


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
