"""Herd-behavior quantification and camp-level outcome prediction.

Authors are bucketed by mean subjectivity; the herd index is the mean local
clustering of the top subjectivity band minus the mean over all profiled
authors. A positive index means the most opinionated authors sit in the most
tightly clustered neighborhoods, i.e. opinions travel over local connections.

The prediction side is deliberately independent of the herd index: camps are
ranked purely by their sentiment support score, and the herd numbers ride
along as context.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Sequence

from .corpus import TweetRecord
from .sentiment import SentimentScore, summarize

DEFAULT_BAND_EDGES = (0.0, 0.5, 0.8, 1.0)
DEFAULT_HERD_THRESHOLD = 0.0


class AuthorProfile(NamedTuple):
    """What the herd report reads of one author; ``profile_authors`` lists them in author id order."""

    mean_subjectivity: float
    local_clustering: float


class BandStat(NamedTuple):
    low: float
    high: float
    count: int
    mean_clustering: float


class HerdReport(NamedTuple):
    bands: tuple[BandStat, ...]
    global_mean_clustering: float
    herd_index: float
    herd_flag: bool
    threshold: float


class CampAssignments(NamedTuple):
    by_tweet: dict[str, str]
    tie_count: int
    unassigned_count: int


class CampResult(NamedTuple):
    camp_id: str
    rank: int
    tweet_count: int  # this field and the six after it are a CorpusSummary, in its order
    negative: int
    positive: int
    neutral: int
    negative_pct: str
    positive_pct: str
    neutral_pct: str
    support: float


class PredictionReport(NamedTuple):
    camps: tuple[CampResult, ...]
    winner: str | None
    margin: float
    undecided: bool
    degenerate: bool
    herd_index: float
    herd_flag: bool


def profile_authors(
    scores: list[SentimentScore], records: Sequence[TweetRecord], local: dict[str, float]
) -> list[AuthorProfile]:
    """One profile per author with at least one scored tweet, in author id order.

    ``scores[i]`` is the score of ``records[i]``; lists of different lengths
    raise ``ValueError``. ``local`` maps graph nodes to their local clustering
    (``ClusteringStats.local``). Authors that never made it into the
    interaction graph get local clustering 0 (same value an edgeless node
    would score).
    """
    grouped: dict[str, list[float]] = {}
    for score, record in zip(scores, records, strict=True):
        grouped.setdefault(record.author_id, []).append(score.subjectivity)

    return [
        AuthorProfile(math.fsum(own) / len(own), local.get(author, 0.0))
        for author, own in sorted(grouped.items())
    ]


def check_band_edges(band_edges) -> tuple[float, ...]:
    """Band edges as floats; raises ValueError unless they rise strictly from 0 to 1."""
    edges = tuple(float(e) for e in band_edges)
    if len(edges) < 2 or edges[0] != 0.0 or edges[-1] != 1.0:
        raise ValueError("band edges must start at 0 and end at 1")
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("band edges must be strictly increasing")
    return edges


def herd_report(
    profiles: list[AuthorProfile],
    band_edges: tuple[float, ...] = DEFAULT_BAND_EDGES,
    threshold: float = DEFAULT_HERD_THRESHOLD,
) -> HerdReport:
    """Partition authors into subjectivity bands and compute the herd index.

    ``band_edges`` must strictly increase from 0 to 1. The herd index is the
    top band's mean clustering minus the overall mean; an empty top band
    yields index 0 and a lowered flag regardless of the threshold.
    """
    if not profiles:
        raise ValueError("no author profiles")
    edges = check_band_edges(band_edges)

    # bands are [e_i, e_{i+1}), the last one closed at the top edge: the search leaves that edge out
    members: list[list[AuthorProfile]] = [[] for _ in range(len(edges) - 1)]
    for profile in profiles:
        members[bisect_right(edges, profile.mean_subjectivity, 0, len(edges) - 1) - 1].append(profile)

    bands = []
    for i, group in enumerate(members):
        mean = math.fsum(p.local_clustering for p in group) / len(group) if group else 0.0
        bands.append(BandStat(low=edges[i], high=edges[i + 1], count=len(group), mean_clustering=mean))

    overall = math.fsum(p.local_clustering for p in profiles) / len(profiles)
    top = members[-1]
    herd_index = bands[-1].mean_clustering - overall if top else 0.0
    return HerdReport(
        bands=tuple(bands),
        global_mean_clustering=overall,
        herd_index=herd_index,
        herd_flag=bool(top) and herd_index > threshold,
        threshold=float(threshold),
    )


def assign_corpus(
    tokens: list[tuple[str, ...]], records: Sequence[TweetRecord], camps: dict[str, frozenset[str]]
) -> CampAssignments:
    """Assign every tweet to the camp whose keywords hit most of its tokens and hashtags.

    ``tokens[i]`` holds the tokens of ``records[i]``; lists of different
    lengths raise ``ValueError``. A tweet with no hit (always so when
    ``camps`` is empty) or a tie for the most hits stays unassigned; ties are
    also counted on their own. Tweet ids are unique, as a load leaves them.
    """
    by_tweet: dict[str, str] = {}
    tie_count = 0
    vocabulary = frozenset().union(*camps.values())
    for own, record in zip(tokens, records, strict=True):
        matched = vocabulary.intersection(own + record.hashtags)
        if not matched:
            continue
        hits = {camp_id: len(keywords & matched) for camp_id, keywords in camps.items()}
        best = max(hits.values())
        leaders = [camp_id for camp_id, n in hits.items() if n == best]
        if len(leaders) > 1:
            tie_count += 1
            continue
        by_tweet[record.tweet_id] = leaders[0]
    return CampAssignments(by_tweet, tie_count, len(records) - len(by_tweet))


def predict(
    scores: list[SentimentScore],
    assignments: CampAssignments,
    herd: HerdReport,
) -> PredictionReport | None:
    """Rank camps by support score S = (positive - negative) / assigned.

    Ties at the top leave the winner undecided; fewer than two camps with
    assigned tweets marks the report degenerate. Returns ``None`` when no
    tweet was assigned to any camp.
    """
    per_camp: dict[str, list[SentimentScore]] = {}
    for score in scores:
        camp = assignments.by_tweet.get(score.tweet_id)
        if camp is not None:
            per_camp.setdefault(camp, []).append(score)

    if not per_camp:
        return None

    summaries = {camp_id: summarize(own) for camp_id, own in per_camp.items()}
    support = {camp_id: (s.positive - s.negative) / s.total for camp_id, s in summaries.items()}
    # stable ranking: support descending, camp id as deterministic tiebreak;
    # camps with equal support share the rank of the first of them
    ranked = sorted(support, key=lambda camp_id: (-support[camp_id], camp_id))
    supports = [support[camp_id] for camp_id in ranked]
    camps = tuple(
        CampResult(camp_id, supports.index(support[camp_id]) + 1, *summaries[camp_id], support[camp_id])
        for camp_id in ranked
    )
    # in an undecided race the top two supports are equal, so their difference is already 0
    undecided = len(camps) >= 2 and supports[0] == supports[1]
    return PredictionReport(
        camps=camps,
        winner=None if undecided else ranked[0],
        margin=supports[0] - supports[1] if len(camps) >= 2 else 0.0,
        undecided=undecided,
        degenerate=len(camps) < 2,
        herd_index=herd.herd_index,
        herd_flag=herd.herd_flag,
    )
