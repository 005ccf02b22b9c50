"""Lexicon-based polarity/subjectivity scoring and corpus-level summaries.

Scoring rule: every token found in the lexicon contributes its polarity
(flipped to -0.5x when the token right before it is a negation word) and its
subjectivity; the document score is the arithmetic mean of the contributions.
Documents with no lexicon hit score (0, 0, NEUTRAL).
"""

from __future__ import annotations

import math
from typing import NamedTuple

NEGATIVE = "NEGATIVE"
NEUTRAL = "NEUTRAL"
POSITIVE = "POSITIVE"

NEGATION_FLIP = -0.5


Lexicon = dict[str, tuple[float, float]]  # term -> (polarity, subjectivity)


class SentimentScore(NamedTuple):
    tweet_id: str
    polarity: float
    subjectivity: float
    label: str
    matched_terms: int


class CorpusSummary(NamedTuple):
    """Label counts plus truncated two-decimal percentage strings."""

    total: int
    negative: int
    positive: int
    neutral: int
    negative_pct: str
    positive_pct: str
    neutral_pct: str


def score_tokens(
    tweet_id: str, tokens: tuple[str, ...], lexicon: Lexicon, negation_words: frozenset[str] | set[str]
) -> SentimentScore:
    """Score the tokens of one tweet against a lexicon.

    A lexicon hit immediately preceded by a negation word contributes
    ``NEGATION_FLIP * polarity`` instead of its plain polarity; subjectivity is
    unaffected by negation. The mean polarity is clamped to [-1, 1] as a guard
    (contributions already lie inside the interval).
    """
    if lexicon.keys().isdisjoint(tokens):
        return SentimentScore(tweet_id, 0.0, 0.0, NEUTRAL, 0)
    polarities: list[float] = []
    subjectivities: list[float] = []
    previous: str | None = None
    for token in tokens:
        entry = lexicon.get(token)
        if entry is not None:
            polarity, subjectivity = entry
            if previous is not None and previous in negation_words:
                polarity = NEGATION_FLIP * polarity
            polarities.append(polarity)
            subjectivities.append(subjectivity)
        previous = token

    # fsum keeps the mean independent of hit order, so token permutations away
    # from negation windows cannot flip a label through rounding noise
    polarity = math.fsum(polarities) / len(polarities)
    polarity = max(-1.0, min(1.0, polarity))
    subjectivity = math.fsum(subjectivities) / len(subjectivities)
    return SentimentScore(
        tweet_id=tweet_id,
        polarity=polarity,
        subjectivity=subjectivity,
        label=POSITIVE if polarity > 0 else NEGATIVE if polarity < 0 else NEUTRAL,
        matched_terms=len(polarities),
    )


def truncate_percent(count: int, total: int) -> str:
    """count/total as a percentage truncated (not rounded) to 2 decimals.

    Integer arithmetic in basis points keeps this exact: 49 of 134 gives
    36.56, where rounding would give 36.57.
    """
    if total <= 0:
        return "0.00"
    basis_points = count * 10000 // total
    return f"{basis_points // 100}.{basis_points % 100:02d}"


def summarize(scores: list[SentimentScore]) -> CorpusSummary:
    """Count labels and format percentage shares; empty input gives all zeros."""
    total = len(scores)
    negative = sum(1 for s in scores if s.label == NEGATIVE)
    positive = sum(1 for s in scores if s.label == POSITIVE)
    neutral = total - negative - positive
    return CorpusSummary(
        total=total,
        negative=negative,
        positive=positive,
        neutral=neutral,
        negative_pct=truncate_percent(negative, total),
        positive_pct=truncate_percent(positive, total),
        neutral_pct=truncate_percent(neutral, total),
    )
