"""Lexicon-based polarity/subjectivity scoring and corpus-level summaries.

Scoring rule: every token found in the lexicon contributes its polarity
(flipped to -0.5x when the token right before it is a negation word) and its
subjectivity; the document score is the arithmetic mean of the contributions.
Documents with no lexicon hit score (0, 0, NEUTRAL).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .preprocess import TokenDoc

NEGATIVE = "NEGATIVE"
NEUTRAL = "NEUTRAL"
POSITIVE = "POSITIVE"

NEGATION_FLIP = -0.5


class LexiconError(ValueError):
    """Raised for malformed, duplicated or out-of-range lexicon entries."""


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


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse ``term<TAB>polarity<TAB>subjectivity`` lines into a term -> scores dict.

    Any malformed line, duplicate term or out-of-range value is fatal: a demo
    lexicon that silently lost entries would corrupt every downstream number.
    """
    entries: Lexicon = {}
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise LexiconError(f"{path}:{line_no}: expected 3 tab-separated fields")
        term, raw_pol, raw_subj = parts
        term = term.strip()
        if not term:
            raise LexiconError(f"{path}:{line_no}: empty term")
        try:
            polarity = float(raw_pol)
            subjectivity = float(raw_subj)
        except ValueError:
            raise LexiconError(f"{path}:{line_no}: non-numeric score") from None
        if not -1.0 <= polarity <= 1.0:
            raise LexiconError(f"{path}:{line_no}: polarity {polarity} outside [-1, 1]")
        if not 0.0 <= subjectivity <= 1.0:
            raise LexiconError(
                f"{path}:{line_no}: subjectivity {subjectivity} outside [0, 1]"
            )
        if term in entries:
            raise LexiconError(f"{path}:{line_no}: duplicate term {term!r}")
        entries[term] = (polarity, subjectivity)
    return entries


def classify(polarity: float) -> str:
    if polarity > 0:
        return POSITIVE
    if polarity < 0:
        return NEGATIVE
    return NEUTRAL


def score_tokens(
    doc: TokenDoc, lexicon: Lexicon, negation_words: frozenset[str] | set[str]
) -> SentimentScore:
    """Score one token document against a lexicon.

    A lexicon hit immediately preceded by a negation word contributes
    ``NEGATION_FLIP * polarity`` instead of its plain polarity; subjectivity is
    unaffected by negation. The mean polarity is clamped to [-1, 1] as a guard
    (contributions already lie inside the interval).
    """
    polarities: list[float] = []
    subjectivities: list[float] = []
    previous: str | None = None
    for token in doc.tokens:
        entry = lexicon.get(token)
        if entry is not None:
            polarity, subjectivity = entry
            if previous is not None and previous in negation_words:
                polarity = NEGATION_FLIP * polarity
            polarities.append(polarity)
            subjectivities.append(subjectivity)
        previous = token

    if not polarities:
        return SentimentScore(doc.tweet_id, 0.0, 0.0, NEUTRAL, 0)

    # fsum keeps the mean independent of hit order, so token permutations away
    # from negation windows cannot flip a label through rounding noise
    polarity = math.fsum(polarities) / len(polarities)
    polarity = max(-1.0, min(1.0, polarity))
    subjectivity = math.fsum(subjectivities) / len(subjectivities)
    return SentimentScore(
        tweet_id=doc.tweet_id,
        polarity=polarity,
        subjectivity=subjectivity,
        label=classify(polarity),
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
