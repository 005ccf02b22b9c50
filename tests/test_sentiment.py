from __future__ import annotations

import math

import pytest
from hypothesis import example, given, strategies as st

from herdpulse import score_tokens, summarize
from herdpulse.config import ConfigError, load_lexicon
from herdpulse.sentiment import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    SentimentScore,
    truncate_percent,
)

from .oracles import reference_score

NEGATIONS = frozenset({"not", "no", "never", "neither", "nor"})


GOOD_BAD = {"good": (0.7, 0.6), "bad": (-0.7, 0.6)}


def test_load_lexicon_single_entry(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# demo\ngood\t0.7\t0.6\n", encoding="utf-8")
    lexicon = load_lexicon(path)
    assert lexicon == {"good": (0.7, 0.6)}


def test_load_lexicon_duplicate_fatal(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t0.7\t0.6\ngood\t0.1\t0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="good"):
        load_lexicon(path)


def test_load_lexicon_out_of_range_fatal(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("bad\t-1.5\t0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="polarity"):
        load_lexicon(path)
    path.write_text("bad\t-0.5\t1.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="subjectivity"):
        load_lexicon(path)


def test_load_lexicon_malformed_line_fatal(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t0.7\t0.6\nbroken line\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":2"):
        load_lexicon(path)


def test_score_single_term():
    score = score_tokens("t1", ["good"], GOOD_BAD, NEGATIONS)
    assert score.polarity == pytest.approx(0.7)
    assert score.subjectivity == pytest.approx(0.6)
    assert score.label == POSITIVE
    assert score.matched_terms == 1


def test_score_empty_tokens_neutral():
    score = score_tokens("t1", [], GOOD_BAD, NEGATIONS)
    assert (score.polarity, score.subjectivity, score.label) == (0.0, 0.0, NEUTRAL)
    assert score.matched_terms == 0


def test_score_negation_flips_half():
    score = score_tokens("t1", ["not", "good"], GOOD_BAD, NEGATIONS)
    assert score.polarity == pytest.approx(-0.35)
    assert score.subjectivity == pytest.approx(0.6)
    assert score.label == NEGATIVE


def test_score_symmetric_cancellation():
    score = score_tokens("t1", ["good", "bad"], GOOD_BAD, NEGATIONS)
    assert score.polarity == 0.0
    assert score.label == NEUTRAL
    assert score.matched_terms == 2


def test_negation_window_is_one_token():
    # negation two tokens back does not reach the hit
    far = score_tokens("t1", ["not", "really", "good"], GOOD_BAD, NEGATIONS)
    assert far.polarity == pytest.approx(0.7)
    # negation word itself may be a lexicon term's neighbor repeatedly
    double = score_tokens("t1", ["not", "good", "good"], GOOD_BAD, NEGATIONS)
    assert double.polarity == pytest.approx((-0.35 + 0.7) / 2)


def test_no_match_tokens_are_neutral():
    score = score_tokens("t1", ["zzz", "qqq"], GOOD_BAD, NEGATIONS)
    assert score.label == NEUTRAL
    assert score.matched_terms == 0


token_strategy = st.lists(
    st.sampled_from(["good", "bad", "not", "never", "meh", "zzz", "fine", "awful"]),
    max_size=25,
)


@st.composite
def random_lexicons(draw):
    terms = draw(
        st.lists(
            st.sampled_from(["good", "bad", "meh", "fine", "awful", "zzz"]),
            unique=True,
            max_size=6,
        )
    )
    entries = {}
    for term in terms:
        polarity = draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
        subjectivity = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        entries[term] = (polarity, subjectivity)
    return entries


@given(tokens=token_strategy, lexicon=random_lexicons())
def test_score_bounds_and_sign_rule(tokens, lexicon):
    score = score_tokens("t1", tokens, lexicon, NEGATIONS)
    assert -1.0 <= score.polarity <= 1.0
    assert 0.0 <= score.subjectivity <= 1.0
    if score.polarity > 0:
        assert score.label == POSITIVE
    elif score.polarity < 0:
        assert score.label == NEGATIVE
    else:
        assert score.label == NEUTRAL


@given(tokens=token_strategy, lexicon=random_lexicons())
def test_tokens_without_a_lexicon_term_score_exactly_neutral(tokens, lexicon):
    # negation words included: with no hit after them they change nothing
    misses = [token for token in tokens if token not in lexicon]
    score = score_tokens("t1", misses, lexicon, NEGATIONS)
    assert score == SentimentScore("t1", 0.0, 0.0, NEUTRAL, 0)
    assert math.copysign(1.0, score.polarity) == math.copysign(1.0, score.subjectivity) == 1.0


ORACLE_TERMS = ["good", "bad", "great", "awful", "meh"]
ORACLE_NEGATIONS = frozenset({"not", "never", "no"})
ORACLE_VOCABULARY = [*ORACLE_TERMS, *sorted(ORACLE_NEGATIONS), "the", "vote", "zzz", "rally"]


@given(
    tokens=st.lists(st.sampled_from(ORACLE_VOCABULARY), max_size=30),
    values=st.lists(
        st.tuples(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)),
        min_size=len(ORACLE_TERMS),
        max_size=len(ORACLE_TERMS),
    ),
)
@example(tokens=["good", "no", "good"], values=[(1.5e-323, 0.0)] * len(ORACLE_TERMS))  # a flip that rounds
def test_score_equals_the_exact_sum_reference(tokens, values):
    lexicon = dict(zip(ORACLE_TERMS, values))
    score = score_tokens("t1", tokens, lexicon, ORACLE_NEGATIONS)
    # exact float equality: the sum is rounded once, then divided by the hit count
    assert score[1:] == reference_score(tokens, lexicon, ORACLE_NEGATIONS)


@given(tokens=st.lists(st.sampled_from(["good", "bad", "meh", "zzz"]), max_size=20))
def test_doubling_tokens_preserves_score_without_negations(tokens):
    base = score_tokens("t1", tokens, GOOD_BAD, NEGATIONS)
    doubled = [t for token in tokens for t in (token, token)]
    twice = score_tokens("t1", doubled, GOOD_BAD, NEGATIONS)
    assert twice.polarity == pytest.approx(base.polarity)
    assert twice.subjectivity == pytest.approx(base.subjectivity)
    assert twice.label == base.label


@given(tokens=st.lists(st.sampled_from(["good", "bad", "meh", "zzz"]), max_size=20))
def test_permutation_invariance_without_negations(tokens):
    base = score_tokens("t1", tokens, GOOD_BAD, NEGATIONS)
    swapped = score_tokens("t1", list(reversed(tokens)), GOOD_BAD, NEGATIONS)
    assert swapped.polarity == pytest.approx(base.polarity)
    assert swapped.subjectivity == pytest.approx(base.subjectivity)


def fake_scores(neg, pos, neu):
    scores = []
    for i in range(neg):
        scores.append(SentimentScore(f"n{i}", -0.5, 0.5, NEGATIVE, 1))
    for i in range(pos):
        scores.append(SentimentScore(f"p{i}", 0.5, 0.5, POSITIVE, 1))
    for i in range(neu):
        scores.append(SentimentScore(f"z{i}", 0.0, 0.0, NEUTRAL, 0))
    return scores


def test_summarize_reconstructed_percentages():
    summary = summarize(fake_scores(24, 49, 61))
    assert summary.total == 134
    assert summary.negative_pct == "17.91"
    assert summary.positive_pct == "36.56"
    assert summary.neutral_pct == "45.52"


def test_summarize_even_split():
    summary = summarize(fake_scores(1, 1, 2))
    assert (summary.negative_pct, summary.positive_pct, summary.neutral_pct) == (
        "25.00",
        "25.00",
        "50.00",
    )


def test_summarize_all_neutral():
    summary = summarize(fake_scores(0, 0, 5))
    assert (summary.negative_pct, summary.positive_pct, summary.neutral_pct) == (
        "0.00",
        "0.00",
        "100.00",
    )


def test_summarize_empty():
    summary = summarize([])
    assert summary.total == 0
    assert summary.neutral_pct == "0.00"


def test_truncate_percent_truncates_not_rounds():
    assert truncate_percent(49, 134) == "36.56"
    assert truncate_percent(1, 3) == "33.33"
    assert truncate_percent(2, 3) == "66.66"
    assert truncate_percent(0, 10) == "0.00"
    assert truncate_percent(10, 10) == "100.00"


@given(
    neg=st.integers(min_value=0, max_value=50),
    pos=st.integers(min_value=0, max_value=50),
    neu=st.integers(min_value=0, max_value=50),
)
def test_summarize_counts_always_reconcile(neg, pos, neu):
    summary = summarize(fake_scores(neg, pos, neu))
    assert summary.negative + summary.positive + summary.neutral == summary.total
