"""QA for the shipped data files: they must stay consistent with each other."""

from __future__ import annotations

import re

from herdpulse import load_config

DEFAULTS = load_config()


def test_lexicon_terms_are_stemmer_fixed_points():
    # a term the stemmer would rewrite could never match a pipeline token
    rules = DEFAULTS.stemmer_rules
    rewritten = {t for t in DEFAULTS.lexicon if rules.stem(t) != t}
    assert rewritten == set()


def test_lexicon_terms_lowercase_letters_only():
    # tokens are [a-z]+; str.isalpha() would also pass letters outside ASCII
    assert all(re.fullmatch("[a-z]+", t) for t in DEFAULTS.lexicon)


def test_negation_words_survive_stopword_removal():
    # sentiment negation needs these tokens in the stream
    assert DEFAULTS.negation_words & DEFAULTS.stopwords == frozenset()


def test_stopwords_and_lexicon_disjoint():
    assert set(DEFAULTS.lexicon) & DEFAULTS.stopwords == set()


def test_negation_words_not_scored_terms():
    assert set(DEFAULTS.lexicon) & DEFAULTS.negation_words == set()
