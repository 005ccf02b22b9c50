from __future__ import annotations

import copy
import importlib
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from herdpulse import analyze_corpus, load_config, load_corpora, preprocess
from herdpulse.config import load_stemmer_rules, load_wordlist
from herdpulse.preprocess import StemmerRules, StemRule, normalize, preprocess_texts

from .oracles import reference_normalize, reference_stem, reference_tokens

DEFAULTS = load_config()
RULES = DEFAULTS.stemmer_rules
STOPWORDS = DEFAULTS.stopwords
SHIPPED_TABLE = [(r.suffix, r.replacement, r.min_stem_length) for r in RULES.rules]
# the module, not the ``preprocess`` function the package exports under that name
PREPROCESS_MODULE = importlib.import_module("herdpulse.preprocess")


def test_normalize_kitchen_sink():
    assert normalize("Vote NOW! https://t.co/x #WestBengal @abc") == "vote now westbengal"


def test_normalize_empty():
    assert normalize("") == ""


def test_normalize_fixed_point_on_clean_text():
    assert normalize("already normalized text") == "already normalized text"


def test_normalize_strips_urls_and_mentions():
    assert normalize("see HTTPS://EX.COM/a?b=1 and @User_1 now") == "see and now"
    assert normalize("http") == ""
    assert normalize("only a url https://x.y") == "only a url"


def test_normalize_hash_stripped_word_kept():
    assert normalize("#BengalElection2021 rocks") == "bengalelection rocks"
    assert normalize("foo#bar") == "foobar"


def test_normalize_non_letters_become_spaces():
    assert normalize("a+b=c; द 5") == "a b c"


def test_normalize_exposed_url_token_still_removed():
    # URL shapes are removed wherever they occur, even mid-word
    assert normalize("5http oddity") == "oddity"
    assert normalize("foohttp://x.y bar") == "foo bar"
    # the '#' strip can expose a URL shape only a second pass can see
    assert normalize("htt#p xx") == "xx"
    text = "5http://x.y stays?"
    assert normalize(normalize(text)) == normalize(text)


@given(st.text(max_size=200))
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@given(st.text(max_size=200))
def test_normalize_output_alphabet(text):
    out = normalize(text)
    assert all(c == " " or "a" <= c <= "z" for c in out)
    assert "  " not in out
    assert out == out.strip()


def test_stem_examples():
    assert RULES.stem("winning") == "win"
    assert RULES.stem("win") == "win"
    assert RULES.stem("elections") == "election"


def test_stem_rule_table_behavior():
    assert RULES.stem("parties") == "party"
    assert RULES.stem("classes") == "class"
    assert RULES.stem("class") == "class"
    assert RULES.stem("getting") == "get"
    assert RULES.stem("planned") == "plan"
    assert RULES.stem("happily") == "happy"
    assert RULES.stem("really") == "real"
    # short tokens protected by min stem length
    assert RULES.stem("is") == "is"
    assert RULES.stem("king") == "king"
    assert RULES.stem("red") == "red"


@given(st.text(alphabet=st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")), min_size=1, max_size=15))
def test_stem_idempotent_on_own_output(token):
    stemmed = RULES.stem(token)
    assert RULES.stem(stemmed) == stemmed


def test_stemmer_rule_file_parsing(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("# comment\nies\ty\t2\ns\t\t2\n", encoding="utf-8")
    rules = load_stemmer_rules(path)
    assert rules.stem("parties") == "party"
    bad = tmp_path / "bad.tsv"
    bad.write_text("ies\ty\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_stemmer_rules(bad)


@pytest.mark.parametrize(
    "table",
    [
        [("b", "a", 0), ("a", "b", 0)],  # a cycle: stem("b") would never return
        [("s", "ss", 0)],  # a growing rewrite
        [("ab", "ba", 0)],  # same length, not a stop marker
    ],
)
def test_stemmer_rejects_rule_that_does_not_shorten(table):
    with pytest.raises(ValueError, match="must equal its suffix or be shorter"):
        StemmerRules([StemRule(*row) for row in table])


def test_wordlist_parsing(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# negations\nnot\nNO\n\nnever\n", encoding="utf-8")
    assert load_wordlist(path) == {"not", "no", "never"}


def test_preprocess_full_pipeline():
    tokens = preprocess("The ELECTIONS are coming! #WestBengal", {"the", "are"}, RULES)
    # "coming" stems to "com" under the shipped rule table
    assert tokens == ("election", "com", "westbengal")


def test_preprocess_url_only_text():
    assert preprocess("https://t.co/abc123", STOPWORDS, RULES) == ()


def test_preprocess_single_word():
    assert preprocess("vote", STOPWORDS, RULES) == ("vote",)


def test_preprocess_deterministic():
    text = "Winning #Elections!! @someone https://x.y z"
    first = preprocess(text, STOPWORDS, RULES)
    second = preprocess(text, STOPWORDS, RULES)
    assert first == second


@given(st.text(max_size=120))
@example("AMS")  # "ams" is no stopword, but its stem "am" is
def test_token_count_bounded_by_fragments(text):
    tokens = preprocess(text, STOPWORDS, RULES)
    assert len(tokens) <= len(normalize(text).split())
    assert all(token and token.isalpha() and token == token.lower() for token in tokens)
    assert all(token not in STOPWORDS for token in tokens)


def suffix_shaped(alphabet: str, suffixes: list[str]):
    """A short head followed by up to three suffixes from a rule table."""
    return st.builds(
        lambda head, ends: head + "".join(ends),
        st.text(alphabet=alphabet, max_size=5),
        st.lists(st.sampled_from(suffixes), max_size=3),
    )


@st.composite
def small_tables(draw):
    """Rule tables over a 3-letter alphabet, so suffixes overlap. Each
    replacement is its suffix (a stop marker) or shorter than it, so every
    rewrite shortens the token and the fixed point exists."""
    table = []
    for _ in range(draw(st.integers(1, 6))):
        suffix = draw(st.text(alphabet="abs", min_size=1, max_size=3))
        replacement = draw(st.just(suffix) | st.text(alphabet="abs", max_size=len(suffix) - 1))
        table.append((suffix, replacement, draw(st.integers(0, 3))))
    return table


@given(st.lists(suffix_shaped("abcdegilnprsty", [row[0] for row in SHIPPED_TABLE]), max_size=10))
def test_stem_matches_oracle_on_shipped_table(tokens):
    for token in tokens + tokens:  # the second round must give the same stems
        assert RULES.stem(token) == reference_stem(token, SHIPPED_TABLE)


@given(small_tables(), small_tables(), st.data())
def test_stem_matches_oracle_on_random_tables(first, second, data):
    tables = [first, second]
    stemmers = [StemmerRules([StemRule(*row) for row in table]) for table in tables]
    suffixes = [row[0] for row in first + second]
    tokens = data.draw(st.lists(suffix_shaped("abs", suffixes), max_size=8))
    # interleaved, so a stem cached by one table would show up in the other
    for token in tokens + tokens:
        for stemmer, table in zip(stemmers, tables):
            assert stemmer.stem(token) == reference_stem(token, table)


@given(small_tables(), st.data())
def test_word_comes_back_as_itself_only_when_its_own_stem_on_random_tables(table, data):
    # the rule load_config applies to every lexicon term and negation word
    rules = StemmerRules([StemRule(*row) for row in table])
    term = data.draw(suffix_shaped("abs", [row[0] for row in table]))
    expected = bool(term) and reference_stem(term, table) == term
    assert (preprocess_texts([term], frozenset(), rules) == [(term,)]) == expected
    assert preprocess_texts([term], {term}, rules) != [(term,)]
    for word in (term + "A", f"x{term}http"):
        assert preprocess_texts([word], frozenset(), rules) != [(word,)]


def test_stem_caches_are_per_instance():
    strip = StemmerRules([StemRule("s", "", 1)])
    keep = StemmerRules([StemRule("s", "s", 1)])
    assert strip.stem("votes") == "vote"
    assert keep.stem("votes") == "votes"
    assert strip.stem("votes") == "vote"


@given(st.text(st.sampled_from("hhttps#@:/5 ") | st.characters(), max_size=60))
@example("htt#p xx")
@example("HT#TPS://x #h#t#t#p5")
@example("@user:x #ok")  # a mention runs to the next whitespace, not to the first non-word char
@example("\u0130stanbul \u212aelvin")  # lower() gives ASCII "i" (plus U+0307) and "k"
@example("\u00df \ufb03 \u039f\u0394\u039f\u03a3")  # lowercase stays outside ASCII
@example("a\ud800b")  # a lone surrogate is replaced when encoded to ASCII
@example("x\x85y\u3000z")  # separators outside ASCII
def test_normalize_matches_fixed_point_oracle(text):
    assert normalize(text) == reference_normalize(text)


def test_stem_rule_scan_runs_once_per_distinct_token():
    rules = load_config().stemmer_rules
    scanned = []
    apply_once = rules._apply_once
    rules._apply_once = lambda token: scanned.append(token) or apply_once(token)
    assert preprocess_texts(["Winning"] * 1000, STOPWORDS, rules) == [("win",)] * 1000
    assert scanned == ["winning", "win"]  # the first stem's two passes, then table hits
    scanned.clear()
    assert preprocess_texts(["Winning"], STOPWORDS, rules) == [("win",)]
    assert scanned == ["winning", "win"]  # the table lives for one call, so a new call stems again


def test_analyze_leaves_the_config_as_it_found_it():
    demo = Path(__file__).resolve().parent.parent / "demos" / "data"
    config = load_config(demo / "demo_config.json")
    before = copy.deepcopy(vars(config.stemmer_rules))
    analyze_corpus(load_corpora([demo / "demo_tweets.jsonl"]), config)
    assert vars(config.stemmer_rules) == before  # no stem memo outlives the run


# words the stemmer and the stopword list act on, and the characters a batch join could get wrong
TEXT_PIECES = [
    "Winning", "ELECTIONS", "the", "AMS", "classes", "vote", "partyx", " ", "  ", "\n", "\r\n", "\x0b",
    "\u2028", "\x85", "htt#p", "htt#p://x", "http", "https://t.co/a", "@", "@user", "#", "#Tag", "5",
    "\u212aelvin", "\u0130stanbul", "\u00df",
]
texts_of_pieces = st.lists(st.sampled_from(TEXT_PIECES) | st.text(max_size=3), max_size=8).map("".join)


@given(st.lists(texts_of_pieces, max_size=12), st.sampled_from([1, 2, 3, PREPROCESS_MODULE._BATCH]))
@example(["a @", "#", "b htt"], 1024)  # "@" and "#" end a text; "htt" must not meet the next text's "p"
@example(["x htt", "p://y z"], 2)
def test_preprocess_texts_matches_one_text_at_a_time_oracle(texts, batch):
    with mock.patch.object(PREPROCESS_MODULE, "_BATCH", batch):
        tokens = preprocess_texts(texts, STOPWORDS, RULES)
    assert tokens == [reference_tokens(text, STOPWORDS, SHIPPED_TABLE) for text in texts]


def test_preprocess_texts_across_batch_boundaries():
    rng = random.Random(20)
    texts = ["".join(rng.choices(TEXT_PIECES, k=rng.randrange(6))) for _ in range(2500)]
    assert 2500 > 2 * PREPROCESS_MODULE._BATCH  # two batch boundaries are crossed
    assert preprocess_texts(texts, STOPWORDS, RULES) == [
        reference_tokens(text, STOPWORDS, SHIPPED_TABLE) for text in texts
    ]


def test_normalize_passes_only_while_http_remains(monkeypatch):
    passes = []
    one_pass = PREPROCESS_MODULE._normalize_pass
    monkeypatch.setattr(PREPROCESS_MODULE, "_normalize_pass", lambda text: passes.append(text) or one_pass(text))
    assert normalize("Vote NOW! https://t.co/x #WestBengal @abc 2021") == "vote now westbengal"
    assert len(passes) == 1
    passes.clear()
    assert normalize("htt#p xx") == "xx"
    assert len(passes) == 2
