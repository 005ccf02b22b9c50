from __future__ import annotations

import importlib
import json
import shutil

import pytest

from herdpulse import load_config
from herdpulse.config import ConfigError, default_data_path, load_lexicon, load_wordlist

CONFIG_MODULE = importlib.import_module("herdpulse.config")

DATA_KEYS = {
    "stopwords_path": "stopwords.txt",
    "stemmer_rules_path": "stemmer_rules.tsv",
    "negation_words_path": "negation_words.txt",
    "lexicon_path": "lexicon.tsv",
}


def test_overridden_data_files_skip_packaged_defaults(tmp_path, monkeypatch):
    for name in DATA_KEYS.values():
        shutil.copy(default_data_path(name), tmp_path / name)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DATA_KEYS), encoding="utf-8")

    def packaged(name):
        raise AssertionError(f"packaged {name} parsed although the config overrides it")

    monkeypatch.setattr(CONFIG_MODULE, "default_data_path", packaged)
    config = load_config(path)
    monkeypatch.undo()
    expected = load_config()
    assert config.stopwords == expected.stopwords
    assert config.stemmer_rules.rules == expected.stemmer_rules.rules
    assert config.negation_words == expected.negation_words
    assert config.lexicon == expected.lexicon


def test_config_with_bom_loads_like_plain(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"herd_threshold": 0.25, "camps": {"x": ["vote"]}}).encode())
    config = load_config(path)
    assert config.herd_threshold == 0.25
    assert config.camps == {"x": frozenset({"vote"})}


def test_config_bom_before_invalid_utf8_is_still_an_encoding_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf{}\xff")
    with pytest.raises(ConfigError, match=r": not valid UTF-8$"):
        load_config(path)


def test_config_and_data_files_share_one_decode_and_keep_their_messages(tmp_path):
    # a missing config is an OSError of its own; a missing data file names itself as one
    with pytest.raises(FileNotFoundError, match=r"^\[Errno 2\] No such file or directory: "):
        load_config(tmp_path / "missing.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lexicon_path": "missing.tsv"}), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^cannot read data file: \[Errno 2\] No such file or directory: "):
        load_config(path)
    # one BOM is dropped, a second is named; CR line ends read as in a data file
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf{}")
    with pytest.raises(ConfigError, match=r": not valid JSON \(Unexpected UTF-8 BOM \(decode using utf-8-sig\)\)$"):
        load_config(path)
    path.write_bytes(b'{\r"herd_threshold": 0.25\r}')
    assert load_config(path).herd_threshold == 0.25


@pytest.mark.parametrize(
    "text, reason",
    [('{"a": 1,}', "Expecting property name enclosed in double quotes"), ("[1,]", "Expecting value")],
)
def test_trailing_comma_config_names_the_same_reason_on_every_interpreter(tmp_path, text, reason):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_config(path)
    assert str(caught.value) == f"{path}: not valid JSON ({reason})"


@pytest.mark.parametrize(
    "camps, message",
    [
        ({}, "at least one camp required"),
        ({"": ["x"]}, "empty camp id"),
        ({"X": []}, "camp 'X' has no keywords"),
        ({"X": ["PartyX"]}, "camp 'X': hashtag can never match: 'PartyX'"),
        ({"X": "partyx"}, "camp 'X': keywords must be an array of strings"),
        ({"X": [""]}, "camp 'X': hashtag can never match: ''"),
        ({"X": ["#partyx"]}, "camp 'X': hashtag can never match: '#partyx'"),
        ({"X": ["party x"]}, "camp 'X': hashtag can never match: 'party x'"),
        ({"X": ["\u00c9LECTION"]}, "camp 'X': hashtag can never match: '\u00c9LECTION'"),
    ],
)
def test_bad_camps_are_config_errors(tmp_path, camps, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"camps": camps}), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == message


def test_keyword_is_a_stored_tag_as_written(tmp_path):
    # U+2C2F lowercases to U+2C5F on 3.11+ but not on 3.10; tags fold A-Z only, so it loads everywhere
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"camps": {"X": ["\u2c2f", "\u00e9lection", "vote"]}}), encoding="utf-8")
    assert load_config(path).camps == {"X": frozenset({"\u2c2f", "\u00e9lection", "vote"})}


BIG = 10**400  # a JSON integer that overflows a float
EDGES_ERROR = "band_edges must be an array of finite numbers"
THRESHOLD_ERROR = "herd_threshold must be a finite number"
SHARE_ERROR = "reference_shares 'X' must be a string or a finite number"
DECIMAL_ERROR = "reference_shares 'X' must be a non-negative decimal"
# the echoed text (a number's str()) must be ASCII digits with an optional fraction; "4_7" is
# rejected everywhere, although Fraction reads it on 3.11+
NOT_DECIMAL = [
    "abc", "47.9%", "", " 47.9", "-1", "+1", "1.", ".5", "4_7", "1e3", "\u0664\u0667", "inf", -1, -0.0, 1e300, 1e16, 1e-7
]


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"herd_threshold": True}, THRESHOLD_ERROR),
        ({"herd_threshold": BIG}, THRESHOLD_ERROR),
        ({"herd_threshold": float("nan")}, THRESHOLD_ERROR),
        ({"herd_threshold": float("-inf")}, THRESHOLD_ERROR),
        ({"band_edges": [False, True]}, EDGES_ERROR),
        ({"band_edges": [0, BIG]}, EDGES_ERROR),
        ({"band_edges": [0, float("nan"), 1]}, EDGES_ERROR),
        ({"band_edges": [float("-inf"), 1]}, EDGES_ERROR),
        ({"reference_shares": {"X": None}}, SHARE_ERROR),
        ({"reference_shares": {"X": True}}, SHARE_ERROR),
        ({"reference_shares": {"X": [47.9]}}, SHARE_ERROR),
        ({"reference_shares": {"X": {"a": [1, 2]}}}, SHARE_ERROR),
        ({"reference_shares": {"X": float("nan")}}, SHARE_ERROR),
        *(({"reference_shares": {"Y": "38.1", "X": share}}, DECIMAL_ERROR) for share in NOT_DECIMAL),
    ],
)
def test_bad_config_values_are_config_errors(tmp_path, raw, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")  # json writes NaN and -Infinity as Python reads them
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == message


def test_reference_shares_keep_strings_and_render_numbers(tmp_path):
    # a share may name a camp the config does not define (here none is defined)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"reference_shares": {"X": "047.90", "Y": 38.1, "Z": 12}}), encoding="utf-8")
    assert load_config(path).reference_shares == {"X": "047.90", "Y": "38.1", "Z": "12"}


# every line break str.splitlines() honours besides LF and CRLF
NON_LF_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", NON_LF_BREAKS, ids=[f"U+{ord(c):04X}" for c in NON_LF_BREAKS])
def test_data_file_lines_end_at_lf_only(tmp_path, brk):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_bytes(f"# note{brk}more\ngood\t0.5\t0.5\n".encode())
    assert load_lexicon(lexicon) == {"good": (0.5, 0.5)}
    words = tmp_path / "words.txt"
    words.write_bytes(f"a{brk}b\n".encode())
    assert load_wordlist(words) == {f"a{brk}b"}


def test_data_file_crlf_lines_load_like_lf(tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_bytes(b"# terms\r\ngood\t0.5\t0.5\r\nbad\t-0.5\t1\r\n")
    assert load_lexicon(lexicon) == {"good": (0.5, 0.5), "bad": (-0.5, 1.0)}
    words = tmp_path / "words.txt"
    words.write_bytes(b"not\r\nnever")
    assert load_wordlist(words) == {"not", "never"}


def test_data_file_bom_is_not_part_of_the_first_line(tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_bytes(b"\xef\xbb\xbf# terms\ngood\t0.5\t0.5\n")
    assert load_lexicon(lexicon) == {"good": (0.5, 0.5)}
    words = tmp_path / "words.txt"
    words.write_bytes(b"\xef\xbb\xbfthe\nnot\n")
    assert load_wordlist(words) == {"the", "not"}
