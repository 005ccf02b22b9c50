from __future__ import annotations

import csv
import errno
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from herdpulse import cli, pipeline, svgplot
from herdpulse.cli import main
from herdpulse.config import load_config
from herdpulse.herd import AuthorProfile, BandStat, CampResult, HerdReport, PredictionReport
from herdpulse.plot import PLOT_SERIES

from .conftest import make_loaded, make_record, record_line
from .oracles import reference_svg

REPO = Path(__file__).resolve().parent.parent
DEMO_CORPUS = str(REPO / "demos" / "data" / "demo_tweets.jsonl")
DEMO_CONFIG = str(REPO / "demos" / "data" / "demo_config.json")
GOLDEN_BUNDLE = str(REPO / "tests" / "goldens" / "demo_bundle")

BUNDLE_NAMES = [
    "scores.csv",
    "graph_summary.json",
    "degree_distribution.csv",
    "ck_curve.csv",
    "subjectivity_series.csv",
    "polarity_series.csv",
    "combined_series.csv",
    "herd_report.json",
    "prediction.json",
    "manifest.json",
]


def write_corpus(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_validate_clean_file(tmp_path, capsys):
    path = write_corpus(tmp_path, [record_line(tweet_id="t1"), record_line(tweet_id="t2")])
    assert main(["validate", "--corpus", path]) == 0
    out = capsys.readouterr().out
    assert "2 valid, 0 invalid" in out


def test_validate_bad_line(tmp_path, capsys):
    lines = [record_line(tweet_id="t1"), record_line(tweet_id="t2"), record_line(tweet_id="t2")]
    path = write_corpus(tmp_path, lines)
    assert main(["validate", "--corpus", path]) == 1
    out = capsys.readouterr().out
    assert ":3: duplicate tweet_id: 't2'" in out


def test_validate_duplicate_id_with_newline_stays_on_one_line(tmp_path, capsys):
    lines = [record_line(tweet_id=f"t{i}") for i in (1, 2, 3)] + [record_line(tweet_id="a\nb")] * 2
    path = write_corpus(tmp_path, lines)
    assert main(["validate", "--corpus", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{path}:5: duplicate tweet_id: 'a\\nb'", f"{path}: 4 valid, 1 invalid"]


def test_validate_invalid_utf8_line(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    good = [record_line(tweet_id=f"t{i}").encode("utf-8") for i in (1, 2)]
    path.write_bytes(b"\n".join([good[0], good[1], b"\xff\xfe"]) + b"\n")
    assert main(["validate", "--corpus", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:3: invalid UTF-8" in out
    assert "2 valid, 1 invalid" in out


def test_analyze_bad_band_edges_is_config_failure(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"band_edges": [0, 1.5]}), encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: band edges must")
    assert not (tmp_path / "out").exists()


def test_analyze_nan_threshold_is_config_failure(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"herd_threshold": NaN}', encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: herd_threshold must be a finite number\n"
    assert not (tmp_path / "out").exists()


def test_analyze_config_not_utf8_is_config_failure(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"herd_threshold": 0}\xff\n')
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {config}: not valid UTF-8\n"
    assert not (tmp_path / "out").exists()


BAD_CONFIG_JSON = {
    "deep_nesting": ('{"herd_threshold": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
    "long_integer": ('{"herd_threshold": ' + "9" * 5000 + "}", "integer too long"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_JSON))
def test_analyze_config_json_past_the_parser_limits_is_config_failure(tmp_path, capsys, case):
    text, reason = BAD_CONFIG_JSON[case]
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {config}: not valid JSON ({reason})\n"
    assert not (tmp_path / "out").exists()


LONE_SURROGATE_CONFIGS = {
    "camp_id": ({"camps": {"\ud800": ["partyx"], "Y": ["partyy"]}}, "camps: not encodable as UTF-8: '\\ud800'"),
    "keyword": ({"camps": {"X": ["party\udfff"]}}, "camps: not encodable as UTF-8: 'party\\udfff'"),
    "share": (
        {"camps": {"X": ["partyx"]}, "reference_shares": {"X": "\udc00"}},
        "reference_shares: not encodable as UTF-8: '\\udc00'",
    ),
    "share_key": ({"reference_shares": {"\udc00": "1"}}, "reference_shares: not encodable as UTF-8: '\\udc00'"),
    "path": ({"lexicon_path": "lex\ud800.tsv"}, "lexicon_path: not encodable as UTF-8: 'lex\\ud800.tsv'"),
}


@pytest.mark.parametrize("case", sorted(LONE_SURROGATE_CONFIGS))
def test_analyze_config_string_with_lone_surrogate_is_config_failure(tmp_path, capsys, case):
    raw, message = LONE_SURROGATE_CONFIGS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")  # ensure_ascii writes the \u escape
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_analyze_empty_config_path_is_config_failure(tmp_path, capsys):
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", "", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--corpus", "--config"])
def test_analyze_path_not_valid_utf8_fails_before_any_file_is_written(tmp_path, capsys, option):
    # argv decodes a raw 0xff byte in a file name to U+DCFF, which UTF-8 cannot encode
    name = os.fsdecode(os.fsencode(tmp_path) + b"/\xff")
    corpus = DEMO_CORPUS
    config = str(tmp_path / "config.json")
    Path(config).write_text(json.dumps({"camps": {"X": ["partyx"]}}), encoding="utf-8")
    if option == "--corpus":
        corpus = name
        shutil.copy(DEMO_CORPUS, name)
    else:
        config = name
        shutil.copy(tmp_path / "config.json", name)
    out = tmp_path / "out"
    code = main(["analyze", "--corpus", corpus, "--config", config, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {option}: not encodable as UTF-8: {name!r}\n"
    assert not out.exists()


def test_analyze_config_with_bom_matches_plain_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + Path(DEMO_CONFIG).read_bytes())
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(plain)]) == 0
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(bom)]) == 0
    for name in BUNDLE_NAMES[:-1]:  # the manifest records the config path
        assert (bom / name).read_bytes() == (plain / name).read_bytes(), name


@pytest.mark.parametrize("key", ["stopwords_path", "stemmer_rules_path", "negation_words_path", "lexicon_path"])
def test_analyze_data_file_not_utf8_names_the_file(tmp_path, capsys, key):
    (tmp_path / "data.txt").write_bytes(b"good\n\xff\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: "data.txt"}), encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'data.txt'}: not valid UTF-8\n"


@pytest.mark.parametrize(
    "term, stopwords",
    [
        ("winning", None),  # stems to "win"
        ("Good", None),  # tokens are lowercase
        ("caf\u00e9", None),  # tokens are a-z only
        ("the", None),  # a shipped stopword
        ("good", "good\n"),  # a stopword of the configured list
        ("xhttp", None),  # normalize cuts every run from "http" on
    ],
)
def test_analyze_lexicon_term_that_can_never_match_is_config_failure(tmp_path, capsys, term, stopwords):
    (tmp_path / "lex.tsv").write_text(f"bad\t-0.5\t0.5\n{term}\t0.5\t0.5\n", encoding="utf-8")
    raw = {"lexicon_path": "lex.tsv"}
    if stopwords is not None:
        (tmp_path / "stop.txt").write_text(stopwords, encoding="utf-8")
        raw["stopwords_path"] = "stop.txt"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'lex.tsv'}: term can never match: {term!r}\n"
    assert not (tmp_path / "out").exists()


def test_analyze_lexicon_term_that_is_a_negation_word_is_config_failure(tmp_path, capsys):
    # it would score as a hit and also flip the next one
    (tmp_path / "lex.tsv").write_text("good\t0.5\t0.5\nnot\t-0.5\t0.5\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lexicon_path": "lex.tsv"}), encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'lex.tsv'}: term is also a negation word: 'not'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "word",
    [
        "the",  # a shipped stopword never reaches the scorer
        "nots",  # the shipped rules stem it to "not"
    ],
)
def test_analyze_negation_word_that_can_never_match_is_config_failure(tmp_path, capsys, word):
    (tmp_path / "neg.txt").write_text(f"not\n{word}\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"negation_words_path": "neg.txt"}), encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'neg.txt'}: negation word can never match: {word!r}\n"
    assert not (tmp_path / "out").exists()


def test_analyze_cyclic_stemmer_table_is_config_failure(tmp_path, capsys):
    (tmp_path / "rules.tsv").write_text("b\ta\t0\na\tb\t0\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stemmer_rules_path": "rules.tsv"}), encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_analyze_non_ascii_stemmer_replacement_is_config_failure(tmp_path, capsys):
    # U+2C5F is a lowercase letter to str.islower() on 3.11+ only; tokens are [a-z]+ everywhere
    (tmp_path / "rules.tsv").write_text("xs\t\u2c5f\t0\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stemmer_rules_path": "rules.tsv"}), encoding="utf-8")
    code = main(["analyze", "--corpus", DEMO_CORPUS, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: stemmer replacement must be lowercase letters: '\u2c5f'\n"
    assert not (tmp_path / "out").exists()


def test_analyze_prints_a_negative_zero_herd_index_as_zero(tmp_path, capsys, monkeypatch):
    # mean clustering 0.1 in the top band minus fsum(0.1, 0.2, 0.0) / 3 is -1.39e-17
    profiles = [AuthorProfile(0.9, 0.1), AuthorProfile(0.1, 0.2), AuthorProfile(0.1, 0.0)]
    monkeypatch.setattr(pipeline, "profile_authors", lambda *args: profiles)
    out_dir = tmp_path / "out"
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(out_dir)]) == 0
    assert "herd index: 0.000000 (flag: False)\n" in capsys.readouterr().out
    assert '"herd_index": "0.000000"' in (out_dir / "herd_report.json").read_text(encoding="utf-8")


HOSTILE_LINES = {
    "out_of_range_timestamp": (
        record_line(tweet_id="bad", timestamp="0001-01-01T00:00:00+01:00"),
        "timestamp out of range: '0001-01-01T00:00:00+01:00'",
    ),
    "deep_nesting": ("[" * 100_000, "invalid JSON: nested too deeply"),
    "long_integer": (
        record_line(tweet_id="bad").replace('"follower_count": 0', '"follower_count": ' + "9" * 5000),
        "invalid JSON: integer too long",
    ),
    "lone_surrogate": (record_line(tweet_id="\ud800"), "tweet_id contains a lone surrogate"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_LINES))
def test_validate_hostile_line_is_a_line_error(tmp_path, capsys, case):
    line, reason = HOSTILE_LINES[case]
    good = [record_line(tweet_id=f"t{i}") for i in (1, 2, 3)]
    path = write_corpus(tmp_path, good + [line])
    assert main(["validate", "--corpus", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:4: {reason}\n" in out
    assert f"{path}: 3 valid, 1 invalid" in out


@pytest.mark.parametrize("case", sorted(HOSTILE_LINES))
def test_analyze_skips_hostile_line(tmp_path, capsys, case):
    line, _ = HOSTILE_LINES[case]
    good = [record_line(tweet_id=f"t{i}", text="good day") for i in (1, 2, 3)]
    out_dir = tmp_path / "bundle"
    code = main(["analyze", "--corpus", write_corpus(tmp_path, good + [line]), "--out", str(out_dir)])
    assert code == 1  # no camps configured: "no camp signal", bundle still written
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stage_counts"]["loaded_records"] == 3
    assert manifest["stage_counts"]["invalid_lines"] == 1


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--corpus", str(tmp_path / "nope.jsonl")]) == 2


def test_score_writes_csv_and_prints_summary(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["score", "--corpus", DEMO_CORPUS, "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "total: 24" in printed
    assert "negative: 20.83%" in printed
    assert "positive: 41.66%" in printed
    assert "neutral: 37.50%" in printed
    csv_text = (out_dir / "scores.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("tweet_id,polarity,subjectivity,label\n")
    assert len(csv_text.splitlines()) == 25


def test_score_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["score", "--corpus", DEMO_CORPUS, "--out", str(out1)])
    main(["score", "--corpus", DEMO_CORPUS, "--out", str(out2)])
    assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()


def test_score_empty_corpus(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["score", "--corpus", str(path), "--out", str(out_dir)]) == 0
    assert "total: 0" in capsys.readouterr().out
    assert (out_dir / "scores.csv").read_text(encoding="utf-8") == (
        "tweet_id,polarity,subjectivity,label\n"
    )


def test_score_mostly_invalid_corpus_is_data_failure(tmp_path):
    path = write_corpus(tmp_path, [record_line(), "junk", "{more junk", "not json at all"])
    assert main(["score", "--corpus", str(path), "--out", str(tmp_path / "out")]) == 1


def test_score_missing_config_is_io_failure(tmp_path):
    assert (
        main(
            [
                "score",
                "--corpus",
                DEMO_CORPUS,
                "--config",
                str(tmp_path / "nope.json"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        == 2
    )


def test_analyze_emits_full_bundle(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code = main(
        ["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(out_dir)]
    )
    assert code == 0
    for name in BUNDLE_NAMES:
        assert (out_dir / name).exists(), name
    printed = capsys.readouterr().out
    assert "predicted winner: X" in printed
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    counts = manifest["stage_counts"]
    assert counts["loaded_records"] == 24
    assert counts["after_hashtag_filter"] <= counts["loaded_records"]
    assert counts["scored"] == counts["after_hashtag_filter"]
    assert counts["profiled_authors"] <= counts["scored"]
    assert len(manifest["emitted_files"]) == len(BUNDLE_NAMES) - 1


def test_analyze_two_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    for out in (out1, out2):
        assert (
            main(
                [
                    "analyze",
                    "--corpus",
                    DEMO_CORPUS,
                    "--config",
                    DEMO_CONFIG,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    for name in BUNDLE_NAMES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_analyze_hashtag_filter(tmp_path):
    out_dir = tmp_path / "bundle"
    code = main(
        [
            "analyze",
            "--corpus",
            DEMO_CORPUS,
            "--config",
            DEMO_CONFIG,
            "--hashtag",
            "#PartyX",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stage_counts"]["loaded_records"] == 24
    assert manifest["stage_counts"]["after_hashtag_filter"] == 9


def test_analyze_without_camps_marks_no_camp_signal(tmp_path, capsys):
    lines = [record_line(tweet_id=f"t{i}", text="good day") for i in range(3)]
    corpus = write_corpus(tmp_path, lines)
    out_dir = tmp_path / "bundle"
    code = main(["analyze", "--corpus", corpus, "--out", str(out_dir)])
    assert code == 1
    assert (out_dir / "prediction.json").read_bytes() == (
        b'{\n  "error": "no camp signal",\n  "tie_count": 0,\n  "unassigned_count": 3\n}\n'
    )
    # the rest of the bundle is still emitted
    for name in BUNDLE_NAMES:
        assert (out_dir / name).exists(), name
    assert "no camp signal" in capsys.readouterr().out


def test_bundle_json_keys_are_the_record_fields(tmp_path):
    out_dir = tmp_path / "bundle"
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(out_dir)]) == 0
    herd = json.loads((out_dir / "herd_report.json").read_text(encoding="utf-8"))
    assert set(herd) == set(HerdReport._fields)
    assert [set(band) for band in herd["bands"]] == [set(BandStat._fields)] * 3
    prediction = json.loads((out_dir / "prediction.json").read_text(encoding="utf-8"))
    extra = {"tie_count", "unassigned_count", "reference_shares"}
    assert set(prediction) == set(PredictionReport._fields) | extra
    assert [set(camp) for camp in prediction["camps"]] == [set(CampResult._fields)] * 2


def test_bundle_csvs_read_back_cell_for_cell(tmp_path):
    """Ids that hold CR, LF, ``,`` and ``"`` come back from every bundle CSV through ``csv.reader``."""
    ids = ["t\r1", "t\n2", "t\r\n3", "t,4", 't"5"', '"', "t 6 \u00e9"]
    texts = ("good news", "bad news", "a plain day")
    records = [
        make_record(tweet_id=tweet_id, author_id=f"a{i % 3}", text=texts[i % 3], mentions=[f"a{(i + 1) % 4}"])
        for i, tweet_id in enumerate(ids)
    ]
    result = pipeline.analyze_corpus(make_loaded(records), load_config(DEMO_CONFIG))
    scores, stats, fixed = result.scores, result.stats, pipeline.fixed
    index = [str(i) for i in range(len(scores))]
    subjectivities = [fixed(s.subjectivity) for s in scores]
    polarities = [fixed(s.polarity) for s in scores]
    degrees = list(stats.degree.values())
    expected = {
        "scores.csv": [
            ["tweet_id", "polarity", "subjectivity", "label"],
            *([s.tweet_id, fixed(s.polarity), fixed(s.subjectivity), s.label] for s in scores),
        ],
        "subjectivity_series.csv": [["index", "subjectivity"], *map(list, zip(index, subjectivities))],
        "polarity_series.csv": [["index", "polarity"], *map(list, zip(index, polarities))],
        "combined_series.csv": [
            ["index", "subjectivity", "polarity"], *map(list, zip(index, subjectivities, polarities))
        ],
        "degree_distribution.csv": [
            ["degree", "count"], *([str(k), str(degrees.count(k))] for k in sorted(set(degrees)))
        ],
        "ck_curve.csv": [["degree", "mean_clustering"], *([str(k), fixed(c)] for k, c in stats.ck_curve)],
    }
    assert [s.tweet_id for s in scores] == ids
    files = pipeline.bundle_files(result)
    assert sorted(name for name in files if name.endswith(".csv")) == sorted(expected)
    for name, rows in expected.items():
        assert list(csv.reader(io.StringIO(files[name], newline=""))) == rows, name


# cells with every character RFC 4180 quotes for, spaces, line separators csv leaves alone, and non-ASCII
CELL = st.text(
    st.sampled_from(',"\r\n \x85\u2028a\u00e9\u4e2d') | st.characters(blacklist_characters="\x00"), max_size=5
)


@given(st.data())
def test_csv_text_round_trips_and_matches_csv_writer_without_cr(data):
    width, length = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 5))
    header = data.draw(st.lists(CELL, min_size=width, max_size=width))
    columns = [data.draw(st.lists(CELL, min_size=length, max_size=length)) for _ in range(width)]
    text = pipeline._csv_text(header, columns)
    rows = [header, *map(list, zip(*columns))]
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows
    if "\r" not in "".join(chain(header, *columns)):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert text == expected.getvalue()


# case -> (command, --hashtag value)
NO_TAG = {
    "analyze": ("analyze", "#"),
    "score": ("score", "#"),
    "analyze_empty": ("analyze", ""),
    "score_empty": ("score", ""),
    "analyze_space": ("analyze", "a b"),
    "score_space": ("score", "#a b"),
    "analyze_inner_hash": ("analyze", "x#y"),
    "score_inner_hash": ("score", "x#y"),
    "score_nbsp": ("score", "west\u00a0bengal"),
}


@pytest.mark.parametrize("case", sorted(NO_TAG))
def test_hashtag_without_a_tag_is_config_failure(tmp_path, capsys, case):
    command, tag = NO_TAG[case]
    out_dir = tmp_path / "out"
    code = main([command, "--corpus", DEMO_CORPUS, "--hashtag", tag, "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == f"error: --hashtag {tag!r}: hashtag can never match: {tag!r}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["analyze", "score"])
def test_bad_hashtag_fails_before_any_corpus_is_read(tmp_path, capsys, command):
    junk = write_corpus(tmp_path, ["not json", "not json"], name="junk.jsonl")
    for corpus in [str(tmp_path / "missing.jsonl"), junk]:
        out_dir = tmp_path / "out"
        assert main([command, "--corpus", corpus, "--hashtag", "a b", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "error: --hashtag 'a b': hashtag can never match: 'a b'\n"
        )
        assert not out_dir.exists()


EXISTS = "[Errno 17] File exists: '{}'"
OUT_IS_A_FILE = {
    "analyze": (["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out"], EXISTS),
    "score": (["score", "--corpus", DEMO_CORPUS, "--out"], EXISTS),
    "plot": (["plot", GOLDEN_BUNDLE, "--out"], EXISTS),
    # without --out the bundle is the output directory, and a file is no bundle
    "plot_bundle": (["plot"], "no such bundle directory: {}"),
}


@pytest.mark.parametrize("case", sorted(OUT_IS_A_FILE))
def test_output_path_is_a_file_is_io_failure(tmp_path, capsys, case):
    args, message = OUT_IS_A_FILE[case]
    target = tmp_path / "taken"
    target.write_text("keep\n", encoding="utf-8")
    assert main([*args, str(target)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(target)}\n"
    assert target.read_text(encoding="utf-8") == "keep\n"


def test_analyze_merges_multiple_corpora(tmp_path):
    c1 = write_corpus(tmp_path, [record_line(tweet_id="t1", text="partyx good", author_id="a")], name="c1.jsonl")
    c2 = write_corpus(tmp_path, [record_line(tweet_id="t2", text="partyy bad", author_id="b")], name="c2.jsonl")
    out_dir = tmp_path / "bundle"
    code = main(
        ["analyze", "--corpus", c1, "--corpus", c2, "--config", DEMO_CONFIG, "--out", str(out_dir)]
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stage_counts"]["loaded_records"] == 2
    assert manifest["corpus_paths"] == [c1, c2]


def test_analyze_empty_corpus_is_data_failure(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert main(["analyze", "--corpus", str(path), "--out", str(tmp_path / "b")]) == 1


def test_plot_full_bundle(tmp_path):
    bundle = tmp_path / "bundle"
    main(["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(bundle)])
    assert main(["plot", str(bundle)]) == 0
    svgs = sorted(p.name for p in bundle.glob("*.svg"))
    assert svgs == [
        "ck_curve.svg",
        "combined_series.svg",
        "degree_distribution.svg",
        "polarity_series.svg",
        "subjectivity_series.svg",
    ]


def test_plot_places_each_x_column_once(tmp_path, monkeypatch):
    """The three tweet series share one index column and the two degree CSVs one degree column."""
    place, placed = svgplot._place, []

    def counting(values, low, high, start, length):
        if start == svgplot.MARGIN:
            placed.append(tuple(values))
        return place(values, low, high, start, length)

    monkeypatch.setattr(svgplot, "_place", counting)
    before = dict(vars(svgplot))
    assert main(["plot", GOLDEN_BUNDLE, "--out", str(tmp_path)]) == 0
    assert dict(vars(svgplot)) == before  # no placement outlives the run
    golden = Path(GOLDEN_BUNDLE)

    def x_column(name):
        rows = csv.reader(io.StringIO((golden / name).read_text(encoding="utf-8"), newline=""))
        return tuple(float(row[0]) for row in list(rows)[1:])

    assert x_column("subjectivity_series.csv") == x_column("polarity_series.csv") == x_column("combined_series.csv")
    assert x_column("ck_curve.csv") == x_column("degree_distribution.csv")
    assert Counter(placed) == {x_column("combined_series.csv"): 1, x_column("ck_curve.csv"): 1}
    for svg in golden.glob("*.svg"):
        assert (tmp_path / svg.name).read_bytes() == svg.read_bytes(), svg.name


def test_plot_rerun_byte_identical(tmp_path):
    bundle = tmp_path / "bundle"
    main(["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(bundle)])
    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["plot", str(bundle), "--out", str(p1)]) == 0
    assert main(["plot", str(bundle), "--out", str(p2)]) == 0
    for svg in p1.glob("*.svg"):
        assert svg.read_bytes() == (p2 / svg.name).read_bytes()


def test_plot_ignores_a_bom_on_a_series_csv(tmp_path):
    bundle, out = tmp_path / "bom", tmp_path / "svg"
    shutil.copytree(GOLDEN_BUNDLE, bundle)
    for path in bundle.glob("*.csv"):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(["plot", str(bundle), "--out", str(out)]) == 0
    for svg in Path(GOLDEN_BUNDLE).glob("*.svg"):
        assert (out / svg.name).read_bytes() == svg.read_bytes(), svg.name


def test_plot_partial_bundle_continues(tmp_path, capsys):
    bundle = tmp_path / "partial"
    bundle.mkdir()
    (bundle / "ck_curve.csv").write_text("degree,mean_clustering\n2,1.000000\n", encoding="utf-8")
    (bundle / "polarity_series.csv").write_text("index,polarity\n0,0.500000\n", encoding="utf-8")
    code = main(["plot", str(bundle)])
    captured = capsys.readouterr()
    assert code == 1
    assert (bundle / "ck_curve.svg").exists()
    assert (bundle / "polarity_series.svg").exists()
    assert "missing CSV" in captured.err
    assert len(list(bundle.glob("*.svg"))) == 2


def test_plot_missing_bundle_dir_is_io_failure(tmp_path, capsys):
    bundle = tmp_path / "nodir"
    assert main(["plot", str(bundle)]) == 2
    assert capsys.readouterr().err == f"error: no such bundle directory: {bundle}\n"
    assert not bundle.exists()
    # a file is no bundle either, also with --out
    a_file, out = tmp_path / "taken", tmp_path / "out"
    a_file.write_text("keep\n", encoding="utf-8")
    assert main(["plot", str(a_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no such bundle directory: {a_file}\n"
    assert a_file.read_text(encoding="utf-8") == "keep\n"
    assert not out.exists()


def test_plot_that_writes_nothing_creates_no_out_dir(tmp_path, capsys):
    bundle, out = tmp_path / "bad", tmp_path / "new" / "svg"
    bundle.mkdir()
    (bundle / "ck_curve.csv").write_bytes(b"degree,count\n1,abc\n")
    assert main(["plot", str(bundle), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 5 and "could not convert string to float: 'abc'" in err
    assert not (tmp_path / "new").exists()
    # the directory appears with the first SVG
    (bundle / "polarity_series.csv").write_text("index,polarity\n0,0.5\n", encoding="utf-8")
    assert main(["plot", str(bundle), "--out", str(out)]) == 1
    assert sorted(path.name for path in out.iterdir()) == ["polarity_series.svg"]


BAD_SERIES = {
    "empty": (b"", "1: no header"),
    "bom_only": (b"\xef\xbb\xbf", "1: no header"),
    "not_a_number": (b"index,polarity\n0,0.5\n1,abc\n", "3: could not convert string to float: 'abc'"),
    "nan": (b"index,polarity\n0,nan\n", "2: expected 2 finite numbers, got [0.0, nan]"),
    "inf": (b"index,polarity\n0,0.5\n1,-inf\n", "3: expected 2 finite numbers, got [1.0, -inf]"),
    "short_row": (b"index,polarity\n0,0.5\n1\n", "3: expected 2 finite numbers, got [1.0]"),
    "blank_line": (b"index,polarity\n0,0.5\n\n1,0.2\n", "3: expected 2 finite numbers, got []"),
    "not_utf8": (b"index,polarity\n0,\xff\n", " not valid UTF-8"),
    "field_too_large": (b"index,polarity\n0,0.5\n1," + b"5" * 131_073 + b"\n", "3: field larger than field limit (131072)"),
    # read row by row, a bad cell anywhere names its line before any row of the wrong width
    "short_row_then_text": (b"index,polarity\n0,0.5\n1\n2,abc\n", "4: could not convert string to float: 'abc'"),
    "text_then_field_too_large": (
        b"index,polarity\n0,abc\n1,0.5\n2," + b"5" * 131_073 + b"\n",
        "2: could not convert string to float: 'abc'",
    ),
    "nan_in_middle": (b"index,a,b\n0,0.5,0.1\n1,nan,0.2\n", "3: expected 3 finite numbers, got [1.0, nan, 0.2]"),
    # a quoted cell may hold a line break; the error names the line of the file, not the row's position
    "short_row_after_two_line_header": (
        b'"index\nnumber",polarity\n0,0.5\n1\n', "4: expected 2 finite numbers, got [1.0]"
    ),
    "text_after_two_line_header": (
        b'"index\nnumber",polarity\n0,0.5\n1,abc\n', "4: could not convert string to float: 'abc'"
    ),
    "nan_after_two_line_cell": (b'index,polarity\n"0\n",0.5\n1,nan\n', "4: expected 2 finite numbers, got [1.0, nan]"),
    # a header cell is SVG text, so it holds only what XML 1.0 can
    "control_in_header": (b"index,pol\x01arity\n0,0.5\n", "1: header holds '\\x01', which XML 1.0 cannot"),
    "noncharacter_in_header": (b"index,\xef\xbf\xbe\n0,0.5\n", "1: header holds '\\ufffe', which XML 1.0 cannot"),
    "control_in_header_then_text": (b"index,a\x1f\n0,abc\n", "1: header holds '\\x1f', which XML 1.0 cannot"),
    # a NUL fails on every interpreter, as 3.10's csv fails it, before any other fault
    "nul_in_header": (b"index,pol\x00arity\n0,0.5\n", "1: line contains NUL"),
    "nul_in_cell": (b"index,polarity\n0,0.5\n1,0.\x005\n", "3: line contains NUL"),
    "text_then_nul": (b"index,polarity\n0,abc\n1,\x00\n", "3: line contains NUL"),
    "nul_after_cr_lines": (b"index,polarity\r0,0.5\r\n1,\x00\r", "3: line contains NUL"),
}


@pytest.mark.parametrize("case", sorted(BAD_SERIES))
def test_plot_bad_series_csv_continues(tmp_path, capsys, case):
    content, reason = BAD_SERIES[case]
    bundle = tmp_path / "bad"
    bundle.mkdir()
    (bundle / "ck_curve.csv").write_text("degree,mean_clustering\n2,1.000000\n", encoding="utf-8")
    (bundle / "polarity_series.csv").write_bytes(content)
    code = main(["plot", str(bundle)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {bundle / 'polarity_series.csv'}:{reason}\n" in err
    assert sorted(p.name for p in bundle.glob("*.svg")) == ["ck_curve.svg"]


@pytest.mark.parametrize(
    "content, series_points",
    [
        ("x\n0\n1e300\n", []),  # one column: no series, so the x range is empty
        ("x,y\n", [("y", [])]),  # a header with no rows
    ],
)
def test_plot_series_csv_without_points_matches_oracle(tmp_path, content, series_points):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "ck_curve.csv").write_text(content, encoding="utf-8")
    assert main(["plot", str(bundle)]) == 1  # the other four CSVs are missing
    expected = reference_svg(series_points, *PLOT_SERIES["ck_curve.csv"])
    assert (bundle / "ck_curve.svg").read_text(encoding="utf-8") == expected


EXTREME_SERIES = {
    # 1e300 +- 0.5 rounds back to 1e300, so widening by 0.5 leaves an empty range
    "constant_huge": [(0.0, 1e300), (1.0, 1e300)],
    "constant_float_max": [(0.0, -1.7976931348623157e308), (1.0, -1.7976931348623157e308)],
    # the span from -1e308 to 1e308 is past the float range
    "span_past_float_range": [(-1e308, -1e308), (1e308, 1e308)],
    "subnormal_span": [(0.0, 0.0), (5e-324, 5e-324)],
}


@pytest.mark.parametrize("case", sorted(EXTREME_SERIES))
def test_plot_extreme_values_write_finite_coordinates(tmp_path, capsys, case):
    bundle = tmp_path / "extreme"
    bundle.mkdir()
    for name in ("subjectivity_series.csv", "polarity_series.csv", "ck_curve.csv", "degree_distribution.csv"):
        rows = "".join(f"{x!r},{y!r}\n" for x, y in EXTREME_SERIES[case])
        (bundle / name).write_text("x,y\n" + rows, encoding="utf-8")
    rows = "".join(f"{x!r},{y!r},{x!r}\n" for x, y in EXTREME_SERIES[case])
    (bundle / "combined_series.csv").write_text("x,y,z\n" + rows, encoding="utf-8")
    assert main(["plot", str(bundle)]) == 0
    assert capsys.readouterr().err == ""
    for svg in bundle.glob("*.svg"):
        text = svg.read_text(encoding="utf-8")
        assert "nan" not in text and "inf" not in text, svg.name
        coordinates = re.findall(r' (?:x|y|cx|cy|x1|y1|x2|y2)="([^"]*)"', text)
        assert coordinates and all(math.isfinite(float(value)) for value in coordinates), svg.name


def _tree_bytes(root: Path) -> dict[str, bytes | None]:
    """Relative path -> bytes of every file under ``root``, ``None`` for a directory."""
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def test_failed_rewrite_changes_nothing(tmp_path, capsys):
    out = tmp_path / "mo"
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(out)]) == 0
    (out / "scores.csv").unlink()
    (out / "scores.csv").mkdir()
    before = _tree_bytes(out)
    # without camps prediction.json changes, and it sorts before the target that cannot be written
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out / 'scores.csv'}: exists and is not a regular file\n"
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("k", range(1, len(BUNDLE_NAMES) + 1))
def test_failed_kth_write_keeps_the_old_bundle(tmp_path, monkeypatch, capsys, k):
    out = tmp_path / "bundle"
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    before = _tree_bytes(out)

    class ShortWrite:
        """A file whose write stores one byte, then fails as a full disk would."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.handle.write(data[:1])
            raise OSError(errno.ENOSPC, "No space left on device")

    opened = []

    def failing_open(path, mode="r", *args, **kwargs):
        opened.append(path)
        handle = open(path, mode, *args, **kwargs)
        return ShortWrite(handle) if len(opened) == k else handle

    monkeypatch.setattr(pipeline, "open", failing_open, raising=False)
    # without camps prediction.json would change
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(opened) == k
    assert _tree_bytes(out) == before


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "herdpulse.cli", "validate", "--corpus", DEMO_CORPUS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "24 valid, 0 invalid" in proc.stdout


def test_plot_empty_series_renders_axes(tmp_path):
    bundle = tmp_path / "empty"
    bundle.mkdir()
    headers = {
        "subjectivity_series.csv": "index,subjectivity",
        "polarity_series.csv": "index,polarity",
        "combined_series.csv": "index,subjectivity,polarity",
        "ck_curve.csv": "degree,mean_clustering",
        "degree_distribution.csv": "degree,count",
    }
    for name, header in headers.items():
        (bundle / name).write_text(header + "\n", encoding="utf-8")
    assert main(["plot", str(bundle)]) == 0
    svg = (bundle / "subjectivity_series.svg").read_text(encoding="utf-8")
    assert "<svg" in svg and "<line" in svg
    assert "<circle" not in svg


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """The cyclic collector switched on or off for the test, and back as it was afterwards."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def test_main_runs_the_command_with_the_collector_off_and_restores_it(tmp_path, monkeypatch, collector):
    junk = write_corpus(tmp_path, ["junk", "{more junk", record_line()])
    bad_config = tmp_path / "config.json"
    bad_config.write_text("{", encoding="utf-8")
    cases = [
        (["validate", "--corpus", DEMO_CORPUS], 0),
        (["analyze", "--corpus", junk, "--out", str(tmp_path / "o1")], 1),  # CorpusFormatError
        (["analyze", "--corpus", DEMO_CORPUS, "--config", str(bad_config), "--out", str(tmp_path / "o2")], 2),
        (["validate", "--corpus", str(tmp_path / "nope.jsonl")], 2),  # OSError
    ]
    for argv, code in cases:
        assert main(argv) == code
        assert gc.isenabled() is collector

    seen = []

    def failing_command(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", failing_command)
    with pytest.raises(RuntimeError, match="boom"):
        main(["validate", "--corpus", DEMO_CORPUS])
    assert seen == [False]
    assert gc.isenabled() is collector


@pytest.mark.parametrize("collector", [False], ids=["collector_off"], indirect=True)
def test_analyze_leaves_no_cycle_per_record(tmp_path, collector):
    # With the collector off for the whole command, a cycle made per record would
    # hold memory that grows with the input; the cycles a run does make are fixed.
    lines = Path(DEMO_CORPUS).read_text(encoding="utf-8").splitlines()
    copies = []
    for k in range(6):
        for line in lines:
            obj = json.loads(line)
            obj["tweet_id"] = f"{obj['tweet_id']}_{k}"
            copies.append(json.dumps(obj))
    larger = write_corpus(tmp_path, copies, "larger.jsonl")
    # one run first, so caches filled on first use are not counted
    assert main(["analyze", "--corpus", DEMO_CORPUS, "--config", DEMO_CONFIG, "--out", str(tmp_path / "w")]) == 0
    gc.collect()
    found = []
    for corpus in (DEMO_CORPUS, larger):
        assert main(["analyze", "--corpus", corpus, "--config", DEMO_CONFIG, "--out", str(tmp_path / "b")]) == 0
        found.append(gc.collect())
    assert found[0] == found[1]
