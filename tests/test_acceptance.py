"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import string
from pathlib import Path

import pytest

from herdpulse import build_graph, clustering_stats, load_config, preprocess, score_tokens
from herdpulse.cli import main
from herdpulse.herd import CampAssignments, herd_report, predict, profile_authors
from herdpulse.preprocess import normalize
from herdpulse.sentiment import NEGATIVE, NEUTRAL, POSITIVE, SentimentScore

from .conftest import graph_from_edges, record_line
from .fixtures import clique_star_corpus, engineered_134_corpus_lines
from .oracles import (
    adjacency,
    brute_force_global,
    brute_force_local,
    complete_graph,
    random_graph,
    random_tree,
    reference_stem,
    vertex_names,
)

REPO = Path(__file__).resolve().parent.parent
GOLDEN_BUNDLE = REPO / "tests" / "goldens" / "demo_bundle"

BUNDLE_FILES = [
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


def test_criterion_1_clustering_oracle_equivalence():
    rng = random.Random(20210401)
    graphs_checked = 0
    global_checked = 0
    for _ in range(200):
        n = rng.randint(2, 100)
        p = rng.uniform(0.05, 0.5)
        edges = random_graph(n, p, rng)
        adj = adjacency(edges, vertex_names(n))
        stats = clustering_stats(graph_from_edges(edges, vertex_names(n)))
        for node in adj:
            assert stats.local[node] == brute_force_local(adj, node)
        if n <= 60:
            assert abs(stats.global_clustering - brute_force_global(adj)) <= 1e-12
            global_checked += 1
        graphs_checked += 1

    # analytic anchors
    for n in (3, 4, 6):
        kn = clustering_stats(graph_from_edges(complete_graph(n)))
        assert all(c == 1.0 for c in kn.local.values())
        assert kn.global_clustering == 1.0
    for n in (2, 15, 50):
        tree = clustering_stats(graph_from_edges(random_tree(n, rng)))
        assert all(c == 0.0 for c in tree.local.values())
        assert tree.global_clustering == 0.0
    from .test_graph import K4_MINUS, counts_from_stats

    k4_minus = clustering_stats(K4_MINUS)
    assert k4_minus.global_clustering == pytest.approx(0.75, abs=1e-12)
    assert k4_minus.mean_clustering == pytest.approx(5 / 6, abs=1e-12)
    assert counts_from_stats(k4_minus) == (2, 8)

    assert graphs_checked == 200
    print(
        f"[PASS] criterion 1: clustering oracle equivalence on {graphs_checked} random "
        f"graphs (global brute force on {global_checked}) plus analytic anchors"
    )


def test_criterion_2_sentiment_bounds_fuzz():
    rng = random.Random(13110207)
    vocabulary = [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 8)))
        for _ in range(60)
    ]
    negations = frozenset({"not", "no", "never", "neither", "nor"})
    checked = 0
    for _ in range(10_000):
        terms = rng.sample(vocabulary, rng.randint(0, 12))
        lexicon = {term: (rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)) for term in terms}
        tokens = [
            rng.choice(vocabulary + ["not", "no", "never", "neither", "nor"])
            for _ in range(rng.randint(0, 25))
        ]
        score = score_tokens("fuzz", tuple(tokens), lexicon, negations)
        assert -1.0 <= score.polarity <= 1.0
        assert 0.0 <= score.subjectivity <= 1.0
        if score.polarity > 0:
            assert score.label == POSITIVE
        elif score.polarity < 0:
            assert score.label == NEGATIVE
        else:
            assert score.label == NEUTRAL
        checked += 1
    assert checked == 10_000
    print(f"[PASS] criterion 2: {checked} fuzzed documents stayed in bounds with consistent labels")


def test_criterion_3_percentage_reconstruction(tmp_path, capsys):
    corpus_path = tmp_path / "reconstructed.jsonl"
    corpus_path.write_text("\n".join(engineered_134_corpus_lines()) + "\n", encoding="utf-8")
    code = main(["score", "--corpus", str(corpus_path), "--out", str(tmp_path / "out")])
    printed = capsys.readouterr().out
    assert code == 0
    assert "total: 134" in printed
    assert "negative: 17.91%" in printed
    assert "positive: 36.56%" in printed
    assert "neutral: 45.52%" in printed
    print("[PASS] criterion 3: 134-tweet corpus prints 17.91 / 36.56 / 45.52 under truncation")


def test_criterion_4_herd_fixture():
    corpus = clique_star_corpus()
    config = load_config()
    graph = build_graph(corpus.records)
    tokens = [preprocess(r.text, config.stopwords, config.stemmer_rules) for r in corpus.records]
    scores = [score_tokens(r.tweet_id, t, config.lexicon, config.negation_words) for r, t in zip(corpus.records, tokens)]
    profiles = profile_authors(scores, corpus.records, clustering_stats(graph).local)
    report = herd_report(profiles, config.band_edges, config.herd_threshold)
    assert report.herd_index > 0
    assert report.herd_flag is True
    print(
        f"[PASS] criterion 4: clique-vs-star corpus yields herd_index "
        f"{report.herd_index:.6f} > 0 with flag raised"
    )


def _camp_fixture(scale: int):
    scores = []
    assignments = CampAssignments({}, 0, 0)

    def add(camp, kind, count, polarity, label):
        for i in range(count * scale):
            tweet_id = f"{camp}-{kind}-{i}"
            scores.append(SentimentScore(tweet_id, polarity, 0.5, label, 1))
            assignments.by_tweet[tweet_id] = camp

    add("X", "pos", 6, 0.5, POSITIVE)
    add("X", "neg", 2, -0.5, NEGATIVE)
    add("X", "neu", 2, 0.0, NEUTRAL)
    add("Y", "pos", 3, 0.5, POSITIVE)
    add("Y", "neg", 2, -0.5, NEGATIVE)
    add("Y", "neu", 5, 0.0, NEUTRAL)
    return scores, assignments


def test_criterion_5_prediction_consistency():
    corpus = clique_star_corpus()
    config = load_config()
    graph = build_graph(corpus.records)
    tokens = [preprocess(r.text, config.stopwords, config.stemmer_rules) for r in corpus.records]
    doc_scores = [score_tokens(r.tweet_id, t, config.lexicon, config.negation_words) for r, t in zip(corpus.records, tokens)]
    herd = herd_report(profile_authors(doc_scores, corpus.records, clustering_stats(graph).local))

    scores, assignments = _camp_fixture(scale=1)
    report = predict(scores, assignments, herd)
    assert report.winner == "X"
    assert report.margin > 0
    assert [c.camp_id for c in report.camps] == ["X", "Y"]

    scores10, assignments10 = _camp_fixture(scale=10)
    report10 = predict(scores10, assignments10, herd)
    assert [c.camp_id for c in report10.camps] == [c.camp_id for c in report.camps]
    assert [c.support for c in report10.camps] == [c.support for c in report.camps]
    assert report10.winner == report.winner
    assert report10.margin == report.margin
    print(
        f"[PASS] criterion 5: X ranked first with margin {report.margin:.6f}; "
        f"ranking and scores invariant under 10x scaling"
    )


def test_criterion_6_end_to_end_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    args = [
        "analyze",
        "--corpus",
        "demos/data/demo_tweets.jsonl",
        "--config",
        "demos/data/demo_config.json",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in BUNDLE_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert main(["plot", str(out1), "--out", str(out1)]) == 0

    frozen = sorted(p.name for p in GOLDEN_BUNDLE.iterdir())
    for name in frozen:
        assert (out1 / name).read_bytes() == (GOLDEN_BUNDLE / name).read_bytes(), name
    print(
        f"[PASS] criterion 6: two analyze runs byte-identical and matching "
        f"{len(frozen)} frozen golden files"
    )


def _random_noisy_strings(count: int, rng: random.Random) -> list[str]:
    alphabet = (
        string.ascii_letters
        + string.digits
        + string.punctuation
        + "   "
        + "éñüßঅআকখ✓☂"
    )
    out = []
    for _ in range(count):
        n = rng.randint(0, 80)
        text = "".join(rng.choice(alphabet) for _ in range(n))
        if rng.random() < 0.3:
            text += " https://t.co/" + "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if rng.random() < 0.3:
            text = "@user" + str(rng.randint(0, 99)) + " " + text
        if rng.random() < 0.3:
            text += " #Tag" + str(rng.randint(0, 99))
        out.append(text)
    return out


def test_criterion_7_preprocessing_idempotence():
    rng = random.Random(424242)
    corpus_texts = []
    demo = REPO / "demos" / "data" / "demo_tweets.jsonl"
    import json as json_

    for line in demo.read_text(encoding="utf-8").splitlines():
        corpus_texts.append(json_.loads(line)["text"])

    samples = corpus_texts + _random_noisy_strings(1000 - len(corpus_texts), rng)
    assert len(samples) == 1000

    config = load_config()
    stopwords = config.stopwords
    rules = config.stemmer_rules
    table = [(r.suffix, r.replacement, r.min_stem_length) for r in rules.rules]
    for text in samples:
        once = normalize(text)
        assert normalize(once) == once
        tokens = [t for t in once.split(" ") if t]
        for token in tokens:
            stemmed = rules.stem(token)
            assert rules.stem(stemmed) == stemmed
        kept = preprocess(text, stopwords, rules)
        assert not stopwords.intersection(kept)
        assert all(reference_stem(token, table) == token for token in kept)
    print("[PASS] criterion 7: normalize/stem fixed points, no stopword out, on 1000 strings")
