"""End-to-end analysis run and deterministic report-bundle emission.

Everything written here is a pure function of the corpus, the config and the
data files: CSVs use LF endings and fixed 6-decimal values, JSON documents are
key-sorted with floats pre-formatted as 6-decimal strings, and the manifest
carries a sha256 per emitted file. Two runs over the same inputs must produce
byte-identical bundles.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .config import RunConfig
from .corpus import Corpus, LoadResult
from .graph import ClusteringStats, build_graph, clustering_stats
from .herd import (
    CampAssignments,
    HerdReport,
    PredictionReport,
    assign_corpus,
    herd_report,
    predict,
    profile_authors,
)
from .preprocess import preprocess
from .sentiment import CorpusSummary, SentimentScore, score_tokens, summarize

PIPELINE_VERSION = f"herdpulse {__version__}"

NO_CAMP_SIGNAL = "no camp signal"


def fixed(value: float) -> str:
    """6-decimal fixed-point rendering used for every non-percentage float."""
    text = f"{value:.6f}"
    # normalize IEEE negative zero so formatting never depends on sign tricks
    return "0.000000" if text == "-0.000000" else text


class AnalysisResult(NamedTuple):
    scores: list[SentimentScore]
    summary: CorpusSummary
    stats: ClusteringStats
    herd: HerdReport
    assignments: CampAssignments
    prediction: PredictionReport | None


def score_corpus(corpus: Corpus, config: RunConfig):
    """Preprocess and score every record; returns (tokens per record, scores, summary)."""
    tokens = [preprocess(r.text, config.stopwords, config.stemmer_rules) for r in corpus.records]
    scores = [
        score_tokens(r.tweet_id, own, config.lexicon, config.negation_words)
        for r, own in zip(corpus.records, tokens)
    ]
    return tokens, scores, summarize(scores)


def analyze_corpus(corpus: Corpus, config: RunConfig) -> AnalysisResult:
    """Run the full pipeline: scoring, graph, herd report, camp prediction.

    A corpus without any camp-assignable tweet does not abort the run: the
    prediction is ``None`` and ``prediction.json`` carries :data:`NO_CAMP_SIGNAL`.
    """
    tokens, scores, summary = score_corpus(corpus, config)
    stats = clustering_stats(build_graph(corpus))
    profiles = profile_authors(scores, corpus, stats.local)
    herd = herd_report(profiles, config.band_edges, config.herd_threshold)

    assignments = assign_corpus(tokens, corpus.records, config.camps or {})
    return AnalysisResult(
        scores=scores,
        summary=summary,
        stats=stats,
        herd=herd,
        assignments=assignments,
        prediction=predict(scores, assignments, herd),
    )


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _plain(value):
    """The JSON form of a report value: records become objects, floats ``fixed`` strings."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, float):
        return fixed(value)
    return value


def _json_text(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def formatted_scores(scores: list[SentimentScore]) -> list[tuple[str, str, str]]:
    """(index, polarity, subjectivity) of each score, formatted once for every CSV."""
    return [(str(i), fixed(s.polarity), fixed(s.subjectivity)) for i, s in enumerate(scores)]


def scores_csv(scores: list[SentimentScore], rows: list[tuple[str, str, str]]) -> str:
    return _csv_text(
        ["tweet_id", "polarity", "subjectivity", "label"],
        [[s.tweet_id, polarity, subjectivity, s.label] for s, (_, polarity, subjectivity) in zip(scores, rows)],
    )


def _prediction_json(result: AnalysisResult, config: RunConfig) -> str:
    if result.prediction is None:
        obj = {"error": NO_CAMP_SIGNAL}
    else:
        obj = result.prediction._asdict()
        if config.reference_shares:
            obj["reference_shares"] = config.reference_shares
    obj["tie_count"] = result.assignments.tie_count
    obj["unassigned_count"] = result.assignments.unassigned_count
    return _json_text(obj)


def bundle_files(result: AnalysisResult, config: RunConfig) -> dict[str, str]:
    """Name -> content for every report file except the manifest."""
    stats = result.stats
    rows = formatted_scores(result.scores)

    degree_counts: dict[int, int] = {}
    for k in stats.degree.values():
        degree_counts[k] = degree_counts.get(k, 0) + 1

    files: dict[str, str] = {}
    files["scores.csv"] = scores_csv(result.scores, rows)
    files["graph_summary.json"] = _json_text(
        {
            "nodes": len(stats.degree),
            "edges": stats.edges,
            "mean_clustering": stats.mean_clustering,
            "global_clustering": stats.global_clustering,
        }
    )
    files["degree_distribution.csv"] = _csv_text(
        ["degree", "count"],
        [[str(k), str(degree_counts[k])] for k in sorted(degree_counts)],
    )
    files["ck_curve.csv"] = _csv_text(
        ["degree", "mean_clustering"],
        [[str(k), fixed(c)] for k, c in stats.ck_curve],
    )
    files["subjectivity_series.csv"] = _csv_text(
        ["index", "subjectivity"], [[i, subjectivity] for i, _, subjectivity in rows]
    )
    files["polarity_series.csv"] = _csv_text(["index", "polarity"], [[i, polarity] for i, polarity, _ in rows])
    files["combined_series.csv"] = _csv_text(
        ["index", "subjectivity", "polarity"],
        [[i, subjectivity, polarity] for i, polarity, subjectivity in rows],
    )
    files["herd_report.json"] = _json_text(result.herd)
    files["prediction.json"] = _prediction_json(result, config)
    return files


def write_bundle(
    result: AnalysisResult,
    config: RunConfig,
    out_dir: str | Path,
    loaded: LoadResult,
    config_path: str | None,
    corpus_paths: list[str],
) -> Path:
    """Write the report files and a manifest of the inputs and ``loaded``'s counts; returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    files = bundle_files(result, config)
    emitted = []
    for name in sorted(files):
        content = files[name].encode("utf-8")
        (out / name).write_bytes(content)
        emitted.append({"name": name, "sha256": hashlib.sha256(content).hexdigest()})

    manifest = {
        "pipeline_version": PIPELINE_VERSION,
        "config_path": config_path,
        "corpus_paths": corpus_paths,
        "stage_counts": {
            "invalid_lines": len(loaded.invalid),
            "loaded_records": loaded.loaded_records,
            "after_hashtag_filter": len(loaded.corpus.records),
            "scored": len(result.scores),
            "graph_nodes": len(result.stats.degree),
            "graph_edges": result.stats.edges,
            "profiled_authors": sum(band.count for band in result.herd.bands),
            "assigned": len(result.assignments.by_tweet),
            "camp_ties": result.assignments.tie_count,
        },
        "emitted_files": emitted,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(_json_text(manifest), encoding="utf-8")
    return manifest_path
