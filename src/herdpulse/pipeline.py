"""End-to-end analysis run and deterministic report-bundle emission.

Everything written here is a pure function of the load, the config and the
data files: CSVs use LF endings, RFC 4180 quoting and fixed 6-decimal values on
every interpreter, JSON documents are key-sorted with floats pre-formatted as
6-decimal strings, and the manifest carries a sha256 per emitted file. Two
runs over the same inputs must produce byte-identical bundles.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .config import RunConfig
from .corpus import LoadResult, TweetRecord
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
from .preprocess import preprocess_texts
from .sentiment import CorpusSummary, SentimentScore, score_tokens, summarize

PIPELINE_VERSION = f"herdpulse {__version__}"

NO_CAMP_SIGNAL = "no camp signal"
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def fixed(value: float) -> str:
    """6-decimal fixed-point rendering used for every non-percentage float."""
    text = f"{value:.6f}"
    # normalize IEEE negative zero so formatting never depends on sign tricks
    return "0.000000" if text == "-0.000000" else text


class AnalysisResult(NamedTuple):
    """The reports of one run, with the load and the config they came from."""

    loaded: LoadResult
    config: RunConfig
    scores: list[SentimentScore]
    summary: CorpusSummary
    stats: ClusteringStats
    herd: HerdReport
    assignments: CampAssignments
    prediction: PredictionReport | None


def score_corpus(records: tuple[TweetRecord, ...], config: RunConfig):
    """Preprocess and score every record; returns (tokens per record, scores, summary)."""
    tokens = preprocess_texts([r.text for r in records], config.stopwords, config.stemmer_rules)
    scores = [
        score_tokens(r.tweet_id, own, config.lexicon, config.negation_words) for r, own in zip(records, tokens)
    ]
    return tokens, scores, summarize(scores)


def analyze_corpus(loaded: LoadResult, config: RunConfig) -> AnalysisResult:
    """Run the full pipeline over the loaded records: scoring, graph, herd report, camp prediction.

    A corpus without any camp-assignable tweet does not abort the run: the
    prediction is ``None`` and ``prediction.json`` carries :data:`NO_CAMP_SIGNAL`.
    """
    records = loaded.records
    tokens, scores, summary = score_corpus(records, config)
    assignments = assign_corpus(tokens, records, config.camps or {})
    del tokens  # the token tuples are the largest per-tweet data; the graph does not need them
    stats = clustering_stats(build_graph(records))
    profiles = profile_authors(scores, records, stats.local)
    herd = herd_report(profiles, config.band_edges, config.herd_threshold)
    return AnalysisResult(
        loaded=loaded,
        config=config,
        scores=scores,
        summary=summary,
        stats=stats,
        herd=herd,
        assignments=assignments,
        prediction=predict(scores, assignments, herd),
    )


def _quoted(cells: list[str]) -> list[str]:
    return ['"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell for cell in cells]


def _csv_text(header: list[str], columns: list[list[str]]) -> str:
    """Two or more equal-length columns as rows ending in LF; a cell holding ``,``, ``"``, CR or LF is
    quoted, its ``"`` doubled (RFC 4180 and 3.13's ``csv.writer``; 3.10-3.12's leave a lone CR bare)."""
    columns = [_quoted(column) if _NEEDS_QUOTES.search("".join(column)) else column for column in columns]
    return "\n".join([",".join(_quoted(header)), *map(",".join, zip(*columns)), ""])


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


def formatted_scores(scores: list[SentimentScore]) -> tuple[list[str], list[str]]:
    """The polarity and subjectivity columns of the scores, each distinct value formatted once."""
    polarities = [s.polarity for s in scores]
    subjectivities = [s.subjectivity for s in scores]
    # 0.0 and -0.0 share a key, and fixed gives both the same text
    text = {value: fixed(value) for value in {*polarities, *subjectivities}}
    return list(map(text.__getitem__, polarities)), list(map(text.__getitem__, subjectivities))


def scores_csv(scores: list[SentimentScore], polarities: list[str], subjectivities: list[str]) -> str:
    return _csv_text(
        ["tweet_id", "polarity", "subjectivity", "label"],
        [[s.tweet_id for s in scores], polarities, subjectivities, [s.label for s in scores]],
    )


def _prediction_json(result: AnalysisResult) -> str:
    if result.prediction is None:
        obj = {"error": NO_CAMP_SIGNAL}
    else:
        obj = result.prediction._asdict()
        if result.config.reference_shares:
            obj["reference_shares"] = result.config.reference_shares
    obj["tie_count"] = result.assignments.tie_count
    obj["unassigned_count"] = result.assignments.unassigned_count
    return _json_text(obj)


def bundle_files(result: AnalysisResult) -> dict[str, str]:
    """Name -> content for every report file except the manifest."""
    stats = result.stats
    polarities, subjectivities = formatted_scores(result.scores)
    index = list(map(str, range(len(result.scores))))
    counts = Counter(stats.degree.values())
    degrees = [str(k) for k, _ in stats.ck_curve]  # ck_curve holds every degree of the graph, ascending

    files: dict[str, str] = {}
    files["scores.csv"] = scores_csv(result.scores, polarities, subjectivities)
    files["graph_summary.json"] = _json_text(
        {
            "nodes": len(stats.degree),
            "edges": stats.edges,
            "mean_clustering": stats.mean_clustering,
            "global_clustering": stats.global_clustering,
        }
    )
    files["degree_distribution.csv"] = _csv_text(
        ["degree", "count"], [degrees, [str(counts[k]) for k, _ in stats.ck_curve]]
    )
    files["ck_curve.csv"] = _csv_text(["degree", "mean_clustering"], [degrees, [fixed(c) for _, c in stats.ck_curve]])
    files["subjectivity_series.csv"] = _csv_text(["index", "subjectivity"], [index, subjectivities])
    files["polarity_series.csv"] = _csv_text(["index", "polarity"], [index, polarities])
    files["combined_series.csv"] = _csv_text(
        ["index", "subjectivity", "polarity"], [index, subjectivities, polarities]
    )
    files["herd_report.json"] = _json_text(result.herd)
    files["prediction.json"] = _prediction_json(result)
    return files


def write_bundle(
    result: AnalysisResult, out_dir: str | Path, config_path: str | None, corpus_paths: list[str]
) -> Path:
    """Write the report files and their manifest, all or none of them.

    Every file is encoded first, so a text UTF-8 cannot encode writes nothing,
    and every target must be absent or a regular file. Each file is written to
    a temporary name in ``out_dir`` and moved into place with ``os.replace``
    only once all of them are written; a failure removes the temporary files.
    """
    loaded = result.loaded
    files = bundle_files(result)
    contents = {name: files.pop(name).encode("utf-8") for name in sorted(files)}
    emitted = [{"name": name, "sha256": hashlib.sha256(data).hexdigest()} for name, data in contents.items()]
    manifest = {
        "pipeline_version": PIPELINE_VERSION,
        "config_path": config_path,
        "corpus_paths": corpus_paths,
        "stage_counts": {
            "invalid_lines": len(loaded.invalid),
            "loaded_records": loaded.loaded_records,
            "after_hashtag_filter": len(loaded.records),
            "scored": len(result.scores),
            "graph_nodes": len(result.stats.degree),
            "graph_edges": result.stats.edges,
            "profiled_authors": sum(band.count for band in result.herd.bands),
            "assigned": len(result.assignments.by_tweet),
            "camp_ties": result.assignments.tie_count,
        },
        "emitted_files": emitted,
    }
    contents["manifest.json"] = _json_text(manifest).encode("utf-8")

    out = Path(out_dir)
    for name in contents:
        target = out / name
        if target.exists() and not target.is_file():
            raise OSError(f"{target}: exists and is not a regular file")
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, data in contents.items():
            temporary = out / f".{name}.{os.getpid()}.tmp"
            with open(temporary, "xb") as handle:
                written.append(temporary)
                handle.write(data)
        # the manifest goes before the first move and comes back last: an old one
        # would vouch for a bundle that a failed move left mixed
        (out / "manifest.json").unlink(missing_ok=True)
        for temporary, name in zip(written, contents):
            os.replace(temporary, out / name)
    except BaseException:
        for temporary in written:
            temporary.unlink(missing_ok=True)
        raise
    return out / "manifest.json"
