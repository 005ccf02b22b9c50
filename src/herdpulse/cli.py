"""Command-line front end: validate, score, analyze, plot.

Exit codes: 0 success, 1 data/validation failure, 2 I/O or config failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from itertools import chain
from pathlib import Path

from .config import ConfigError, RunConfig, default_config, load_config
from .corpus import CorpusFormatError, LoadResult, load_corpora, load_corpus
from .pipeline import (
    NO_CAMP_SIGNAL,
    analyze_corpus,
    formatted_scores,
    score_corpus,
    scores_csv,
    write_bundle,
)
from .svgplot import render_scatter

EXIT_OK = 0
EXIT_DATA = 1
EXIT_IO = 2

# bundle CSVs cmd_plot knows how to render: name -> (title, x label, y label)
PLOT_SERIES = {
    "subjectivity_series.csv": ("Tweet subjectivity", "tweet index", "subjectivity"),
    "polarity_series.csv": ("Tweet polarity", "tweet index", "polarity"),
    "combined_series.csv": ("Subjectivity and polarity", "tweet index", "value"),
    "ck_curve.csv": ("Clustering coefficient vs degree", "degree", "mean clustering"),
    "degree_distribution.csv": ("Degree distribution", "degree", "node count"),
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load_inputs(paths: list[str], hashtag: str | None) -> LoadResult:
    """Load corpus files; a bad tag fails as a config error before any file is read."""
    try:
        return load_corpora(paths, hashtag)
    except CorpusFormatError:
        raise
    except ValueError as err:  # the tag check; bad lines come back as LineError entries
        raise ConfigError(f"--hashtag {hashtag!r}: {err}") from None


def _resolve_config(path: str | None) -> RunConfig:
    return load_config(path) if path else default_config()


def _print_summary(summary) -> None:
    print(f"total: {summary.total}")
    print(f"negative: {summary.negative_pct}%")
    print(f"positive: {summary.positive_pct}%")
    print(f"neutral: {summary.neutral_pct}%")


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.corpus:
        try:
            result = load_corpus(path)
        except CorpusFormatError as err:
            _fail(str(err))
            status = max(status, EXIT_DATA)
            continue
        for entry in result.invalid:
            print(f"{path}:{entry.line_no}: {entry.reason}")
        if result.unknown_key_count:
            print(f"{path}: {result.unknown_key_count} unknown key(s) ignored")
        print(f"{path}: {len(result.corpus.records)} valid, {len(result.invalid)} invalid")
        if result.invalid:
            status = max(status, EXIT_DATA)
    return status


def cmd_score(args) -> int:
    config = _resolve_config(args.config)
    loaded = _load_inputs(args.corpus, args.hashtag)
    _, scores, summary = score_corpus(loaded.corpus, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scores.csv").write_text(scores_csv(scores, formatted_scores(scores)), encoding="utf-8")
    _print_summary(summary)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _resolve_config(args.config)
    loaded = _load_inputs(args.corpus, args.hashtag)
    if not loaded.corpus.records:
        _fail("corpus is empty after loading/filtering; nothing to analyze")
        return EXIT_DATA

    result = analyze_corpus(loaded.corpus, config)
    write_bundle(result, config, args.out, loaded, args.config, list(args.corpus))

    _print_summary(result.summary)
    print(f"herd index: {result.herd.herd_index:.6f} (flag: {result.herd.herd_flag})")
    if result.prediction is not None:
        winner = result.prediction.winner if result.prediction.winner else "undecided"
        print(f"predicted winner: {winner}")
        return EXIT_OK
    print(f"prediction: {NO_CAMP_SIGNAL}")
    return EXIT_DATA


def _read_series_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and rows of finite numbers; raises ValueError as ``path:line: reason``.

    Rows are converted and checked in bulk, which keeps the check off the
    per-row path of a large series; only a failing file is scanned row by row
    to name its first bad line.
    """
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header:
                raise ValueError(f"{path}:1: no header")
            try:
                rows = [[float(cell) for cell in row] for row in reader]
            except UnicodeDecodeError:
                raise
            except ValueError as err:
                raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not valid UTF-8") from None
    width = len(header)
    if set(map(len, rows)) - {width} or not all(map(math.isfinite, chain.from_iterable(rows))):
        number, row = next(
            (n, row) for n, row in enumerate(rows, 2) if len(row) != width or not all(map(math.isfinite, row))
        )
        raise ValueError(f"{path}:{number}: expected {width} finite numbers, got {row}")
    return header, rows


def cmd_plot(args) -> int:
    bundle = Path(args.bundle_dir)
    if not bundle.is_dir():
        _fail(f"no such bundle directory: {bundle}")
        return EXIT_IO
    out = Path(args.out) if args.out else bundle
    out.mkdir(parents=True, exist_ok=True)

    status = EXIT_OK
    for name, (title, x_label, y_label) in PLOT_SERIES.items():
        source = bundle / name
        if not source.exists():
            _fail(f"missing CSV: {source}")
            status = EXIT_DATA
            continue
        try:
            header, rows = _read_series_csv(source)
        except ValueError as err:
            _fail(str(err))
            status = EXIT_DATA
            continue
        series = []
        for column in range(1, len(header)):
            points = [(row[0], row[column]) for row in rows]
            series.append((header[column], points))
        svg = render_scatter(series, title, x_label, y_label)
        target = out / (name[: -len(".csv")] + ".svg")
        target.write_text(svg, encoding="utf-8")
        print(f"wrote {target}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdpulse",
        description="Sentiment, clustering and herd-behavior reports from tweet corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check corpus files line by line")
    validate.add_argument("--corpus", action="append", required=True, help="corpus file (repeatable)")
    validate.set_defaults(func=cmd_validate)

    shared = argparse.ArgumentParser(add_help=False)  # options of score and analyze
    shared.add_argument("--corpus", action="append", required=True, help="corpus file (repeatable)")
    shared.add_argument("--config", default=None, help="config JSON file (default: packaged data, no camps)")
    shared.add_argument("--out", required=True, help="output directory")
    shared.add_argument("--hashtag", default=None, help="keep only tweets with this hashtag")

    score = sub.add_parser("score", parents=[shared], help="write per-tweet scores and print the summary")
    score.set_defaults(func=cmd_score)

    analyze = sub.add_parser("analyze", parents=[shared], help="emit the full report bundle")
    analyze.set_defaults(func=cmd_analyze)

    plot = sub.add_parser("plot", help="render SVGs from a report bundle")
    plot.add_argument("bundle_dir", help="directory produced by analyze")
    plot.add_argument("--out", default=None, help="output directory (default: bundle dir)")
    plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a config or I/O failure exits 2, an unusable corpus file 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:
        _fail(str(err))
        return EXIT_IO
    except CorpusFormatError as err:
        _fail(str(err))
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
