"""Command-line front end: validate, score, analyze, plot.

Exit codes: 0 success, 1 data/validation failure, 2 I/O or config failure.
A command imports the analysis modules it runs in its own body.
"""

import argparse
import csv
import gc
import io
import math
import re
import sys
from itertools import chain
from pathlib import Path

from .inputs import ConfigError, CorpusFormatError, _read_text
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
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")  # XML 1.0 cannot hold these; UTF-8 gives no surrogate


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _load_inputs(args):
    """The run config and the loaded corpus files; a bad tag fails as a config error before any corpus is read."""
    from .config import load_config
    from .corpus import load_corpora
    config = load_config(args.config)
    try:
        return config, load_corpora(args.corpus, args.hashtag)
    except CorpusFormatError:
        raise
    except ValueError as err:  # the tag check; bad lines come back as LineError entries
        raise ConfigError(f"--hashtag {args.hashtag!r}: {err}") from None


def _print_summary(summary) -> None:
    print(f"total: {summary.total}")
    print(f"negative: {summary.negative_pct}%")
    print(f"positive: {summary.positive_pct}%")
    print(f"neutral: {summary.neutral_pct}%")


def cmd_validate(args) -> int:
    from .corpus import load_corpora
    status = EXIT_OK
    for path in args.corpus:
        try:
            result = load_corpora([path])
        except CorpusFormatError as err:
            _fail(str(err))
            status = max(status, EXIT_DATA)
            continue
        for entry in result.invalid:
            print(f"{path}:{entry.line_no}: {entry.reason}")
        if result.unknown_key_count:
            print(f"{path}: {result.unknown_key_count} unknown key(s) ignored")
        print(f"{path}: {len(result.records)} valid, {len(result.invalid)} invalid")
        if result.invalid:
            status = max(status, EXIT_DATA)
    return status


def cmd_score(args) -> int:
    from .pipeline import formatted_scores, score_corpus, scores_csv
    config, loaded = _load_inputs(args)
    _, scores, summary = score_corpus(loaded.records, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "scores.csv").write_text(scores_csv(scores, *formatted_scores(scores)), encoding="utf-8")
    _print_summary(summary)
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .config import check_utf8
    from .pipeline import NO_CAMP_SIGNAL, analyze_corpus, fixed, write_bundle
    # the manifest records the input paths as UTF-8 text
    check_utf8("--corpus", args.corpus)
    check_utf8("--config", [args.config or ""])
    config, loaded = _load_inputs(args)
    if not loaded.records:
        _fail("corpus is empty after loading/filtering; nothing to analyze")
        return EXIT_DATA

    result = analyze_corpus(loaded, config)
    write_bundle(result, args.out, args.config, list(args.corpus))

    _print_summary(result.summary)
    print(f"herd index: {fixed(result.herd.herd_index)} (flag: {result.herd.herd_flag})")
    if result.prediction is not None:
        winner = result.prediction.winner if result.prediction.winner else "undecided"
        print(f"predicted winner: {winner}")
        return EXIT_OK
    print(f"prediction: {NO_CAMP_SIGNAL}")
    return EXIT_DATA


def _read_series_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and columns of finite numbers; raises ValueError as ``path:line: reason``.

    The file is read as every other input is: UTF-8, a leading BOM ignored; a
    NUL fails first, on 3.11+ as 3.10's csv fails it. Rows are transposed and
    each column converted and checked in bulk. A file that fails is read again
    row by row to name a line: the first where a header cell holds what XML
    1.0 cannot (the SVG shows it) or a cell cannot be read or converted, else
    the first row of the wrong width or with a number that is not finite.
    """
    text = _read_text(path)
    if "\0" in text:
        line = len(io.StringIO(text[: text.index("\0") + 1], newline="").readlines())
        raise ValueError(f"{path}:{line}: line contains NUL")
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if rows and rows[0] and set(map(len, rows)) == {len(rows[0])} and not _NOT_XML.search("".join(rows[0])):
            # each column starts with its header cell
            columns = [list(map(float, column[1:])) for column in zip(*rows)]
            if all(map(math.isfinite, chain.from_iterable(columns))):
                return rows[0], columns
    except (ValueError, csv.Error):  # csv.Error: a cell past csv's field size limit
        pass
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if bad := _NOT_XML.search("".join(header or "")):
            raise ValueError(f"header holds {bad.group()!r}, which XML 1.0 cannot")
        rows = [[float(cell) for cell in row] for row in reader] if header else []
    except (ValueError, csv.Error) as err:
        raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    if not header:
        raise ValueError(f"{path}:1: no header")
    number, row = next(
        (n, row) for n, row in enumerate(rows, 2) if len(row) != len(header) or not all(map(math.isfinite, row))
    )
    raise ValueError(f"{path}:{number}: expected {len(header)} finite numbers, got {row}")


def cmd_plot(args) -> int:
    bundle = Path(args.bundle_dir)
    if not bundle.is_dir():
        _fail(f"no such bundle directory: {bundle}")
        return EXIT_IO
    out = Path(args.out) if args.out else bundle

    status = EXIT_OK
    placed = {}  # the series CSVs share their index column, ck_curve and degree_distribution their degrees
    for name, (title, x_label, y_label) in PLOT_SERIES.items():
        source = bundle / name
        if not source.exists():
            _fail(f"missing CSV: {source}")
            status = EXIT_DATA
            continue
        try:
            header, columns = _read_series_csv(source)
        except ValueError as err:
            _fail(str(err))
            status = EXIT_DATA
            continue
        svg = render_scatter(list(zip(header[1:], columns[1:])), columns[0], title, x_label, y_label, placed)
        out.mkdir(parents=True, exist_ok=True)  # only once there is an SVG to write
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
    """Run one command; a config or I/O failure exits 2, an unusable corpus file 1.

    The command runs with the cyclic collector off, as a run makes no cycle per
    record; the caller's collector state comes back however the command ends.
    """
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:
        _fail(str(err))
        return EXIT_IO
    except CorpusFormatError as err:
        _fail(str(err))
        return EXIT_DATA
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
