"""Command-line front end: validate, score, analyze, plot.

Exit codes: 0 success, 1 data/validation failure, 2 I/O or config failure.
A command imports the modules it runs in its own body; ``plot`` runs ``herdpulse.plot``.
"""

import argparse
import gc
from pathlib import Path

from .inputs import EXIT_DATA, EXIT_IO, EXIT_OK, ConfigError, CorpusFormatError, _fail


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


def cmd_plot(args) -> int:
    from .plot import plot_bundle
    return plot_bundle(args.bundle_dir, args.out)


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
