"""Traced in-process run of ``herdpulse analyze`` and ``herdpulse plot``.

The timing wrappers live here, outside the program. Every public function a
herdpulse module defines, plus ``StemmerRules.stem``, is replaced at every
module that holds it by name (``herdpulse.graph.local_clustering`` and
``herdpulse.herd.local_clustering`` alike), so the trace times the calls the
program really makes and follows later changes to its call structure.
``Tracer.restore`` puts every original back.

Per call the tracer keeps a span (name, start, end, parent) for the first
``SPAN_LIMIT`` calls of each (name, parent) pair and aggregates all calls by
that pair into count, total time and self time (total minus the time spent in
traced callees). Everything stays in memory until the run ends.

Run as a script: ``python bench/tracer.py OUT_JSON BUNDLE_DIR -- ANALYZE_ARGS``
from the workload directory, with the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MODULES = ("config", "corpus", "preprocess", "sentiment", "graph", "herd", "pipeline", "svgplot", "cli")
SPAN_LIMIT = 64


class _Counts:
    """Work counts read off traced arguments and results."""

    def __init__(self):
        self.load_results = []
        self.analyzed_records = 0
        self.tokens: set[str] = set()
        self.lexicon_hits = 0
        self.no_hit_docs = 0
        self.scored_docs = 0
        self.graphs = []
        self.assigned = 0
        self.ties = 0
        self.points = 0
        self.svg_bytes = 0

    def observers(self) -> dict:
        return {
            "corpus.load_corpus": self._load,
            "pipeline.analyze_corpus": self._analyze,
            "preprocess.stem": self._stem,
            "sentiment.score_tokens": self._score,
            "graph.build_graph": self._graph,
            "herd.assign_corpus": self._assign,
            "svgplot.render_scatter": self._svg,
        }

    def _load(self, args, result):
        self.load_results.append((len(result.invalid), len(result.corpus.records)))

    def _analyze(self, args, result):
        self.analyzed_records += len(args[0].records)

    def _stem(self, args, result):
        self.tokens.add(args[1])

    def _score(self, args, result):
        self.scored_docs += 1
        self.lexicon_hits += result.matched_terms
        self.no_hit_docs += result.matched_terms == 0

    def _graph(self, args, result):
        self.graphs.append(result)

    def _assign(self, args, result):
        self.assigned += len(result.by_tweet)
        self.ties += result.tie_count

    def _svg(self, args, result):
        self.points += sum(len(points) for _, points in args[0])
        self.svg_bytes += len(result.encode("utf-8"))

    def as_dict(self) -> dict:
        invalid = sum(i for i, _ in self.load_results)
        lines = invalid + sum(r for _, r in self.load_results)
        degrees = [g.degree(n) for g in self.graphs for n in g.nodes()]
        return {
            "corpus.lines": lines,
            "corpus.invalid_lines": invalid,
            "corpus.records": self.analyzed_records,
            "corpus.valid_ratio": 1.0 - invalid / lines if lines else 0.0,
            "preprocess.distinct_tokens": len(self.tokens),
            "sentiment.lexicon_hits": self.lexicon_hits,
            "sentiment.no_hit_share": self.no_hit_docs / self.scored_docs if self.scored_docs else 0.0,
            "graph.nodes": sum(len(g) for g in self.graphs),
            "graph.edges": sum(g.edge_count() for g in self.graphs),
            "graph.wedges": sum(k * (k - 1) // 2 for k in degrees),
            "graph.max_degree": max(degrees, default=0),
            "herd.assigned": self.assigned,
            "herd.ties": self.ties,
            "svgplot.points": self.points,
            "svgplot.svg_bytes": self.svg_bytes,
        }


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open calls: [child_time, name, span_id]
        self.spans: list[tuple] = []  # (span_id, name, parent_id, start, end)
        self.aggregates: dict[tuple, list] = {}  # (name, parent name) -> [calls, total, self]
        self.counts = _Counts()
        self._next_id = 0
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, observe):
        stack = self.stack
        spans = self.spans
        aggregates = self.aggregates
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, name, self._next_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                key = (name, parent[1] if parent else None)
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0.0, 0.0]
                if agg[0] < SPAN_LIMIT:
                    spans.append((frame[2], name, parent[2] if parent else None, start - START, end - START))
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each public herdpulse function wherever a module holds it by name."""
        package = importlib.import_module("herdpulse")
        modules = {m: importlib.import_module(f"herdpulse.{m}") for m in MODULES}
        observers = self.counts.observers()
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrappers[value] = self._wrap(name, value, observers.get(name))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        rules = modules["preprocess"].StemmerRules
        self._saved.append((rules, "stem", rules.stem))
        rules.stem = self._wrap("preprocess.stem", rules.stem, observers["preprocess.stem"])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def functions(self) -> dict:
        """name -> calls, total and self time, summed over every parent."""
        out: dict[str, dict] = {}
        for (name, _), (calls, total, own) in self.aggregates.items():
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += own
        return dict(sorted(out.items()))

    def report(self) -> dict:
        functions = self.functions()
        modules = {m: 0.0 for m in MODULES}
        for name, entry in functions.items():
            modules[name.split(".", 1)[0]] += entry["self_s"]
        return {
            "functions": functions,
            "module_self_s": modules,
            "counts": self.counts.as_dict(),
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "spans": [
                {"id": i, "name": n, "parent": p, "start_s": s, "end_s": e} for i, n, p, s, e in self.spans
            ],
        }


def traced_run(analyze_args: list[str], bundle_dir: str) -> dict:
    """One traced ``analyze`` then ``plot`` through ``herdpulse.cli.main``."""
    tracer = Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("herdpulse.cli")
        analyze_rc = cli.main(["analyze", *analyze_args, "--out", bundle_dir])
        analyze_end = time.perf_counter()
        bundle_bytes = sum(p.stat().st_size for p in Path(bundle_dir).iterdir())
        plot_start = time.perf_counter()
        plot_rc = cli.main(["plot", bundle_dir])
        plot_end = time.perf_counter()
    finally:
        tracer.restore()
    report = tracer.report()
    report.update(
        analyze_exit=analyze_rc,
        plot_exit=plot_rc,
        analyze_wall_s=analyze_end - START,
        plot_wall_s=plot_end - plot_start,
    )
    report["counts"]["pipeline.bundle_bytes"] = bundle_bytes
    return report


def main(argv: list[str]) -> int:
    out_json, bundle_dir, sep, *analyze_args = argv
    if sep != "--":
        print("usage: tracer.py OUT_JSON BUNDLE_DIR -- ANALYZE_ARGS", file=sys.stderr)
        return 2
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        report = traced_run(analyze_args, bundle_dir)
    Path(out_json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
