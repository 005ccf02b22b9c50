"""herdpulse benchmark: closed-loop timing of ``herdpulse analyze`` and ``plot``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it always measures that checkout's own
``src`` (``python -m herdpulse.cli`` with ``PYTHONPATH=<checkout>/src``), never
an installed copy. One client, closed loop: the next child starts only after
the previous one has exited, and nothing else runs beside it.

A run generates the workload from the seed (``bench/gen.py``), does one
untimed warm-up ``analyze`` + ``plot`` (fills ``__pycache__`` and the page
cache), times ``setup_s`` in several fresh interpreters, then alternates timed
``analyze`` and ``plot`` children for ``--seconds`` seconds. Every operation is
checked: exit code 0, manifest ``stage_counts`` equal to the generator's
truth file, and the bundle digest equal to the first run's. With ``--trace 1``
it also makes one traced in-process run (``bench/tracer.py``), which must give
the same bundle digest, and reports per-layer metrics instead of end-to-end
ones.

The host's speed drifts, so every end-to-end time is reported at a reference
speed: each sample is scaled by ``CALIBRATION_REFERENCE_S`` over the mean of
the calibration probes (``calibrate``) taken just before and just after its
child, and the metric is the median of the scaled samples. Raw times and
probes are in the detail line.

The last stdout line is the result object; the line before it holds the
details (sample counts, quartiles, digests, failures), which are also written
to ``.bench_out/results/``, with the whole trace of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

SETUP_SAMPLES = 11
MIN_SAMPLES = 3
# CPU seconds of one calibration round, about the mean on the baseline machine
# (bench/README.md); the scale that turns probed speed into reported seconds
CALIBRATION_REFERENCE_S = 0.035
# the whole run must end well inside 180 s, whatever a child does
RUN_LIMIT_S = 170.0

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import herdpulse.cli
herdpulse.config.load_config(sys.argv[1])
print(time.perf_counter() - start, herdpulse.cli.__file__)
"""

# manifest stage_counts key -> generator truth key
TRUTH_KEYS = {
    "invalid_lines": "invalid_lines",
    "loaded_records": "loaded_records",
    "after_hashtag_filter": "after_hashtag_filter",
    "scored": "after_hashtag_filter",
    "profiled_authors": "profiled_authors",
    "graph_nodes": "graph_nodes",
    "graph_edges": "graph_edges",
}

SAMPLED = ("analyze_s", "analyze_cpu_s", "peak_rss_mb", "plot_cpu_s", "setup_s")
END_TO_END_UNITS = {
    "analyze_s": "s",
    "analyze_cpu_s": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MB",
    "plot_cpu_s": "s",
    "setup_s": "s",
}

PER_LAYER_TIMES = [
    "config.load_config", "corpus.load_corpus", "corpus.merge_corpora", "corpus.filter_by_hashtag",
    "preprocess.preprocess", "preprocess.normalize", "preprocess.stem",
    "sentiment.score_tokens", "sentiment.summarize",
    "graph.build_graph", "graph.clustering_stats", "graph.local_clustering",
    "herd.profile_authors", "herd.herd_report", "herd.assign_corpus", "herd.predict",
    "pipeline.analyze_corpus", "pipeline.bundle_files", "pipeline.write_bundle",
    "svgplot.render_scatter", "cli.main",
]
PER_LAYER_CALLS = ["preprocess.stem", "graph.clustering_stats", "graph.local_clustering"]
# counts the tracer reads off arguments and results, with their units
PER_LAYER_COUNTS = {
    "corpus.lines": "count", "corpus.invalid_lines": "count", "corpus.records": "count",
    "corpus.valid_ratio": "ratio",
    "preprocess.distinct_tokens": "count",
    "sentiment.lexicon_hits": "count", "sentiment.no_hit_share": "ratio",
    "graph.nodes": "count", "graph.edges": "count", "graph.wedges": "count", "graph.max_degree": "count",
    "herd.assigned": "count", "herd.ties": "count",
    "pipeline.bundle_bytes": "bytes",
    "svgplot.points": "count", "svgplot.svg_bytes": "bytes",
}


def _calibration_work() -> None:
    words = [f"w{i % 997}ing" for i in range(10_000)]
    counts: dict[str, int] = {}
    for word in words:
        token = word.lower()
        if token.endswith("ing"):
            token = token[:-3]
        counts[token] = counts.get(token, 0) + 1
    evens, thirds = set(range(0, 60_000, 2)), set(range(0, 60_000, 3))
    for _ in range(15):
        len(evens & thirds)
    " ".join(f"{value / 7:.6f}" for value in range(15_000)).split(" ")


def calibrate() -> float:
    """CPU seconds of one round of fixed pure-Python work.

    The host this was built on is shared: its speed switches between two
    states about 1.7x apart, for seconds to minutes at a time, for `analyze`
    and this loop alike. Probing a fixed, herdpulse-free workload shaped like
    the program's own (suffix checks, dict counting, set intersections, float
    formatting) just before and after every child estimates the speed it ran
    at, so the run can report times at one reference speed. A first, untimed
    round warms the caches a child has just evicted.
    """
    _calibration_work()
    start = time.process_time()
    _calibration_work()
    return time.process_time() - start


class Child:
    """One child process, reaped with os.wait4 so its own rusage is kept."""

    def __init__(self, argv, cwd, env, deadline, stdout=subprocess.DEVNULL):
        self.stderr_path = Path(cwd) / "child.stderr"
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=err)
            timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.output = proc.stdout.read().decode() if proc.stdout else ""
        if proc.stdout:
            proc.stdout.close()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0

    def error(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace").strip()[-500:]


def bundle_digest(bundle: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(bundle.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class Session:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = OUT_ROOT / f"{workload}-{seed}-{os.getpid()}"
        # a fixed mmap threshold turns off glibc's dynamic one, whose history made
        # the same program's peak RSS jump between 113 and 127 MB from seed to seed
        self.env = dict(os.environ, PYTHONPATH=str(SRC), MALLOC_MMAP_THRESHOLD_="131072")
        self.truth: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_digest: str | None = None
        # times scaled to the reference speed; raw ones kept for the detail line
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.raw: dict[str, list[float]] = {"analyze_s": [], "plot_s": [], "probes": []}

    def analyze_args(self) -> list[str]:
        args = [arg for name in self.truth["corpus_files"] for arg in ("--corpus", name)]
        return args + ["--config", self.truth["config"], "--hashtag", self.truth["hashtag"]]

    def check_manifest(self, bundle: Path, label: str) -> bool:
        try:
            counts = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))["stage_counts"]
        except (OSError, ValueError, KeyError) as err:
            self.failures.append(f"{label}: unreadable manifest ({err})")
            return False
        wrong = {
            key: (counts.get(key), self.truth["counts"][truth_key])
            for key, truth_key in TRUTH_KEYS.items()
            if counts.get(key) != self.truth["counts"][truth_key]
        }
        if wrong:
            self.failures.append(f"{label}: stage_counts (got, expected) {wrong}")
        return not wrong

    def check_digest(self, bundle: Path, label: str) -> bool:
        digest = bundle_digest(bundle)
        if self.reference_digest is None:
            self.reference_digest = digest
        if digest != self.reference_digest:
            self.failures.append(f"{label}: bundle digest {digest} differs from first run {self.reference_digest}")
            return False
        return True

    def operation(self, label: str, timed: bool) -> bool:
        """One analyze then one plot child on a fresh bundle directory."""
        bundle = self.work / "bundle"
        shutil.rmtree(bundle, ignore_errors=True)
        command = [sys.executable, "-m", "herdpulse.cli"]
        probes = [calibrate()] if timed else []
        self.attempted += 1
        analyze = Child(command + ["analyze", *self.analyze_args(), "--out", "bundle"], self.work, self.env, self.deadline)
        if analyze.exit_code != 0:
            self.failures.append(f"{label} analyze: exit {analyze.exit_code}: {analyze.error()}")
            return False
        if not self.check_manifest(bundle, f"{label} analyze"):
            return False
        if timed:
            probes.append(calibrate())
        self.attempted += 1
        plot = Child(command + ["plot", "bundle"], self.work, self.env, self.deadline)
        if plot.exit_code != 0:
            self.failures.append(f"{label} plot: exit {plot.exit_code}: {plot.error()}")
            return False
        if not self.check_digest(bundle, f"{label} plot"):
            return False
        if timed:
            probes.append(calibrate())
            analyze_speed = 2 * CALIBRATION_REFERENCE_S / (probes[0] + probes[1])
            plot_speed = 2 * CALIBRATION_REFERENCE_S / (probes[1] + probes[2])
            self.samples["analyze_s"].append(analyze.wall_s * analyze_speed)
            self.samples["analyze_cpu_s"].append(analyze.cpu_s * analyze_speed)
            self.samples["peak_rss_mb"].append(analyze.peak_rss_mb)
            self.samples["plot_cpu_s"].append(plot.cpu_s * plot_speed)
            self.raw["analyze_s"].append(analyze.wall_s)
            self.raw["plot_s"].append(plot.wall_s)
            self.raw["probes"].extend(probes)
        return True

    def measure_setup(self) -> None:
        """`import herdpulse.cli` + load_config, each in a fresh interpreter."""
        before = calibrate()
        for _ in range(SETUP_SAMPLES):
            child = Child(
                [sys.executable, "-c", SETUP_CODE, self.truth["config"]],
                self.work, self.env, self.deadline, stdout=subprocess.PIPE,
            )
            if child.exit_code != 0:
                self.failures.append(f"setup: exit {child.exit_code}: {child.error()}")
                return
            elapsed, module_file = child.output.split()
            if not Path(module_file).resolve().is_relative_to(SRC):
                self.failures.append(f"setup: imported {module_file}, not this checkout's src")
                return
            after = calibrate()
            self.samples["setup_s"].append(float(elapsed) * 2 * CALIBRATION_REFERENCE_S / (before + after))
            before = after

    def timed_loop(self) -> None:
        start = time.monotonic()
        last = 0.0
        while len(self.samples["analyze_s"]) < MIN_SAMPLES or time.monotonic() - start + last <= self.seconds:
            if time.monotonic() + last > self.deadline - 30:
                break
            began = time.monotonic()
            if not self.operation(f"run {len(self.samples['analyze_s']) + 1}", timed=True):
                break
            last = time.monotonic() - began

    def traced(self) -> dict:
        bundle = self.work / "bundle_traced"
        shutil.rmtree(bundle, ignore_errors=True)
        self.attempted += 2
        child = Child(
            [sys.executable, str(BENCH / "tracer.py"), "trace.json", bundle.name, "--", *self.analyze_args()],
            self.work, self.env, self.deadline,
        )
        if child.exit_code != 0:
            self.failures.append(f"traced run: exit {child.exit_code}: {child.error()}")
            return {}
        report = json.loads((self.work / "trace.json").read_text(encoding="utf-8"))
        if report["analyze_exit"] != 0 or report["plot_exit"] != 0:
            self.failures.append(f"traced run: exits {report['analyze_exit']}/{report['plot_exit']}")
            return {}
        self.check_manifest(bundle, "traced analyze")
        self.check_digest(bundle, "traced plot")
        return report


def per_layer_metrics(report: dict, analyze_median: float) -> dict:
    functions = report["functions"]

    def stat(name: str, key: str):
        return functions.get(name, {}).get(key, 0)

    metrics = {f"{name}.s": (stat(name, "self_s"), "s") for name in PER_LAYER_TIMES}
    metrics.update({f"{name}.calls": (stat(name, "calls"), "count") for name in PER_LAYER_CALLS})
    metrics.update({f"{module}.self_s": (value, "s") for module, value in report["module_self_s"].items()})
    counts = report["counts"]
    metrics.update({name: (counts[name], unit) for name, unit in PER_LAYER_COUNTS.items()})
    stem_calls = stat("preprocess.stem", "calls")
    reuse = 1.0 - counts["preprocess.distinct_tokens"] / stem_calls if stem_calls else 0.0
    metrics["preprocess.stem_reuse_ratio"] = (reuse, "ratio")
    metrics["trace.overhead_s"] = (report["analyze_wall_s"] - analyze_median, "s")
    return metrics


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def run(args) -> int:
    if not (SRC / "herdpulse" / "cli.py").is_file():
        print(f"error: no herdpulse sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    session = Session(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(session.work, ignore_errors=True)
    try:
        generate_start = time.perf_counter()
        session.truth = gen.generate(args.workload, args.seed, session.work)
        generate_s = time.perf_counter() - generate_start
        if session.operation("warm-up", timed=False):
            session.measure_setup()
            session.timed_loop()
        report = session.traced() if session.trace and not session.failures else {}
    finally:
        shutil.rmtree(session.work, ignore_errors=True)

    if any(not values for values in session.samples.values()):
        print("error: no complete sample; failures: " + "; ".join(session.failures), file=sys.stderr)
        return 1
    medians = {name: statistics.median(values) for name, values in session.samples.items()}
    end_to_end = dict(medians, lines_per_s=session.truth["counts"]["non_empty_lines"] / medians["analyze_s"])
    if session.trace:
        if not report:
            print("error: traced run failed; " + "; ".join(session.failures), file=sys.stderr)
            return 1
        metrics = per_layer_metrics(report, statistics.median(session.raw["analyze_s"]))
    else:
        metrics = {name: (end_to_end[name], unit) for name, unit in END_TO_END_UNITS.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "input_sha256": session.truth["input_sha256"],
        "bundle_sha256": session.reference_digest,
        "truth": session.truth["counts"],
        "generate_s": generate_s,
        "failed_share": len(session.failures) / session.attempted,
        "failures": session.failures,
        "samples": session.samples,
        "raw": session.raw,
        "sample_summary": {name: summary(values) for name, values in session.samples.items()},
        "end_to_end": end_to_end,
    }
    if report:
        detail["traced_run"] = {k: report[k] for k in ("functions", "module_self_s", "counts", "analyze_wall_s", "plot_wall_s")}
    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    if report:  # the whole trace, spans and per-parent aggregates included
        (results / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(report) + "\n", encoding="utf-8")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
