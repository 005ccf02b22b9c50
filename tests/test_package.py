"""The package surface: its exports, the demos, the README example and its imports."""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, strategies as st

import herdpulse
from herdpulse import svgplot

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DEMOS = sorted((REPO / "demos").glob("*.py"))
EXPORTS = {
    "load_corpora",
    "load_config",
    "analyze_corpus",
    "build_graph",
    "clustering_stats",
    "preprocess",
    "score_tokens",
    "summarize",
}
# modules that compute on values they are given; config, corpus, pipeline, plot and cli do the file I/O
PURE_MODULES = ["preprocess.py", "sentiment.py", "herd.py", "svgplot.py"]
# none is needed to run herdpulse: xml.sax.saxutils pulls in the first four
# through urllib, and one dataclass record pulls in the last two
UNUSED_AT_STARTUP = ("urllib.request", "http.client", "email", "ssl", "dataclasses", "inspect")
# none is needed to render a bundle's CSVs
UNUSED_BY_PLOT = (
    "herdpulse.config", "herdpulse.corpus", "herdpulse.sentiment", "herdpulse.graph", "herdpulse.herd",
    "herdpulse.pipeline", "hashlib", "json", "datetime",
)
# none is needed to check, score or analyze a corpus, or by the benchmark's setup code
UNUSED_BY_ANALYSIS = ("herdpulse.svgplot", "herdpulse.plot", "csv")
# prints the exit code of main(argv[2:]) and which modules of the comma-separated argv[1] it left unloaded
RUN_AND_LIST = """
import sys, herdpulse.cli
code = herdpulse.cli.main(sys.argv[2:])
print(code, sorted(m for m in sys.argv[1].split(",") if m not in sys.modules))
"""


def _python(*args: str, env_overrides: dict[str, str] | None = None, **kwargs) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, **(env_overrides or {})},
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


def _readme_library_code() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _readme_library_imports() -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(_readme_library_code()))
        if isinstance(node, ast.ImportFrom) and node.module == "herdpulse"
        for alias in node.names
    ]


def test_package_exports_only_the_documented_names():
    # the exports are loaded on first use, so they are listed by dir() and read with getattr, not found in vars()
    public = {
        name
        for name in dir(herdpulse)
        if not name.startswith("_") and not isinstance(getattr(herdpulse, name), types.ModuleType)
    }
    assert public == EXPORTS == set(herdpulse.__all__)
    assert herdpulse.__version__


def test_readme_library_imports_resolve_from_the_package():
    names = _readme_library_imports()
    assert names  # the block still imports from herdpulse
    assert set(names) <= EXPORTS
    for name in names:
        assert callable(getattr(herdpulse, name)), name


def test_readme_library_example_runs():
    proc = _python("-c", _readme_library_code(), cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].endswith(" X")  # the demo's predicted winner


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    proc = _python(str(demo), cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("module", PURE_MODULES)
def test_pure_layers_do_no_file_io(module):
    tree = ast.parse((SRC / "herdpulse" / module).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert "pathlib" not in imported
    assert called.isdisjoint({"open", "read_text", "write_text"})


def test_every_public_definition_has_a_reader():
    # a public module-level function or class must be named outside its own
    # definition: in the package, a demo or the README
    modules = sorted((SRC / "herdpulse").glob("*.py"))
    texts = {path: path.read_text(encoding="utf-8") for path in modules}
    shared = "\n".join(path.read_text(encoding="utf-8") for path in [*DEMOS, REPO / "README.md"])
    unread = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            others = [own, shared, *(t for p, t in texts.items() if p != path)]
            if not any(re.search(rf"\b{node.name}\b", other) for other in others):
                unread.append(f"{path.name}:{node.lineno}: {node.name}")
    assert unread == []


def test_every_record_field_has_a_reader():
    # a field of a NamedTuple record is stored only if the package reads it by name outside the
    # record's class body, or writes the record whole through pipeline._plain (a bundle JSON object)
    written_whole = {"HerdReport", "BandStat", "PredictionReport", "CampResult", "CorpusSummary"}
    # only bench/tracer.py reads it, to count lexicon hits in a traced run; bench/ is the benchmark's
    # own code, which a change to the package may not edit
    exempt = {"SentimentScore.matched_terms"}
    fields, read = {}, set()
    for path in sorted((SRC / "herdpulse").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        records = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(ast.unparse(base) == "NamedTuple" for base in node.bases)
        ]
        inside = {id(node) for record in records for node in ast.walk(record)}
        for record in records:
            fields[record.name] = [node.target.id for node in record.body if isinstance(node, ast.AnnAssign)]
        read |= {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
        }
    assert "TweetRecord" in fields and written_whole < set(fields)
    unread = [
        f"{name}.{field}"
        for name, own in fields.items() if name not in written_whole
        for field in own if field not in read
    ]
    assert sorted(unread) == sorted(exempt)


def test_sources_parse_as_python_3_10():
    # feature_version is best effort, so this is a floor for the oldest supported version, not a proof
    for path in sorted([*(SRC / "herdpulse").glob("*.py"), *(REPO / "tests").glob("*.py")]):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_demo_bundle_does_not_depend_on_the_hash_seed(tmp_path):
    bundles = []
    for seed in ("0", "12345"):
        out = tmp_path / f"bundle-{seed}"
        proc = _python(
            "-m", "herdpulse.cli", "analyze", "--corpus", "demos/data/demo_tweets.jsonl",
            "--config", "demos/data/demo_config.json", "--out", str(out),
            cwd=REPO, env_overrides={"PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        bundles.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(bundles[0]) == 10
    assert bundles[0] == bundles[1]


def test_cli_import_leaves_network_modules_unloaded():
    proc = _python(
        "-c",
        "import sys, herdpulse.cli; "
        f"print(sorted(m for m in {UNUSED_AT_STARTUP!r} if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_plot_loads_only_the_cli_and_the_renderer(tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(REPO / "tests" / "goldens" / "demo_bundle", bundle)
    proc = _python("-c", RUN_AND_LIST, ",".join(UNUSED_BY_PLOT), "plot", str(bundle), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {sorted(UNUSED_BY_PLOT)}"
    for svg in sorted(tmp_path.glob("*.svg")):
        assert svg.read_bytes() == (bundle / svg.name).read_bytes(), svg.name


def test_validate_loads_the_loader_only():
    modules = ["herdpulse.corpus", "herdpulse.config", "herdpulse.pipeline", "hashlib"]
    corpus = "demos/data/demo_tweets.jsonl"
    proc = _python("-c", RUN_AND_LIST, ",".join(modules), "validate", "--corpus", corpus, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 ['hashlib', 'herdpulse.config', 'herdpulse.pipeline']"


@pytest.mark.parametrize("command", ["validate", "score", "analyze"])
def test_analysis_commands_leave_the_plotting_code_unloaded(tmp_path, command):
    args = ["--corpus", "demos/data/demo_tweets.jsonl"]
    if command != "validate":
        args += ["--config", "demos/data/demo_config.json", "--out", str(tmp_path)]
    proc = _python("-c", RUN_AND_LIST, ",".join(UNUSED_BY_ANALYSIS), command, *args, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {sorted(UNUSED_BY_ANALYSIS)}"


def test_bench_setup_code_runs():
    # bench/run.py times this code in fresh interpreters; it reaches herdpulse.config through the package
    tree = ast.parse((REPO / "bench" / "run.py").read_text(encoding="utf-8"))
    (code,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]
    ]
    code += f"print(sorted(m for m in {UNUSED_BY_ANALYSIS!r} if m not in sys.modules))\n"
    proc = _python("-c", code, "demos/data/demo_config.json", cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    timing, unloaded = proc.stdout.splitlines()
    assert Path(timing.split()[-1]) == SRC / "herdpulse" / "cli.py"
    assert unloaded == str(sorted(UNUSED_BY_ANALYSIS))


@pytest.mark.parametrize("preload", ["", "herdpulse.plot"])
def test_bench_tracer_counts_the_rendered_points(tmp_path, preload):
    # bench/tracer.py wraps render_scatter on the modules it lists, so plot looks it up on svgplot at each
    # call: a copy bound by name when herdpulse.plot loaded before the wrappers would go untraced
    tracer = str(REPO / "bench" / "tracer.py")
    run = ["-c", f"import runpy, {preload}\nrunpy.run_path({tracer!r}, run_name='__main__')"] if preload else [tracer]
    bundle, report = tmp_path / "bundle", tmp_path / "trace.json"
    proc = _python(
        *run, str(report), str(bundle), "--",
        "--corpus", "demos/data/demo_tweets.jsonl", "--config", "demos/data/demo_config.json",
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(report.read_text(encoding="utf-8"))
    assert (trace["analyze_exit"], trace["plot_exit"]) == (0, 0)
    golden = sorted((REPO / "tests" / "goldens" / "demo_bundle").glob("*.svg"))
    assert len(golden) == 5
    assert trace["counts"]["svgplot.points"] == sum(svg.read_text(encoding="utf-8").count("<circle") for svg in golden)
    assert trace["counts"]["svgplot.svg_bytes"] == sum(svg.stat().st_size for svg in golden)
    assert trace["functions"]["svgplot.render_scatter"]["calls"] == 5
    for svg in golden:
        assert (bundle / svg.name).read_bytes() == svg.read_bytes(), svg.name


@pytest.mark.parametrize("before", ["", "import herdpulse.config", "import herdpulse.preprocess", "import herdpulse"])
def test_preprocess_export_is_the_function(before):
    # loading a submodule binds the package attribute of its name to it; the export must not turn into the module
    proc = _python(
        "-c",
        f"{before}\nfrom herdpulse import preprocess\nimport herdpulse\n"
        "print(preprocess.__module__, preprocess.__qualname__, herdpulse.preprocess is preprocess)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "herdpulse.preprocess preprocess True"


def test_package_loads_its_modules_on_first_use():
    proc = _python(
        "-c",
        "import sys, herdpulse\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('herdpulse'))\n"
        "print(loaded(), hasattr(herdpulse, 'nope'), hasattr(herdpulse, 'nope.deeper'))\n"
        "print(herdpulse.build_graph.__module__, herdpulse.sentiment.__name__, loaded())",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['herdpulse', 'herdpulse.preprocess'] False False",
        "herdpulse.graph herdpulse.sentiment "
        "['herdpulse', 'herdpulse.corpus', 'herdpulse.graph', 'herdpulse.inputs', 'herdpulse.preprocess', "
        "'herdpulse.sentiment']",
    ]


@given(st.text(alphabet=st.sampled_from("&<>\"' a;#xé"), max_size=30) | st.text(max_size=30))
def test_svg_escape_matches_saxutils(text):
    assert svgplot._escape(text) == escape(text)
