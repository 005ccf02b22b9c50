"""The package surface: its exports, the demos, the README example and its imports."""

from __future__ import annotations

import ast
import os
import re
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
    "load_corpus",
    "load_config",
    "default_config",
    "analyze_corpus",
    "build_graph",
    "clustering_stats",
    "preprocess",
    "score_tokens",
    "summarize",
}
# modules that compute on values they are given; config, corpus, pipeline and cli do the file I/O
PURE_MODULES = ["preprocess.py", "sentiment.py", "herd.py", "svgplot.py"]
# none is needed to run herdpulse: xml.sax.saxutils pulls in the first four
# through urllib, and one dataclass record pulls in the last two
UNUSED_AT_STARTUP = ("urllib.request", "http.client", "email", "ssl", "dataclasses", "inspect")


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
    public = {
        name
        for name, value in vars(herdpulse).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS
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


@given(st.text(alphabet=st.sampled_from("&<>\"' a;#xé"), max_size=30) | st.text(max_size=30))
def test_svg_escape_matches_saxutils(text):
    assert svgplot._escape(text) == escape(text)
