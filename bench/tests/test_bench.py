"""The benchmark's own checks, on small seeds and small scales.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import tracer

SCALE = 0.02
REPO = Path(__file__).resolve().parents[2]


def _generate(workload: str, seed: int, out: Path) -> dict:
    return gen.generate(workload, seed, out, scale=SCALE)


def _analyze_args(truth: dict) -> list[str]:
    args = [arg for name in truth["corpus_files"] for arg in ("--corpus", name)]
    return args + ["--config", truth["config"], "--hashtag", truth["hashtag"]]


def _analyze_and_plot(truth: dict, bundle: str) -> str:
    cli = importlib.import_module("herdpulse.cli")
    assert cli.main(["analyze", *_analyze_args(truth), "--out", bundle]) == 0
    assert cli.main(["plot", bundle]) == 0
    return run.bundle_digest(Path(bundle))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_and_clean(workload, tmp_path):
    first = _generate(workload, 7, tmp_path / "a")
    again = _generate(workload, 7, tmp_path / "b")
    other = _generate(workload, 8, tmp_path / "c")
    assert first["input_sha256"] == again["input_sha256"]
    assert first["input_sha256"] != other["input_sha256"]
    for name in first["corpus_files"]:
        data = (tmp_path / "a" / name).read_bytes()
        assert data == (tmp_path / "b" / name).read_bytes()
        assert data.isascii()  # so no BOM and no raw U+2028/U+2029/U+0085


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_truth_counts_match_manifest(workload, tmp_path, monkeypatch, capsys):
    truth = _generate(workload, 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    _analyze_and_plot(truth, "bundle")
    counts = json.loads((tmp_path / "bundle" / "manifest.json").read_text())["stage_counts"]
    for key, truth_key in run.TRUTH_KEYS.items():
        assert counts[key] == truth["counts"][truth_key], key


def _herdpulse_functions() -> dict:
    modules = [importlib.import_module("herdpulse")]
    modules += [importlib.import_module(f"herdpulse.{m}") for m in tracer.MODULES]
    snapshot = {
        (module.__name__, attr): value
        for module in modules
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }
    rules = importlib.import_module("herdpulse.preprocess").StemmerRules
    snapshot[("StemmerRules", "stem")] = rules.stem
    return snapshot


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_wrappers_leave_bundle_bytes_unchanged(workload, tmp_path, monkeypatch, capsys):
    truth = _generate(workload, 5, tmp_path)
    monkeypatch.chdir(tmp_path)
    before = _herdpulse_functions()
    untraced = _analyze_and_plot(truth, "plain")

    report = tracer.traced_run(_analyze_args(truth), "traced")
    assert (report["analyze_exit"], report["plot_exit"]) == (0, 0)
    assert run.bundle_digest(Path("traced")) == untraced
    assert _herdpulse_functions() == before
    assert _analyze_and_plot(truth, "after") == untraced

    functions = report["functions"]
    assert functions["cli.main"]["calls"] == 2
    assert functions["preprocess.stem"]["calls"] > 0
    for entry in functions.values():
        assert entry["self_s"] <= entry["total_s"] + 1e-9


def test_install_wraps_every_import_site(tmp_path):
    before = _herdpulse_functions()
    trace = tracer.Tracer()
    trace.install()
    try:
        during = _herdpulse_functions()
        defined = {
            value for (module, attr), value in before.items()
            if module.startswith("herdpulse.") and value.__module__ == module and not attr.startswith("_")
        }
        for key, value in before.items():
            if value in defined or key == ("StemmerRules", "stem"):
                assert during[key] is not value, key
                assert during[key].__wrapped__ is value, key
    finally:
        trace.restore()
    assert _herdpulse_functions() == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report = {
        "functions": {},
        "module_self_s": {m: 0.0 for m in tracer.MODULES},
        "counts": dict.fromkeys(run.PER_LAYER_COUNTS, 0),
        "analyze_wall_s": 1.0,
    }
    emitted = {name: unit for name, (_, unit) in run.per_layer_metrics(report, 1.0).items()}
    assert emitted == declared
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(gen.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "text_zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
