"""The same bytes on every supported interpreter.

Runs ``analyze``, ``plot`` and ``validate`` by subprocess (``PYTHONPATH=src``)
under each of python3.10-3.13 found on ``PATH`` or under ``~/.pyenv/versions``,
and compares every bundle and SVG byte, exit code and output with the running
interpreter. Only the running interpreter needs pytest. Case folding is left
out: hashtags whose lowercase differs between Unicode versions still load
differently.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "demos" / "data"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def _interpreter(version: str) -> str | None:
    """A python{version} that runs and reports that version, or None."""
    name = f"python{version}"
    candidates = [shutil.which(name)]
    candidates += sorted(map(str, (Path.home() / ".pyenv" / "versions").glob(f"{version}.*/bin/{name}")))
    for candidate in filter(None, candidates):
        try:
            proc = subprocess.run(
                [candidate, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == version:
            return candidate
    return None


def _small_corpus(path: Path) -> None:
    """ASCII tags, a BOM, U+2028 in a text, trailing commas, a repeated id and a hub."""
    def line(i, author, text, hashtags=(), mentions=(), retweet_of=None):
        obj = {
            "tweet_id": f"t{i}", "author_id": author, "text": text,
            "timestamp": f"2021-03-0{1 + i % 9}T1{i % 10}:00:00Z", "hashtags": list(hashtags),
            "mentions": list(mentions), "retweet_of": retweet_of, "follower_count": 10 * i,
        }
        return json.dumps(obj, ensure_ascii=False)

    lines = [
        line(0, "hub", "Great rally for PartyX today, I love it!", ["#PartyX", "Rally"], ["u1", "u2"]),
        line(1, "u1", "good news:\u2028I think partyx wins", ["partyx"], ["hub", "u2"]),
        line(2, "u2", "terrible, awful ybloc campaign", ["VoteY"], ["hub", "u1"]),
        '{"tweet_id": "t9", "author_id": "u9",}',
        line(3, "u3", "report: turnout data for votey", ["votey", "rally"], ["hub"], retweet_of="u2"),
        line(4, "u4", "not bad at all #partyy", ["PartyY"], ["hub", "u3", "u4"]),
        "[1,]",
        line(2, "u2", "a repeated id is a line error", ["rally"], ["hub"]),
        line(5, "u5", "xforward and onward", ["XForward", "rally"], ["hub", "u1"], retweet_of="hub"),
        line(6, "u6", "", [], ["hub"]),
    ]
    path.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode("utf-8") + b"\n")


def _run_all(python: str, small: Path, work: Path) -> dict:
    """Exit codes, stdout, stderr and output bytes of every command under ``python``, run in ``work``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    work.mkdir()
    runs = {
        "demo": ["--corpus", str(DEMO / "demo_tweets.jsonl"), "--config", str(DEMO / "demo_config.json")],
        "small": ["--corpus", str(small), "--config", str(DEMO / "demo_config.json")],
    }
    seen = {}

    def run(key, *args):
        proc = subprocess.run(
            [python, "-m", "herdpulse.cli", *args], capture_output=True, cwd=work, env=env, timeout=120
        )
        seen[key] = (proc.returncode, proc.stdout, proc.stderr)

    for label, args in runs.items():
        run(f"{label} validate", "validate", args[0], args[1])
        run(f"{label} analyze", "analyze", *args, "--out", label)
        run(f"{label} plot", "plot", label)
        for path in sorted((work / label).iterdir()):
            seen[f"{label}/{path.name}"] = path.read_bytes()
    return seen


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    path = tmp_path_factory.mktemp("interpreters") / "small.jsonl"
    _small_corpus(path)
    return path


@pytest.fixture(scope="module")
def reference(small):
    return _run_all(sys.executable, small, small.parent / "running")


@pytest.mark.parametrize("version", VERSIONS)
def test_every_interpreter_writes_the_same_bytes(version, small, reference):
    running = "%d.%d" % sys.version_info[:2]
    if version == running:
        pytest.skip(f"python{version} is the running interpreter")
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} on PATH or under ~/.pyenv/versions")
    seen = _run_all(python, small, small.parent / version)
    assert list(seen) == list(reference)
    differ = [key for key in reference if seen[key] != reference[key]]
    assert not differ, f"{python} differs from python{running} in {differ}"


def test_reference_runs_cover_every_output(reference):
    assert reference["demo analyze"][0] == 0
    assert reference["small analyze"][0] == 0
    assert reference["small validate"][0] == 1
    stdout = reference["small validate"][1].decode("utf-8")
    assert ":4: invalid JSON: Expecting property name enclosed in double quotes" in stdout
    assert ":7: invalid JSON: Expecting value" in stdout
    assert ":8: duplicate tweet_id: 't2'" in stdout
    for label in ("demo", "small"):
        names = {key.split("/", 1)[1] for key in reference if key.startswith(f"{label}/")}
        assert len(names) == 15 and sum(name.endswith(".svg") for name in names) == 5
