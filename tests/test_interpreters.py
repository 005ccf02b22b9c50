"""The same bytes on every supported interpreter.

Runs ``analyze``, ``plot`` and ``validate`` by subprocess (``PYTHONPATH=src``)
under each of python3.10-3.13 found on ``PATH`` or under ``~/.pyenv/versions``,
and compares every bundle and SVG byte, exit code and output with the running
interpreter. The inputs include the code points whose lowercase differs
between those interpreters' Unicode versions, as tags, as ``--hashtag`` and as
a camp keyword, and ``plot`` also runs on a hand-made bundle of edge values
and on one of CSVs with a NUL or with a header XML cannot hold. ``analyze``
and ``plot`` also run on a small seed of each benchmark workload, which
``bench/gen.py`` writes, from the workload's directory with relative paths as
the benchmark runs them. Each interpreter also runs the loader oracle against
the loader on the hostile corpus and lists the herdpulse modules that
``import herdpulse.cli`` loads. Only the running interpreter needs pytest.
"""

from __future__ import annotations

import importlib.util
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
BENCH_WORKLOADS = ("text_zipf", "graph_hubs", "ingest_merge")
# the 40 code points that str.lower() maps differently on 3.10 (Unicode 13.0) and 3.11-3.13 (14.0-15.1)
CASE_SHIFTED = "\u2c2f\ua7c0\ua7d0\ua7d6\ua7d8" + "".join(
    chr(c) for c in range(0x10570, 0x10596) if c not in (0x1057B, 0x1058B, 0x10593)
)
# prints the oracle's and the loader's invalid lines and kept-record counts for the corpus in argv[1]
ORACLE_CHECK = """
import json, sys
from pathlib import Path
from herdpulse import load_corpora
from tests.oracles import reference_load_lines
records, errors, _ = reference_load_lines(Path(sys.argv[1]).read_bytes().decode("utf-8").split("\\n"))
result = load_corpora([sys.argv[1]])
print(json.dumps([errors, len(records), [list(e) for e in result.invalid], len(result.records)]))
"""


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
    """A BOM, U+2028 in a text, trailing commas, a repeated id, a hub, tags whose lowercase moved,
    a CRLF line, a tab before a record, two values on one line, a text holding an LF and a CR
    (JSON escapes) and an "htt#p" that only a second cleaning pass removes, and stamps in an hour
    seen before: with a fraction, a 'z', a space separator, and hour 24 after hour 23; last, a tweet id
    holding a lone CR, which 3.10-3.12's csv.writer leaves unquoted and 3.13's quotes."""
    def line(i, author, text, hashtags=(), mentions=(), retweet_of=None, timestamp=None):
        obj = {
            "tweet_id": f"t{i}", "author_id": author, "text": text,
            "timestamp": timestamp or f"2021-03-0{1 + i % 9}T1{i % 10}:00:00Z", "hashtags": list(hashtags),
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
        line(7, "u7", "old letters", list(CASE_SHIFTED), ["hub"]),
        line(8, "u8", "the new lowercase", ["\u2c5f", "\ua7c0"], ["hub", "u7"]),
        line(10, "u1", "partyx all the way", ["#\u2c5f", "\ua7c1"], ["u8"]),
        line(11, "u2", "a windows line ending", ["rally"], ["hub"]) + "\r",
        "\t" + line(12, "u3", "indented by a tab", ["votey"], ["u2"]),
        "{} {}",
        line(13, "u4", "good start\nbad end\rnot great htt#p://x.y win", ["rally"], ["hub", "u1"]),
        line(14, "u5", "a fraction in the hour of t5", ["rally"], ["hub"], timestamp="2021-03-06T15:30:00.25Z"),
        line(15, "u6", "a lower-case z", ["votey"], ["u5"], timestamp="2021-03-06T15:59:59z"),
        line(16, "u7", "a space separator", [], ["hub"], timestamp="2021-03-06 15:00:00Z"),
        line(17, "u8", "the same hour again", ["partyx"], ["u7"], timestamp="2021-03-06 15:45:00.5Z"),
        line(18, "u1", "the last hour of a day", ["rally"], ["hub"], timestamp="2021-03-07T23:00:00Z"),
        line(19, "u2", "no hour 24", ["rally"], ["hub"], timestamp="2021-03-07T24:00:00Z"),
        line(20, "u3", "a lone carriage return in the id", ["rally"], ["hub"]).replace('"t20"', '"t\\r20"'),
    ]
    path.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode("utf-8") + b"\n")


def _cased_config(path: Path) -> None:
    """The demo config with a camp whose keyword is a moved code point, which 3.11+ lowercase."""
    config = json.loads((DEMO / "demo_config.json").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**config, "camps": {**config["camps"], "Old": ["\ua7c0"]}}), encoding="utf-8")


def _hand_bundle(path: Path) -> None:
    """Series CSVs with repeated values, a signed zero at a range end, a subnormal span and a
    constant 1e300 column, which a 0.5 pad cannot widen."""
    path.mkdir()
    series = {
        "subjectivity_series.csv": "index,subjectivity\n0,0.5\n1,-0.0\n2,0.5\n3,0.0\n4,0.25\n",
        "polarity_series.csv": "index,polarity\n0,5e-324\n1,0.0\n2,1e-323\n3,5e-324\n",
        "combined_series.csv": "index,subjectivity,polarity\n-0.0,1e300,0.0\n1,1e300,-0.0\n2,1e300,0.0\n",
        "ck_curve.csv": "degree,mean_clustering\n2,1.000000\n3,0.333333\n3,0.333333\n",
        "degree_distribution.csv": "degree,count\n1,1e300\n",
    }
    for name, text in series.items():
        (path / name).write_text(text, encoding="utf-8")


def _bad_bundle(path: Path) -> None:
    """Series CSVs with a NUL in a header, in a cell and after a bad cell, and headers with characters
    XML 1.0 cannot hold, one before a bad cell; 3.10's csv fails a NUL and 3.11's reads it."""
    path.mkdir()
    series = {
        "subjectivity_series.csv": b"index,subj\x00ectivity\n0,0.5\n",
        "polarity_series.csv": b"index,polarity\r0,0.5\r1,0.\x005\r",
        "combined_series.csv": b"index,sub\x01jectivity,polarity\n0,0.5,0.25\n",
        "ck_curve.csv": b"degree,\xef\xbf\xbf\n2,abc\n",
        "degree_distribution.csv": b"degree,count\n1,3\n2,abc\n3,\x00\n",
    }
    for name, data in series.items():
        (path / name).write_bytes(data)


def _run_all(python: str, inputs: Path, work: Path) -> dict:
    """Exit codes, stdout, stderr and output bytes of every command under ``python``, run in ``work``.

    ``inputs`` holds the files of the ``inputs`` fixture; the manifests name them, so they are shared.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]), PYTHONDONTWRITEBYTECODE="1")
    work.mkdir()
    small, cased = inputs / "small.jsonl", inputs / "cased.json"
    corpora = {"demo": DEMO / "demo_tweets.jsonl", "small": small}
    runs = {
        "demo": ["--corpus", str(corpora["demo"]), "--config", str(DEMO / "demo_config.json")],
        "small": ["--corpus", str(small), "--config", str(DEMO / "demo_config.json")],
        "cased": ["--corpus", str(small), "--config", str(cased), "--hashtag", "\u2c5f"],
    }
    seen = {}

    def run(key, *args, cwd=work):
        proc = subprocess.run([python, *args], capture_output=True, cwd=cwd, env=env, timeout=120)
        seen[key] = (proc.returncode, proc.stdout, proc.stderr)

    def keep(label, out):
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            seen[f"{label}/{path.name}"] = path.read_bytes()

    run("oracle", "-c", ORACLE_CHECK, str(small))
    run("cli modules", "-c", "import sys, herdpulse.cli; print(sorted(m for m in sys.modules if 'herdpulse' in m))")
    for label in ("bad", "hand"):
        run(f"{label} plot", "-m", "herdpulse.cli", "plot", str(inputs / label), "--out", label)
        keep(label, work / label)
    for label, corpus in corpora.items():
        run(f"{label} validate", "-m", "herdpulse.cli", "validate", "--corpus", str(corpus))
    for label, args in runs.items():
        run(f"{label} analyze", "-m", "herdpulse.cli", "analyze", *args, "--out", label)
        run(f"{label} plot", "-m", "herdpulse.cli", "plot", label)
        keep(label, work / label)
    for label in BENCH_WORKLOADS:
        workload = shutil.copytree(inputs / label, work / label)
        truth = json.loads((workload / "truth.json").read_text(encoding="utf-8"))
        args = [arg for name in truth["corpus_files"] for arg in ("--corpus", name)]
        args += ["--config", truth["config"], "--hashtag", truth["hashtag"]]
        run(f"{label} analyze", "-m", "herdpulse.cli", "analyze", *args, "--out", "bundle", cwd=workload)
        run(f"{label} plot", "-m", "herdpulse.cli", "plot", "bundle", cwd=workload)
        keep(label, workload / "bundle")
    return seen


def _oracle_agrees(seen: dict) -> None:
    code, stdout, stderr = seen["oracle"]
    assert code == 0, stderr.decode("utf-8", "replace")
    oracle_errors, oracle_records, loader_errors, loader_records = json.loads(stdout)
    assert (oracle_errors, oracle_records) == (loader_errors, loader_records)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("interpreters")
    _small_corpus(directory / "small.jsonl")
    _cased_config(directory / "cased.json")
    _hand_bundle(directory / "hand")
    _bad_bundle(directory / "bad")
    # bench/gen.py, loaded by path: bench/ is no package, and sys.path stays as it is
    spec = importlib.util.spec_from_file_location("bench_gen", REPO / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for label in BENCH_WORKLOADS:
        gen.generate(label, 1, directory / label, scale=0.02)
    return directory


@pytest.fixture(scope="module")
def reference(inputs):
    return _run_all(sys.executable, inputs, inputs / "running")


@pytest.mark.parametrize("version", VERSIONS)
def test_every_interpreter_writes_the_same_bytes(version, inputs, reference):
    running = "%d.%d" % sys.version_info[:2]
    if version == running:
        pytest.skip(f"python{version} is the running interpreter")
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} on PATH or under ~/.pyenv/versions")
    seen = _run_all(python, inputs, inputs / version)
    _oracle_agrees(seen)
    assert list(seen) == list(reference)
    differ = [key for key in reference if seen[key] != reference[key]]
    assert not differ, f"{python} differs from python{running} in {differ}"


def test_reference_runs_cover_every_output(inputs, reference):
    _oracle_agrees(reference)
    for label in ("demo", "small", "cased", *BENCH_WORKLOADS):
        assert reference[f"{label} analyze"][0] == 0
    assert reference["small validate"][0] == 1
    stdout = reference["small validate"][1].decode("utf-8")
    assert ":4: invalid JSON: Expecting property name enclosed in double quotes" in stdout
    assert ":7: invalid JSON: Expecting value" in stdout
    assert ":8: duplicate tweet_id: 't2'" in stdout
    assert ":16: invalid JSON: Extra data" in stdout
    assert ":23: timestamp not ISO-8601: '2021-03-07T24:00:00Z'" in stdout
    # only the two records tagged U+2C5F itself pass --hashtag U+2C5F; U+2C2F is not folded to it
    cased = json.loads(reference["cased/manifest.json"])
    assert cased["stage_counts"]["after_hashtag_filter"] == 2
    prediction = json.loads(reference["cased/prediction.json"])
    assert sorted(camp["camp_id"] for camp in prediction["camps"]) == ["Old", "X"]
    for label in ("demo", "small", "cased", *BENCH_WORKLOADS):
        names = {key.split("/", 1)[1] for key in reference if key.startswith(f"{label}/")}
        assert len(names) == 15 and sum(name.endswith(".svg") for name in names) == 5
    assert reference["hand plot"][0] == 0
    assert reference["cli modules"][1].decode("ascii").split() == [
        "['herdpulse',", "'herdpulse.cli',", "'herdpulse.inputs',", "'herdpulse.preprocess']"
    ]
    bad = [line.split(".csv:", 1)[1] for line in reference["bad plot"][2].decode("utf-8").splitlines()]
    assert reference["bad plot"][:2] == (1, b"") and not any(key.startswith("bad/") for key in reference)
    assert not (inputs / "running" / "bad").exists()
    assert bad == [
        "1: line contains NUL",
        "3: line contains NUL",
        "1: header holds '\\x01', which XML 1.0 cannot",
        "1: header holds '\\uffff', which XML 1.0 cannot",
        "4: line contains NUL",
    ]
    assert sum(key.startswith("hand/") and key.endswith(".svg") for key in reference) == 5
