"""Seeded, stdlib-only input generator for the herdpulse benchmark.

``generate(workload, seed, out_dir)`` writes the corpus file(s), a run config
with two keyword camps and ``truth.json``: the stage counts the generator
works out from its own records and edge set, never from herdpulse. The same
seed gives the same bytes, which ``output_digest`` shows.

Every line is plain ASCII JSON (``ensure_ascii``), so the inputs hold no BOM,
no invalid UTF-8 and no raw U+2028/U+2029/U+0085. Those are known ingestion
defects with their own tests-first fix; in a timing workload they would only
turn every run into a failed operation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

CAMPS = {
    "north": ["teamnorth", "northvote", "gonorth"],
    "south": ["teamsouth", "southvote", "gosouth"],
}
# every text_zipf/graph_hubs tweet carries it, so their --hashtag keeps all
COLLECTION_TAG = "pulse2021"
RALLY_TAG = "rally"

STOPWORDS = ["the", "a", "and", "to", "of", "in", "is", "it", "for", "on",
             "this", "that", "with", "rt", "amp", "you", "we", "are", "be", "at"]
NEGATIONS = ["not", "no", "never"]
# surface forms whose stems are lexicon terms (win, winning -> win; crisis -> crisi)
SENTIMENT_WORDS = [
    "great", "good", "bad", "love", "hate", "terrible", "amazing", "happy", "sad",
    "wins", "winning", "lose", "losing", "proud", "disaster", "crisis", "excellent",
    "awful", "strong", "weak", "failed", "hopes", "supported", "trusted", "corrupt",
    "fraud", "scandal", "victory", "defeat", "progress", "reform", "boost", "surge",
    "collapse", "shame", "brave", "honest", "unfair", "worry", "panic", "celebrate",
    "landslide", "momentum", "popular", "threat", "attacks", "protest", "peaceful",
    "success", "failure", "think", "believe", "maybe", "poll", "vote", "voters",
    "election", "campaign", "ballot", "turnout", "debate", "economy", "jobs",
    "inflation", "budget", "leader", "promise", "delivered", "improve", "worse",
]
CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
# stemmer-shaped endings, so stem() walks its rule table rather than falling through
SUFFIXES = ["", "", "", "s", "es", "ing", "ed", "ly", "ies", "ily", "ness",
            "ful", "ment", "nning", "tted", "pped", "sses", "lly", "er"]
SPECIAL_STRIDE = 4
BASE_TIME = datetime(2021, 2, 1, tzinfo=timezone.utc)
REQUIRED_KEYS = ["tweet_id", "author_id", "text", "timestamp", "hashtags",
                 "mentions", "retweet_of", "follower_count"]


def _timestamp(index: int) -> str:
    return (BASE_TIME + timedelta(seconds=37 * index)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _record(tweet_id, author, text, hashtags, mentions, retweet_of, rng) -> dict:
    return {
        "tweet_id": tweet_id,
        "author_id": author,
        "text": text,
        "timestamp": _timestamp(int(tweet_id[1:])),
        "hashtags": hashtags,
        "mentions": mentions,
        "retweet_of": retweet_of,
        "follower_count": rng.randrange(50_000),
    }


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=True)


def _author(index: int) -> str:
    return f"u{index:05d}"


def _camp_tags(rng: random.Random, p_north: float, p_south: float, p_both: float) -> list[str]:
    draw = rng.random()
    if draw < p_both:
        return [CAMPS["north"][0], CAMPS["south"][0]]
    if draw < p_both + p_north:
        return [rng.choice(CAMPS["north"])]
    if draw < p_both + p_north + p_south:
        return [rng.choice(CAMPS["south"])]
    return []


def _zipf_vocabulary(rng: random.Random, size: int) -> list[str]:
    """Stopwords first, sentiment and camp words near the head, synthetic tail."""
    specials = NEGATIONS + SENTIMENT_WORDS + [w for words in CAMPS.values() for w in words]
    words = list(STOPWORDS)
    seen = set(words) | set(specials)
    synthetic = []
    while len(synthetic) < size - len(words) - len(specials):
        stem = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(rng.randint(2, 4)))
        word = stem + rng.choice(SUFFIXES)
        if word not in seen:
            seen.add(word)
            synthetic.append(word)
    # one special every SPECIAL_STRIDE ranks after the stopwords, then the long
    # tail: a tweet then misses the lexicon about a third of the time
    tail = iter(synthetic)
    for special in specials:
        words.extend(itertools.islice(tail, SPECIAL_STRIDE - 1))
        words.append(special)
    words.extend(tail)
    return words


def _zipf_cum_weights(size: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank ** exponent) for rank in range(1, size + 1)))


class _Truth:
    """Replays load_corpus/merge_corpora/filter_by_hashtag on the generated lines."""

    def __init__(self, hashtag: str):
        self.hashtag = hashtag
        self.non_empty = 0
        self.invalid = 0
        self.duplicates = 0
        self.merged_ids: set[str] = set()
        self.file_ids: set[str] = set()
        self.kept = 0
        self.authors: set[str] = set()
        self.nodes: set[str] = set()
        self.edges: set[tuple[str, str]] = set()

    def new_file(self) -> None:
        self.file_ids = set()

    def invalid_line(self) -> None:
        self.non_empty += 1
        self.invalid += 1

    def record(self, rec: dict) -> None:
        self.non_empty += 1
        tweet_id = rec["tweet_id"]
        if tweet_id in self.file_ids:  # later duplicate within a file: an invalid line
            self.invalid += 1
            self.duplicates += 1
            return
        self.file_ids.add(tweet_id)
        if tweet_id in self.merged_ids:  # duplicate across files: first occurrence wins
            self.duplicates += 1
            return
        self.merged_ids.add(tweet_id)
        tags = {tag.lstrip("#").lower() for tag in rec["hashtags"]}
        if self.hashtag not in tags:
            return
        self.kept += 1
        author = rec["author_id"]
        self.authors.add(author)
        self.nodes.add(author)
        targets = list(rec["mentions"])
        if rec["retweet_of"] is not None:
            targets.append(rec["retweet_of"])
        for target in targets:
            if target != author:
                self.nodes.add(target)
                self.edges.add((author, target) if author < target else (target, author))

    def as_dict(self) -> dict:
        return {
            "non_empty_lines": self.non_empty,
            "invalid_lines": self.invalid,
            "duplicates_dropped": self.duplicates,
            "loaded_records": len(self.merged_ids),
            "after_hashtag_filter": self.kept,
            "profiled_authors": len(self.authors),
            "graph_nodes": len(self.nodes),
            "graph_edges": len(self.edges),
        }


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def text_zipf(rng: random.Random, out: Path, scale: float = 1.0) -> tuple[list[str], str, _Truth]:
    """Long tweets over a Zipf (s = 1.05) vocabulary of 50k words; sparse mentions."""
    tweets = max(40, int(20_000 * scale))
    authors = max(10, int(4_000 * scale))
    vocab = _zipf_vocabulary(rng, max(500, int(50_000 * scale)))
    cum = _zipf_cum_weights(len(vocab), 1.05)
    truth = _Truth(COLLECTION_TAG)
    files = []
    for part in range(2):
        truth.new_file()
        lines = []
        for i in range(part * tweets // 2, (part + 1) * tweets // 2):
            author = _author(rng.randrange(authors))
            words = rng.choices(vocab, cum_weights=cum, k=rng.randint(12, 30))
            for j in range(len(words)):
                if rng.random() < 0.08:
                    words[j] = words[j].capitalize() + rng.choice("!,.?")
            mentions = []
            if rng.random() < 0.25:
                target = _author(rng.randrange(authors))
                if target != author:
                    mentions.append(target)
                    words.insert(rng.randrange(len(words) + 1), "@" + target)
            if rng.random() < 0.2:
                words.append("https://t.co/" + "".join(rng.choices("abcdefghjkmnpqrstuvwxyz23456789", k=8)))
            hashtags = _camp_tags(rng, 0.3, 0.25, 0.05) + [COLLECTION_TAG]
            words.extend("#" + tag for tag in hashtags)
            rec = _record(f"t{i:07d}", author, " ".join(words), hashtags, mentions, None, rng)
            truth.record(rec)
            lines.append(_dump(rec))
        name = f"day{part + 1}.jsonl"
        _write_lines(out / name, lines)
        files.append(name)
    return files, COLLECTION_TAG, truth


HUB_WORDS = ["vote", "rally", "great", "bad", "not", "today", "teamnorth", "teamsouth",
             "hope", "wins", "failed", "city", "news", "love", "fear", "crowd"]


def graph_hubs(rng: random.Random, out: Path, scale: float = 1.0) -> tuple[list[str], str, _Truth]:
    """Short tweets, each mentioning ~8 authors picked by preferential attachment
    (Barabasi-Albert style) or from one dense 12-author clique."""
    tweets = max(40, int(12_500 * scale))
    authors = max(30, int(10_000 * scale))
    clique = [_author(i) for i in rng.sample(range(authors), 12)]
    endpoints: list[str] = []  # every edge endpoint so far: degree-proportional draws
    truth = _Truth(COLLECTION_TAG)
    files = []
    for part in range(2):
        truth.new_file()
        lines = []
        for i in range(part * tweets // 2, (part + 1) * tweets // 2):
            if rng.random() < 0.05:
                author = rng.choice(clique)
                targets = [member for member in clique if member != author]
                rng.shuffle(targets)
                targets = targets[:8]
            else:
                author = _author(rng.randrange(authors))
                chosen: set[str] = set()
                while len(chosen) < 8:
                    if endpoints and rng.random() < 0.65:
                        target = rng.choice(endpoints)
                    else:
                        target = _author(rng.randrange(authors))
                    if target != author:
                        chosen.add(target)
                targets = sorted(chosen)
                rng.shuffle(targets)
            retweet_of = None
            if rng.random() < 0.1:
                retweet_of = targets.pop()
            for target in targets + ([retweet_of] if retweet_of else []):
                endpoints.append(target)
                endpoints.append(author)
            words = rng.choices(HUB_WORDS, k=4)
            hashtags = _camp_tags(rng, 0.3, 0.3, 0.05) + [COLLECTION_TAG]
            text = " ".join(words)  # hashtags stay out of the text: text layers idle
            rec = _record(f"t{i:07d}", author, text, hashtags, targets, retweet_of, rng)
            truth.record(rec)
            lines.append(_dump(rec))
        name = f"day{part + 1}.jsonl"
        _write_lines(out / name, lines)
        files.append(name)
    return files, COLLECTION_TAG, truth


def _invalid_line(rng: random.Random, rec: dict) -> str:
    """One documented kind of invalid line, derived from a well-formed record."""
    kind = rng.randrange(4)
    if kind == 0:  # broken JSON: an object cut off before its closing brace
        text = _dump(rec)
        return text[: rng.randrange(10, len(text) - 1)]
    bad = dict(rec)
    if kind == 1:
        del bad[rng.choice(REQUIRED_KEYS)]
    elif kind == 2:
        bad["timestamp"] = "not-a-date"
    else:
        bad["follower_count"] = -1 - rng.randrange(100)
    return _dump(bad)


def ingest_merge(rng: random.Random, out: Path, scale: float = 1.0) -> tuple[list[str], str, _Truth]:
    """Three files to merge: ~8% invalid lines, repeated tweet_ids within and
    across files, unknown keys, and a --hashtag that keeps ~4% of records."""
    per_file = max(60, int(35_000 * scale))
    authors = max(30, int(15_000 * scale))
    vocab = _zipf_vocabulary(rng, 400)
    cum = _zipf_cum_weights(len(vocab), 1.05)
    truth = _Truth(RALLY_TAG)
    earlier_ids: list[str] = []
    next_id = 0
    files = []
    for part in range(3):
        truth.new_file()
        lines = []
        this_file: list[str] = []
        for _ in range(per_file):
            draw = rng.random()
            if draw < 0.005:
                lines.append("")
                continue
            if draw < 0.015 and this_file:  # exact repeat of a line from this file
                line = rng.choice(this_file)
                truth.record(json.loads(line))
                lines.append(line)
                continue
            tweet_id = f"t{next_id:07d}"
            if draw < 0.045 and earlier_ids:  # an id already loaded from an earlier file
                tweet_id = rng.choice(earlier_ids)
            else:
                next_id += 1
            author = _author(rng.randrange(authors))
            mentions = [_author(rng.randrange(authors)) for _ in range(rng.randrange(3))]
            mentions = [m for m in mentions if m != author]
            hashtags = [COLLECTION_TAG]
            words = rng.choices(vocab, cum_weights=cum, k=rng.randint(6, 14))
            if rng.random() < 0.04:
                hashtags = _camp_tags(rng, 0.4, 0.35, 0.05) + ["#Rally" if rng.random() < 0.3 else RALLY_TAG]
            words.extend("#" + tag.lstrip("#") for tag in hashtags)
            words.extend("@" + m for m in mentions)
            rec = _record(tweet_id, author, " ".join(words), hashtags, mentions, None, rng)
            if rng.random() < 0.05:
                rec["lang"] = "en"
            if rng.random() < 0.08:
                truth.invalid_line()
                lines.append(_invalid_line(rng, rec))
                continue
            truth.record(rec)
            line = _dump(rec)
            lines.append(line)
            this_file.append(line)
        earlier_ids.extend(json.loads(line)["tweet_id"] for line in this_file[::16])
        name = f"part{part + 1}.jsonl"
        _write_lines(out / name, lines)
        files.append(name)
    return files, RALLY_TAG, truth


WORKLOADS = {"text_zipf": text_zipf, "graph_hubs": graph_hubs, "ingest_merge": ingest_merge}


def output_digest(out: Path, names: list[str]) -> str:
    """sha256 over the generated files, name and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return digest.hexdigest()


def generate(workload: str, seed: int, out: str | Path, scale: float = 1.0) -> dict:
    """Write one workload's inputs into ``out``; returns (and writes) truth.json."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    files, hashtag, truth = WORKLOADS[workload](rng, out, scale)
    config = {"band_edges": [0.0, 0.5, 0.8, 1.0], "herd_threshold": 0.0, "camps": CAMPS}
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="ascii")
    doc = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "corpus_files": files,
        "config": "config.json",
        "hashtag": hashtag,
        "counts": truth.as_dict(),
        "input_sha256": output_digest(out, files + ["config.json"]),
    }
    (out / "truth.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return doc
