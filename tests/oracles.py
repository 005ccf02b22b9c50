"""Independent brute-force references for the clustering measures, text and ingestion.

These deliberately enumerate pairs/triples the slow way and never call the
library's counting helpers, so they stay a genuinely independent check; the
module imports nothing from ``herdpulse``. Graphs are edge lists, read here
as a plain ``node -> neighbors`` dict that :func:`adjacency` builds. The text
references are the plain loops the library's stemmer and ``normalize``
shortcut: no memo, no suffix grouping, no regex, no early stop, and one text
at a time where the library cleans texts in batches. The ingestion
reference restates the per-line rules with ``json.loads`` and plain field
checks, reads timestamps by hand instead of with ``fromisoformat``, loads
several files the old way (each file whole, then merge, then filter), and
shares no helper with ``herdpulse.corpus``. The herd references test each
band edge by hand, assign camps by counting each camp's keywords among a
tweet's words, and rank camps by counting the camps ahead of each. The
plot reference places and formats every point on its own, from
``(x, y)`` pairs per series.
"""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta, timezone
from itertools import combinations

Edge = tuple[str, str]


def adjacency(edges: list[Edge], nodes=()) -> dict[str, set[str]]:
    """The undirected simple graph on ``nodes`` and every end of ``edges``;
    a self-pair adds its node but no edge, a repeated pair one edge."""
    adj: dict[str, set[str]] = {node: set() for node in nodes}
    for a, b in edges:
        adj.setdefault(a, set())
        adj.setdefault(b, set())
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def brute_force_local(adj: dict[str, set[str]], node: str) -> float:
    neighbors = sorted(adj[node])
    k = len(neighbors)
    if k < 2:
        return 0.0
    connected = sum(1 for a, b in combinations(neighbors, 2) if b in adj[a])
    return 2 * connected / (k * (k - 1))


def brute_force_global(adj: dict[str, set[str]]) -> float:
    closed = 0
    open_ = 0
    for a, b, c in combinations(sorted(adj), 3):
        edges = (b in adj[a]) + (c in adj[a]) + (c in adj[b])
        if edges == 3:
            closed += 3  # a triangle is three closed triples, one per center
        elif edges == 2:
            open_ += 1
    total = closed + open_
    return closed / total if total else 0.0


def brute_force_counts(adj: dict[str, set[str]]) -> tuple[int, int]:
    """(triangles, connected triples) over every 3-node set: a set with three
    edges is one triangle and three closed triples, one with two edges is one
    open triple."""
    triangles = open_ = 0
    for a, b, c in combinations(sorted(adj), 3):
        edges = (b in adj[a]) + (c in adj[a]) + (c in adj[b])
        if edges == 3:
            triangles += 1
        elif edges == 2:
            open_ += 1
    return triangles, 3 * triangles + open_


def brute_force_edge_count(adj: dict[str, set[str]]) -> int:
    """Node pairs joined by an edge, over every 2-node set."""
    return sum(1 for a, b in combinations(sorted(adj), 2) if b in adj[a])


def vertex_names(n: int) -> list[str]:
    """``v0`` .. ``v{n-1}``: the nodes of the generated graphs, isolated ones included."""
    return [f"v{i}" for i in range(n)]


def random_graph(n: int, p: float, rng: random.Random) -> list[Edge]:
    """Erdos-Renyi G(n, p) edges over ``vertex_names(n)``."""
    names = vertex_names(n)
    return [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def random_tree(n: int, rng: random.Random) -> list[Edge]:
    """A uniform random recursive tree over ``vertex_names(n)`` (``n >= 2``)."""
    return [(f"v{i}", f"v{rng.randrange(i)}") for i in range(1, n)]


def complete_graph(n: int) -> list[Edge]:
    return list(combinations(vertex_names(n), 2))


def preferential_attachment_graph(n: int, m: int, rng: random.Random) -> list[Edge]:
    """Hub-heavy graph (Barabasi & Albert 1999): each new node links to up to
    ``m`` earlier nodes, each picked with probability proportional to degree."""
    edges = [("v0", "v1")]
    ends = ["v0", "v1"]  # every edge end once, so a uniform pick is degree-weighted
    for i in range(2, n):
        new = f"v{i}"
        for target in sorted({rng.choice(ends) for _ in range(m)}):
            edges.append((new, target))
            ends += [new, target]
    return edges


def reference_stem(token: str, table: list[tuple[str, str, int]]) -> str:
    """First-match-wins suffix stripping over ``(suffix, replacement, min_len)``
    rows, one rule per pass, passes repeated until the token stops changing."""
    while True:
        stemmed = token
        for suffix, replacement, min_len in table:
            if token.endswith(suffix) and len(token) - len(suffix) >= min_len:
                stemmed = token[: len(token) - len(suffix)] + replacement
                break
        if stemmed == token:
            return token
        token = stemmed


def reference_normalize_pass(text: str) -> str:
    """One cleaning pass, char by char: lowercase; drop each run that starts
    with "http" or "@" up to the next whitespace; drop '#'; turn each run of
    chars outside a-z into one space; trim."""
    text = text.lower()
    kept = []
    i = 0
    while i < len(text):
        if text.startswith("http", i) or text[i] == "@":
            while i < len(text) and not text[i].isspace():
                i += 1
            kept.append(" ")
        else:
            kept.append(text[i])
            i += 1
    letters = "".join(ch if "a" <= ch <= "z" else " " for ch in "".join(kept).replace("#", ""))
    return " ".join(letters.split())


def reference_normalize(text: str) -> str:
    """Repeat the cleaning pass until it no longer changes the text."""
    while True:
        cleaned = reference_normalize_pass(text)
        if cleaned == text:
            return cleaned
        text = cleaned


def reference_tokens(text: str, stopwords, table: list[tuple[str, str, int]]) -> tuple[str, ...]:
    """The tokens of one text on its own: each word of its normalized form that
    is no stopword, stemmed, kept when the stem is non-empty and no stopword."""
    tokens = []
    for word in reference_normalize(text).split(" "):
        if word and word not in stopwords:
            stem = reference_stem(word, table)
            if stem and stem not in stopwords:
                tokens.append(stem)
    return tuple(tokens)


CORPUS_KEYS = (
    "tweet_id",
    "author_id",
    "text",
    "timestamp",
    "hashtags",
    "mentions",
    "retweet_of",
    "follower_count",
)
# a record keeps every key but these two, which only decide whether its line is valid
KEPT_KEYS = tuple(key for key in CORPUS_KEYS if key not in ("timestamp", "follower_count"))


def reference_timestamp(value) -> datetime:
    """An RFC 3339 date-time or a bare date, read field by field, as UTC.

    ``YYYY-MM-DD``, optionally followed by ``T``, ``t`` or a space,
    ``HH:MM:SS``, a ``.digits`` fraction (dropped) and a zone (``Z``, ``z`` or
    ``+HH:MM``/``-HH:MM`` with hours 00-23 and minutes 00-59); no zone is
    UTC. Surrounding whitespace is ignored. Raises ``ValueError`` with the
    line's reason.
    """
    if not isinstance(value, str) or not value:
        raise ValueError("timestamp must be an ISO-8601 string")
    malformed = ValueError(f"timestamp not ISO-8601: {value!r}")

    def number(piece: str) -> int:
        if any(ch not in "0123456789" for ch in piece):  # int() would take '+1', ' 1' or '١'
            raise malformed
        return int(piece)

    text = value.strip()
    if len(text) < 10 or text[4] != "-" or text[7] != "-":
        raise malformed
    year, month, day = number(text[0:4]), number(text[5:7]), number(text[8:10])
    hour = minute = second = offset = 0  # offset: minutes east of UTC
    rest = text[10:]
    if rest:
        if len(rest) < 9 or rest[0] not in "Tt " or rest[3] != ":" or rest[6] != ":":
            raise malformed
        hour, minute, second = number(rest[1:3]), number(rest[4:6]), number(rest[7:9])
        zone = rest[9:]
        if zone.startswith("."):
            digits = 1
            while digits < len(zone) and zone[digits] in "0123456789":
                digits += 1
            if digits == 1:
                raise malformed
            zone = zone[digits:]
        if zone in ("Z", "z"):
            zone = ""
        if zone:
            if len(zone) != 6 or zone[0] not in "+-" or zone[3] != ":":
                raise malformed
            zone_hours, zone_minutes = number(zone[1:3]), number(zone[4:6])
            if zone_hours > 23 or zone_minutes > 59:
                raise malformed
            offset = (zone_hours * 60 + zone_minutes) * (1 if zone[0] == "+" else -1)
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    month_days = [31, 29 if leap else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    if not (year >= 1 and 1 <= month <= 12 and 1 <= day <= month_days[month - 1]):
        raise malformed
    if hour > 23 or minute > 59 or second > 59:
        raise malformed
    try:
        moment = datetime(year, month, day, hour, minute, second) - timedelta(minutes=offset)
    except OverflowError:
        raise ValueError(f"timestamp out of range: {value!r}") from None
    return moment.replace(tzinfo=timezone.utc)


# 3.13 words a trailing comma its own way; the reasons keep the 3.10-3.12 wording
_JSON_MESSAGES_BEFORE_3_13 = {
    "Illegal trailing comma before end of object": "Expecting property name enclosed in double quotes",
    "Illegal trailing comma before end of array": "Expecting value",
}


def reference_tag(text: str) -> str | None:
    """A tag as stored: '#'s stripped from the front, each of A-Z replaced by
    its lowercase letter one character at a time; None when that leaves it
    empty or it holds '#' or whitespace, so no stored tag can equal it."""
    while text.startswith("#"):
        text = text[1:]
    tag = "".join(chr(ord(ch) + 32) if "A" <= ch <= "Z" else ch for ch in text)
    if not tag or "#" in tag or any(ch.isspace() for ch in tag):
        return None
    return tag


def _reference_record(line: str) -> tuple[tuple, int]:
    """One non-blank line -> (field values in ``KEPT_KEYS`` order,
    unknown-key count); raises ``ValueError`` with the line's reason."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"invalid JSON: {_JSON_MESSAGES_BEFORE_3_13.get(err.msg, err.msg)}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal longer than the interpreter's digit limit
        raise ValueError("invalid JSON: integer too long") from None
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    for key in CORPUS_KEYS:
        if key not in obj:
            raise ValueError(f"missing {key}")
    unknown = sum(1 for key in obj if key not in CORPUS_KEYS)

    tweet_id, author_id, text = obj["tweet_id"], obj["author_id"], obj["text"]
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("tweet_id must be a non-empty string")
    if not isinstance(author_id, str) or not author_id:
        raise ValueError("author_id must be a non-empty string")
    if not isinstance(text, str):
        raise ValueError("text must be a string")

    reference_timestamp(obj["timestamp"])

    raw_tags = obj["hashtags"]
    if not isinstance(raw_tags, list):
        raise ValueError("hashtags must be an array of strings")
    hashtags = []
    for item in raw_tags:
        if not isinstance(item, str):
            raise ValueError("hashtags must be an array of strings")
        tag = reference_tag(item)
        if tag is None:
            raise ValueError(f"hashtag can never match: {item!r}")
        hashtags.append(tag)

    raw_mentions = obj["mentions"]
    if not isinstance(raw_mentions, list) or not all(
        isinstance(m, str) and m for m in raw_mentions
    ):
        raise ValueError("mentions must be an array of non-empty strings")
    mentions = tuple(m for m in raw_mentions if m != author_id)

    retweet_of = obj["retweet_of"]
    if retweet_of is not None and (not isinstance(retweet_of, str) or not retweet_of):
        raise ValueError("retweet_of must be null or a non-empty string")
    follower_count = obj["follower_count"]
    if isinstance(follower_count, bool) or not isinstance(follower_count, int):
        raise ValueError("follower_count must be an integer")
    if follower_count < 0:
        raise ValueError("follower_count must be >= 0")

    fields = (tweet_id, author_id, text, tuple(hashtags), mentions, retweet_of)
    for name, value in zip(KEPT_KEYS, fields):
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, str):
                try:
                    item.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{name} contains a lone surrogate") from None
    return fields, unknown


def reference_load_lines(lines: list[str]) -> tuple[list[tuple], list[tuple[int, str]], int]:
    """Ingest decoded lines (no LF) the plain way.

    Returns (kept records as field tuples in file order, ``(line_no, reason)``
    per invalid non-blank line, unknown keys summed over kept records). A
    leading BOM on line 1 is dropped; a later duplicate tweet_id is invalid.
    """
    records, errors, unknown, seen = [], [], 0, set()
    for line_no, line in enumerate(lines, start=1):
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        if not line.strip():
            continue
        try:
            fields, extra = _reference_record(line)
        except ValueError as err:
            errors.append((line_no, str(err)))
            continue
        if fields[0] in seen:
            errors.append((line_no, f"duplicate tweet_id: {fields[0]!r}"))
            continue
        seen.add(fields[0])
        records.append(fields)
        unknown += extra
    return records, errors, unknown


def reference_load_files(files: list[list[str]], tag: str | None) -> tuple | None:
    """Several files the old way: load each whole, merge, then filter by ``tag``.

    Returns (kept records, ``(line_no, reason)`` per invalid line over all
    files in order, unknown keys, records after the merge and before the
    filter), or None when a file has more than half of its non-empty lines
    invalid. A tweet_id already kept from an earlier file is dropped from a
    later one, whether or not either carries the tag.
    """
    merged, errors, unknown, seen = [], [], 0, set()
    for lines in files:
        records, file_errors, file_unknown = reference_load_lines(lines)
        if 2 * len(file_errors) > len(records) + len(file_errors):
            return None
        errors += file_errors
        unknown += file_unknown
        for fields in records:
            if fields[0] not in seen:
                seen.add(fields[0])
                merged.append(fields)
    kept = merged if tag is None else [f for f in merged if reference_tag(tag) in f[3]]
    return kept, errors, unknown, len(merged)


def reference_band(value: float, edges: tuple[float, ...]) -> int:
    """Index of the band ``[edges[i], edges[i + 1])`` holding ``value``; the top band also holds 1."""
    top = len(edges) - 2
    for i in range(top + 1):
        if edges[i] <= value < edges[i + 1] or (i == top and value == edges[-1]):
            return i
    raise ValueError(f"{value} outside [0, 1]")


def reference_percent(count: int, total: int) -> str:
    """``count / total`` in percent, truncated to two decimals by long division."""
    whole, rest = divmod(100 * count, total)
    tenths, rest = divmod(10 * rest, total)
    return f"{whole}.{tenths}{10 * rest // total}"


def reference_assign(
    tweets: list[tuple[str, tuple[str, ...], tuple[str, ...]]], camps: dict[str, frozenset[str]]
) -> tuple[dict[str, str], int, int]:
    """Camp assignment the plain way, from ``(tweet_id, tokens, hashtags)`` per tweet.

    A camp's count is the number of its keywords among the tweet's tokens and
    hashtags, each distinct word once. The camp with the highest count gets
    the tweet when that count is above 0 and no other camp has it; a tweet
    whose highest count is shared is a tie. Returns ``(tweet_id -> camp, ties,
    unassigned tweets)``.
    """
    by_tweet = {}
    ties = 0
    for tweet_id, tokens, hashtags in tweets:
        words = set(tokens) | set(hashtags)
        counts = {camp: sum(1 for keyword in keywords if keyword in words) for camp, keywords in camps.items()}
        top = max(counts.values(), default=0)
        leaders = [camp for camp, count in counts.items() if count == top]
        if top > 0 and len(leaders) == 1:
            by_tweet[tweet_id] = leaders[0]
        elif top > 0:
            ties += 1
    return by_tweet, ties, len(tweets) - len(by_tweet)


def reference_predict(tweets: list[tuple[str | None, str]]) -> dict | None:
    """The camp race the plain way, from ``(camp or None, label)`` per tweet.

    Labels are ``POSITIVE``, ``NEGATIVE`` and ``NEUTRAL``. Returns None when
    no tweet has a camp, else the report's fields: ``camps`` (one dict of
    ``CampResult`` fields per camp, best first), ``winner``, ``margin``,
    ``undecided`` and ``degenerate``. A camp's support is (positive -
    negative) / tweets and its rank is one more than the camps with higher
    support; the winner is the one camp with the highest support, if only one
    has it, and the margin is its lead over the next best camp.
    """
    counts: dict[str, dict[str, int]] = {}
    for camp, label in tweets:
        if camp is not None:
            counts.setdefault(camp, {"POSITIVE": 0, "NEGATIVE": 0, "NEUTRAL": 0})[label] += 1
    if not counts:
        return None
    camps = []
    for camp, row in counts.items():
        total = sum(row.values())
        camps.append(
            {
                "camp_id": camp,
                "tweet_count": total,
                "positive": row["POSITIVE"],
                "negative": row["NEGATIVE"],
                "neutral": row["NEUTRAL"],
                "positive_pct": reference_percent(row["POSITIVE"], total),
                "negative_pct": reference_percent(row["NEGATIVE"], total),
                "neutral_pct": reference_percent(row["NEUTRAL"], total),
                "support": (row["POSITIVE"] - row["NEGATIVE"]) / total,
            }
        )
    for entry in camps:
        entry["rank"] = 1 + sum(1 for other in camps if other["support"] > entry["support"])
    camps.sort(key=lambda entry: (entry["rank"], entry["camp_id"]))
    leaders = [entry for entry in camps if entry["rank"] == 1]
    undecided = len(leaders) > 1
    margin = 0.0
    if len(leaders) == 1 and len(camps) > 1:
        margin = leaders[0]["support"] - max(entry["support"] for entry in camps[1:])
    return {
        "camps": camps,
        "winner": None if undecided else leaders[0]["camp_id"],
        "margin": margin,
        "undecided": undecided,
        "degenerate": len(camps) < 2,
    }


def _reference_axis(values: list[float], start: float, length: float):
    """``(low, high, place)`` of one plot axis: empty data maps to [0, 1], a constant column widens by
    0.5 each way or else by one float step towards 0, and an overflowing width is placed on halved values."""
    low, high = (min(values), max(values)) if values else (0.0, 1.0)
    if low == high:
        low, high = low - 0.5, high + 0.5
    if low == high:
        low, high = sorted((low, math.nextafter(low, 0.0)))
    unit = 1.0 if math.isfinite(high - low) else 0.5
    return low, high, lambda value: start + (value * unit - low * unit) / (high * unit - low * unit) * length


def reference_svg(
    series_points: list[tuple[str, list[tuple[float, float]]]], title: str, x_label: str, y_label: str
) -> str:
    """The scatter SVG point by point: each point of each ``(label, [(x, y), ...])`` series is placed
    and formatted on its own, and the x range covers the x of every point of every series."""
    def fmt(value: float) -> str:
        return f"{value:.2f}"

    def escape(text: str) -> str:
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    width, height, margin = 640.0, 480.0, 60.0
    colors = ("#1f6fb2", "#d1495b", "#3e8e41", "#8e5ba6")
    x_min, x_max, px = _reference_axis(
        [x for _, points in series_points for x, _ in points], margin, width - 2 * margin
    )
    y_min, y_max, py = _reference_axis(
        [y for _, points in series_points for _, y in points], height - margin, -(height - 2 * margin)
    )
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
        f'height="{fmt(height)}" viewBox="0 0 {fmt(width)} {fmt(height)}">',
        f'<rect x="0" y="0" width="{fmt(width)}" height="{fmt(height)}" fill="#ffffff"/>',
        f'<text x="{fmt(width / 2)}" y="30.00" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
        f'<line x1="{fmt(margin)}" y1="{fmt(height - margin)}" '
        f'x2="{fmt(width - margin)}" y2="{fmt(height - margin)}" stroke="#000000"/>',
        f'<line x1="{fmt(margin)}" y1="{fmt(margin)}" '
        f'x2="{fmt(margin)}" y2="{fmt(height - margin)}" stroke="#000000"/>',
        f'<text x="{fmt(margin)}" y="{fmt(height - margin + 20)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{fmt(x_min)}</text>',
        f'<text x="{fmt(width - margin)}" y="{fmt(height - margin + 20)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">{fmt(x_max)}</text>',
        f'<text x="{fmt(margin - 8)}" y="{fmt(height - margin)}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{fmt(y_min)}</text>',
        f'<text x="{fmt(margin - 8)}" y="{fmt(margin + 4)}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{fmt(y_max)}</text>',
        f'<text x="{fmt(width / 2)}" y="{fmt(height - 15)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(x_label)}</text>',
        f'<text x="18.00" y="{fmt(height / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18.00 {fmt(height / 2)})">{escape(y_label)}</text>',
    ]
    for index, (label, points) in enumerate(series_points):
        color = colors[index % len(colors)]
        for x, y in points:
            out.append(f'<circle cx="{fmt(px(x))}" cy="{fmt(py(y))}" r="3.00" fill="{color}" fill-opacity="0.75"/>')
        if len(series_points) > 1:
            out.append(
                f'<text x="{fmt(width - margin)}" y="{fmt(margin + 16 * index)}" '
                f'text-anchor="end" font-family="sans-serif" font-size="12" '
                f'fill="{color}">{escape(label)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
