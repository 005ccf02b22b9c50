"""Independent brute-force references for the clustering measures and text.

These deliberately enumerate pairs/triples the slow way and never call the
library's counting helpers, so they stay a genuinely independent check. The
text references are the plain loops the library's stemmer and ``normalize``
shortcut: no memo, no suffix index, no early stop.
"""

from __future__ import annotations

import random
from itertools import combinations

from herdpulse import SocialGraph
from herdpulse.preprocess import _normalize_pass


def brute_force_local(graph: SocialGraph, node: str) -> float:
    neighbors = sorted(graph.neighbors(node))
    k = len(neighbors)
    if k < 2:
        return 0.0
    connected = sum(1 for a, b in combinations(neighbors, 2) if b in graph.neighbors(a))
    return 2 * connected / (k * (k - 1))


def brute_force_global(graph: SocialGraph) -> float:
    closed = 0
    open_ = 0
    nodes = graph.nodes()
    for a, b, c in combinations(nodes, 3):
        edges = (
            (b in graph.neighbors(a))
            + (c in graph.neighbors(a))
            + (c in graph.neighbors(b))
        )
        if edges == 3:
            closed += 3  # a triangle is three closed triples, one per center
        elif edges == 2:
            open_ += 1
    total = closed + open_
    return closed / total if total else 0.0


def random_graph(n: int, p: float, rng: random.Random) -> SocialGraph:
    graph = SocialGraph()
    names = [f"v{i}" for i in range(n)]
    for name in names:
        graph.add_node(name)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                graph.add_edge(names[i], names[j])
    return graph


def random_tree(n: int, rng: random.Random) -> SocialGraph:
    graph = SocialGraph()
    graph.add_node("v0")
    for i in range(1, n):
        graph.add_edge(f"v{i}", f"v{rng.randrange(i)}")
    return graph


def complete_graph(n: int) -> SocialGraph:
    graph = SocialGraph()
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(f"v{i}", f"v{j}")
    return graph


def preferential_attachment_graph(n: int, m: int, rng: random.Random) -> SocialGraph:
    """Hub-heavy graph (Barabasi & Albert 1999): each new node links to up to
    ``m`` earlier nodes, each picked with probability proportional to degree."""
    graph = SocialGraph()
    graph.add_edge("v0", "v1")
    ends = ["v0", "v1"]  # every edge end once, so a uniform pick is degree-weighted
    for i in range(2, n):
        new = f"v{i}"
        for target in sorted({rng.choice(ends) for _ in range(m)}):
            graph.add_edge(new, target)
            ends += [new, target]
    return graph


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


def reference_normalize(text: str) -> str:
    """Repeat the cleaning pass until it no longer changes the text."""
    while True:
        cleaned = _normalize_pass(text)
        if cleaned == text:
            return cleaned
        text = cleaned
