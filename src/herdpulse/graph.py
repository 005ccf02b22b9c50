"""Undirected interaction graph over authors and its clustering measures.

Edges come from mentions and retweets, deduplicated and undirected. All
triangle and triple counting is exact integer arithmetic; the single floating
division happens last, so results are reproducible bit-for-bit and the
brute-force oracles in the test suite can match them exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, NamedTuple

from .corpus import TweetRecord


class SocialGraph:
    """Simple undirected graph keyed by author_id; no self-loops."""

    def __init__(self, adj: dict[str, set[str]]):
        self._adj = adj

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> list[str]:
        return sorted(self._adj)

    def degree(self, node: str) -> int:
        return len(self._adj[node])

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2


class ClusteringStats(NamedTuple):
    """Every clustering measure of one graph, derived from one counting pass."""

    local: dict[str, float]
    mean_clustering: float
    global_clustering: float
    degree: dict[str, int]
    ck_curve: list[tuple[int, float]]
    triangles: int
    triples: int
    edges: int


def build_graph(records: Iterable[TweetRecord]) -> SocialGraph:
    """Graph over authors, mention targets and retweet targets.

    An undirected edge {a, b} exists when a mentions b or a retweets b;
    self-interactions are dropped and repeats collapse. Each author enters
    when first seen, then each of its new targets in record order.
    """
    adj: defaultdict[str, set[str]] = defaultdict(set)
    for record in records:
        author = record.author_id
        targets = record.mentions
        if record.retweet_of is not None:
            targets = (*targets, record.retweet_of)
        own = adj[author]
        if targets:
            own.update(targets)
            for other in targets:
                adj[other].add(author)
            own.discard(author)  # a self-mention or self-retweet adds no edge
    return SocialGraph(dict(adj))


def _oriented(graph: SocialGraph) -> dict[str, set[str]]:
    """Each node's higher-ranked neighbors: the graph oriented by degree.

    Nodes rank by ``(degree, name)``, so each edge sits in exactly one
    out-set, from its lower-ranked end. The d members of a node's out-set each
    have degree >= d, so d * d <= 2E.
    """
    adj = graph._adj
    ranked: set[str] = set()  # the node and every node ranked below it
    out: dict[str, set[str]] = {}
    for node in sorted(sorted(adj), key=lambda node: len(adj[node])):  # stable: ties stay in name order
        ranked.add(node)
        out[node] = adj[node] - ranked
    return out


def clustering_stats(graph: SocialGraph) -> ClusteringStats:
    """Every clustering measure from t_i, the triangles at node i.

    One forward pass (Schank & Wagner 2005; Latapy 2008) over ``_oriented``:
    for each oriented edge u -> v, ``out[u] & out[v]`` holds the third corner
    of every triangle whose two lowest-ranked corners are u and v, so each
    triangle is found once and credited to its three corners, in E
    intersections of sets of at most sqrt(2E) nodes. t_i is also the number of
    edges among i's neighbors: local C_i = 2 t_i / (k (k - 1)), 0 below
    degree 2; triangles = sum(t_i) // 3; triples = sum(k (k - 1) / 2);
    transitivity = 3 triangles / triples, 0 without triples; edges = the
    summed out-set sizes, as each edge sits in one out-set. Each float comes
    from one final division of exact integers; mean clustering and C(k) (mean
    C_i per degree) are exact sums; an empty graph scores 0.
    """
    out = _oriented(graph)
    corners = dict.fromkeys(out, 0)  # t_i
    for u, higher in out.items():
        found = 0
        for v in higher:
            common = higher & out[v]
            if common:
                found += len(common)
                corners[v] += len(common)
                for w in common:
                    corners[w] += 1
        corners[u] += found

    adj = graph._adj
    local: dict[str, float] = {}
    degree: dict[str, int] = {}
    by_degree: dict[int, list[float]] = {}
    triples = 0
    for node in sorted(adj):
        k = len(adj[node])
        c = 2.0 * corners[node] / (k * (k - 1)) if k >= 2 else 0.0
        local[node] = c
        degree[node] = k
        by_degree.setdefault(k, []).append(c)
        triples += k * (k - 1) // 2
    triangles = sum(corners.values()) // 3
    return ClusteringStats(
        local=local,
        mean_clustering=math.fsum(local.values()) / len(local) if local else 0.0,
        global_clustering=3.0 * triangles / triples if triples else 0.0,
        degree=degree,
        ck_curve=[(k, math.fsum(vals) / len(vals)) for k, vals in sorted(by_degree.items())],
        triangles=triangles,
        triples=triples,
        edges=sum(map(len, out.values())),
    )

