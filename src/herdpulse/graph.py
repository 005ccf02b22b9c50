"""Undirected interaction graph over authors and its clustering measures.

Edges come from mentions and retweets, deduplicated and undirected. All
triangle and triple counting is exact integer arithmetic; the single floating
division happens last, so results are reproducible bit-for-bit and the
brute-force oracles in the test suite can match them exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus import Corpus


class SocialGraph:
    """Simple undirected graph keyed by author_id; no self-loops."""

    def __init__(self):
        self._adj: dict[str, set[str]] = {}

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


def build_graph(corpus: Corpus) -> SocialGraph:
    """Graph over authors, mention targets and retweet targets.

    An undirected edge {a, b} exists when a mentions b or a retweets b;
    self-interactions are dropped and repeats collapse. Each author enters
    when first seen, then each of its new targets in record order.
    """
    graph = SocialGraph()
    adj = graph._adj
    for record in corpus.records:
        author = record.author_id
        own = adj.get(author)
        if own is None:
            own = adj[author] = set()
        targets = record.mentions
        if record.retweet_of is not None:
            targets = (*targets, record.retweet_of)
        for other in targets:
            if other == author:
                continue
            own.add(other)
            theirs = adj.get(other)
            if theirs is None:
                adj[other] = {author}
            else:
                theirs.add(author)
    return graph


def _oriented(graph: SocialGraph) -> tuple[list[str], list[int], list[set[int]]]:
    """``(nodes, order, out)``: the graph interned and oriented by degree.

    Node i is ``nodes[i]``, the i-th in sorted order. Nodes rank by
    ``(degree, i)``: ``order[r]`` is the index of the node of rank r and
    ``out[r]`` holds the ranks of its higher-ranked neighbors, so each edge
    sits in exactly one out-set. The d members of ``out[r]`` each have degree
    >= d, so d * d <= 2E.
    """
    adj = graph._adj
    nodes = sorted(adj)
    order = sorted(range(len(nodes)), key=lambda i: len(adj[nodes[i]]))
    rank = {nodes[i]: r for r, i in enumerate(order)}
    ranked: set[str] = set()  # the nodes of rank <= r
    out: list[set[int]] = []
    for i in order:
        node = nodes[i]
        ranked.add(node)
        out.append(set(map(rank.__getitem__, adj[node] - ranked)))
    return nodes, order, out


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
    nodes, order, out = _oriented(graph)
    corners = [0] * len(nodes)
    for u, higher in enumerate(out):
        found = 0
        for v in higher:
            common = higher & out[v]
            if common:
                found += len(common)
                corners[v] += len(common)
                for w in common:
                    corners[w] += 1
        corners[u] += found
    t_of = [0] * len(nodes)
    for r, i in enumerate(order):
        t_of[i] = corners[r]

    adj = graph._adj
    local: dict[str, float] = {}
    degree: dict[str, int] = {}
    by_degree: dict[int, list[float]] = {}
    triples = 0
    for node, t in zip(nodes, t_of):
        k = len(adj[node])
        c = 2.0 * t / (k * (k - 1)) if k >= 2 else 0.0
        local[node] = c
        degree[node] = k
        by_degree.setdefault(k, []).append(c)
        triples += k * (k - 1) // 2
    triangles = sum(t_of) // 3
    return ClusteringStats(
        local=local,
        mean_clustering=math.fsum(local.values()) / len(local) if local else 0.0,
        global_clustering=3.0 * triangles / triples if triples else 0.0,
        degree=degree,
        ck_curve=[(k, math.fsum(vals) / len(vals)) for k, vals in sorted(by_degree.items())],
        triangles=triangles,
        triples=triples,
        edges=sum(map(len, out)),
    )

