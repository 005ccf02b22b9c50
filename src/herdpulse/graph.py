"""Undirected interaction graph over authors and its clustering measures.

Edges come from mentions and retweets, deduplicated, undirected and oriented
by degree. All triangle and triple counting is exact integer arithmetic; the
single floating division happens last, so results are reproducible bit-for-bit
and the brute-force oracles in the test suite can match them exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, NamedTuple

from .corpus import TweetRecord


class SocialGraph:
    """Simple undirected graph keyed by author_id; no self-loops.

    ``degrees``: each node's degree, in name order. ``out``: each node's
    higher-ranked neighbors, in rank order. Nodes rank by ``(degree, name)``,
    so each edge sits in one out-set, and the d members of an out-set each
    have degree >= d, so d * d <= 2E.
    """

    def __init__(self, out: dict[str, set[str]], degrees: dict[str, int]):
        self.out = out
        self.degrees = degrees

    def __len__(self) -> int:
        return len(self.degrees)

    def nodes(self) -> list[str]:
        return list(self.degrees)

    def degree(self, node: str) -> int:
        return self.degrees[node]

    def edge_count(self) -> int:
        return sum(map(len, self.out.values()))


class ClusteringStats(NamedTuple):
    """Every clustering measure of one graph, from one counting pass; its triangle
    and triple totals are not kept, as only ``global_clustering`` reads them."""

    local: dict[str, float]
    mean_clustering: float
    global_clustering: float
    degree: dict[str, int]
    ck_curve: list[tuple[int, float]]
    edges: int


def build_graph(records: Iterable[TweetRecord]) -> SocialGraph:
    """Graph over authors, mention targets and retweet targets.

    An undirected edge {a, b} exists when a mentions b or a retweets b;
    self-interactions are dropped and repeats collapse. The neighbor sets are
    filled first, then ``_oriented`` turns them into out-sets.
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
    return _oriented(adj)


def _oriented(adj: dict[str, set[str]]) -> SocialGraph:
    """``adj`` oriented by ``(degree, name)``. Pops each neighbor set once its
    out-set is made, so the two together never hold an edge more than twice."""
    degrees = {node: len(adj[node]) for node in sorted(adj)}
    ranked: set[str] = set()  # the node and every node ranked below it
    out: dict[str, set[str]] = {}
    for node in sorted(degrees, key=degrees.__getitem__):  # stable: ties stay in name order
        ranked.add(node)
        out[node] = adj.pop(node) - ranked
    return SocialGraph(out, degrees)


def clustering_stats(graph: SocialGraph) -> ClusteringStats:
    """Every clustering measure from t_i, the triangles at node i.

    One forward pass (Schank & Wagner 2005; Latapy 2008) over the out-sets
    that ``build_graph`` made: for each oriented edge u -> v, ``out[u] &
    out[v]`` holds the third corner of every triangle whose two lowest-ranked
    corners are u and v, so each triangle is found once and credited to its
    three corners, in E intersections of sets of at most sqrt(2E) nodes. t_i
    is also the number of edges among i's neighbors: local C_i = 2 t_i /
    (k (k - 1)), 0 below degree 2; transitivity = 3 triangles / triples, with
    triangles = sum(t_i) // 3 and triples = sum(k (k - 1) / 2), 0 without
    triples; edges = the summed out-set sizes. Each float comes from one final
    division of exact integers; mean clustering and C(k) (mean C_i per degree)
    are exact sums; an empty graph scores 0. ``degree`` is ``graph.degrees``.
    """
    out = graph.out
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

    local: dict[str, float] = {}
    by_degree: dict[int, list[float]] = {}
    triples = 0
    for node, k in graph.degrees.items():
        c = 2.0 * corners[node] / (k * (k - 1)) if k >= 2 else 0.0
        local[node] = c
        by_degree.setdefault(k, []).append(c)
        triples += k * (k - 1) // 2
    triangles = sum(corners.values()) // 3
    return ClusteringStats(
        local=local,
        mean_clustering=math.fsum(local.values()) / len(local) if local else 0.0,
        global_clustering=3.0 * triangles / triples if triples else 0.0,
        degree=graph.degrees,
        ck_curve=[(k, math.fsum(vals) / len(vals)) for k, vals in sorted(by_degree.items())],
        edges=graph.edge_count(),
    )

