"""Undirected interaction graph over authors and its clustering measures.

Edges come from mentions and retweets, deduplicated and undirected. All
triangle and triple counting is exact integer arithmetic; the single floating
division happens last, so results are reproducible bit-for-bit and the
brute-force oracles in the test suite can match them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus


class SocialGraph:
    """Simple undirected graph keyed by author_id; no self-loops."""

    def __init__(self):
        self._adj: dict[str, set[str]] = {}

    def add_node(self, node: str) -> None:
        self._adj.setdefault(node, set())

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        self._adj[a].add(b)
        self._adj[b].add(a)

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> list[str]:
        return sorted(self._adj)

    def neighbors(self, node: str) -> set[str]:
        return self._adj[node]

    def degree(self, node: str) -> int:
        return len(self._adj[node])

    def edges(self) -> list[tuple[str, str]]:
        """Each undirected edge once, as (a, b) with a < b, sorted."""
        return sorted((a, b) for a, nbrs in self._adj.items() for b in nbrs if a < b)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2


@dataclass(frozen=True)
class ClusteringStats:
    """Every clustering measure of one graph, derived from one counting pass."""

    local: dict[str, float]
    mean_clustering: float
    global_clustering: float
    degree: dict[str, int]
    ck_curve: list[tuple[int, float]]
    triangles: int
    triples: int


def build_graph(corpus: Corpus) -> SocialGraph:
    """Graph over authors, mention targets and retweet targets.

    An undirected edge {a, b} exists when a mentions b or a retweets b;
    self-interactions are dropped and repeats collapse.
    """
    graph = SocialGraph()
    for record in corpus.records:
        graph.add_node(record.author_id)
        for mentioned in record.mentions:
            graph.add_edge(record.author_id, mentioned)
        if record.retweet_of is not None:
            graph.add_edge(record.author_id, record.retweet_of)
    return graph


def _neighbor_edge_count(graph: SocialGraph, node: str) -> int:
    """Number of edges among the neighbors of ``node`` (exact integer)."""
    nbrs = graph.neighbors(node)
    return sum(len(graph.neighbors(u) & nbrs) for u in nbrs) // 2


def clustering_stats(graph: SocialGraph) -> ClusteringStats:
    """Every clustering measure from t_i, the edges among node i's neighbors.

    One pass counts t_i per node. Local C_i = 2 t_i / (k (k - 1)), 0 below
    degree 2; a triangle is counted at each of its 3 corners, so transitivity
    = sum(t_i) / sum(k (k - 1) / 2), 0 without triples. Mean clustering and
    C(k) (mean C_i per degree) are exact sums; an empty graph scores 0.
    """
    local: dict[str, float] = {}
    degree: dict[str, int] = {}
    by_degree: dict[int, list[float]] = {}
    closed = 0
    triples = 0
    for node in graph.nodes():
        k = graph.degree(node)
        t = _neighbor_edge_count(graph, node)
        c = 2.0 * t / (k * (k - 1)) if k >= 2 else 0.0
        local[node] = c
        degree[node] = k
        by_degree.setdefault(k, []).append(c)
        closed += t
        triples += k * (k - 1) // 2
    triangles = closed // 3
    return ClusteringStats(
        local=local,
        mean_clustering=math.fsum(local.values()) / len(local) if local else 0.0,
        global_clustering=3.0 * triangles / triples if triples else 0.0,
        degree=degree,
        ck_curve=[(k, math.fsum(vals) / len(vals)) for k, vals in sorted(by_degree.items())],
        triangles=triangles,
        triples=triples,
    )


def write_edgelist(graph: SocialGraph, path: str | Path) -> None:
    """Export "a<TAB>b" lines, each edge once with a < b, for external tools."""
    lines = [f"{a}\t{b}" for a, b in graph.edges()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
