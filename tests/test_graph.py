from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from herdpulse import build_graph, clustering_stats, default_config, write_edgelist
from herdpulse.graph import SocialGraph
from herdpulse import graph as graph_module
from herdpulse import pipeline

from .conftest import make_corpus, make_record
from .oracles import (
    brute_force_counts,
    brute_force_global,
    brute_force_local,
    complete_graph,
    preferential_attachment_graph,
    random_graph,
    random_tree,
)


def graph_from_edges(edges, isolated=()):
    graph = SocialGraph()
    for node in isolated:
        graph.add_node(node)
    for a, b in edges:
        graph.add_edge(a, b)
    return graph


TRIANGLE = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
PATH3 = graph_from_edges([("a", "b"), ("b", "c")])
STAR4 = graph_from_edges([("hub", "x"), ("hub", "y"), ("hub", "z")])
# K4 minus the {c, d} edge
K4_MINUS = graph_from_edges(
    [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
)


def test_build_graph_mention_edge():
    corpus = make_corpus([make_record(author_id="a", mentions=["b"])])
    graph = build_graph(corpus)
    assert graph.nodes() == ["a", "b"]
    assert graph.edges() == [("a", "b")]


def test_build_graph_self_retweet_dropped():
    corpus = make_corpus([make_record(author_id="a", retweet_of="a")])
    graph = build_graph(corpus)
    assert graph.nodes() == ["a"]
    assert graph.edges() == []


def test_build_graph_undirected_dedup():
    corpus = make_corpus(
        [
            make_record(tweet_id="t1", author_id="a", mentions=["b"]),
            make_record(tweet_id="t2", author_id="b", retweet_of="a"),
        ]
    )
    graph = build_graph(corpus)
    assert graph.edges() == [("a", "b")]
    assert graph.edge_count() == 1


def test_local_clustering_triangle():
    assert all(clustering_stats(TRIANGLE).local[v] == 1.0 for v in "abc")


def test_local_clustering_star_center():
    assert clustering_stats(STAR4).local["hub"] == 0.0


def test_local_clustering_k4_minus_edge():
    local = clustering_stats(K4_MINUS).local
    assert local["a"] == pytest.approx(2 / 3)
    assert local["b"] == pytest.approx(2 / 3)
    assert local["c"] == 1.0
    assert local["d"] == 1.0


def test_local_clustering_degenerate_degrees():
    graph = graph_from_edges([("a", "b")], isolated=["lone"])
    local = clustering_stats(graph).local
    assert local["lone"] == 0.0
    assert local["a"] == 0.0


def test_global_clustering_anchors():
    assert clustering_stats(TRIANGLE).global_clustering == 1.0
    assert clustering_stats(PATH3).global_clustering == 0.0
    assert clustering_stats(K4_MINUS).global_clustering == pytest.approx(0.75)


def test_triple_and_triangle_counts():
    k4_minus = clustering_stats(K4_MINUS)
    assert (k4_minus.triangles, k4_minus.triples) == (2, 8)
    path3 = clustering_stats(PATH3)
    assert (path3.triangles, path3.triples) == (0, 1)


def test_mean_clustering_anchors():
    assert clustering_stats(TRIANGLE).mean_clustering == 1.0
    assert clustering_stats(PATH3).mean_clustering == 0.0
    assert clustering_stats(K4_MINUS).mean_clustering == pytest.approx(5 / 6)


def test_empty_graph_scores_zero():
    stats = clustering_stats(SocialGraph())
    assert stats.mean_clustering == 0.0
    assert stats.global_clustering == 0.0
    assert stats.ck_curve == []
    assert (stats.local, stats.degree, stats.triangles, stats.triples) == ({}, {}, 0, 0)


def test_ck_curve_examples():
    assert clustering_stats(TRIANGLE).ck_curve == [(2, 1.0)]
    assert clustering_stats(STAR4).ck_curve == [(1, 0.0), (3, 0.0)]
    assert clustering_stats(K4_MINUS).ck_curve == [(2, 1.0), (3, pytest.approx(2 / 3))]


def test_local_matches_brute_force_on_random_graphs():
    rng = random.Random(1311)
    for _ in range(30):
        n = rng.randint(2, 40)
        graph = random_graph(n, rng.uniform(0.05, 0.5), rng)
        local = clustering_stats(graph).local
        for node in graph.nodes():
            assert local[node] == brute_force_local(graph, node)


def test_global_matches_brute_force_on_random_graphs():
    rng = random.Random(2422)
    for _ in range(20):
        n = rng.randint(3, 30)
        graph = random_graph(n, rng.uniform(0.05, 0.5), rng)
        assert abs(clustering_stats(graph).global_clustering - brute_force_global(graph)) <= 1e-12


def test_hub_heavy_graphs_match_brute_force():
    rng = random.Random(3533)
    for _ in range(15):
        graph = preferential_attachment_graph(rng.randint(4, 45), rng.randint(1, 4), rng)
        stats = clustering_stats(graph)
        for node in graph.nodes():
            assert stats.local[node] == brute_force_local(graph, node)
        assert abs(stats.global_clustering - brute_force_global(graph)) <= 1e-12


def test_complete_graphs_and_trees():
    for n in (3, 5, 8):
        stats = clustering_stats(complete_graph(n))
        assert all(c == 1.0 for c in stats.local.values())
        assert stats.global_clustering == 1.0
    rng = random.Random(7)
    for n in (2, 10, 40):
        stats = clustering_stats(random_tree(n, rng))
        assert all(c == 0.0 for c in stats.local.values())
        assert stats.global_clustering == 0.0


def test_adding_neighbor_edge_strictly_increases_local():
    rng = random.Random(99)
    checked = 0
    while checked < 10:
        graph = random_graph(12, 0.3, rng)
        for v in graph.nodes():
            nbrs = sorted(graph.neighbors(v))
            pairs = [
                (a, b)
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1 :]
                if b not in graph.neighbors(a)
            ]
            if not pairs:
                continue
            before = clustering_stats(graph).local[v]
            graph.add_edge(*pairs[0])
            after = clustering_stats(graph).local[v]
            assert after > before
            checked += 1
            break


def test_relabeling_invariance():
    rng = random.Random(5150)
    graph = random_graph(25, 0.25, rng)
    nodes = graph.nodes()
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    relabeled = SocialGraph()
    for node in nodes:
        relabeled.add_node(mapping[node])
    for a, b in graph.edges():
        relabeled.add_edge(mapping[a], mapping[b])

    original = clustering_stats(graph)
    renamed = clustering_stats(relabeled)
    assert renamed.global_clustering == original.global_clustering
    assert renamed.mean_clustering == pytest.approx(original.mean_clustering)
    assert all(renamed.local[mapping[v]] == original.local[v] for v in nodes)


def test_write_edgelist_sorted_pairs(tmp_path):
    path = tmp_path / "edges.tsv"
    write_edgelist(K4_MINUS, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["a\tb", "a\tc", "a\td", "b\tc", "b\td"]
    write_edgelist(SocialGraph(), path)
    assert path.read_text(encoding="utf-8") == ""


def test_one_analysis_counts_clustering_once(monkeypatch):
    calls = {"stats": 0, "oriented": 0}
    real_stats = pipeline.clustering_stats
    real_oriented = graph_module._oriented

    def counting_stats(graph):
        calls["stats"] += 1
        return real_stats(graph)

    def counting_oriented(graph):
        calls["oriented"] += 1
        return real_oriented(graph)

    monkeypatch.setattr(pipeline, "clustering_stats", counting_stats)
    monkeypatch.setattr(graph_module, "_oriented", counting_oriented)
    corpus = make_corpus(
        [
            make_record(tweet_id="t1", author_id="a", mentions=["b", "c"]),
            make_record(tweet_id="t2", author_id="b", mentions=["c"], retweet_of="d"),
            make_record(tweet_id="t3", author_id="e"),
        ]
    )
    config = default_config()
    result = pipeline.analyze_corpus(corpus, config)
    pipeline.bundle_files(result, config)
    # Every triangle count, whoever asks for it, goes through one orientation.
    assert calls == {"stats": 1, "oriented": 1}
    assert result.stats.triangles == 1


def test_build_graph_matches_add_edge_order():
    rng = random.Random(6755)
    authors = [f"u{i}" for i in range(12)]
    records = [
        make_record(
            tweet_id=f"t{i}",
            author_id=rng.choice(authors),
            mentions=rng.sample(authors, rng.randint(0, 4)),
            retweet_of=rng.choice([None, *authors]),
        )
        for i in range(60)
    ]
    expected = SocialGraph()
    for record in records:
        expected.add_node(record.author_id)
        for mentioned in record.mentions:
            expected.add_edge(record.author_id, mentioned)
        if record.retweet_of is not None:
            expected.add_edge(record.author_id, record.retweet_of)
    built = build_graph(make_corpus(records))
    assert list(built._adj.items()) == list(expected._adj.items())


def named_out_sets(graph):
    nodes, order, out = graph_module._oriented(graph)
    names = [nodes[i] for i in order]
    return {names[r]: {names[w] for w in higher} for r, higher in enumerate(out)}


def star(leaves):
    # The hub sorts first, so orienting by name alone would give it every edge.
    return graph_from_edges([("a_hub", f"leaf{i:03d}") for i in range(leaves)])


@pytest.mark.parametrize(
    "graph",
    [preferential_attachment_graph(2000, 3, random.Random(8866)), star(60)],
    ids=["preferential_attachment", "star"],
)
def test_orientation_keeps_each_edge_once_within_sqrt_2e(graph):
    out = named_out_sets(graph)
    assert sorted(out) == graph.nodes()
    for a, b in graph.edges():
        assert (b in out[a]) != (a in out[b])
    assert all(higher <= graph.neighbors(node) for node, higher in out.items())
    edges = graph.edge_count()
    assert sum(len(higher) for higher in out.values()) == edges
    assert max(len(higher) for higher in out.values()) <= math.isqrt(2 * edges)
    top = max(graph.degree(node) for node in graph.nodes())
    hubs = [node for node in graph.nodes() if graph.degree(node) == top]
    assert len(hubs) == 1
    assert out[hubs[0]] == set()


def assert_matches_brute_force(graph):
    stats = clustering_stats(graph)
    assert list(stats.local) == list(stats.degree) == graph.nodes()
    for node in graph.nodes():
        assert stats.local[node] == brute_force_local(graph, node)
        assert stats.degree[node] == len(graph.neighbors(node))
    assert abs(stats.global_clustering - brute_force_global(graph)) <= 1e-12
    assert (stats.triangles, stats.triples) == brute_force_counts(graph)
    return stats


def test_planted_cliques_on_hubs_match_brute_force():
    rng = random.Random(4644)
    for _ in range(12):
        graph = preferential_attachment_graph(rng.randint(10, 45), rng.randint(1, 3), rng)
        for _ in range(rng.randint(1, 3)):
            clique = rng.sample(graph.nodes(), rng.randint(4, 10))
            for a, b in combinations(clique, 2):
                graph.add_edge(a, b)
        assert_matches_brute_force(graph)


def cycle(n, prefix):
    return [(f"{prefix}{i}", f"{prefix}{(i + 1) % n}") for i in range(n)]


def complete(n, prefix):
    return list(combinations([f"{prefix}{i}" for i in range(n)], 2))


def bipartite(m, n):
    return [(f"l{i}", f"r{j}") for i in range(m) for j in range(n)]


TIE_GRAPHS = {
    "cycle3": (cycle(3, "c"), (1, 3)),
    "cycle4": (cycle(4, "c"), (0, 4)),
    "cycle9": (cycle(9, "c"), (0, 9)),
    "disjoint_triangles": (sum((cycle(3, f"t{j}_") for j in range(4)), []), (4, 12)),
    "k4": (complete(4, "k"), (4, 12)),
    "k7": (complete(7, "k"), (math.comb(7, 3), 7 * math.comb(6, 2))),
    "k1_5": (bipartite(1, 5), (0, math.comb(5, 2))),
    "k2_3": (bipartite(2, 3), (0, 2 * math.comb(3, 2) + 3 * math.comb(2, 2))),
    "k3_3": (bipartite(3, 3), (0, 6 * math.comb(3, 2))),
    "mixed": (cycle(5, "c") + complete(5, "k") + bipartite(2, 4), (10, 5 + 30 + 2 * 6 + 4)),
}


@pytest.mark.parametrize("name", sorted(TIE_GRAPHS))
@pytest.mark.parametrize("isolated", [(), ("iso0", "iso1", "zz")], ids=["connected", "isolated"])
def test_degree_tie_graphs_match_brute_force(name, isolated):
    edges, counts = TIE_GRAPHS[name]
    stats = assert_matches_brute_force(graph_from_edges(edges, isolated=isolated))
    assert (stats.triangles, stats.triples) == counts
    assert all(stats.local[node] == 0.0 for node in isolated)


@st.composite
def hub_biased_edges(draw):
    """Up to 30 nodes; edges favour low indices, whose names sort last."""
    n = draw(st.integers(1, 30))
    names = [f"n{n - i:02d}" for i in range(n)]
    pairs = draw(
        st.lists(st.integers(0, n - 1).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, a))), max_size=150)
    )
    return graph_from_edges([(names[a], names[b]) for a, b in pairs], isolated=names)


@given(hub_biased_edges())
def test_random_edge_lists_match_brute_force(graph):
    assert_matches_brute_force(graph)
