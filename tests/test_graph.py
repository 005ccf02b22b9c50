from __future__ import annotations

import json
import math
import random
import tempfile
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from herdpulse import build_graph, clustering_stats, load_config, load_corpora
from herdpulse import graph as graph_module
from herdpulse import pipeline

from .conftest import edge_records, graph_from_edges, make_loaded, make_record
from .oracles import (
    adjacency,
    brute_force_counts,
    brute_force_edge_count,
    brute_force_global,
    brute_force_local,
    complete_graph,
    preferential_attachment_graph,
    random_graph,
    random_tree,
    vertex_names,
)


TRIANGLE = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
PATH3 = graph_from_edges([("a", "b"), ("b", "c")])
STAR4 = graph_from_edges([("hub", "x"), ("hub", "y"), ("hub", "z")])
# K4 minus the {c, d} edge
K4_MINUS = graph_from_edges(
    [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
)


def counts_from_stats(stats):
    """(triangles, triples) from each node's local clustering and degree: t_i = C_i k_i (k_i - 1) / 2."""
    pairs = {node: k * (k - 1) // 2 for node, k in stats.degree.items()}
    corners = sum(round(stats.local[node] * n) for node, n in pairs.items())  # each triangle has three
    assert corners % 3 == 0
    return corners // 3, sum(pairs.values())


def assert_oriented(graph, adj):
    """``graph`` holds ``adj`` oriented by ``(degree, name)``: out-sets in rank
    order, degrees in name order."""
    ranked = sorted(adj, key=lambda node: (len(adj[node]), node))
    rank = {node: i for i, node in enumerate(ranked)}
    out = [(node, {other for other in adj[node] if rank[other] > rank[node]}) for node in ranked]
    assert list(graph.out.items()) == out
    assert list(graph.degrees.items()) == [(node, len(adj[node])) for node in sorted(adj)]


def test_build_graph_mention_edge():
    graph = build_graph([make_record(author_id="a", mentions=["b"])])
    assert graph.nodes() == ["a", "b"]
    assert_oriented(graph, {"a": {"b"}, "b": {"a"}})


def test_build_graph_self_retweet_dropped():
    graph = build_graph([make_record(author_id="a", retweet_of="a")])
    assert graph.nodes() == ["a"]
    assert graph.edge_count() == 0


def test_build_graph_undirected_dedup():
    graph = build_graph(
        [
            make_record(tweet_id="t1", author_id="a", mentions=["b"]),
            make_record(tweet_id="t2", author_id="b", retweet_of="a"),
        ]
    )
    assert_oriented(graph, {"a": {"b"}, "b": {"a"}})
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
    assert counts_from_stats(clustering_stats(K4_MINUS)) == (2, 8)
    assert counts_from_stats(clustering_stats(PATH3)) == (0, 1)


def test_mean_clustering_anchors():
    assert clustering_stats(TRIANGLE).mean_clustering == 1.0
    assert clustering_stats(PATH3).mean_clustering == 0.0
    assert clustering_stats(K4_MINUS).mean_clustering == pytest.approx(5 / 6)


def test_empty_graph_scores_zero():
    stats = clustering_stats(graph_from_edges([]))
    assert stats.mean_clustering == 0.0
    assert stats.global_clustering == 0.0
    assert stats.ck_curve == []
    assert (stats.local, stats.degree, stats.edges) == ({}, {}, 0)
    assert counts_from_stats(stats) == (0, 0)


def test_ck_curve_examples():
    assert clustering_stats(TRIANGLE).ck_curve == [(2, 1.0)]
    assert clustering_stats(STAR4).ck_curve == [(1, 0.0), (3, 0.0)]
    assert clustering_stats(K4_MINUS).ck_curve == [(2, 1.0), (3, pytest.approx(2 / 3))]


def test_local_matches_brute_force_on_random_graphs():
    rng = random.Random(1311)
    for _ in range(30):
        n = rng.randint(2, 40)
        edges = random_graph(n, rng.uniform(0.05, 0.5), rng)
        adj = adjacency(edges, vertex_names(n))
        local = clustering_stats(graph_from_edges(edges, vertex_names(n))).local
        for node in adj:
            assert local[node] == brute_force_local(adj, node)


def test_global_matches_brute_force_on_random_graphs():
    rng = random.Random(2422)
    for _ in range(20):
        n = rng.randint(3, 30)
        edges = random_graph(n, rng.uniform(0.05, 0.5), rng)
        stats = clustering_stats(graph_from_edges(edges, vertex_names(n)))
        assert abs(stats.global_clustering - brute_force_global(adjacency(edges))) <= 1e-12


def test_hub_heavy_graphs_match_brute_force():
    rng = random.Random(3533)
    for _ in range(15):
        edges = preferential_attachment_graph(rng.randint(4, 45), rng.randint(1, 4), rng)
        adj = adjacency(edges)
        stats = clustering_stats(graph_from_edges(edges))
        for node in adj:
            assert stats.local[node] == brute_force_local(adj, node)
        assert abs(stats.global_clustering - brute_force_global(adj)) <= 1e-12


def test_complete_graphs_and_trees():
    for n in (3, 5, 8):
        stats = clustering_stats(graph_from_edges(complete_graph(n)))
        assert all(c == 1.0 for c in stats.local.values())
        assert stats.global_clustering == 1.0
    rng = random.Random(7)
    for n in (2, 10, 40):
        stats = clustering_stats(graph_from_edges(random_tree(n, rng)))
        assert all(c == 0.0 for c in stats.local.values())
        assert stats.global_clustering == 0.0


def test_adding_neighbor_edge_strictly_increases_local():
    rng = random.Random(99)
    checked = 0
    while checked < 10:
        edges = random_graph(12, 0.3, rng)
        adj = adjacency(edges, vertex_names(12))
        for v in sorted(adj):
            nbrs = sorted(adj[v])
            pairs = [
                (a, b)
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1 :]
                if b not in adj[a]
            ]
            if not pairs:
                continue
            before = clustering_stats(graph_from_edges(edges)).local[v]
            after = clustering_stats(graph_from_edges([*edges, pairs[0]])).local[v]
            assert after > before
            checked += 1
            break


def test_relabeling_invariance():
    rng = random.Random(5150)
    edges = random_graph(25, 0.25, rng)
    nodes = sorted(vertex_names(25))
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    relabeled = [(mapping[a], mapping[b]) for a, b in edges]

    original = clustering_stats(graph_from_edges(edges, nodes))
    renamed = clustering_stats(graph_from_edges(relabeled, shuffled))
    assert renamed.global_clustering == original.global_clustering
    assert renamed.mean_clustering == pytest.approx(original.mean_clustering)
    assert all(renamed.local[mapping[v]] == original.local[v] for v in nodes)


def test_one_analysis_counts_clustering_once(monkeypatch):
    calls = {"stats": 0, "oriented": 0}
    real_stats = pipeline.clustering_stats
    real_oriented = graph_module._oriented

    def counting_stats(graph):
        calls["stats"] += 1
        return real_stats(graph)

    def counting_oriented(adj):
        calls["oriented"] += 1
        return real_oriented(adj)

    monkeypatch.setattr(pipeline, "clustering_stats", counting_stats)
    monkeypatch.setattr(graph_module, "_oriented", counting_oriented)
    loaded = make_loaded(
        [
            make_record(tweet_id="t1", author_id="a", mentions=["b", "c"]),
            make_record(tweet_id="t2", author_id="b", mentions=["c"], retweet_of="d"),
            make_record(tweet_id="t3", author_id="e"),
        ]
    )
    result = pipeline.analyze_corpus(loaded, load_config())
    pipeline.bundle_files(result)
    # Every triangle count, whoever asks for it, goes through one orientation.
    assert calls == {"stats": 1, "oriented": 1}
    assert counts_from_stats(result.stats)[0] == 1


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
    # one step per record and target: add the author, then (unless it is the
    # author) the target and the edge
    expected: dict[str, set[str]] = {}
    for record in records:
        author = record.author_id
        expected.setdefault(author, set())
        targets = [*record.mentions, *([record.retweet_of] if record.retweet_of is not None else [])]
        for other in targets:
            if other != author:
                expected[author].add(other)
                expected.setdefault(other, set()).add(author)
    assert_oriented(build_graph(records), expected)


def star(leaves):
    # The hub sorts first, so orienting by name alone would give it every edge.
    return [("a_hub", f"leaf{i:03d}") for i in range(leaves)]


@pytest.mark.parametrize(
    "edges",
    [preferential_attachment_graph(2000, 3, random.Random(8866)), star(60)],
    ids=["preferential_attachment", "star"],
)
def test_orientation_keeps_each_edge_once_within_sqrt_2e(edges):
    adj = adjacency(edges)
    out = graph_from_edges(edges).out
    assert sorted(out) == sorted(adj)
    for a, b in edges:
        assert (b in out[a]) != (a in out[b])
    assert all(higher <= adj[node] for node, higher in out.items())
    edge_count = len({frozenset(edge) for edge in edges})
    assert sum(len(higher) for higher in out.values()) == edge_count
    assert max(len(higher) for higher in out.values()) <= math.isqrt(2 * edge_count)
    top = max(len(nbrs) for nbrs in adj.values())
    hubs = [node for node, nbrs in adj.items() if len(nbrs) == top]
    assert len(hubs) == 1
    assert out[hubs[0]] == set()


def assert_matches_brute_force(edges, isolated=()):
    adj = adjacency(edges, isolated)
    stats = clustering_stats(graph_from_edges(edges, isolated))
    assert list(stats.local) == list(stats.degree) == sorted(adj)
    for node in adj:
        assert stats.local[node] == brute_force_local(adj, node)
        assert stats.degree[node] == len(adj[node])
    assert abs(stats.global_clustering - brute_force_global(adj)) <= 1e-12
    assert counts_from_stats(stats) == brute_force_counts(adj)
    assert stats.edges == brute_force_edge_count(adj)
    return stats


def test_planted_cliques_on_hubs_match_brute_force():
    rng = random.Random(4644)
    for _ in range(12):
        edges = preferential_attachment_graph(rng.randint(10, 45), rng.randint(1, 3), rng)
        for _ in range(rng.randint(1, 3)):
            clique = rng.sample(sorted(adjacency(edges)), rng.randint(4, 10))
            edges += combinations(clique, 2)
        assert_matches_brute_force(edges)


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
    stats = assert_matches_brute_force(edges, isolated)
    assert counts_from_stats(stats) == counts
    assert all(stats.local[node] == 0.0 for node in isolated)


@st.composite
def hub_biased_edges(draw):
    """Up to 30 nodes; edges favour low indices, whose names sort last."""
    n = draw(st.integers(1, 30))
    names = [f"n{n - i:02d}" for i in range(n)]
    pairs = draw(
        st.lists(st.integers(0, n - 1).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, a))), max_size=150)
    )
    return [(names[a], names[b]) for a, b in pairs], names


@given(hub_biased_edges())
def test_random_edge_lists_match_brute_force(case):
    assert_matches_brute_force(*case)


AUTHORS = st.sampled_from(["a", "b", "c", "d", "e"])


def assert_graph_api_matches_stats(records, adj):
    # bench/tracer.py reads the traced run's graph counts through this API
    graph = build_graph(records)
    stats = clustering_stats(graph)
    assert len(graph) == len(stats.degree) == len(adj)
    assert graph.nodes() == list(stats.degree) == sorted(adj)
    for node in adj:
        assert graph.degree(node) == stats.degree[node] == len(adj[node])
    assert graph.edge_count() == stats.edges == brute_force_edge_count(adj)


@given(st.lists(st.tuples(AUTHORS, st.lists(AUTHORS, max_size=4), st.none() | AUTHORS), min_size=1, max_size=20))
def test_bundle_graph_counts_are_distinct_nodes_and_pairs(rows):
    # few authors, so self-mentions, self-retweets, repeated pairs and isolated nodes are common
    records = [
        make_record(tweet_id=f"t{i}", author_id=author, mentions=mentions, retweet_of=retweet)
        for i, (author, mentions, retweet) in enumerate(rows)
    ]
    targets = [(author, other) for author, mentions, retweet in rows for other in [*mentions, retweet] if other]
    nodes = {author for author, _, _ in rows} | {other for _, other in targets}
    pairs = {frozenset(pair) for pair in targets if pair[0] != pair[1]}

    result = pipeline.analyze_corpus(make_loaded(records), load_config())
    with tempfile.TemporaryDirectory() as tmp:
        manifest = pipeline.write_bundle(result, tmp, None, [])
        summary = json.loads((Path(tmp) / "graph_summary.json").read_text(encoding="utf-8"))
        counts = json.loads(manifest.read_text(encoding="utf-8"))["stage_counts"]
    assert (summary["nodes"], summary["edges"]) == (len(nodes), len(pairs))
    assert (counts["graph_nodes"], counts["graph_edges"]) == (len(nodes), len(pairs))
    assert_graph_api_matches_stats(records, adjacency(targets, [author for author, _, _ in rows]))


def test_graph_api_matches_stats_on_demo_corpus():
    records = load_corpora([Path(__file__).resolve().parent.parent / "demos" / "data" / "demo_tweets.jsonl"]).records
    pairs = [(r.author_id, other) for r in records for other in [*r.mentions, r.retweet_of] if other]
    assert pairs
    assert_graph_api_matches_stats(records, adjacency(pairs, [r.author_id for r in records]))


@pytest.mark.parametrize("edges", [star(20_000), complete(150, "k")], ids=["star_20k", "k150"])
def test_graph_stage_peak_stays_within_one_and_three_quarter_adjacencies(edges):
    # The out-sets are made while the neighbor sets are freed, so the stage
    # never holds a full adjacency and a full oriented copy at once.
    tracemalloc.start()
    try:
        adj = adjacency(edges)
        adjacency_size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del adj
    records = edge_records(edges)
    tracemalloc.start()
    try:
        stats = clustering_stats(build_graph(records))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.edges == len(edges)
    assert peak <= 1.75 * adjacency_size


def test_write_bundle_encodes_every_file_before_writing_any(tmp_path):
    records = [make_record(tweet_id="t1", author_id="a", mentions=["b"])]
    result = pipeline.analyze_corpus(make_loaded(records), load_config())
    out = tmp_path / "bundle"
    # a corpus path UTF-8 cannot encode fails the manifest, the last file built
    with pytest.raises(UnicodeEncodeError):
        pipeline.write_bundle(result, out, None, ["\udcff.jsonl"])
    assert not out.exists()
    pipeline.write_bundle(result, out, None, ["corpus.jsonl"])
    assert len(list(out.iterdir())) == 10
