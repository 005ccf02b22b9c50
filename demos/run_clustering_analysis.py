#!/usr/bin/env python3
"""Walkthrough: interaction graph and its clustering structure.

Builds the undirected author graph from mentions/retweets in the demo corpus
and prints the local coefficients, the transitivity, and the mean clustering
per degree (the data behind the C(k) curve).
"""

from pathlib import Path

from herdpulse import build_graph, clustering_stats, load_corpora

DATA = Path(__file__).parent / "data"

records = load_corpora([DATA / "demo_tweets.jsonl"]).records
# one counting pass yields every clustering number below
stats = clustering_stats(build_graph(records))

print(f"graph: {len(stats.degree)} authors, {stats.edges} interaction edges")

# Local coefficient: the share of an author's neighbor pairs that interact
# with each other. Degree < 2 scores 0 by convention.
print("\nper-author local clustering:")
for node in sorted(stats.degree):
    print(f"  {node}  degree {stats.degree[node]}  C = {stats.local[node]:.4f}")

print(f"\nmean clustering  : {stats.mean_clustering:.6f}")
print(f"transitivity     : {stats.global_clustering:.6f}")

# Highly connected hubs tending to lower C is the classic hierarchy signal;
# with a corpus this small the curve is just a handful of points.
print("\nmean clustering per degree:")
for k, c in stats.ck_curve:
    print(f"  k = {k:>2}  mean C = {c:.4f}")
