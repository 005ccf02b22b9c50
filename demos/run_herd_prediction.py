#!/usr/bin/env python3
"""Walkthrough: subjectivity bands, the herd index, and the camp prediction.

Connects the two halves of the toolkit: authors are bucketed by how
opinionated their tweets are, the top band's clustering is compared with the
overall mean (the herd index), and keyword-defined camps are ranked by their
sentiment support score.
"""

from pathlib import Path

from herdpulse import analyze_corpus, load_config, load_corpora

DATA = Path(__file__).parent / "data"

loaded = load_corpora([DATA / "demo_tweets.jsonl"])
config = load_config(DATA / "demo_config.json")
result = analyze_corpus(loaded, config)

print("subjectivity bands (author count, mean local clustering):")
for band in result.herd.bands:
    print(f"  [{band.low:.2f}, {band.high:.2f}]  n = {band.count:>2}  C = {band.mean_clustering:.4f}")
print(f"overall mean clustering: {result.herd.global_mean_clustering:.4f}")
print(f"herd index: {result.herd.herd_index:+.4f}  flag: {result.herd.herd_flag}")
# A positive index: the most opinionated authors sit in the densest
# neighborhoods, so their take spreads peer-to-peer.

print("\ncamp assignment:")
print(f"  assigned {len(result.assignments.by_tweet)} tweets, "
      f"{result.assignments.tie_count} ties, "
      f"{result.assignments.unassigned_count} without camp signal")

print("\ncamp ranking by support score (positive - negative) / assigned:")
for camp in result.prediction.camps:
    print(
        f"  #{camp.rank} {camp.camp_id}: {camp.tweet_count} tweets, "
        f"{camp.positive_pct}% pos / {camp.negative_pct}% neg / {camp.neutral_pct}% neu, "
        f"support {camp.support:+.4f}"
    )
print(f"\npredicted winner: {result.prediction.winner}  margin {result.prediction.margin:.4f}")

if config.reference_shares:
    print("\npublished vote shares for comparison (external constants, not computed):")
    for camp_id, share in sorted(config.reference_shares.items()):
        print(f"  {camp_id}: {share}%")
