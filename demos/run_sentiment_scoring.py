#!/usr/bin/env python3
"""Walkthrough: from a raw tweet file to polarity/subjectivity scores.

Loads the bundled demo corpus, shows what the text pipeline does to a few
tweets, scores everything against the default lexicon and prints the
label shares in the truncated two-decimal format used by the reports.
"""

from pathlib import Path

from herdpulse import load_config, load_corpora, preprocess, score_tokens
from herdpulse.pipeline import score_corpus

DATA = Path(__file__).parent / "data"

# 1. Ingest. Every line is validated; bad lines would be listed, not dropped.
result = load_corpora([DATA / "demo_tweets.jsonl"])
print(f"loaded {len(result.records)} tweets, {len(result.invalid)} invalid lines")

config = load_config()  # the packaged defaults

# 2. Normalize + tokenize + stopwords + stem, then score. Watch a few tweets
#    go through: URLs and mentions disappear, hashtags keep their word.
print("\nsample pipeline output:")
for record in result.records[:4]:
    tokens = preprocess(record.text, config.stopwords, config.stemmer_rules)
    score = score_tokens(record.tweet_id, tokens, config.lexicon, config.negation_words)
    print(f"  {record.tweet_id}  {record.text!r}")
    print(f"      tokens  : {' '.join(tokens)}")
    print(
        f"      scored  : polarity {score.polarity:+.3f}  "
        f"subjectivity {score.subjectivity:.3f}  {score.label}"
    )

# 3. Shares over the whole corpus, scored as analyze scores it. Percentages are truncated,
#    never rounded, so the printed numbers match the report files digit for digit.
_, _, summary = score_corpus(result.records, config)
print(f"\n{summary.total} tweets:")
print(f"  negative {summary.negative_pct}%  ({summary.negative})")
print(f"  positive {summary.positive_pct}%  ({summary.positive})")
print(f"  neutral  {summary.neutral_pct}%  ({summary.neutral})")
