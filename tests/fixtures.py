"""Synthetic corpora used by the herd, prediction and acceptance tests."""

from __future__ import annotations

from .conftest import make_loaded, make_record


def clique_star_corpus():
    """Opinionated clique vs factual star.

    Four high-subjectivity authors mention each other pairwise (a clique, so
    each has local clustering 1); five low-subjectivity authors form a star
    around a hub (local clustering 0 everywhere). Under the default lexicon
    "opinion" carries subjectivity 0.9 and "report" 0.1, which lands the two
    groups in the top and bottom default bands.
    """
    records = []
    clique = [f"h{i}" for i in range(4)]
    for i, author in enumerate(clique):
        others = [a for a in clique if a != author]
        records.append(
            make_record(
                tweet_id=f"clique{i}",
                author_id=author,
                text="my opinion: I think, I believe, I feel",
                mentions=others,
            )
        )
    hub = "s0"
    leaves = [f"s{i}" for i in range(1, 5)]
    records.append(
        make_record(tweet_id="hub", author_id=hub, text="official report with data")
    )
    for i, leaf in enumerate(leaves):
        records.append(
            make_record(
                tweet_id=f"leaf{i}",
                author_id=leaf,
                text="report number count data",
                mentions=[hub],
            )
        )
    return make_loaded(records)


def engineered_134_corpus_lines():
    """134 tweets split 24 negative / 49 positive / 61 neutral by construction."""
    from .conftest import record_line

    lines = []
    index = 0
    for _ in range(24):
        lines.append(record_line(tweet_id=f"t{index}", author_id=f"a{index}", text="bad"))
        index += 1
    for _ in range(49):
        lines.append(record_line(tweet_id=f"t{index}", author_id=f"a{index}", text="good"))
        index += 1
    for _ in range(61):
        lines.append(record_line(tweet_id=f"t{index}", author_id=f"a{index}", text="xyzzy"))
        index += 1
    return lines
