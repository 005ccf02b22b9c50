from __future__ import annotations

import math

import pytest
from hypothesis import example, given, strategies as st

from herdpulse import build_graph, clustering_stats, load_config, preprocess, score_tokens
from herdpulse.herd import (
    DEFAULT_BAND_EDGES,
    AuthorProfile,
    CampAssignments,
    assign_corpus,
    herd_report,
    predict,
    profile_authors,
)
from herdpulse.pipeline import analyze_corpus, bundle_files
from herdpulse.sentiment import NEGATIVE, NEUTRAL, POSITIVE, SentimentScore

from .conftest import make_record
from .fixtures import clique_star_corpus
from .oracles import reference_assign, reference_band, reference_predict


def score(tweet_id, polarity=0.0, subjectivity=0.5):
    if polarity > 0:
        label = POSITIVE
    elif polarity < 0:
        label = NEGATIVE
    else:
        label = NEUTRAL
    return SentimentScore(tweet_id, polarity, subjectivity, label, 1)


XY = {"X": frozenset({"partyx"}), "Y": frozenset({"partyy"})}


def test_profile_authors_means():
    # b posts first; the profiles come in author id order, a then b
    records = [
        make_record(tweet_id="t3", author_id="b"),
        make_record(tweet_id="t1", author_id="a"),
        make_record(tweet_id="t2", author_id="a"),
    ]
    graph = build_graph(records)
    scores = [
        score("t3", polarity=-0.5, subjectivity=0.3),
        score("t1", polarity=0.2, subjectivity=0.4),
        score("t2", polarity=0.4, subjectivity=0.8),
    ]
    profiles = profile_authors(scores, records, clustering_stats(graph).local)
    assert profiles == [AuthorProfile(pytest.approx(0.6), 0.0), AuthorProfile(pytest.approx(0.3), 0.0)]


def test_profile_author_without_edges_gets_zero_clustering():
    records = [make_record(tweet_id="t1", author_id="a")]
    profiles = profile_authors([score("t1")], records, clustering_stats(build_graph(records)).local)
    assert profiles[0].local_clustering == 0.0


def test_herd_report_equal_band_and_global_mean():
    profiles = [AuthorProfile(0.9, 1.0)] * 3
    report = herd_report(profiles)
    assert report.herd_index == 0.0
    assert report.herd_flag is False


def test_herd_report_top_band_dominates():
    profiles = [
        AuthorProfile(0.9, 1.0),
        AuthorProfile(0.2, 0.0),
        AuthorProfile(0.3, 0.0),
    ]
    report = herd_report(profiles)
    assert report.herd_index == pytest.approx(2 / 3)
    assert report.herd_flag is True
    assert report.global_mean_clustering == pytest.approx(1 / 3)
    assert [band.count for band in report.bands] == [2, 0, 1]


def test_herd_report_empty_top_band():
    profiles = [AuthorProfile(0.4, 1.0), AuthorProfile(0.6, 1.0)]
    report = herd_report(profiles)
    assert report.herd_index == 0.0
    assert report.herd_flag is False


def test_herd_report_integer_threshold_renders_as_fixed_point():
    assert type(herd_report([AuthorProfile(0.9, 1.0)], threshold=0).threshold) is float
    config = load_config()._replace(herd_threshold=0)
    files = bundle_files(analyze_corpus(clique_star_corpus(), config))
    assert '"threshold": "0.000000"' in files["herd_report.json"]


def test_herd_report_band_edges_validation():
    profiles = [AuthorProfile(0.5, 0.5)]
    with pytest.raises(ValueError):
        herd_report(profiles, band_edges=(0.0, 0.5))  # must end at 1
    with pytest.raises(ValueError):
        herd_report(profiles, band_edges=(0.0, 0.8, 0.5, 1.0))
    with pytest.raises(ValueError):
        herd_report(profiles, band_edges=(0.1, 0.5, 1.0))
    with pytest.raises(ValueError):
        herd_report(profiles, band_edges=(0.0, float("nan"), 1.0))
    with pytest.raises(ValueError):
        herd_report([], band_edges=(0.0, 1.0))


def test_herd_report_band_membership_boundaries():
    # bands are [low, high) except the last, which includes 1.0
    profiles = [
        AuthorProfile(0.0, 0.0),
        AuthorProfile(0.5, 0.0),
        AuthorProfile(0.8, 0.0),
        AuthorProfile(1.0, 0.0),
    ]
    report = herd_report(profiles)
    assert [band.count for band in report.bands] == [1, 1, 2]


INNER_EDGES = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4, unique=True)


@given(
    edges=st.just(DEFAULT_BAND_EDGES) | INNER_EDGES.map(lambda inner: (0.0, *sorted(inner), 1.0)),
    subjs=st.lists(st.floats(0.0, 1.0), max_size=10),
    clusterings=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    with_edges=st.booleans(),
    threshold=st.floats(-1.0, 1.0),
)
def test_every_profile_lands_in_exactly_one_band(edges, subjs, clusterings, with_edges, threshold):
    # the manifest's profiled_authors is the band counts' sum. With every edge, 0 and 1 among the
    # mean subjectivities, each edge's band is tested; without them the top band may be empty
    values = [*edges, *subjs] if with_edges or not subjs else subjs
    profiles = [AuthorProfile(s, clusterings[i % len(clusterings)]) for i, s in enumerate(values)]
    report = herd_report(profiles, edges, threshold)
    groups = [[] for _ in edges[1:]]
    for p in profiles:
        groups[reference_band(p.mean_subjectivity, edges)].append(p.local_clustering)
    assert [(band.low, band.high) for band in report.bands] == list(zip(edges, edges[1:]))
    assert [band.count for band in report.bands] == [len(group) for group in groups]
    assert sum(band.count for band in report.bands) == len(profiles)
    assert [band.mean_clustering for band in report.bands] == [
        math.fsum(group) / len(group) if group else 0.0 for group in groups
    ]
    overall = math.fsum(p.local_clustering for p in profiles) / len(profiles)
    herd_index = math.fsum(groups[-1]) / len(groups[-1]) - overall if groups[-1] else 0.0
    assert report.global_mean_clustering == overall
    assert report.herd_index == herd_index
    assert report.herd_flag is (bool(groups[-1]) and herd_index > threshold)


WORDS = ("alpha", "beta", "gamma", "delta")


@given(
    tweets=st.lists(
        st.tuples(st.frozensets(st.sampled_from(WORDS)), st.frozensets(st.sampled_from(WORDS), max_size=2)),
        max_size=12,
    ),
    camps=st.dictionaries(st.sampled_from("XYZ"), st.frozensets(st.sampled_from(WORDS), min_size=1), max_size=3),
)
# camps that share a keyword tie on it
@example(tweets=[(frozenset({"alpha"}), frozenset())], camps={"X": frozenset(WORDS[:2]), "Y": frozenset(WORDS[:1])})
# the only hit is a hashtag
@example(
    tweets=[(frozenset({"beta"}), frozenset({"gamma"}))], camps={"X": frozenset({"gamma"}), "Y": frozenset({"alpha"})}
)
# a word that is both a token and a hashtag counts once
@example(
    tweets=[(frozenset({"alpha", "beta"}), frozenset({"alpha"}))],
    camps={"X": frozenset({"alpha"}), "Y": frozenset({"beta", "gamma"})},
)
def test_assigned_and_unassigned_add_up_to_the_tweets(tweets, camps):
    records = [make_record(tweet_id=f"t{i}", hashtags=sorted(tags)) for i, (_, tags) in enumerate(tweets)]
    tokens = [tuple(sorted(own)) for own, _ in tweets]
    assignments = assign_corpus(tokens, records, camps)
    expected = reference_assign([(r.tweet_id, own, r.hashtags) for r, own in zip(records, tokens)], camps)
    assert (assignments.by_tweet, assignments.tie_count, assignments.unassigned_count) == expected
    assert len(assignments.by_tweet) + assignments.unassigned_count == len(records)
    assert assignments.tie_count <= assignments.unassigned_count


def assign_one(tokens, hashtags=()):
    """The camp a one-tweet corpus assigns its tweet, or None."""
    assignments = assign_corpus([tuple(tokens)], [make_record(hashtags=hashtags)], XY)
    return assignments.by_tweet.get("t1")


def test_assign_camp_examples():
    assert assign_one(["vote", "partyx"]) == "X"
    assert assign_one(["vote"]) is None
    assert assign_one(["partyx", "partyy"]) is None


def test_assign_camp_uses_hashtags():
    assert assign_one(["vote"], hashtags=["partyy"]) == "Y"


def test_assign_corpus_counts_ties():
    tokens = [("partyx",), ("partyx", "partyy"), ("nothing",)]
    records = [make_record(tweet_id=f"t{i}") for i in (1, 2, 3)]
    assignments = assign_corpus(tokens, records, XY)
    assert assignments.by_tweet == {"t1": "X"}
    assert assignments.tie_count == 1
    assert assignments.unassigned_count == 2


@pytest.mark.parametrize("drop", ["per_tweet", "record"])
def test_per_tweet_lists_line_up_with_records_by_position(drop):
    records = [make_record(tweet_id=f"t{i}", author_id=f"a{i}") for i in (1, 2, 3)]
    scores = [score(r.tweet_id) for r in records]
    tokens = [("partyx",)] * len(records)
    if drop == "per_tweet":
        scores, tokens = scores[:-1], tokens[:-1]
    else:
        records = records[:-1]
    # one element short is an error, not a silently dropped or truncated tweet
    with pytest.raises(ValueError):
        profile_authors(scores, records, {})
    with pytest.raises(ValueError):
        assign_corpus(tokens, records, XY)


def make_assignments(mapping):
    return CampAssignments(dict(mapping), 0, 0)


def neutral_herd():
    return herd_report([AuthorProfile(0.9, 0.5), AuthorProfile(0.1, 0.5)])


def camp_scores(camp, pos, neg, neu, prefix):
    scores = []
    mapping = {}
    for i in range(pos):
        scores.append(score(f"{prefix}p{i}", polarity=0.5))
        mapping[f"{prefix}p{i}"] = camp
    for i in range(neg):
        scores.append(score(f"{prefix}n{i}", polarity=-0.5))
        mapping[f"{prefix}n{i}"] = camp
    for i in range(neu):
        scores.append(score(f"{prefix}z{i}", polarity=0.0))
        mapping[f"{prefix}z{i}"] = camp
    return scores, mapping


def test_predict_example_from_counts():
    sx, mx = camp_scores("X", 5, 1, 4, "x")
    sy, my = camp_scores("Y", 3, 3, 4, "y")
    report = predict(sx + sy, make_assignments({**mx, **my}), neutral_herd())
    assert report.winner == "X"
    assert report.margin == pytest.approx(0.4)
    assert report.undecided is False
    assert report.degenerate is False
    x, y = report.camps
    assert (x.camp_id, x.rank, x.support) == ("X", 1, pytest.approx(0.4))
    assert (y.camp_id, y.rank, y.support) == ("Y", 2, 0.0)
    assert x.positive_pct == "50.00"


def test_predict_scale_invariance():
    sx, mx = camp_scores("X", 5, 1, 4, "x")
    sy, my = camp_scores("Y", 3, 3, 4, "y")
    small = predict(sx + sy, make_assignments({**mx, **my}), neutral_herd())
    sx10, mx10 = camp_scores("X", 50, 10, 40, "x")
    sy10, my10 = camp_scores("Y", 30, 30, 40, "y")
    big = predict(sx10 + sy10, make_assignments({**mx10, **my10}), neutral_herd())
    assert [c.camp_id for c in big.camps] == [c.camp_id for c in small.camps]
    assert [c.support for c in big.camps] == pytest.approx([c.support for c in small.camps])
    assert big.winner == small.winner


def test_predict_all_neutral_undecided():
    sx, mx = camp_scores("X", 0, 0, 4, "x")
    sy, my = camp_scores("Y", 0, 0, 6, "y")
    report = predict(sx + sy, make_assignments({**mx, **my}), neutral_herd())
    assert report.undecided is True
    assert report.winner is None
    assert report.margin == 0.0
    assert [c.rank for c in report.camps] == [1, 1]


def test_predict_single_camp_degenerate():
    sx, mx = camp_scores("X", 2, 1, 1, "x")
    report = predict(sx, make_assignments(mx), neutral_herd())
    assert report.degenerate is True
    assert report.winner == "X"
    assert len(report.camps) == 1


def test_predict_no_assignments_returns_none():
    assert predict([score("t1")], make_assignments({}), neutral_herd()) is None


def test_predict_camp_relabeling_symmetry():
    sx, mx = camp_scores("X", 5, 1, 4, "x")
    sy, my = camp_scores("Y", 3, 3, 4, "y")
    forward = predict(sx + sy, make_assignments({**mx, **my}), neutral_herd())
    swapped_map = {k: ("Y" if v == "X" else "X") for k, v in {**mx, **my}.items()}
    swapped = predict(sx + sy, make_assignments(swapped_map), neutral_herd())
    assert swapped.winner == "Y"
    assert swapped.margin == pytest.approx(forward.margin)
    assert sorted(c.support for c in swapped.camps) == sorted(
        c.support for c in forward.camps
    )


def test_predict_does_not_use_herd_index():
    sx, mx = camp_scores("X", 5, 1, 4, "x")
    sy, my = camp_scores("Y", 3, 3, 4, "y")
    low = herd_report([AuthorProfile(0.9, 0.0), AuthorProfile(0.1, 0.0)])
    high = herd_report([AuthorProfile(0.9, 1.0), AuthorProfile(0.1, 0.0)])
    with_low = predict(sx + sy, make_assignments({**mx, **my}), low)
    with_high = predict(sx + sy, make_assignments({**mx, **my}), high)
    assert [c.support for c in with_low.camps] == [c.support for c in with_high.camps]
    assert with_low.winner == with_high.winner
    assert with_low.herd_index != with_high.herd_index


@given(
    subjs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
    clusterings=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=20, max_size=20),
    threshold=st.floats(min_value=-0.5, max_value=0.5),
)
def test_herd_index_bounds_and_flag_consistency(subjs, clusterings, threshold):
    profiles = list(map(AuthorProfile, subjs, clusterings))
    report = herd_report(profiles, threshold=threshold)
    assert -1.0 <= report.herd_index <= 1.0
    if report.bands[-1].count > 0:
        assert report.herd_flag == (report.herd_index > threshold)
    else:
        assert report.herd_flag is False


def test_clique_vs_star_fixture_flags_herding():
    corpus = clique_star_corpus()
    config = load_config()
    graph = build_graph(corpus.records)
    tokens = [preprocess(r.text, config.stopwords, config.stemmer_rules) for r in corpus.records]
    scores = [score_tokens(r.tweet_id, t, config.lexicon, config.negation_words) for r, t in zip(corpus.records, tokens)]
    profiles = profile_authors(scores, corpus.records, clustering_stats(graph).local)
    report = herd_report(profiles, config.band_edges, config.herd_threshold)
    assert report.herd_index > 0
    assert report.herd_flag is True
    # clique members all sit in the top band with clustering 1
    assert report.bands[-1].count == 4
    assert report.bands[-1].mean_clustering == 1.0


LABELS = (POSITIVE, NEGATIVE, NEUTRAL)
POLARITY = {POSITIVE: 0.5, NEGATIVE: -0.5, NEUTRAL: 0.0}


@st.composite
def camp_tweets(draw):
    """(camp or None, label) per tweet; small label counts, some scaled, make support ties common."""
    tweets = []
    for camp in draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True)):
        counts = draw(st.tuples(*[st.integers(0, 3)] * 3).filter(any))
        scale = draw(st.integers(1, 3))
        tweets += [(camp, label) for label, n in zip(LABELS, counts) for _ in range(n * scale)]
    tweets += [(None, label) for label in draw(st.lists(st.sampled_from(LABELS), max_size=3))]
    return draw(st.permutations(tweets))


def tweets_of(*camps):
    """Tweets of camps given as (camp, positive, negative, neutral) counts."""
    return [(camp, label) for camp, *counts in camps for label, n in zip(LABELS, counts) for _ in range(n)]


@example(tweets=tweets_of(("A", 2, 1, 0)))  # a single camp
@example(tweets=tweets_of(("A", 1, 0, 1), ("B", 2, 0, 2), ("C", 0, 0, 1)))  # tied at the top
@example(tweets=tweets_of(("A", 3, 0, 0), ("B", 1, 0, 1), ("C", 2, 0, 2), ("D", 3, 0, 3), ("E", 0, 2, 0)))
@given(tweets=camp_tweets())
def test_predict_matches_the_oracle(tweets):
    scores = [score(f"t{i}", polarity=POLARITY[label]) for i, (_, label) in enumerate(tweets)]
    by_tweet = {f"t{i}": camp for i, (camp, _) in enumerate(tweets) if camp is not None}
    herd = neutral_herd()
    report = predict(scores, CampAssignments(by_tweet, 0, 0), herd)
    expected = reference_predict(tweets)
    assert [camp._asdict() for camp in report.camps] == expected.pop("camps")
    assert report._asdict() == {
        **expected,
        "camps": report.camps,
        "herd_index": herd.herd_index,
        "herd_flag": herd.herd_flag,
    }
