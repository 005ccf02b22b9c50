"""The scatter renderer against the point-by-point oracle, byte for byte."""

from __future__ import annotations

from hypothesis import given, strategies as st

from herdpulse.svgplot import render_scatter

from .oracles import reference_svg

# signed zeros, subnormals and values whose pad or span leaves the float range
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 1.0, 1e300, -1e300, 1e308, -1e308]
VALUES = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)


@given(st.data())
def test_render_scatter_matches_point_by_point_oracle(data):
    """0-4 series on one x column; with none, the x column is drawn too but the x range is empty."""
    points = data.draw(st.integers(0, 12))
    pool = data.draw(st.lists(VALUES, min_size=1, max_size=3))  # a few values, drawn again and again
    column = st.lists(st.sampled_from(pool) | VALUES, min_size=points, max_size=points)
    x = data.draw(column)
    series = [(label, data.draw(column)) for label in data.draw(st.lists(st.text(max_size=4), max_size=4))]
    labels = tuple(data.draw(st.text(max_size=6)) for _ in range(3))
    expected = reference_svg([(label, list(zip(x, ys))) for label, ys in series], *labels)
    assert render_scatter(series, x, *labels) == expected


@given(st.data())
def test_plots_that_share_a_placement_match_the_oracle(data):
    """x columns equal but for the sign of their zeros share one placement; each plot keeps its own range labels."""
    points = data.draw(st.integers(0, 6))
    x = data.draw(st.lists(st.sampled_from([0.0, -0.0]) | VALUES, min_size=points, max_size=points))
    columns = [x, [-value if value == 0 else value for value in x], list(x)]
    placed = {}
    for column in columns:
        series = [(label, data.draw(st.lists(VALUES, min_size=points, max_size=points))) for label in ("a", "b")]
        expected = reference_svg([(label, list(zip(column, ys))) for label, ys in series], "t", "x", "y")
        assert render_scatter(series, column, "t", "x", "y", placed) == expected
    assert list(placed) == [tuple(x)]
