"""Minimal deterministic SVG scatter rendering.

Hand-rolled on purpose: the report bundle must be byte-identical across runs
and platforms, so every coordinate is emitted with fixed two-decimal
formatting and nothing (ids, timestamps, library versions) leaks into the
output.
"""

from __future__ import annotations

WIDTH = 640.0
HEIGHT = 480.0
MARGIN = 60.0

SERIES_COLORS = ("#1f6fb2", "#d1495b", "#3e8e41", "#8e5ba6")


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape`` does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _scale(values: list[float]) -> tuple[float, float]:
    """Axis range covering the data; degenerate or empty data maps to [0, 1]."""
    if not values:
        return 0.0, 1.0
    low, high = min(values), max(values)
    if low == high:
        low, high = low - 0.5, high + 0.5
    return low, high


def render_scatter(
    series: list[tuple[str, list[tuple[float, float]]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """SVG document with axes, labels and one circle per data point.

    An entirely empty series list still renders axes over a [0, 1] x [0, 1]
    frame, so "no data" plots are valid documents.
    """
    title = _escape(title)
    x_label = _escape(x_label)
    y_label = _escape(y_label)
    all_x = [x for _, points in series for x, _ in points]
    all_y = [y for _, points in series for _, y in points]
    x_min, x_max = _scale(all_x)
    y_min, y_max = _scale(all_y)

    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN

    def px(x: float) -> float:
        return MARGIN + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_min) / (y_max - y_min) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="30.00" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        # axes
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(HEIGHT - MARGIN)}" '
        f'x2="{_fmt(WIDTH - MARGIN)}" y2="{_fmt(HEIGHT - MARGIN)}" stroke="#000000"/>',
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(MARGIN)}" '
        f'x2="{_fmt(MARGIN)}" y2="{_fmt(HEIGHT - MARGIN)}" stroke="#000000"/>',
        # axis range labels
        f'<text x="{_fmt(MARGIN)}" y="{_fmt(HEIGHT - MARGIN + 20)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{_fmt(x_min)}</text>',
        f'<text x="{_fmt(WIDTH - MARGIN)}" y="{_fmt(HEIGHT - MARGIN + 20)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">{_fmt(x_max)}</text>',
        f'<text x="{_fmt(MARGIN - 8)}" y="{_fmt(HEIGHT - MARGIN)}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{_fmt(y_min)}</text>',
        f'<text x="{_fmt(MARGIN - 8)}" y="{_fmt(MARGIN + 4)}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{_fmt(y_max)}</text>',
        f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - 15)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="18.00" y="{_fmt(HEIGHT / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18.00 {_fmt(HEIGHT / 2)})">{y_label}</text>',
    ]

    for index, (label, points) in enumerate(series):
        color = SERIES_COLORS[index % len(SERIES_COLORS)]
        for x, y in points:
            out.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3.00" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
        if len(series) > 1:
            out.append(
                f'<text x="{_fmt(WIDTH - MARGIN)}" y="{_fmt(MARGIN + 16 * index)}" '
                f'text-anchor="end" font-family="sans-serif" font-size="12" '
                f'fill="{color}">{_escape(label)}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
