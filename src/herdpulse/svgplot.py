"""Minimal deterministic SVG scatter rendering.

Hand-rolled on purpose: the report bundle must be byte-identical across runs and platforms, so
every coordinate is emitted with fixed two-decimal formatting and nothing (ids, timestamps, library
versions) leaks into the output. Plots that share a ``placed`` dict place each x column once.
"""

import math
from itertools import chain

WIDTH = 640.0
HEIGHT = 480.0
MARGIN = 60.0

SERIES_COLORS = ("#1f6fb2", "#d1495b", "#3e8e41", "#8e5ba6")


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape`` does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _range(values: list[float]) -> tuple[float, float]:
    """An axis range covering the data: [0, 1] if empty, a constant widened by 0.5 each way or,
    where 0.5 rounds away, by one float step towards 0."""
    low, high = (min(values), max(values)) if values else (0.0, 1.0)
    if low == high:
        low, high = low - 0.5, high + 0.5
    if low == high:
        low, high = sorted((low, math.nextafter(low, 0.0)))
    return low, high


def _place(values: list[float], low: float, high: float, start: float, length: float) -> dict[float, str]:
    """Each distinct value's coordinate on the axis ``low``-``high`` as text, placed and formatted once.

    Where ``high - low`` overflows, values are placed halved: halving is exact for normal floats
    and keeps every difference finite. The sign of a zero, as a value or as ``low`` or ``high``,
    moves no coordinate (``start`` is never 0), so 0.0 and -0.0 may share a key and a placement.
    """
    unit = 1.0 if math.isfinite(high - low) else 0.5
    offset, span = low * unit, high * unit - low * unit
    return {value: f"{start + (value * unit - offset) / span * length:.2f}" for value in set(values)}


def render_scatter(
    series: list[tuple[str, list[float]]],
    x: list[float],
    title: str,
    x_label: str,
    y_label: str,
    placed: dict[tuple[float, ...], list[str]] | None = None,
) -> str:
    """SVG document with axes, labels and one circle per data point.

    ``series`` holds ``(label, y values)`` pairs that share the x values ``x``.
    An entirely empty series list still renders axes over a [0, 1] x [0, 1]
    frame, so "no data" plots are valid documents. ``placed`` maps an x column
    to its circles' x coordinates: a caller that draws several plots over equal
    x columns passes one dict to all of them, and each column is placed once.
    """
    title, x_label, y_label = map(_escape, (title, x_label, y_label))
    x = x if series else []  # no series, no point: the x range is empty
    all_y = list(chain.from_iterable(values for _, values in series))
    x_min, x_max = _range(x)
    y_min, y_max = _range(all_y)
    placed = {} if placed is None else placed
    if (key := tuple(x)) not in placed:
        placed[key] = list(map(_place(x, x_min, x_max, MARGIN, WIDTH - 2 * MARGIN).__getitem__, x))
    cx = placed[key]
    y_text = _place(all_y, y_min, y_max, HEIGHT - MARGIN, -(HEIGHT - 2 * MARGIN))

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

    for index, (label, values) in enumerate(series):
        color = SERIES_COLORS[index % len(SERIES_COLORS)]
        tail = f' r="3.00" fill="{color}" fill-opacity="0.75"/>'
        out += [f'<circle cx="{x_at}" cy="{y_at}"{tail}' for x_at, y_at in zip(cx, map(y_text.__getitem__, values))]
        if len(series) > 1:
            out.append(
                f'<text x="{_fmt(WIDTH - MARGIN)}" y="{_fmt(MARGIN + 16 * index)}" '
                f'text-anchor="end" font-family="sans-serif" font-size="12" '
                f'fill="{color}">{_escape(label)}</text>'
            )

    out.append("</svg>\n")
    return "\n".join(out)
