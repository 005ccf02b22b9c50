"""The ``plot`` command: an SVG for each series CSV of a report bundle. Only ``plot`` loads this module,
so no other command loads ``csv`` or ``svgplot`` or compiles this code. ``render_scatter`` is looked up
on ``svgplot`` per call, so a wrapper set on that module sees every plot."""

import csv
import io
import math
import re
from itertools import chain
from pathlib import Path

from . import svgplot
from .inputs import EXIT_DATA, EXIT_IO, EXIT_OK, _fail, _read_text

# bundle CSVs plot_bundle knows how to render: name -> (title, x label, y label)
PLOT_SERIES = {
    "subjectivity_series.csv": ("Tweet subjectivity", "tweet index", "subjectivity"),
    "polarity_series.csv": ("Tweet polarity", "tweet index", "polarity"),
    "combined_series.csv": ("Subjectivity and polarity", "tweet index", "value"),
    "ck_curve.csv": ("Clustering coefficient vs degree", "degree", "mean clustering"),
    "degree_distribution.csv": ("Degree distribution", "degree", "node count"),
}
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")  # XML 1.0 cannot hold these; UTF-8 gives no surrogate


def _read_series_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and columns of finite numbers; raises ValueError as ``path:line: reason``.

    The file is read as every other input is: UTF-8, a leading BOM ignored; a
    NUL fails first, on 3.11+ as 3.10's csv fails it. Rows are transposed and
    each column converted and checked in bulk. A file that fails is read again
    row by row to name a line of the file, where a quoted cell's line breaks
    count: the first where a header cell holds what XML 1.0 cannot (the SVG
    shows it) or a cell cannot be read or converted, else the last line of the
    first row of the wrong width or with a number that is not finite.
    """
    text = _read_text(path)
    if "\0" in text:
        line = len(io.StringIO(text[: text.index("\0") + 1], newline="").readlines())
        raise ValueError(f"{path}:{line}: line contains NUL")
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if rows and rows[0] and set(map(len, rows)) == {len(rows[0])} and not _NOT_XML.search("".join(rows[0])):
            # each column starts with its header cell
            columns = [list(map(float, column[1:])) for column in zip(*rows)]
            if all(map(math.isfinite, chain.from_iterable(columns))):
                return rows[0], columns
    except (ValueError, csv.Error):  # csv.Error: a cell past csv's field size limit
        pass
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if bad := _NOT_XML.search("".join(header or "")):
            raise ValueError(f"header holds {bad.group()!r}, which XML 1.0 cannot")
        rows = [(reader.line_num, [float(cell) for cell in row]) for row in reader] if header else []
    except (ValueError, csv.Error) as err:
        raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    if not header:
        raise ValueError(f"{path}:1: no header")
    number, row = next((n, row) for n, row in rows if len(row) != len(header) or not all(map(math.isfinite, row)))
    raise ValueError(f"{path}:{number}: expected {len(header)} finite numbers, got {row}")


def plot_bundle(bundle_dir: str, out_dir: str | None) -> int:
    """Write an SVG for each series CSV of ``bundle_dir`` into ``out_dir`` (default: the bundle); an exit code."""
    bundle = Path(bundle_dir)
    if not bundle.is_dir():
        _fail(f"no such bundle directory: {bundle}")
        return EXIT_IO
    out = Path(out_dir) if out_dir else bundle

    status = EXIT_OK
    placed = {}  # the series CSVs share their index column, ck_curve and degree_distribution their degrees
    for name, (title, x_label, y_label) in PLOT_SERIES.items():
        source = bundle / name
        if not source.exists():
            _fail(f"missing CSV: {source}")
            status = EXIT_DATA
            continue
        try:
            header, columns = _read_series_csv(source)
        except ValueError as err:
            _fail(str(err))
            status = EXIT_DATA
            continue
        svg = svgplot.render_scatter(list(zip(header[1:], columns[1:])), columns[0], title, x_label, y_label, placed)
        out.mkdir(parents=True, exist_ok=True)  # only once there is an SVG to write
        target = out / (name[: -len(".csv")] + ".svg")
        target.write_text(svg, encoding="utf-8")
        print(f"wrote {target}")
    return status
