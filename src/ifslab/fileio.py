"""File formats: orbit CSV, cloud CSV, linear-system CSV, report JSON, and a
minimal SVG scatter for 2-d runs.

Floats are written with ``repr`` so every file round-trips bit for bit.
Writers check their input before they open the file, then stream it one
line per row, formatting each distinct point once; readers parse a file in
one pass of its lines, each distinct coordinate text once.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .clouds import PointCloud, distinct_rows, points_of
from .errors import EmptyCloudError, GeometryValidationError
from .ifs import Orbit
from .kaczmarz import LinearSystem

# SVG scatter: viewport side in pixels; margin as a fraction of the data span.
SVG_SIZE = 800
SVG_MARGIN_FRAC = 0.05


def write_orbit_csv(path, orbit):
    """Header ``n,symbol,x1,...,xd``; row 0 carries an empty symbol."""
    texts, inverse = _distinct_texts(orbit.points)
    symbols = [""] + orbit.symbols.tolist()
    with open(path, "w") as f:
        f.write("n,symbol," + ",".join(f"x{j + 1}" for j in range(orbit.dim)) + "\n")
        f.writelines(f"{k},{s},{texts[j]}\n" for k, (s, j) in enumerate(zip(symbols, inverse)))


def _distinct_texts(points):
    """The ``repr`` text of each distinct row of ``points``, and the index of
    every row's text, as a list."""
    first, inverse = distinct_rows(points)
    return [",".join(map(repr, row)) for row in points[first].tolist()], inverse.tolist()


def read_orbit_csv(path):
    points, symbols = _read_rows(path, _orbit_row, header="n,symbol")
    if not len(points):
        raise EmptyCloudError(f"{path}: no orbit rows")
    return Orbit(points, np.asarray(symbols, dtype=np.int64))


def _orbit_row(line, index):
    """The symbol and the coordinate text of the orbit row ``index``: row 0
    has an empty symbol and every later row has one."""
    cells = line.split(",", 2)
    if len(cells) < 3:
        raise ValueError(f"malformed orbit row: {line!r}")
    symbol = cells[1]
    if index and symbol:
        return int(symbol), cells[2]
    if index or symbol:
        raise ValueError(f"symbol {symbol!r} on row {index}: "
                         "row 0 has an empty symbol and every later row has one")
    return None, cells[2]


def _float_row(line, index):
    """A row of a headerless file: no symbol, and only values."""
    return None, line


def _read_rows(path, row, header=None):
    """The points, as one array, and the symbols of a CSV file whose rows
    ``row`` parses (see :func:`_parse_rows`), after the ``header`` line if
    one is given; only a headerless file skips empty lines.

    A non-finite value raises :class:`GeometryValidationError` naming its
    line, like any other bad cell. One vectorized test of the distinct rows
    looks for it after the parse, so a malformed line later in the file is
    named first.
    """
    with open(path) as f:
        lines = enumerate(f, 1)
        if header is not None:
            first = next((line for _, line in lines if line.strip()), "")
            if not first.lstrip().startswith(header):
                raise GeometryValidationError(f"{path}: not an orbit CSV (missing header)")
        distinct, first_lines, index, symbols = _parse_rows(path, lines, row,
                                                            skip_empty=header is None)
    distinct = np.asarray(distinct)
    if distinct.size and not (np.isfinite(distinct.min()) and np.isfinite(distinct.max())):
        # distinct rows are numbered as they first occur, so the first
        # non-finite one is on the first line with a non-finite value
        bad = int(np.flatnonzero(~np.isfinite(distinct).all(axis=1))[0])
        raise GeometryValidationError(f"{path}, line {first_lines[bad]}: "
                                      f"non-finite value in {distinct[bad].tolist()}")
    return distinct[np.asarray(index, dtype=np.intp)], symbols


def _parse_rows(path, lines, row, skip_empty):
    """The distinct value rows, the line number of each one's first
    occurrence, the index of every data row's values among them, and the
    symbols of the numbered ``lines`` of a CSV file. Each line is split by
    ``row(line, index)`` (the line and its data row index to ``(symbol or
    None, coordinate text)``), and each distinct coordinate text is parsed
    once: only texts that parsed into a row of the first row's width are
    remembered.

    The first line that ``row`` rejects, or that has another number of values
    than the first row, raises :class:`GeometryValidationError` naming the
    path and the 1-based line. Blank lines after the last row are ignored,
    and so are empty lines and blank lines before the first row if
    ``skip_empty``; any other blank line is rejected.
    """
    distinct, first_lines, index, symbols, width = [], [], [], [], None
    parsed = {}  # coordinate text -> the index of its values in distinct
    for number, line in lines:
        line = line.rstrip("\n")
        try:
            symbol, text = row(line, len(index))
            j = parsed.get(text)
            if j is None:
                values = [float(c) for c in text.split(",")]
                if len(values) != width:
                    if index:
                        raise ValueError(f"{len(values)} values, the first row has {width}")
                    width = len(values)
                j = parsed[text] = len(distinct)
                distinct.append(values)
                first_lines.append(number)
        except ValueError as exc:
            blank = not line.strip()
            if blank and skip_empty and not (line and index):
                continue
            if not blank or any(rest.strip() for _, rest in lines):
                raise GeometryValidationError(f"{path}, line {number}: {exc}") from None
            break
        index.append(j)
        if symbol is not None:
            symbols.append(symbol)
    return distinct, first_lines, index, symbols


def write_cloud_csv(path, cloud):
    """One point per row, no header."""
    texts, inverse = _distinct_texts(points_of(cloud))
    with open(path, "w") as f:
        f.writelines(texts[j] + "\n" for j in inverse)


def read_cloud_csv(path):
    """One point per row, no header; an empty file raises
    :class:`EmptyCloudError`."""
    points, _ = _read_rows(path, _float_row)
    if len(points) == 0:
        raise EmptyCloudError(f"{path}: empty cloud file")
    return PointCloud(points)


def read_linear_system_csv(path):
    """Rows ``a1,...,ad,b`` with no header."""
    data, _ = _read_rows(path, _float_row)
    if len(data) == 0:
        raise GeometryValidationError(f"{path}: empty system file")
    if data.shape[1] < 2:
        raise GeometryValidationError(f"{path}: rows need at least one coefficient and one rhs")
    return LinearSystem(data[:, :-1], data[:, -1])


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def render_svg_scatter(path, points, highlights=None):
    """Static 2-d scatter: orbit points in gray, highlight points in red.

    Fixed ``SVG_SIZE x SVG_SIZE`` viewport, autoscaled with a
    ``SVG_MARGIN_FRAC`` margin; the vertical axis points up.
    """
    pts = points_of(points, 2, "SVG points")
    hi = points_of(highlights, 2, "SVG highlights") if highlights is not None else np.empty((0, 2))
    every = np.vstack([pts, hi]) if len(hi) else pts
    lo = every.min(axis=0)
    hiv = every.max(axis=0)
    with np.errstate(over="ignore"):
        span = np.maximum(hiv - lo, 1e-12)
        pad = SVG_MARGIN_FRAC * span.max()
        extent = span.max() + 2 * pad
        lo = lo - pad
        # The pixel transform is monotone, so every pixel is finite when the
        # extent, the padded lower corner and the upper corner's offset are.
        if not np.isfinite([extent, *lo, *(hiv - lo)]).all():
            raise GeometryValidationError(f"{path}: the SVG points span more than float64 holds")
    scale = (SVG_SIZE - 1) / extent

    def pixels(p):
        px = (p - lo) * scale
        px[:, 1] = SVG_SIZE - 1 - px[:, 1]
        return px.tolist()

    # one circle per distinct point, written once for each of its rows
    first, inverse = distinct_rows(pts)
    circles = [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="#888888" '
               f'fill-opacity="0.6"/>\n' for x, y in pixels(pts[first])]
    with open(path, "w") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
                f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
                f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n')
        f.writelines(circles[j] for j in inverse.tolist())
        f.writelines(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#cc2222"/>\n'
                     for x, y in pixels(hi))
        f.write("</svg>\n")
