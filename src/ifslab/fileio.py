"""File formats: orbit CSV, cloud CSV, linear-system CSV, report JSON, and a
minimal SVG scatter for 2-d runs.

Floats are written with ``repr`` so every file round-trips bit for bit.
Writers check their input before they open the file, then stream it one
line per row, formatting each distinct point once; readers parse a file in
one pass of its lines, each distinct coordinate text once, and check it to
be finite as they parse it, so the earliest bad line is the one named.
"""

from __future__ import annotations

import json
from math import isfinite
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
    points, symbols = _read_rows(path, orbit=True)
    if not len(points):
        raise EmptyCloudError(f"{path}: no orbit rows")
    return Orbit(points, np.asarray(symbols, dtype=np.int64))


def _read_rows(path, orbit=False):
    """The points, as one array, and the symbols of a CSV file, read in one
    pass of its lines: an orbit file, after its header, or a headerless file
    of value rows. Each distinct coordinate text is parsed, and checked to be
    finite, once: only texts that parsed into a row of the first row's width
    are remembered.

    An orbit row is ``n,symbol,`` and its coordinates; row 0 has an empty
    symbol and every later row has one. The first line that breaks this, or
    that has a non-numeric or non-finite value, or another number of values
    than the first row, raises :class:`GeometryValidationError` naming the
    path and the 1-based line. Blank lines after the last row are ignored,
    and so are empty lines and blank lines before the first row of a
    headerless file; any other blank line is rejected.
    """
    distinct, index, symbols, width = [], [], [], None
    parsed = {}  # coordinate text -> the index of its values in distinct
    with open(path) as f:
        lines = enumerate(f, 1)
        if orbit:
            first = next((line for _, line in lines if line.strip()), "")
            if not first.lstrip().startswith("n,symbol"):
                raise GeometryValidationError(f"{path}: not an orbit CSV (missing header)")
        for number, line in lines:
            line = text = line.rstrip("\n")
            try:
                if orbit:
                    cells = line.split(",", 2)
                    if len(cells) < 3:
                        raise ValueError(f"malformed orbit row: {line!r}")
                    _, symbol, text = cells
                    if bool(symbol) != bool(index):
                        raise ValueError(f"symbol {symbol!r} on row {len(index)}: "
                                         "row 0 has an empty symbol and every later row has one")
                    if index:
                        symbols.append(int(symbol))
                j = parsed.get(text)
                if j is None:
                    values = [float(c) for c in text.split(",")]
                    if not all(map(isfinite, values)):
                        raise ValueError(f"non-finite value in {values}")
                    if len(values) != width:
                        if index:
                            raise ValueError(f"{len(values)} values, the first row has {width}")
                        width = len(values)
                    j = parsed[text] = len(distinct)
                    distinct.append(values)
            except ValueError as exc:
                blank = not line.strip()
                if blank and not orbit and not (line and index):
                    continue
                if not blank or any(rest.strip() for _, rest in lines):
                    raise GeometryValidationError(f"{path}, line {number}: {exc}") from None
                break
            index.append(j)
    return np.asarray(distinct)[np.asarray(index, dtype=np.intp)], symbols


def write_cloud_csv(path, cloud):
    """One point per row, no header."""
    texts, inverse = _distinct_texts(points_of(cloud))
    with open(path, "w") as f:
        f.writelines(texts[j] + "\n" for j in inverse)


def read_cloud_csv(path):
    """One point per row, no header; an empty file raises
    :class:`EmptyCloudError`."""
    points, _ = _read_rows(path)
    if len(points) == 0:
        raise EmptyCloudError(f"{path}: empty cloud file")
    return PointCloud(points)


def read_linear_system_csv(path):
    """Rows ``a1,...,ad,b`` with no header."""
    data, _ = _read_rows(path)
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
