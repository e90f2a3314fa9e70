"""File formats: orbit CSV, cloud CSV, linear-system CSV, report JSON, and a
minimal SVG scatter for 2-d runs.

Floats are written with ``repr`` so every file round-trips bit for bit.
Writers check their input before they open the file. They format each
distinct point, symbol or circle once, as NUL-padded bytes, and assemble
the rows from those with numpy, a bounded block at a time (see
:func:`_write_rows`). Readers take a file of
plain rows, as the writers write them, through numpy's C reader; any other
file takes a line loop that parses each distinct coordinate text once and
checks it to be finite as it parses it, so the earliest bad line is the one
named. The results are the same either way.
"""

from __future__ import annotations

import json
import warnings
from math import isfinite
from pathlib import Path

import numpy as np

from .clouds import PointCloud, distinct_rows, points_of
from .errors import EmptyCloudError, GeometryValidationError
from .ifs import Orbit
from .kaczmarz import LinearSystem, _RowError

# SVG scatter: viewport side in pixels; margin as a fraction of the data span.
SVG_SIZE = 800
SVG_MARGIN_FRAC = 0.05

# Bytes of rows that the writers assemble at a time.
WRITE_BLOCK_BYTES = 1 << 16


def write_orbit_csv(path, orbit):
    """Header ``n,symbol,x1,...,xd``; row 0 carries an empty symbol."""
    first, inverse = orbit.distinct_rows()
    points = _texts(_point_text(row) for row in orbit.points[first].tolist())
    symbols, ids = np.unique(orbit.symbols, return_inverse=True)
    with open(path, "wb") as f:
        f.write(("n,symbol," + ",".join(f"x{j + 1}" for j in range(orbit.dim)) + "\n"
                 "0,," + _point_text(orbit.points[0].tolist())).encode())
        if orbit.n_steps:
            _write_rows(f, [(_texts(f",{s}," for s in symbols.tolist()), ids),
                            (points, inverse[1:])], 1)


def _point_text(row):
    return ",".join(map(repr, row)) + "\n"


def _texts(strings):
    """ASCII strings as the rows of a ``(k, width)`` uint8 array, each padded
    with NUL bytes to the longest."""
    arr = np.array([s.encode() for s in strings], dtype=bytes)
    return arr.view(np.uint8).reshape(len(arr), arr.itemsize)


def _write_rows(f, columns, numbers_from=None):
    """Write rows to the binary file ``f``. Row ``r`` is the decimal number
    ``numbers_from + r``, if that is given, followed by ``texts[ids[r]]`` of
    each ``(texts, ids)`` column, whose ``texts`` come from :func:`_texts`.

    Each block of rows, of about WRITE_BLOCK_BYTES, is assembled in one uint8
    array, a row of fixed width: the number's digits, right-aligned, then
    each column's text, gathered by its ids. Dropping every NUL byte of the
    array leaves the rows, one after another.
    """
    n = len(columns[0][1])
    digits = len(str(numbers_from + n - 1)) if numbers_from is not None else 0
    width = digits + sum(texts.shape[1] for texts, _ in columns)
    step = max(1, WRITE_BLOCK_BYTES // width)
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = np.empty((stop - start, width), dtype=np.uint8)
        if digits:
            number = np.arange(numbers_from + start, numbers_from + stop)
            for j in range(digits):
                place = 10 ** (digits - 1 - j)
                block[:, j] = number // place % 10 + ord("0")
                if place > 1:
                    block[number < place, j] = 0
        at = digits
        for texts, ids in columns:
            block[:, at:at + texts.shape[1]] = texts[ids[start:stop]]
            at += texts.shape[1]
        flat = block.reshape(-1)
        f.write(flat[flat != 0])


def read_orbit_csv(path):
    points, symbols, _ = _read_rows(path, orbit=True)
    if not len(points):
        raise EmptyCloudError(f"{path}: no orbit rows")
    points.flags.writeable = False  # nothing else holds them: no copy for the orbit
    return Orbit(points, np.asarray(symbols, dtype=np.int64))


def _read_rows(path, orbit=False):
    """The points, as one array, the symbols and each point's 1-based line
    of a CSV file: an orbit file, after its header, or a headerless file.

    A file of plain rows takes numpy's C reader (:func:`_plain_rows`); any
    other file takes the line loop (:func:`_line_rows`), which defines what
    the formats accept and names the first bad line. Both give the same
    points, bit for bit, and the same symbols and lines.
    """
    rows = _plain_rows(path, orbit)
    return rows if rows is not None else _line_rows(path, orbit)


def _plain_rows(path, orbit):
    """The points, symbols and 1-based lines of a file of plain rows, read
    by ``np.loadtxt``, or None if the file is not one.

    Plain rows hold only the bytes the writers put in them (digits, ``+``,
    ``-``, ``.``, ``e`` and ``,``), end in ``\\n``, are not empty, and have
    the cells of the first row, all finite; an orbit file also starts with
    its header and row 0, which are parsed here as the line loop parses
    them. The byte scan declines a file with an empty line, the only line
    that ``loadtxt`` skips with ``comments=None``, so it returns one row a
    line. ``loadtxt`` checks the cell count of every row: an orbit row reads
    into an ``n``, a ``symbol`` and ``x`` field, and an ``n`` cell that is
    not an int64, which the line loop ignores, only declines the file. Any
    error or warning of ``loadtxt`` declines the file too. A path that is no
    regular file, such as a pipe, is declined before it is opened: it can be
    read only once, by the line loop. So this never accepts what
    :func:`_line_rows` rejects, and parses each value as ``float`` and
    ``int`` do.
    """
    if not Path(path).is_file():
        return None
    plain = b"0123456789+-.e,\n"
    with open(path, "rb") as f:
        kwargs = {"ndmin": 2}
        if orbit:
            header, row0 = f.readline(), f.readline()
            if (not header.startswith(b"n,symbol") or not header.isascii() or b"\r" in header
                    or not row0.endswith(b"\n") or row0.translate(None, plain)):
                return None
            cells = row0[:-1].decode().split(",", 2)
            if len(cells) < 3 or cells[1]:
                return None
            try:
                first = [float(c) for c in cells[2].split(",")]
            except ValueError:
                return None
            kwargs = {"dtype": [("n", np.int64), ("symbol", np.int64),
                                ("x", np.float64, (len(first),))],
                      "skiprows": 2, "ndmin": 1}
        last = b"\n"
        for chunk in iter(lambda: f.read(1 << 16), b""):
            if (chunk.translate(None, plain) or b"\n\n" in chunk
                    or (last == b"\n" and chunk.startswith(b"\n"))):
                return None
            last = chunk[-1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(path, delimiter=",", comments=None, **kwargs)
        except (ValueError, Warning):
            return None
    symbols = []
    if orbit:
        points = np.empty((len(rows) + 1, len(first)))
        points[0] = first
        points[1:] = rows["x"]
        rows, symbols = points, rows["symbol"].copy()
    lines = range(1 + orbit, 1 + orbit + len(rows))  # no empty line: one row a line
    return (rows, symbols, lines) if np.isfinite(rows).all() else None


def _line_rows(path, orbit):
    """The points, symbols and 1-based lines of a CSV file, read in one pass.
    Each distinct coordinate text is parsed, and checked to be finite, once:
    only texts that parsed into a row of the first row's width are
    remembered.

    An orbit row is ``n,symbol,`` and its coordinates; row 0 has an empty
    symbol and every later row has one. The first line that breaks this, or
    that has a non-numeric or non-finite value, a symbol outside int64, or
    another number of values than the first row, raises :class:`GeometryValidationError` naming the
    path and the 1-based line. Blank lines after the last row are ignored,
    and so are empty lines and blank lines before the first row of a
    headerless file; any other blank line is rejected.
    """
    distinct, index, symbols, numbers, width = [], [], [], [], None
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
                        if not -(1 << 63) <= symbols[-1] < 1 << 63:
                            raise ValueError(f"symbol {symbol!r} is outside int64")
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
            numbers.append(number)
    return np.asarray(distinct)[np.asarray(index, dtype=np.intp)], symbols, numbers


def write_cloud_csv(path, cloud):
    """One point per row, no header."""
    points = points_of(cloud)
    first, inverse = distinct_rows(points)
    texts = _texts(_point_text(row) for row in points[first].tolist())
    with open(path, "wb") as f:
        _write_rows(f, [(texts, inverse)])


def read_cloud_csv(path):
    """One point per row, no header; an empty file raises
    :class:`EmptyCloudError`."""
    points, _, _ = _read_rows(path)
    if len(points) == 0:
        raise EmptyCloudError(f"{path}: empty cloud file")
    return PointCloud(points)


def read_linear_system_csv(path):
    """Rows ``a1,...,ad,b`` with no header; a rejected row is named by its line."""
    data, _, lines = _read_rows(path)
    if len(data) == 0:
        raise GeometryValidationError(f"{path}: empty system file")
    if data.shape[1] < 2:
        raise GeometryValidationError(f"{path}: rows need at least one coefficient and one rhs")
    try:
        return LinearSystem(data[:, :-1], data[:, -1])
    except _RowError as exc:
        raise GeometryValidationError(f"{path}, line {lines[exc.row - 1]}: {exc}") from None


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def render_svg_scatter(path, points, highlights=None, _distinct=None):
    """Static 2-d scatter: orbit points in gray, highlight points in red.

    Fixed ``SVG_SIZE x SVG_SIZE`` viewport, autoscaled with a
    ``SVG_MARGIN_FRAC`` margin; the vertical axis points up. ``_distinct``,
    for callers inside the lab, is ``clouds.distinct_rows(points)`` as an
    orbit keeps it (:meth:`Orbit.distinct_rows`).
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
    first, inverse = distinct_rows(pts) if _distinct is None else _distinct
    circles = _texts(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="#888888" '
                     f'fill-opacity="0.6"/>\n' for x, y in pixels(pts[first]))
    with open(path, "wb") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
                f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
                f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n'.encode())
        _write_rows(f, [(circles, inverse)])
        f.write("".join(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#cc2222"/>\n'
                        for x, y in pixels(hi)).encode() + b"</svg>\n")
