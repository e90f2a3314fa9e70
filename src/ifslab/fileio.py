"""File formats: orbit CSV, cloud CSV, linear-system CSV, report JSON, and a
minimal SVG scatter for 2-d runs.

Floats are written with ``repr`` so every file round-trips bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .clouds import PointCloud, points_of
from .errors import GeometryValidationError
from .ifs import Orbit
from .kaczmarz import LinearSystem

# SVG scatter: viewport side in pixels; margin as a fraction of the data span.
SVG_SIZE = 800
SVG_MARGIN_FRAC = 0.05


def _fmt(value):
    return repr(float(value))


def write_orbit_csv(path, orbit):
    """Header ``n,symbol,x1,...,xd``; row 0 carries an empty symbol."""
    d = orbit.dim
    lines = ["n,symbol," + ",".join(f"x{j + 1}" for j in range(d))]
    lines.append("0,," + ",".join(_fmt(c) for c in orbit.points[0]))
    for k in range(orbit.n_steps):
        coords = ",".join(_fmt(c) for c in orbit.points[k + 1])
        lines.append(f"{k + 1},{orbit.symbols[k]},{coords}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_orbit_csv(path):
    text = Path(path).read_text().strip().splitlines()
    if not text or not text[0].startswith("n,symbol"):
        raise GeometryValidationError(f"{path}: not an orbit CSV (missing header)")
    points = []
    symbols = []
    for line in text[1:]:
        cells = line.split(",")
        if len(cells) < 3:
            raise GeometryValidationError(f"{path}: malformed orbit row: {line!r}")
        if cells[1]:
            symbols.append(int(cells[1]))
        points.append([float(c) for c in cells[2:]])
    return Orbit(np.asarray(points), np.asarray(symbols, dtype=np.int64))


def write_cloud_csv(path, cloud):
    """One point per row, no header."""
    lines = [",".join(_fmt(c) for c in p) for p in points_of(cloud)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_cloud_csv(path):
    rows = [line.split(",") for line in Path(path).read_text().strip().splitlines() if line]
    return PointCloud(np.asarray([[float(c) for c in row] for row in rows]))


def read_linear_system_csv(path):
    """Rows ``a1,...,ad,b`` with no header."""
    rows = [line.split(",") for line in Path(path).read_text().strip().splitlines() if line]
    if not rows:
        raise GeometryValidationError(f"{path}: empty system file")
    data = np.asarray([[float(c) for c in row] for row in rows])
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
    span = np.maximum(hiv - lo, 1e-12)
    pad = SVG_MARGIN_FRAC * span.max()
    lo = lo - pad
    scale = (SVG_SIZE - 1) / (span.max() + 2 * pad)

    def to_px(p):
        x = (p[0] - lo[0]) * scale
        y = SVG_SIZE - 1 - (p[1] - lo[1]) * scale
        return f"{x:.2f}", f"{y:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for p in pts:
        x, y = to_px(p)
        parts.append(f'<circle cx="{x}" cy="{y}" r="1.5" fill="#888888" fill-opacity="0.6"/>')
    for p in hi:
        x, y = to_px(p)
        parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#cc2222"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
