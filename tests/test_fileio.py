"""The file formats: the streaming writers and the SVG scatter are byte for
byte the per-value writers they replaced (kept below as oracles), and every
reader gives back what was written."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifslab import Orbit, fileio
from ifslab.cli import main
from ifslab.clouds import points_of
from ifslab.errors import GeometryValidationError
from ifslab.fileio import SVG_MARGIN_FRAC, SVG_SIZE
from ifslab.kaczmarz import MIN_ROW_NORM
from ifslab.scenarios import PRESET_NAMES, scenario_from_dict


# --- oracles: the writers as they were, one value at a time ------------------

def _fmt(value):
    return repr(float(value))


def oracle_write_orbit_csv(path, orbit):
    """Header ``n,symbol,x1,...,xd``; row 0 carries an empty symbol."""
    d = orbit.dim
    lines = ["n,symbol," + ",".join(f"x{j + 1}" for j in range(d))]
    lines.append("0,," + ",".join(_fmt(c) for c in orbit.points[0]))
    for k in range(orbit.n_steps):
        coords = ",".join(_fmt(c) for c in orbit.points[k + 1])
        lines.append(f"{k + 1},{orbit.symbols[k]},{coords}")
    Path(path).write_text("\n".join(lines) + "\n")


def oracle_write_cloud_csv(path, cloud):
    """One point per row, no header."""
    lines = [",".join(_fmt(c) for c in p) for p in points_of(cloud)]
    Path(path).write_text("\n".join(lines) + "\n")


def oracle_render_svg_scatter(path, points, highlights=None):
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


# --- strategies ---------------------------------------------------------------

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1 / 3, 1e-300, 123456789.125]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def point_sets(draw, dim=None, max_rows=40):
    dim = draw(st.integers(1, 6)) if dim is None else dim
    rows = draw(st.integers(1, max_rows))
    return np.array(draw(st.lists(VALUES, min_size=rows * dim, max_size=rows * dim)),
                    dtype=np.float64).reshape(rows, dim)


@st.composite
def orbits(draw):
    points = draw(point_sets())
    symbols = draw(st.lists(st.integers(1, 2**40), min_size=len(points) - 1,
                            max_size=len(points) - 1))
    return Orbit(points, np.array(symbols, dtype=np.int64))


def _same_bytes(tmp_path, write, oracle, *args):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    write(ours, *args)
    oracle(theirs, *args)
    return ours.read_bytes() == theirs.read_bytes()


# --- byte identity with the oracles --------------------------------------------

@settings(max_examples=60, deadline=None)
@given(orbit=orbits())
def test_orbit_csv_bytes_equal_oracle(tmp_path_factory, orbit):
    tmp_path = tmp_path_factory.mktemp("orbit")
    assert _same_bytes(tmp_path, fileio.write_orbit_csv, oracle_write_orbit_csv, orbit)


@settings(max_examples=60, deadline=None)
@given(points=point_sets())
def test_cloud_csv_bytes_equal_oracle(tmp_path_factory, points):
    tmp_path = tmp_path_factory.mktemp("cloud")
    assert _same_bytes(tmp_path, fileio.write_cloud_csv, oracle_write_cloud_csv, points)


def svg_span_overflows(points, highlights):
    """Whether the oracle's pixel transform leaves float64 for these points:
    an infinite extent, padded lower corner, or point offset from it."""
    every = points if highlights is None else np.vstack([points, highlights])
    lo, hi = every.min(axis=0), every.max(axis=0)
    with np.errstate(over="ignore"):
        span = np.maximum(hi - lo, 1e-12)
        pad = SVG_MARGIN_FRAC * span.max()
        corner = lo - pad
        return not np.all(np.isfinite([span.max() + 2 * pad, *corner, *(every - corner).ravel()]))


@settings(max_examples=60, deadline=None)
@given(points=point_sets(dim=2), highlights=st.none() | point_sets(dim=2, max_rows=5))
@example(points=np.array([[-1.7976931348623157e308, 0.0], [1.7976931348623157e308, 1.0]]),
         highlights=None)
def test_svg_bytes_equal_oracle(tmp_path_factory, points, highlights):
    tmp_path = tmp_path_factory.mktemp("svg")
    if svg_span_overflows(points, highlights):
        # The oracle's transform overflowed (nan or inf pixels, or a zero
        # scale); the scatter refuses before it opens the file.
        with pytest.raises(GeometryValidationError):
            fileio.render_svg_scatter(tmp_path / "ours", points, highlights)
        assert not (tmp_path / "ours").exists()
    else:
        assert _same_bytes(tmp_path, fileio.render_svg_scatter, oracle_render_svg_scatter,
                           points, highlights)


@st.composite
def repeated_rows(draw, dim=None):
    """Up to 60 rows drawn, with repetition, from a few rows of edge values,
    so that rows equal but for the sign of a zero come up."""
    rows = draw(point_sets(dim=dim, max_rows=6))
    return rows[draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=60))]


@settings(max_examples=60, deadline=None)
@given(points=repeated_rows(), svg_points=repeated_rows(dim=2), data=st.data())
def test_files_of_repeated_rows_equal_oracle_and_read_back(tmp_path_factory, points,
                                                          svg_points, data):
    tmp_path = tmp_path_factory.mktemp("repeats")
    symbols = data.draw(st.lists(st.integers(1, 9), min_size=len(points) - 1,
                                 max_size=len(points) - 1))
    orbit = Orbit(points, np.array(symbols, dtype=np.int64))
    assert _same_bytes(tmp_path, fileio.write_orbit_csv, oracle_write_orbit_csv, orbit)
    back = fileio.read_orbit_csv(tmp_path / "ours")
    assert back.points.tobytes() == points.tobytes()
    assert np.array_equal(back.symbols, orbit.symbols)
    assert _same_bytes(tmp_path, fileio.write_cloud_csv, oracle_write_cloud_csv, points)
    assert fileio.read_cloud_csv(tmp_path / "ours").points.tobytes() == points.tobytes()
    if not svg_span_overflows(svg_points, None):
        assert _same_bytes(tmp_path, fileio.render_svg_scatter, oracle_render_svg_scatter,
                           svg_points)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_cli_outputs_equal_oracle(tmp_path, name, capsys):
    config, out = tmp_path / "config.json", tmp_path / "out"
    assert main(["presets", "write", name, "--out", str(config)]) == 0
    assert main(["run", str(config), "--out-dir", str(out)]) == 0
    scenario = scenario_from_dict(json.loads(config.read_text()))
    orbit = fileio.read_orbit_csv(out / f"{name}.orbit.csv")
    reps = json.loads((out / f"{name}.omega.json").read_text())["representatives"]

    oracle_write_orbit_csv(tmp_path / "orbit.csv", orbit)
    assert (tmp_path / "orbit.csv").read_bytes() == (out / f"{name}.orbit.csv").read_bytes()
    oracle_render_svg_scatter(tmp_path / "scatter.svg", orbit.tail(scenario.burn_in), reps)
    assert (tmp_path / "scatter.svg").read_bytes() == (out / f"{name}.svg").read_bytes()
    oracle_write_cloud_csv(tmp_path / "theirs.csv", orbit.points)
    fileio.write_cloud_csv(tmp_path / "ours.csv", orbit.points)
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()


# --- round trips ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(orbit=orbits())
def test_orbit_csv_round_trip(tmp_path_factory, orbit):
    path = tmp_path_factory.mktemp("orbit") / "orbit.csv"
    fileio.write_orbit_csv(path, orbit)
    back = fileio.read_orbit_csv(path)
    assert np.array_equal(back.points, orbit.points)
    assert np.array_equal(back.symbols, orbit.symbols) and back.symbols.dtype == np.int64
    # -0.0 and 0.0 are equal but are not the same bits
    assert np.array_equal(np.signbit(back.points), np.signbit(orbit.points))


@settings(max_examples=60, deadline=None)
@given(points=point_sets())
def test_cloud_csv_round_trip(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("cloud") / "cloud.csv"
    fileio.write_cloud_csv(path, points)
    back = fileio.read_cloud_csv(path).points
    assert np.array_equal(back, points)
    assert np.array_equal(np.signbit(back), np.signbit(points))


@settings(max_examples=60, deadline=None)
@given(rows=point_sets(max_rows=12), rhs=st.lists(VALUES, min_size=12, max_size=12))
def test_linear_system_csv_round_trip(tmp_path_factory, rows, rhs):
    rows = rows[np.abs(rows).max(axis=1) >= MIN_ROW_NORM]  # a zero row is no equation
    if not len(rows):
        return
    data = np.column_stack([rows, rhs[:len(rows)]])
    path = tmp_path_factory.mktemp("system") / "system.csv"
    fileio.write_cloud_csv(path, data)  # the same headerless float rows
    with np.errstate(over="ignore", invalid="ignore"):  # row norms of +-1.8e308 overflow
        back = fileio.read_linear_system_csv(path)
    assert np.array_equal(back.coefficients, data[:, :-1])
    assert np.array_equal(back.rhs, data[:, -1])
    assert np.array_equal(np.signbit(back.coefficients), np.signbit(data[:, :-1]))


# --- what the readers accept ------------------------------------------------------

@pytest.mark.parametrize("text", [
    "\n \n n,symbol,x1\n0,,1.5\n1,2,2.5\n \n\n",        # outer whitespace
    "n,symbol,x1\r\n0,,1.5\r\n1,2,2.5\r\n",              # CRLF line ends
    "n,symbol,x1\n0,,1.5\n1, 2 ,2.5 ",                   # spaces around cells, no last newline
], ids=["outer-whitespace", "crlf", "spaces"])
def test_orbit_csv_accepted_layouts(tmp_path, text):
    path = tmp_path / "orbit.csv"
    path.write_text(text)
    orbit = fileio.read_orbit_csv(path)
    assert orbit.points.tolist() == [[1.5], [2.5]] and orbit.symbols.tolist() == [2]


@pytest.mark.parametrize("text", [
    " \n\n1.0,2.0\n\n\n3.0,4.0\n \n",                   # empty lines anywhere, blank ones outside
    "1.0,2.0\r\n3.0,4.0",                                # CRLF, no last newline
], ids=["blank-lines", "crlf"])
def test_cloud_csv_accepted_layouts(tmp_path, text):
    path = tmp_path / "cloud.csv"
    path.write_text(text)
    assert fileio.read_cloud_csv(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_non_finite_values_and_writes_nothing(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        fileio.write_json(path, {"tol": value})
    assert not path.exists()
