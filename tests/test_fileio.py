"""The file formats: the streaming writers and the SVG scatter are byte for
byte the per-value writers they replaced (kept below as oracles), and every
reader gives back what was written."""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
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
from ifslab.geometry import MIN_NORMAL_NORM, Hyperplane
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


def is_plane(normal, offset):
    """Whether ``Hyperplane(normal, offset)`` is accepted."""
    try:
        Hyperplane(normal, offset)
    except GeometryValidationError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(rows=point_sets(max_rows=12), rhs=st.lists(VALUES, min_size=12, max_size=12))
# a short row under a huge b has no float64 foot point b a / |a|^2
@example(rows=np.array([[1.0, 0.0], [1e-12, 0.0]]), rhs=[1.0, 1e300] + [0.0] * 10)
def test_linear_system_csv_round_trip(tmp_path_factory, rows, rhs):
    rows = rows[np.abs(rows).max(axis=1) >= MIN_NORMAL_NORM]  # a zero row is no equation
    if not len(rows):
        return
    data = np.column_stack([rows, rhs[:len(rows)]])
    path = tmp_path_factory.mktemp("system") / "system.csv"
    fileio.write_cloud_csv(path, data)  # the same headerless float rows
    planes = [is_plane(row[:-1], row[-1]) for row in data]
    if not all(planes):  # a row of +-1.8e308, or one too far out, is no hyperplane
        row = planes.index(False) + 1
        located = f"^{re.escape(str(path))}, line {row}: row {row} of the linear system "
        with pytest.raises(GeometryValidationError, match=located):
            fileio.read_linear_system_csv(path)
        return
    back = fileio.read_linear_system_csv(path)
    assert np.array_equal(back.coefficients, data[:, :-1])
    assert np.array_equal(back.rhs, data[:, -1])
    assert np.array_equal(np.signbit(back.coefficients), np.signbit(data[:, :-1]))


# --- what the readers accept ------------------------------------------------------

@pytest.mark.parametrize("text, points, symbols", [
    ("\n \n n,symbol,x1\n0,,1.5\n1,2,2.5\n \n\n", [[1.5], [2.5]], [2]),  # outer whitespace
    ("n,symbol,x1\r\n0,,1.5\r\n1,2,2.5\r\n", [[1.5], [2.5]], [2]),      # CRLF line ends
    # spaces around cells, no last newline
    ("n,symbol,x1\n0,,1.5\n1, 2 ,2.5 ", [[1.5], [2.5]], [2]),
    # cells the line loop accepts and numpy's reader declines
    ("n,symbol,x1\n0,,1.5\n1,3_0,2.5\n", [[1.5], [2.5]], [30]),       # an underscore in a symbol
    ("n,symbol,x1\n0,,1.5\n1,2,1_0\n", [[1.5], [10.0]], [2]),         # and in a value
    ("n,symbol,x1\nzero,,1.5\none,2,2.5\n", [[1.5], [2.5]], [2]),     # the n cell is not read
], ids=["outer-whitespace", "crlf", "spaces", "symbol-underscore", "value-underscore",
        "non-numeric-n"])
def test_orbit_csv_accepted_layouts(tmp_path, text, points, symbols):
    path = tmp_path / "orbit.csv"
    path.write_text(text)
    orbit = fileio.read_orbit_csv(path)
    assert orbit.points.tolist() == points and orbit.symbols.tolist() == symbols


@pytest.mark.parametrize("text", [
    " \n\n1.0,2.0\n\n\n3.0,4.0\n \n",                   # empty lines anywhere, blank ones outside
    "1.0,2.0\r\n3.0,4.0",                                # CRLF, no last newline
], ids=["blank-lines", "crlf"])
def test_cloud_csv_accepted_layouts(tmp_path, text):
    path = tmp_path / "cloud.csv"
    path.write_text(text)
    assert fileio.read_cloud_csv(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


# --- numpy's reader against the line loop ------------------------------------------

ODD_CELLS = ["nan", "inf", "-inf", "1e999", "3_0", "1_0", "3.0", "n", "-0.0", "+3", " 3 ",
             "007", "", " ", "1e3", ".5", "5.", "e", "-", "\t2", "\x0c2", "\x1c2", "\u0663"]
MUTATIONS = ["crlf", "cr", "leading-blank", "trailing-blank", "empty-inside", "blank-inside",
             "no-final-newline", "extra-cell", "missing-cell", "odd-cell"]


@st.composite
def csv_files(draw):
    """A valid orbit, cloud or system file, as the writers write it, and the
    text of that file after a few mutations, with the mutations drawn."""
    kind = draw(st.sampled_from(["orbit", "cloud", "system"]))
    points = draw(repeated_rows(dim=draw(st.integers(2 if kind == "system" else 1, 4))))
    lines = [",".join(map(repr, row)) for row in points.tolist()]
    if kind == "orbit":
        symbols = draw(st.lists(st.integers(1, 2**40), min_size=len(points) - 1,
                                max_size=len(points) - 1))
        lines = ["n,symbol," + ",".join(f"x{j + 1}" for j in range(points.shape[1]))] + [
            f"{k},{s},{line}" for k, (s, line) in enumerate(zip([""] + symbols, lines))]
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=3))
    end, last = "\n", "\n"
    for mutation in mutations:
        k = draw(st.integers(0, len(lines) - 1))
        if mutation == "crlf":
            end = last = "\r\n"
        elif mutation == "cr":
            end = last = "\r"
        elif mutation == "leading-blank":
            lines.insert(0, draw(st.sampled_from(["", " "])))
        elif mutation == "trailing-blank":
            lines.append(draw(st.sampled_from(["", " "])))
        elif mutation == "empty-inside":
            lines.insert(k + 1, "")
        elif mutation == "blank-inside":
            lines.insert(k + 1, draw(st.sampled_from([" ", "\t"])))
        elif mutation == "no-final-newline":
            last = ""
        elif mutation == "extra-cell":
            lines[k] += ",1.0"
        elif mutation == "missing-cell":
            lines[k] = lines[k].rpartition(",")[0]
        else:
            cells = lines[k].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
            lines[k] = ",".join(cells)
    return kind, end.join(lines) + last, mutations


@settings(max_examples=300, deadline=None)
@given(case=csv_files())
@example(case=("orbit", "n,symbol,x1\n0,,1.5\n1,2,2.5\n", []))
@example(case=("cloud", "1.0,2.0\n-0.0,4.0", ["no-final-newline"]))
# an extra cell makes up the commas of an empty line, which loadtxt skips
@example(case=("orbit", "n,symbol,x1\n0,,1.5\n1,2,2.5,1.0,1.0\n\n2,1,3.5\n",
               ["extra-cell", "extra-cell", "empty-inside"]))
def test_numpy_reader_declines_or_equals_the_line_loop(tmp_path_factory, case):
    kind, text, mutations = case
    path = tmp_path_factory.mktemp("csv") / f"{kind}.csv"
    path.write_bytes(text.encode())
    orbit = kind == "orbit"
    fast = fileio._plain_rows(path, orbit)
    try:
        points, symbols, lines = fileio._line_rows(path, orbit)
    except GeometryValidationError:
        assert fast is None
        return
    if not mutations and len(points) > orbit:
        # every file the writers write takes numpy's reader, bar an orbit of
        # one point, which has no rows for it
        assert fast is not None
    if fast is not None:
        assert fast[0].dtype == np.float64 and fast[0].shape == points.shape
        assert fast[0].tobytes() == points.tobytes()
        assert np.asarray(fast[1], dtype=np.int64).tolist() == list(symbols)
        assert list(fast[2]) == lines


@pytest.mark.parametrize("text", ["1.0,2.0\n3.0,4.0\n\n", "\n1.0,2.0\n", "1.0,2.0\n\n3.0,4.0\n"],
                         ids=["trailing", "leading", "inside"])
def test_numpy_reader_declines_an_empty_line_before_it_parses(tmp_path, monkeypatch, text):
    def loadtxt(*args, **kwargs):
        raise AssertionError("loadtxt ran on a file with an empty line")

    path = tmp_path / "cloud.csv"
    path.write_text(text)
    monkeypatch.setattr(fileio.np, "loadtxt", loadtxt)
    assert fileio._plain_rows(path, orbit=False) is None


@contextmanager
def piped(data):
    """A path that reads ``data`` from a pipe, as a shell's ``<(...)`` does:
    it can be read once, and it cannot seek."""
    r, w = os.pipe()

    def feed():
        try:
            with os.fdopen(w, "wb") as f:
                f.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join()


def _read(kind, path):
    """The arrays that the reader of ``kind`` files gives for ``path``."""
    if kind == "orbit":
        orbit = fileio.read_orbit_csv(path)
        return orbit.points, orbit.symbols
    if kind == "cloud":
        return (fileio.read_cloud_csv(path).points,)
    system = fileio.read_linear_system_csv(path)
    return system.coefficients, system.rhs


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["plain", "crlf"])
@pytest.mark.parametrize("kind", ["orbit", "cloud", "system"])
def test_readers_read_a_pipe_as_they_read_a_file(tmp_path, kind, end):
    # 4,000 rows of CRLF text run past the byte scan's first 64 KB chunk
    points = np.random.default_rng(3).standard_normal((4_000, 3))
    lines = [",".join(map(repr, row)) for row in points.tolist()]
    if kind == "orbit":
        lines = ["n,symbol,x1,x2,x3"] + [f"{k},{k % 3 + 1 if k else ''},{line}"
                                         for k, line in enumerate(lines)]
    data = (end.join(lines) + end).encode()
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(data)
    with piped(data) as pipe:
        got = _read(kind, pipe)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in _read(kind, path)]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_cli_reads_a_system_from_stdin_and_a_named_pipe(tmp_path):
    text = "1,0,1\n0,1,2\n"
    path = tmp_path / "sys.csv"
    path.write_text(text)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(arg, stdin=""):
        # a reader that opened the named pipe twice would wait for a second writer
        return subprocess.run([sys.executable, "-m", "ifslab.cli", "kaczmarz", arg], input=stdin,
                              env=env, capture_output=True, text=True, check=True,
                              timeout=30).stdout

    def feed():
        try:
            with open(fifo, "w") as f:
                f.write(text)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        from_fifo = run(str(fifo))
    finally:
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # frees a writer still waiting
        writer.join()
    assert run("/dev/stdin", text) == from_fifo == run(str(path))


def test_reading_an_orbit_of_distinct_rows_holds_little_beside_its_points(tmp_path):
    rng = np.random.default_rng(5)
    orbit = Orbit(rng.standard_normal((20_001, 20)), rng.integers(1, 5, 20_000))
    path = tmp_path / "orbit.csv"
    fileio.write_orbit_csv(path, orbit)
    tracemalloc.start()
    try:
        back = fileio.read_orbit_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.points.tobytes() == orbit.points.tobytes()
    assert np.array_equal(back.symbols, orbit.symbols)
    assert peak <= 3 * back.points.nbytes


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_non_finite_values_and_writes_nothing(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        fileio.write_json(path, {"tol": value})
    assert not path.exists()
