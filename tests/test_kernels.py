"""The generator kernels: orbit steps that write each image into the orbit
buffer, the ball and box point paths without numpy's wrappers, and orbits
stepped by a table of the states they revisit give bit for bit the orbits and
images of the kernels they replaced (kept below as oracles)."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ifslab
from ifslab import (
    AffineMap,
    Ball,
    Box,
    ConvexProjection,
    Custom,
    Cyclic,
    DisjunctiveEnumeration,
    Halfspace,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    IidRandom,
    LinearSystem,
    SubspaceProjection,
    run_orbit,
    solve,
)
from ifslab import ifs
from ifslab.geometry import AffineSubspace
from ifslab.ifs import FIRST_LOOK, STEP_BLOCK, SYMBOL_BLOCK, spectral_norm, symbols_from
from ifslab.kaczmarz import system_to_ifs


# --- oracles: the kernels as they were, each returning a new array -------------

def oracle_move_along(p, normal, t):
    if p.ndim == 1:
        return p - t * normal
    return p - t[:, None] * normal


def oracle_hyperplane(self, p):
    return oracle_move_along(p, self.normal, (p.dot(self.normal) - self.offset) / self._aa)


def oracle_subspace(self, p):
    if self.basis.shape[0] == 0:
        return np.broadcast_to(self.anchor, p.shape).copy()
    return self.anchor + ((p - self.anchor) @ self.basis.T) @ self.basis


def oracle_halfspace(self, p):
    t = np.maximum((p.dot(self.normal) - self.offset) / self._aa, 0.0)
    return oracle_move_along(p, self.normal, t)


def oracle_ball(self, p):
    rel = p - self.center
    dist = np.linalg.norm(rel, axis=-1)
    scale = np.ones_like(dist)
    np.divide(self.radius, dist, out=scale, where=dist > self.radius)
    if p.ndim == 1:
        return self.center + float(scale) * rel
    return self.center + scale[:, None] * rel


def oracle_box(self, p):
    return np.clip(p, self.lower, self.upper)


def oracle_affine(self, p):
    if p.ndim == 1:
        return self.matrix @ p + self.shift
    return p @ self.matrix.T + self.shift


ORACLES = {Hyperplane: oracle_hyperplane, AffineSubspace: oracle_subspace,
           Halfspace: oracle_halfspace, Ball: oracle_ball, Box: oracle_box,
           AffineMap: oracle_affine}


def oracle_kernel(generator):
    return lambda p: ORACLES[type(generator)](generator, p)


def oracle_orbit(system, x0, symbols):
    kernels = [oracle_kernel(m) for m in system.maps]
    x = np.asarray(x0, dtype=float)
    points = [x]
    for s in symbols:
        x = kernels[s - 1](x)
        points.append(x)
    return np.array(points)


def same_bits(a, b):
    """``array_equal`` that also tells ``-0.0`` from ``0.0``."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- strategies ------------------------------------------------------------------

KINDS = ["hyperplane", "subspace", "empty-basis subspace", "halfspace", "ball", "box",
         "affine"]

COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                   st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))


def vectors(d):
    return st.lists(COORDS, min_size=d, max_size=d).map(lambda v: np.array(v, dtype=float))


@st.composite
def generators(draw, kind, d):
    """A generator of ``kind`` in R^d and points on its boundary: on the
    hyperplane or the halfspace's boundary plane, on the sphere, on box
    faces."""
    if kind in ("hyperplane", "halfspace"):
        normal = draw(vectors(d))
        assume(np.linalg.norm(normal) > 1e-3)
        on = draw(vectors(d))
        # p.dot(normal) - offset is exactly 0 at the point itself.
        shape = (Hyperplane if kind == "hyperplane" else Halfspace)(normal, float(on.dot(normal)))
        wrap = HyperplaneProjection if kind == "hyperplane" else ConvexProjection
        return wrap(shape), [on]
    if kind == "subspace":
        anchor = draw(vectors(d))
        directions = draw(st.lists(vectors(d), min_size=1, max_size=d))
        return SubspaceProjection(AffineSubspace.spanned_by(anchor, directions)), [anchor]
    if kind == "empty-basis subspace":
        anchor = draw(vectors(d))
        return SubspaceProjection(AffineSubspace.single_point(anchor)), [anchor]
    if kind == "ball":
        # Integer centers and dyadic radii put center +- radius e_j exactly
        # on the sphere.
        center = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), float)
        radius = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        j = draw(st.integers(0, d - 1))
        on = [center.copy(), center.copy()]
        on[0][j] += radius
        on[1][j] -= radius
        return ConvexProjection(Ball(center, radius)), on
    if kind == "box":
        lower = draw(vectors(d))
        upper = lower + np.abs(draw(vectors(d)))  # some widths are 0
        faces = np.where(draw(st.lists(st.booleans(), min_size=d, max_size=d)), lower, upper)
        return ConvexProjection(Box(lower, upper)), [faces]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal((d, d))
    matrix /= max(1.0, spectral_norm(matrix))
    return AffineMap(matrix, draw(vectors(d))), [draw(vectors(d))]


@st.composite
def systems(draw, kind):
    """A two-generator system, the first of ``kind``, some starts (with
    ``-0.0`` components and on the first generator's boundary) and symbols."""
    d = draw(st.integers(1, 6))
    first, on = draw(generators(kind, d))
    second, _ = draw(generators(draw(st.sampled_from(KINDS)), d))
    starts = on + [draw(vectors(d)), np.full(d, -0.0)]
    symbols = draw(st.lists(st.integers(1, 2), max_size=40))
    return IFSystem((first, second), d), starts, np.array(symbols, dtype=np.int64)


# --- orbits and images equal the oracles ------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_orbit_equals_the_oracle_orbit(kind, data):
    system, starts, symbols = data.draw(systems(kind))
    for x0 in starts:
        orbit = run_orbit(system, x0, symbols, len(symbols))
        assert same_bits(orbit.points, oracle_orbit(system, x0, symbols))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_images_equal_the_oracle_on_points_and_stacks(kind, data):
    system, starts, _ = data.draw(systems(kind))
    generator = system.maps[0]
    oracle = oracle_kernel(generator)
    stack = np.array(starts + [generator.apply(x) for x in starts])
    assert same_bits(generator.apply(stack), oracle(stack))
    out = np.empty_like(stack)
    assert generator.kernel(stack, out) is out and same_bits(out, oracle(stack))
    for x in stack:
        assert same_bits(generator.apply(x), oracle(x))
        out = np.empty_like(x)
        assert generator.kernel(x, out) is out and same_bits(out, oracle(x))


@pytest.mark.parametrize("angle", [0.1, 0.15, 0.2, 0.25])
def test_solve_orbit_equals_the_oracle_after_buffer_growths(angle):
    # Two lines at a small angle: each solve stops after more than 2
    # STEP_BLOCK steps, so the orbit buffer has grown at least three times
    # (to STEP_BLOCK, 2 STEP_BLOCK, 4 STEP_BLOCK steps, ...) between two
    # kernel-stepped blocks.
    a = np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)]])
    system = LinearSystem(a, a @ np.array([0.5, -0.25]))
    for driver in (Cyclic((1, 2)), Cyclic((2, 1))):
        for x0 in (np.ones(2), np.array([-3.0, 2.0])):
            report = solve(system, driver, tol=1e-10, max_iter=100_000, x0=x0)
            assert report.converged and report.iterations > 2 * STEP_BLOCK
            symbols = symbols_from(driver, report.iterations, system.n_rows)
            expected = oracle_orbit(system_to_ifs(system), x0, symbols)
            assert same_bits(report.orbit.points, expected)
            assert system._residual(expected[-2]) > 1e-10 >= system._residual(expected[-1])


# --- orbits stepped by a table of revisited states ------------------------------

def line(normal, offset):
    return HyperplaneProjection(Hyperplane(normal, offset))


def rotation(angle, center):
    r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return AffineMap(r, center - r @ center)


def few_state_system(kind, rng):
    """A system whose float orbits settle on a few states: the paper's
    polyhedral examples, translations clipped to a box, two points equal but
    for the sign of a zero, and the benchmark's ball, box, plane and
    contraction sharing one fixed point."""
    if kind == "square":
        return IFSystem((line([1, 0], 1), line([1, 0], 0), line([0, 1], 1), line([0, 1], 0)), 2)
    if kind == "triangle":
        return IFSystem((line([0, 1], 0), line([1, 1], 1), line([1, 0], 0)), 2)
    if kind == "parallel lines":
        return IFSystem((line([0, 1], 0), line([0, 1], 1)), 2)
    if kind == "box corners":
        shifts = [2.0 * e for e in np.eye(3)] + [-2.0 * e for e in np.eye(3)]
        return IFSystem((ConvexProjection(Box(np.zeros(3), np.ones(3))),)
                        + tuple(AffineMap(np.eye(3), s) for s in shifts), 3)
    if kind == "signed zeros":
        return IFSystem((SubspaceProjection(AffineSubspace.single_point([0.25, -0.0])),
                         SubspaceProjection(AffineSubspace.single_point([0.25, 0.0])),
                         line([1, 0], 0.5)), 2)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    p = rng.uniform(-0.3, 0.3, 3)
    return IFSystem((ConvexProjection(Ball(np.zeros(3), 1.0)),
                     ConvexProjection(Box(np.full(3, -0.5), np.full(3, 0.8))),
                     SubspaceProjection(AffineSubspace.spanned_by(p, rng.standard_normal((2, 3)))),
                     AffineMap(0.6 * rot, p - 0.6 * rot @ p)), 3)


FEW_STATE_KINDS = ["square", "triangle", "parallel lines", "box corners", "signed zeros",
                   "mixed"]


def few_state_driver(kind, rng, n_maps, n):
    if kind == "iid":
        return IidRandom.uniform(int(rng.integers(1, 2**31)), n_maps)
    if kind == "disjunctive":
        return DisjunctiveEnumeration(n_maps)
    pattern = rng.integers(1, n_maps + 1, size=int(rng.integers(1, 40)))
    return Custom(tuple(np.resize(pattern, n).tolist()), n_maps)


@pytest.fixture
def tables(monkeypatch):
    """Every state table the orbits of a test build, recording the steps it
    was built from, each table step's verdict and the capacity of its states
    array."""
    built = []

    class Recorded(ifs._StateTable):
        def __init__(self, kernels, points, symbols):
            super().__init__(kernels, points, symbols)
            self.built_from = len(symbols)
            self.first_stepped = len(self.ids)  # states from here on came from table steps
            self.kept = []
            self.capacities = []
            built.append(self)

        def step(self, symbols, rows):
            keep = super().step(symbols, rows)
            self.kept.append(keep)
            self.capacities.append(len(self.states))
            return keep

    monkeypatch.setattr(ifs, "_StateTable", Recorded)
    return built


# The steps after which a kernel-stepped orbit first tests for a revisit:
# 16, 32, 64, 128 and 256, its pieces each as long as the orbit so far.
LOOKS = tuple(FIRST_LOOK * 2**j for j in range(5))

# Orbit lengths just before, at and after those looks, and where the table
# pieces of an orbit that switches in its first block end (256, 512, 1024,
# 2048, then the symbol blocks that end at 4096 and 8192).
SCHEDULE_EDGES = sorted({c + e for c in LOOKS + (STEP_BLOCK, 2 * STEP_BLOCK, 4 * STEP_BLOCK,
                                                 8 * STEP_BLOCK, SYMBOL_BLOCK, 2 * SYMBOL_BLOCK)
                         for e in (-1, 0, 1)})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FEW_STATE_KINDS), st.sampled_from(["iid", "disjunctive", "custom"]),
       st.integers(0, 2**32 - 1), st.lists(COORDS, min_size=3, max_size=3),
       st.one_of(st.integers(1, 5 * STEP_BLOCK), st.sampled_from(SCHEDULE_EDGES)))
def test_table_stepped_orbits_equal_the_oracle(kind, driver_kind, seed, start, n):
    rng = np.random.default_rng(seed)
    system = few_state_system(kind, rng)
    driver = few_state_driver(driver_kind, rng, system.n_maps, n)
    x0 = np.array(start[:system.dim])
    orbit = run_orbit(system, x0, driver, n)
    expected = oracle_orbit(system, x0, symbols_from(driver, n, system.n_maps))
    assert same_bits(orbit.points, expected)


@pytest.mark.parametrize("driver_kind", ["iid", "disjunctive", "custom"])
@pytest.mark.parametrize("kind", FEW_STATE_KINDS)
def test_few_state_orbits_step_by_the_table(kind, driver_kind, tables):
    rng = np.random.default_rng(5)
    system = few_state_system(kind, rng)
    n = 4 * STEP_BLOCK
    driver = few_state_driver(driver_kind, rng, system.n_maps, n)
    x0 = np.full(system.dim, -0.0)
    x0[0] = 0.25
    orbit = run_orbit(system, x0, driver, n)
    assert same_bits(orbit.points, oracle_orbit(system, x0, symbols_from(driver, n, system.n_maps)))
    assert tables and any(table.kept for table in tables)


@pytest.mark.parametrize("driver_kind", ["iid", "disjunctive"])
@pytest.mark.parametrize("kind", ["square", "triangle"])
def test_polyhedral_orbits_build_their_table_at_a_first_block_test(kind, driver_kind, tables):
    # The benchmark's ensemble orbits: 10^4 steps on the square's or the
    # triangle's lines from a random start. Each switches to its table at one
    # of the first two revisit tests inside its first block, not at its end.
    # Under the enumeration the triangle's orbits revisit a point at step 9
    # but stand on a new one at step 16, so they switch at step 32.
    rng = np.random.default_rng(11)
    system = few_state_system(kind, rng)
    for _ in range(4):
        x0 = rng.dirichlet([2.0, 2.0, 2.0]) @ np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) \
            if kind == "triangle" else rng.uniform(-1.0, 2.0, 2)
        driver = few_state_driver(driver_kind, rng, system.n_maps, 10_000)
        tables.clear()
        orbit = run_orbit(system, x0, driver, 10_000)
        (table,) = tables
        # The test at a checkpoint looks at that step's point only: the table
        # starts at the first checkpoint whose point the orbit visited before.
        rows = [p.tobytes() for p in orbit.points]
        revisits = [c for c in LOOKS if rows[c] in rows[:c - 1]]
        assert table.built_from == revisits[0] <= LOOKS[1]
        if kind == "square" and driver_kind == "disjunctive":
            assert table.built_from == LOOKS[0]
        if kind == "triangle" and driver_kind == "disjunctive":
            assert table.built_from == LOOKS[1]
        assert all(table.kept)
        assert same_bits(orbit.points[:STEP_BLOCK + 1],
                         oracle_orbit(system, x0, orbit.symbols[:STEP_BLOCK]))


def test_solve_stop_sees_blocks_on_the_step_grid(tables, monkeypatch):
    # The triangle's lines as an inconsistent system never stop at tol 1e-300,
    # and their orbit is table-stepped in blocks of 256, 512, ..., 4096
    # steps; the stop test still sees x0 and then every 256 steps.
    system = LinearSystem([[0, 1], [1, 1], [1, 0]], [0, 1, 0])
    lengths = []
    first_within = LinearSystem._first_within

    def recorded(self, pts, tol):
        lengths.append(len(pts))
        return first_within(self, pts, tol)

    monkeypatch.setattr(LinearSystem, "_first_within", recorded)
    kept = []
    for max_iter in (2 * SYMBOL_BLOCK + 3 * STEP_BLOCK + 7, 3 * STEP_BLOCK):
        lengths.clear()
        tables.clear()
        report = solve(system, IidRandom.uniform(4, 3), tol=1e-300, max_iter=max_iter,
                       x0=[0.2, 0.6])
        assert not report.converged and report.iterations == max_iter
        rest = [max_iter % STEP_BLOCK] if max_iter % STEP_BLOCK else []
        assert lengths == [1] + [STEP_BLOCK] * (max_iter // STEP_BLOCK) + rest
        (table,) = tables
        assert all(table.kept)
        kept.append(len(table.kept))
    # The table steps the rest of the first block, then 256, 512, 1024 and
    # 2048 steps to the end of the first symbol block, 4096 and the last 775;
    # or the rest of the first block, 256 and 256.
    assert kept == [7, 3]


def test_solve_stop_sees_the_rest_of_a_driver_that_runs_out():
    # The custom driver's two symbols reach the solution exactly, and then
    # the driver runs out, eight steps short of max_iter: the stop test sees
    # that short last block before the driver is read again and raises.
    report = solve(LinearSystem([[1, 0], [0, 1]], [1, 2]), Custom((1, 2)), tol=1e-12,
                   max_iter=10)
    assert report.converged and report.iterations == 2
    assert same_bits(report.final_point, np.array([1.0, 2.0]))


def test_orbit_leaves_the_table_when_it_stops_revisiting(tables):
    # 600 steps on the square's lines reach its corners; then a rotation by
    # 1 radian about the square's center finds a new point at every step.
    system = IFSystem((line([1, 0], 1), line([1, 0], 0), line([0, 1], 1), line([0, 1], 0),
                       rotation(1.0, np.array([0.5, 0.5]))), 2)
    symbols = np.concatenate([symbols_from(IidRandom.uniform(3, 4), 600, 4),
                              np.full(600, 5)])
    x0 = np.array([0.3, -0.0])
    orbit = run_orbit(system, x0, symbols, len(symbols))
    assert same_bits(orbit.points, oracle_orbit(system, x0, symbols))
    assert len(tables) == 1 and tables[0].kept[0] and not tables[0].kept[-1]


def test_orbit_builds_a_new_table_when_it_revisits_again(tables):
    # The square's lines for 600 steps, the rotation for 600, then the lines
    # for 2000 more. The first table steps pieces to 256, 512 and 1024, and
    # drops at 1024: 424 of that piece's 512 steps are rotation steps, each
    # to a new point. Kernel pieces then run 256 steps at a time; at step
    # 1280 the orbit stands on a corner it met since step 1024, and a new
    # table is built from those 256 steps. Its pieces are as long as the
    # orbit so far: 1280 to 2560, then the rest to 3200.
    system = IFSystem((line([1, 0], 1), line([1, 0], 0), line([0, 1], 1), line([0, 1], 0),
                       rotation(1.0, np.array([0.5, 0.5]))), 2)
    square = IidRandom.uniform(3, 4)
    symbols = np.concatenate([symbols_from(square, 600, 4), np.full(600, 5),
                              symbols_from(square, 2000, 4)])
    x0 = np.array([0.3, -0.0])
    orbit = run_orbit(system, x0, symbols, len(symbols))
    assert same_bits(orbit.points, oracle_orbit(system, x0, symbols))
    first, rebuilt = tables
    assert first.built_from <= LOOKS[1] and first.kept == [True, True, False]
    assert rebuilt.built_from == STEP_BLOCK and rebuilt.kept == [True, True]


def test_a_repeated_idempotent_last_step_builds_no_table(tables):
    # Alternating projections onto two lines at a small angle approach their
    # intersection without reaching it. Every block ends by projecting twice
    # onto the x-axis, which maps its own image to itself: a revisit of the
    # block's last point, but no cycle.
    system = IFSystem((line([0, 1], 0), line([0.1, 1], 0)), 2)
    symbols = np.tile([1, 2], 2 * STEP_BLOCK)
    symbols[STEP_BLOCK - 1::STEP_BLOCK] = 1
    x0 = np.array([1.0, 1.0])
    orbit = run_orbit(system, x0, symbols, len(symbols))
    assert same_bits(orbit.points, oracle_orbit(system, x0, symbols))
    assert (orbit.points[STEP_BLOCK - 1] == orbit.points[STEP_BLOCK]).all()
    assert not tables


def benchmark_workloads():
    """The benchmark's workload builders, bench/workloads.py of this checkout."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# The kaczmarz benchmark solves at seed 7 whose first kernel-stepped blocks
# end by repeating an idempotent row projection (symbols like [10, 20, 20]),
# and those that did so when their revisit test was first measured.
SELF_LOOP_SOLVES = ["consistent-d20-iid-3", "consistent-d30-iid-5", "consistent-d20-iid-7",
                    "consistent-d50-iid-3", "consistent-d50-iid-4", "inconsistent-200x50-iid"]


def test_kaczmarz_benchmark_solves_build_no_table(tables, tmp_path):
    tasks = {task.name: task for task in benchmark_workloads().build("kaczmarz", ifslab, 7,
                                                                      tmp_path)}
    reports = {name: task.run({}) for name, task in tasks.items()}
    assert not tables
    for name in SELF_LOOP_SOLVES:
        system = tasks[name].run.args[1]
        orbit = reports[name].orbit
        assert same_bits(orbit.points,
                         oracle_orbit(system_to_ifs(system), orbit.x0, orbit.symbols))


def test_solve_stops_inside_a_table_stepped_block(tables):
    # The triangle's lines are an inconsistent system. Its orbit builds a
    # table in its first block; tol is the residual of a point after that
    # block that no earlier point reaches, first made by a table step.
    system = LinearSystem([[0, 1], [1, 1], [1, 0]], [0, 1, 0])
    driver, x0, max_iter = IidRandom.uniform(1, 3), np.array([0.2, 0.6]), 4000
    full = run_orbit(system_to_ifs(system), x0, driver, max_iter)
    table = tables.pop()
    residuals = [system._residual(p) for p in full.points]
    stop = next(j for j in range(STEP_BLOCK + 1, max_iter + 1)
                if residuals[j] < min(residuals[:j])
                and table.ids[full.points[j].tobytes()] >= table.first_stepped)
    report = solve(system, driver, tol=residuals[stop], max_iter=max_iter, x0=x0)
    assert report.converged and report.iterations == stop
    assert same_bits(report.orbit.points, full.points[:stop + 1])
    assert same_bits(report.orbit.points, oracle_orbit(system_to_ifs(system), x0,
                                                       full.symbols[:stop]))
    (table,) = tables
    assert table.kept and table.ids[report.final_point.tobytes()] >= table.first_stepped


def test_table_stepping_memory_stays_within_the_orbit_buffers():
    system = few_state_system("triangle", None)
    n = 10**5
    tracemalloc.start()
    try:
        orbit = run_orbit(system, [0.2, 0.6], DisjunctiveEnumeration(3), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= orbit.points.nbytes + orbit.symbols.nbytes + 2**19


def test_table_states_grow_by_doubling_on_an_orbit_that_keeps_adding_states(tables):
    # Each block of 256 steps takes 126 unit steps along the x-axis, all to
    # new states, then projects onto the axis 130 times: 127 new transitions
    # and 129 known ones, so every table step keeps the table and adds 126
    # states per 256 steps.
    system = IFSystem((AffineMap(np.eye(2), [1.0, 0.0]), line([0, 1], 0)), 2)
    blocks = 200
    symbols = np.tile(np.repeat([1, 2], [126, 130]), blocks)
    tracemalloc.start()
    try:
        orbit = run_orbit(system, [0.0, 0.0], symbols, len(symbols))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert same_bits(orbit.points[::STEP_BLOCK, 0], 126.0 * np.arange(blocks + 1))
    (table,) = tables
    # The test after step 128 finds the point of step 126 again, and the
    # table steps the rest of the first block. Then table pieces double from
    # 256 steps, capped at the symbol blocks of 4096 steps that run_orbit
    # reads: 256, 512, 1024, 2048 up to step 4096, one piece for each of the
    # next 11 symbol blocks, and one for the last 2048 steps.
    assert table.built_from == 128
    assert len(symbols) == 12 * SYMBOL_BLOCK + 2048
    assert len(table.kept) == 1 + 4 + 11 + 1 and all(table.kept)
    assert len(table.ids) == 126 * blocks + 1
    # The states array doubles when full, so it changes size only a
    # logarithmic number of times and never holds more than twice its states.
    sizes = sorted(set(table.capacities))
    assert sizes == [sizes[0] * 2**j for j in range(len(sizes))]
    assert len(table.ids) <= len(table.states) <= 2 * len(table.ids)
    # Memory is linear in the states: each costs its row of the states array
    # at most twice over, its bytes key and its list of transitions.
    per_state = 2 * orbit.points.itemsize * system.dim + 400
    assert peak <= orbit.points.nbytes + 2 * orbit.symbols.nbytes + len(table.ids) * per_state + 2**20
