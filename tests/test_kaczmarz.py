"""Kaczmarz iteration: consistent convergence, inconsistent omega structure,
hyperplane gaps, boundedness, and the block stop test against a per-step one."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ifslab import (
    Custom,
    Cyclic,
    DriverExhaustedError,
    GeometryValidationError,
    Halfspace,
    Hyperplane,
    IidRandom,
    LinearSystem,
    SymbolRangeError,
    gap_between,
    project_hyperplane,
    run_orbit,
    solve,
    system_to_ifs,
)
from ifslab.ifs import STEP_BLOCK, symbols_from
from ifslab.kaczmarz import SCREEN_ROWS

PARALLEL_PAIR = LinearSystem([[0, 1], [0, 1]], [0, 1])  # y=0 and y=1


def seeded_well_conditioned_system(seed, n=20):
    # A = Q1 diag(1..5) Q2^T with rows normalized afterwards; stays well
    # conditioned and consistent by construction
    rng = np.random.Generator(np.random.Philox(seed))
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q1 @ np.diag(np.linspace(1.0, 5.0, n)) @ q2.T
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    x_true = rng.standard_normal(n)
    return LinearSystem(a, a @ x_true), x_true


def test_system_validation():
    with pytest.raises(GeometryValidationError, match=r"^row 1 of the linear system has norm 0, "):
        LinearSystem([[0.0, 0.0]], [1.0])
    with pytest.raises(GeometryValidationError):
        LinearSystem(np.empty((0, 2)), np.empty(0))


@pytest.mark.parametrize("rows, row", [([[1e200, 1e200], [0, 1]], 1), ([[0, 1], [1e200, 1e200]], 2),
                                       ([[1e300, 0], [1, 1]], 1)])
def test_a_row_whose_norm_overflows_is_rejected(rows, row):
    # its unit normal would be zero, so every residual on it would read 0
    with pytest.raises(GeometryValidationError,
                       match=rf"^row {row} of the linear system has norm inf, outside \[1e-12, inf\)$"):
        LinearSystem(rows, [0, 1])


# Magnitudes from 1e-300 to 1e300, either sign, and zero.
PLANE_VALUES = st.one_of(st.just(0.0), st.builds(lambda m, negative: -m if negative else m,
                                                 st.floats(1e-300, 1e300), st.booleans()))


@settings(max_examples=300, deadline=None)
@given(normal=st.lists(PLANE_VALUES, min_size=1, max_size=4), offset=PLANE_VALUES,
       point=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
@example(normal=[1e-12, 0.0], offset=1e300, point=[0.0] * 4)  # its foot point is past float64
@example(normal=[1e-12, 0.0], offset=-1e300, point=[0.0] * 4)
@example(normal=[1e-12, 0.0], offset=1e276, point=[1e3] * 4)  # its foot point is (1e288, 0)
def test_a_plane_a_halfspace_and_a_system_row_share_one_rule(normal, offset, point):
    d = len(normal)
    points = np.array([np.zeros(d), np.ones(d), point[:d]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow in numpy is an error here
        built = []
        for build in (Hyperplane, Halfspace, lambda a, b: LinearSystem([a], [b])):
            try:
                built.append(build(normal, offset))
            except GeometryValidationError:
                pass
        assert len(built) in (0, 3)
        if not built:
            return
        plane, halfspace, system = built
        a = system.coefficients
        assert np.array_equal(system._a_unit, a / np.linalg.norm(a, axis=1)[:, None])
        assert np.array_equal(system._b_unit, system.rhs / np.linalg.norm(a, axis=1))
        row = system_to_ifs(system).maps[0]
        for p in points:
            for image in (plane.apply(p), halfspace.apply(p), row.apply(p)):
                assert np.isfinite(image).all()
            assert np.isfinite(system.residual(p))


@pytest.mark.parametrize("rows, rhs, problem", [
    ([[1, 0], [np.nan, 1]], [0, 1], "has norm nan, "),
    ([[1, 0], [np.inf, 1]], [0, 1], "has norm inf, "),
    ([[1, 0], [0, 1]], [0, np.inf], "has no float64 foot point: b / |a|^2 = inf$"),
    ([[1, 0], [0, 1]], [0, np.nan], "has no float64 foot point: b / |a|^2 = nan$"),
    ([[1, 0], [1e-12, 0]], [0, 1e300], "has no float64 foot point: b / |a|^2 = inf$"),
], ids=["nan-coefficient", "inf-coefficient", "inf-rhs", "nan-rhs", "far-row"])
def test_a_row_that_breaks_the_plane_rule_is_named(rows, rhs, problem):
    with pytest.raises(GeometryValidationError, match=f"^row 2 of the linear system {problem}"):
        LinearSystem(rows, rhs)


def test_system_to_ifs_maps_rows_in_order():
    sys_lin = LinearSystem([[1, 0], [0, 1], [1, 1]], [1, 2, 3])
    ifs_sys = system_to_ifs(sys_lin)
    assert ifs_sys.n_maps == 3 and ifs_sys.dim == 2
    for i in range(3):
        assert np.array_equal(ifs_sys.maps[i].normal, sys_lin.coefficients[i])


def test_row_projection_onto_axis():
    sys_lin = LinearSystem([[0, 1]], [0])
    ifs_sys = system_to_ifs(sys_lin)
    assert np.allclose(ifs_sys.maps[0].apply([5.0, 3.0]), [5, 0])


def test_solve_orthogonal_system_converges_fast():
    report = solve(LinearSystem([[1, 0], [0, 1]], [1, 2]), Cyclic((1, 2)),
                   tol=1e-12, max_iter=100)
    assert report.converged
    assert report.iterations <= 3
    assert report.residual <= 1e-12
    assert np.allclose(report.final_point, [1, 2], atol=1e-12)
    assert report.omega is None


def test_solve_inconsistent_pair_recovers_gap_points():
    report = solve(PARALLEL_PAIR, Cyclic((1, 2)), tol=1e-9, max_iter=200,
                   x0=[0.0, 0.3])
    assert not report.converged
    assert report.omega is not None
    reps = report.omega.representatives.points
    assert len(reps) == 2
    p = reps[np.argmin(np.abs(reps[:, 1]))]      # the point on y=0
    q = reps[np.argmax(np.abs(reps[:, 1]))]      # the point on y=1
    assert abs(p[1] - 0.0) <= 1e-12 and abs(q[1] - 1.0) <= 1e-12
    gap = gap_between(PARALLEL_PAIR, 1, 2)
    assert gap == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(p - q) == pytest.approx(gap, abs=1e-9)
    # mutual nearest-point pair
    h1 = PARALLEL_PAIR.row_hyperplane(1)
    h2 = PARALLEL_PAIR.row_hyperplane(2)
    assert np.linalg.norm(project_hyperplane(p, h2) - q) <= 1e-9
    assert np.linalg.norm(project_hyperplane(q, h1) - p) <= 1e-9


def test_solve_seeded_system_matches_direct_solver():
    sys_lin, _ = seeded_well_conditioned_system(2024, n=10)
    oracle = np.linalg.solve(sys_lin.coefficients, sys_lin.rhs)
    report = solve(sys_lin, IidRandom.uniform(7, 10), tol=1e-8, max_iter=100_000)
    assert report.converged
    assert np.linalg.norm(report.final_point - oracle) <= 1e-6
    assert np.linalg.cond(sys_lin.coefficients) <= 100


def test_converged_implies_residual_within_tol():
    for tol in (1e-4, 1e-8, 1e-12):
        report = solve(LinearSystem([[1, 0], [1, 1]], [1, 3]), Cyclic((1, 2)),
                       tol=tol, max_iter=10_000)
        assert report.converged
        assert report.residual <= tol


def test_solve_starts_at_origin_by_default():
    report = solve(PARALLEL_PAIR, Cyclic((1, 2)), tol=1e-9, max_iter=5)
    assert np.array_equal(report.orbit.points[0], [0.0, 0.0])
    shifted = solve(PARALLEL_PAIR, Cyclic((1, 2)), tol=1e-9, max_iter=5, x0=[4.0, 0.3])
    assert np.array_equal(shifted.orbit.points[0], [4.0, 0.3])
    # cyclic driver on parallel lines: omega follows the start (negative control)
    assert np.allclose(shifted.orbit.points[-1][0], 4.0)


def test_solve_zero_iterations_when_start_satisfies():
    report = solve(LinearSystem([[1, 0]], [0]), Cyclic((1,)), tol=1e-9, max_iter=10)
    assert report.converged and report.iterations == 0


def test_row_residual_is_zero_right_after_projection():
    sys_lin = LinearSystem([[1, 0], [1, 1], [0, 1]], [1, 2, 1])
    report = solve(sys_lin, Cyclic((1, 2, 3)), tol=1e-15, max_iter=50)
    norms = np.linalg.norm(sys_lin.coefficients, axis=1)
    for k, s in enumerate(report.orbit.symbols):
        x = report.orbit.points[k + 1]
        row_res = abs(sys_lin.coefficients[s - 1] @ x - sys_lin.rhs[s - 1]) / norms[s - 1]
        assert row_res <= 1e-12


def test_min_so_far_residual_is_nonincreasing():
    sys_lin, _ = seeded_well_conditioned_system(5, n=6)
    report = solve(sys_lin, IidRandom.uniform(3, 6), tol=1e-10, max_iter=5000)
    res = [sys_lin.residual(x) for x in report.orbit.points]
    best = np.minimum.accumulate(res)
    assert np.all(np.diff(best) <= 0.0)


def test_bounded_orbit_with_stabilizing_max():
    # three lines with empty common intersection
    sys_lin = LinearSystem([[0, 1], [0, 1], [1, 0]], [0, 1, 0])
    report = solve(sys_lin, IidRandom.uniform(17, 3), tol=1e-12, max_iter=10_000,
                   x0=[3.0, -2.0])
    assert not report.converged
    norms = np.linalg.norm(report.orbit.points, axis=1)
    # static bound: |x0| + 2 d(x0, H1) + sum of pairwise gaps + 10
    x0 = report.orbit.points[0]
    d0 = abs(x0[1])  # distance to H1 = {y=0}
    gaps = sum(gap_between(sys_lin, i, j)
               for i in range(1, 4) for j in range(i + 1, 4))
    assert report.max_norm <= np.linalg.norm(x0) + 2 * d0 + gaps + 10
    # the running max stabilizes: first half max equals full max
    half = norms[: len(norms) // 2].max()
    assert abs(half - norms.max()) <= 1e-6


def test_gap_between_examples():
    assert gap_between(PARALLEL_PAIR, 1, 2) == pytest.approx(1.0, abs=1e-12)
    crossing = LinearSystem([[1, 0], [0, 1]], [1, 2])
    assert gap_between(crossing, 1, 2) == 0.0
    scaled = LinearSystem([[0, 1], [0, 2]], [0, 0])  # y=0 twice
    assert gap_between(scaled, 1, 2) == 0.0
    antiparallel = LinearSystem([[0, 1], [0, -1]], [0, 1])  # y=0 and y=-1
    assert gap_between(antiparallel, 1, 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rows", [(0, 1), (1, 3), (-1, 2)])
def test_gap_between_rejects_a_row_outside_the_system(rows):
    with pytest.raises(GeometryValidationError, match=r"^row -?\d outside 1\.\.2$"):
        gap_between(PARALLEL_PAIR, *rows)


@pytest.mark.parametrize("tol, max_iter, message", [
    (0.0, 10, "tolerance: need a finite number above 0"),
    (-1.0, 10, "tolerance: need a finite number above 0"),
    (float("nan"), 10, "tolerance: need a finite number above 0"),
    (1e-9, 0, "max_iter: need an integer of at least 1"),
], ids=["tol-zero", "tol-negative", "tol-nan", "max-iter-zero"])
def test_solve_validates_tol_and_max_iter(tol, max_iter, message):
    with pytest.raises(ValueError, match=message):
        solve(PARALLEL_PAIR, Cyclic((1, 2)), tol=tol, max_iter=max_iter)


def test_solve_custom_driver_exhaustion():
    with pytest.raises(DriverExhaustedError):
        solve(PARALLEL_PAIR, Custom((1, 2, 1)), tol=1e-15, max_iter=10)


def test_out_of_range_symbol_raises_same_error_in_solve_and_run_orbit():
    ifs_pair = system_to_ifs(PARALLEL_PAIR)
    for driver in ([1, 3], np.array([1, 3]), Cyclic((3, 1, 2))):
        with pytest.raises(SymbolRangeError):
            run_orbit(ifs_pair, [0.0, 0.3], driver, 2)
        with pytest.raises(SymbolRangeError):
            solve(PARALLEL_PAIR, driver, tol=1e-9, max_iter=2)


@pytest.mark.parametrize("consistent", [True, False])
def test_solve_orbit_equals_run_orbit(consistent):
    if consistent:
        sys_lin, _ = seeded_well_conditioned_system(11, n=8)
    else:
        sys_lin = LinearSystem([[0, 1], [1, 1], [1, 0]], [0, 1, 0])
    n = sys_lin.n_rows
    symbols = np.random.default_rng(3).integers(1, n + 1, size=2000)
    for driver in (Cyclic(tuple(range(n, 0, -1))), IidRandom.uniform(21, n), symbols):
        report = solve(sys_lin, driver, tol=1e-8, max_iter=2000, x0=np.ones(sys_lin.dim))
        assert report.converged == consistent
        orbit = run_orbit(system_to_ifs(sys_lin), np.ones(sys_lin.dim), driver,
                          report.iterations)
        assert np.array_equal(report.orbit.points, orbit.points)
        assert np.array_equal(report.orbit.symbols, orbit.symbols)


def test_solve_report_serializes():
    report = solve(PARALLEL_PAIR, Cyclic((1, 2)), tol=1e-9, max_iter=50)
    payload = report.to_dict()
    assert payload["converged"] is False
    assert payload["omega"] is not None
    assert payload["driver"]["kind"] == "Cyclic"
    import json
    json.dumps(payload)


def test_early_stop_keeps_no_unused_buffer_rows():
    sys_lin, _ = seeded_well_conditioned_system(5, n=10)
    report = solve(sys_lin, Cyclic(tuple(range(1, 11))), tol=1e-6, max_iter=100_000)
    assert report.converged and report.iterations < 100_000
    assert report.orbit.points.base is None and report.orbit.symbols.base is None
    orbit = run_orbit(system_to_ifs(sys_lin), np.zeros(10), Cyclic(tuple(range(1, 11))),
                      report.iterations)
    assert np.array_equal(report.orbit.points, orbit.points)
    at_start = solve(PARALLEL_PAIR, Cyclic((1, 2)), tol=2.0, max_iter=1000)
    assert at_start.iterations == 0 and at_start.orbit.points.base is None


def test_sequence_drivers_are_described_as_custom_specs():
    expected = Custom((1, 2) * 50)
    for driver in (np.array([1, 2] * 50), [1, 2] * 50, (1, 2) * 50):
        payload = solve(PARALLEL_PAIR, driver, tol=1e-9, max_iter=100).to_dict()
        assert payload["driver"] == solve(PARALLEL_PAIR, expected, tol=1e-9,
                                          max_iter=100).to_dict()["driver"]
        assert payload["driver"]["kind"] == "Custom"
        assert payload["omega"]["driver"] == payload["driver"]
    stream = solve(PARALLEL_PAIR, expected.stream(), tol=1e-9, max_iter=100).to_dict()
    assert stream["driver"] == {"kind": "_CustomStream"}
    # symbols past the 100 the run read may lie outside every alphabet
    unread = solve(PARALLEL_PAIR, [1, 2] * 50 + [0], tol=1e-9, max_iter=100).to_dict()
    assert unread["driver"] == {"kind": "list"}


class _SlicedOnlyArray(np.ndarray):
    def __iter__(self):
        raise AssertionError("array drivers are read by slicing")


def test_array_drivers_are_read_by_slicing():
    symbols = np.random.default_rng(5).integers(1, 3, size=500)
    as_array, as_list = symbols.view(_SlicedOnlyArray), symbols.tolist()
    pair = system_to_ifs(PARALLEL_PAIR)
    assert np.array_equal(run_orbit(pair, [0.0, 0.5], as_array, 500).points,
                          run_orbit(pair, [0.0, 0.5], as_list, 500).points)
    by_array = solve(PARALLEL_PAIR, as_array, tol=1e-9, max_iter=500)
    by_list = solve(PARALLEL_PAIR, as_list, tol=1e-9, max_iter=500)
    assert np.array_equal(by_array.orbit.points, by_list.orbit.points)
    assert np.array_equal(by_array.omega.representatives.points,
                          by_list.omega.representatives.points)


def test_report_residual_is_the_system_residual_bit_for_bit():
    for seed in range(5):
        sys_lin, _ = seeded_well_conditioned_system(seed, n=8)
        for tol, max_iter in ((1e-6, 100_000), (1e-15, 40)):
            report = solve(sys_lin, IidRandom.uniform(seed, 8), tol=tol, max_iter=max_iter)
            assert report.residual == sys_lin.residual(report.final_point)
    inconsistent = solve(PARALLEL_PAIR, Cyclic((1, 2)), tol=1e-9, max_iter=101)
    assert inconsistent.residual == PARALLEL_PAIR.residual(inconsistent.final_point)


def per_step_solve(system, driver, tol, max_iter, x0):
    """The orbit points of the stop test after every step, the oracle of the
    block screen: a kernel step, then ``_residual(x) <= tol``."""
    kernels = [m.kernel for m in system_to_ifs(system).maps]
    x = np.asarray(x0, dtype=float)
    points = [x]
    if system._residual(x) > tol:
        for s in symbols_from(driver, max_iter, system.n_rows).tolist():
            x = kernels[s - 1](x)
            points.append(x)
            if system._residual(x) <= tol:
                break
    return np.array(points)


@st.composite
def systems_and_drivers(draw):
    """A random consistent or inconsistent system, a start point, and a
    cyclic, i.i.d. or array driver."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 10))
    a = rng.standard_normal((m, d))
    b = a @ rng.standard_normal(d) if draw(st.booleans()) else rng.standard_normal(m)
    system = LinearSystem(a, b)
    x0 = rng.standard_normal(d) * draw(st.sampled_from([0.0, 1.0, 100.0]))
    max_iter = draw(st.integers(1, 3 * STEP_BLOCK + 10))
    kind = draw(st.sampled_from(["cyclic", "iid", "array"]))
    if kind == "cyclic":
        driver = Cyclic(tuple(int(i) for i in rng.permutation(m) + 1))
    elif kind == "iid":
        driver = IidRandom.uniform(int(rng.integers(0, 2**31)), m)
    else:
        driver = rng.integers(1, m + 1, size=max_iter)
    return system, driver, x0, max_iter


# Stops on x0 and on the first and last steps of the first sub-blocks.
BLOCK_EDGES = (0, 1, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK, 2 * STEP_BLOCK + 1)


@settings(max_examples=80, deadline=None)
@given(systems_and_drivers(), st.one_of(st.integers(0, 3 * STEP_BLOCK + 10),
                                         st.sampled_from(BLOCK_EDGES)))
def test_block_stop_equals_the_per_step_stop(case, k):
    system, driver, x0, max_iter = case
    full = per_step_solve(system, driver, 0.0, max_iter, x0)
    # The tolerance is attained with equality at point k.
    tol = system._residual(full[min(k, len(full) - 1)])
    assume(tol > 0.0)
    expected = per_step_solve(system, driver, tol, max_iter, x0)
    report = solve(system, driver, tol=tol, max_iter=max_iter, x0=x0)
    assert report.iterations == len(expected) - 1
    assert np.array_equal(report.orbit.points, expected)
    assert report.converged == (system._residual(expected[-1]) <= tol)


@pytest.mark.parametrize("k", BLOCK_EDGES)
def test_stop_on_a_sub_block_edge(k):
    # Projections onto x = 1 fix the start; the first projection onto y = 2,
    # at step k, solves the system.
    system = LinearSystem([[1, 0], [0, 1], [1, 1]], [1, 2, 3])
    x0 = [1.0, 2.0] if k == 0 else [1.0, -7.0]
    symbols = [1] * max(k - 1, 0) + [2] + [3, 1, 2] * 10
    expected = per_step_solve(system, symbols, 1e-12, len(symbols), x0)
    assert len(expected) == k + 1
    # A custom driver that runs out inside the sub-block of the stop.
    for driver, max_iter in ((np.array(symbols), len(symbols)),
                             (Custom(tuple(symbols[:k + 3])), 10_000)):
        report = solve(system, driver, tol=1e-12, max_iter=max_iter, x0=x0)
        assert report.converged and report.iterations == k
        assert np.array_equal(report.orbit.points, expected)


def assert_stop_matches_per_step(system, driver, tol, max_iter, x0):
    expected = per_step_solve(system, driver, tol, max_iter, x0)
    report = solve(system, driver, tol=tol, max_iter=max_iter, x0=x0)
    assert report.iterations == len(expected) - 1
    assert np.array_equal(report.orbit.points, expected)
    return report


def screen_rows_copied(seed, d=40, m=48):
    """A consistent system whose first ``SCREEN_ROWS`` rows are ``x_d = 0``
    and whose other rows have ``x_d`` coefficient 0, so an orbit from a start
    with ``x_d = 0`` meets the first rows exactly at every point."""
    rng = np.random.default_rng(seed)
    a = np.zeros((m, d))
    a[:SCREEN_ROWS, -1] = 1.0
    a[SCREEN_ROWS:, :-1] = rng.standard_normal((m - SCREEN_ROWS, d - 1))
    x_true = np.append(rng.standard_normal(d - 1), 0.0)
    x0 = np.append(100.0 * rng.standard_normal(d - 1), 0.0)
    return LinearSystem(a, a @ x_true), x0


def test_screen_keeps_going_past_points_that_meet_only_the_first_rows():
    # Every point meets the first rows, x_3 = 0, exactly; rows x_1 = 1 and
    # x_1 = -1 keep the residual at 1 or more.
    rows = [[0, 0, 1]] * SCREEN_ROWS + [[1, 0, 0], [0, 1, 0], [-1, 0, 0]]
    system = LinearSystem(rows, [0] * SCREEN_ROWS + [1, 0, 1])
    n = system.n_rows
    for driver in (Cyclic(tuple(range(n, 0, -1))), IidRandom.uniform(5, n)):
        report = assert_stop_matches_per_step(system, driver, 0.5, 3 * STEP_BLOCK + 7,
                                              [0.0, 3.0, 0.0])
        assert not report.converged and report.iterations == 3 * STEP_BLOCK + 7


@pytest.mark.parametrize("k", BLOCK_EDGES + (STEP_BLOCK // 2, STEP_BLOCK + 37))
def test_screen_stops_where_the_residual_equals_tol(k):
    # Rounding of the screen's products can put a residual that equals tol
    # on either side of it; the stop follows the exact residual alone.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        d, m = 30, 36
        a = rng.standard_normal((m, d))
        system = LinearSystem(a, a @ rng.standard_normal(d))
        driver, x0 = IidRandom.uniform(seed, m), 100.0 * rng.standard_normal(d)
        path = per_step_solve(system, driver, 0.0, k, x0)
        report = assert_stop_matches_per_step(system, driver, system._residual(path[k]),
                                              3 * STEP_BLOCK, x0)
        assert report.converged and report.iterations <= k


@pytest.mark.parametrize("m", sorted({1, SCREEN_ROWS - 1, SCREEN_ROWS}))
def test_screen_of_a_system_with_no_more_rows_than_its_first_stage(m):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        d = 30
        a = rng.standard_normal((m, d))
        system = LinearSystem(a, a @ rng.standard_normal(d))
        x0 = 100.0 * rng.standard_normal(d)
        for k in BLOCK_EDGES + (STEP_BLOCK + 37,):
            driver = Cyclic(tuple(range(1, m + 1))) if m > 1 else [1] * (3 * STEP_BLOCK)
            path = per_step_solve(system, driver, 0.0, k, x0)
            tol = system._residual(path[min(k, len(path) - 1)])
            if tol > 0.0:
                assert_stop_matches_per_step(system, driver, tol, 3 * STEP_BLOCK, x0)


@pytest.mark.parametrize("k", BLOCK_EDGES + (STEP_BLOCK + 37,))
def test_screen_whose_first_rows_pass_every_point(k):
    for seed in range(4):
        system, x0 = screen_rows_copied(seed)
        driver = IidRandom.uniform(seed, system.n_rows)
        path = per_step_solve(system, driver, 0.0, k, x0)
        assert not path[:, -1].any()
        report = assert_stop_matches_per_step(system, driver, system._residual(path[k]),
                                              3 * STEP_BLOCK, x0)
        assert report.converged and report.iterations <= k


def test_orbit_buffer_grows_with_the_steps_run():
    sys_lin, _ = seeded_well_conditioned_system(1, n=20)
    max_iter = 10**6
    tracemalloc.start()
    try:
        report = solve(sys_lin, IidRandom.uniform(3, 20), tol=1e-6, max_iter=max_iter)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged and report.iterations < 5000
    # Points and symbols of the steps run, doubled by the buffer growth and
    # again by a reallocation, plus 1 MB for everything else.
    bound = 4 * (report.iterations + STEP_BLOCK + 1) * (sys_lin.dim + 1) * 8 + 2**20
    assert peak <= bound < (max_iter + 1) * sys_lin.dim * 8 // 50
