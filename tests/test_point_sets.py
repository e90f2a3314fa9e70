"""One contract for caller input: every entry point that takes a ``(k, d)``
cloud, a ``(d,)`` point or vector, a tolerance or a count raises the same
error type for the same fault (``clouds.points_of``, ``clouds.tolerance_of``
and ``clouds.count_of``), and a config number the same message as the
library argument behind it."""

import numpy as np
import pytest

from ifslab import (
    AffineMap,
    AffineSubspace,
    Ball,
    Box,
    Cyclic,
    DimensionMismatchError,
    EmptyCloudError,
    GeometryValidationError,
    Halfspace,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    IidRandom,
    LinearSystem,
    Orbit,
    PointCloud,
    SegmentSet,
    apply_map,
    check_disjunctive,
    check_invariance,
    check_minimality,
    check_monotone_distance,
    compare_omegas,
    composition_lipschitz_exact,
    composition_lipschitz_on_tree,
    enumeration_prefix_length,
    estimate_omega,
    gap_between,
    generate,
    greedy_thin,
    hausdorff,
    hutchinson,
    project_affine_subspace,
    project_convex,
    project_hyperplane,
    run_orbit,
    solve,
)
from ifslab.fileio import render_svg_scatter, write_cloud_csv
from ifslab.scenarios import ScenarioError, preset_config, scenario_from_dict

SYSTEM = IFSystem((HyperplaneProjection(Hyperplane([0, 1], 0.0)),
                   HyperplaneProjection(Hyperplane([0, 1], 1.0))), 2)
ORBIT = run_orbit(SYSTEM, [0.0, 0.3], Cyclic((1, 2)), 20)
ESTIMATE = estimate_omega(ORBIT, burn_in=2, cluster_eps=1e-6)
CLOUD = PointCloud.of([0.0, 0.0], [0.0, 1.0])
SEGMENTS = SegmentSet([[0.0, 0.0]], [[1.0, 0.0]])
# two parallel rows: solves run to max_iter
LINEAR = LinearSystem([[0.0, 1.0], [0.0, 1.0]], [0.0, 1.0])
GENERATORS = {
    "Hyperplane": Hyperplane([0, 1], 0.0),
    "Halfspace": Halfspace([0, 1], 0.0),
    "AffineSubspace": AffineSubspace([0.0, 0.0], [[1.0, 0.0]]),
    "Ball": Ball([0, 0], 1.0),
    "Box": Box([0, 0], [1, 1]),
    "AffineMap": AffineMap(0.5 * np.eye(2), [0.0, 1.0]),
}
# entry -> its call on points; each takes a (d,) point or a (k, d) stack
APPLIES = {
    **{f"{name}.apply": g.apply for name, g in GENERATORS.items()},
    "project_hyperplane": lambda p: project_hyperplane(p, GENERATORS["Hyperplane"]),
    "project_affine_subspace": lambda p: project_affine_subspace(p, GENERATORS["AffineSubspace"]),
    **{f"project_convex {name}": lambda p, body=GENERATORS[name]: project_convex(p, body)
       for name in ("Halfspace", "Ball", "Box")},
}

# fault -> (points, error); the wrong dimension is 3 against 2-d operands.
FAULTS = {
    "1-d": (np.array([0.0, 1.0]), GeometryValidationError),
    "3-d": (np.zeros((1, 1, 2)), GeometryValidationError),
    "(k, 0)": (np.empty((2, 0)), GeometryValidationError),
    "(0, d)": (np.empty((0, 2)), EmptyCloudError),
    "nan": (np.array([[np.nan, 0.0], [0.0, 0.0]]), GeometryValidationError),
    "inf": (np.array([[0.0, 0.0], [1.0, np.inf]]), GeometryValidationError),
    "-inf": (np.array([[0.0, -np.inf], [1.0, 0.0]]), GeometryValidationError),
    "wrong d": (np.zeros((2, 3)), DimensionMismatchError),
}

# entry -> (call on the faulty points and a scratch path, faults that do not apply).
# Queries and segment endpoints promote one point to a (1, d) stack, so a 1-d
# array is valid there; an entry with no second operand has no dimension to miss.
ENTRIES = {
    "PointCloud": (lambda p, path: PointCloud(p), {"wrong d"}),
    "greedy_thin": (lambda p, path: greedy_thin(p, 0.1), {"wrong d"}),
    "hausdorff": (lambda p, path: hausdorff(p, CLOUD), set()),
    "PointCloud.distance_to": (lambda p, path: CLOUD.distance_to(p), {"1-d"}),
    "SegmentSet.distance_to": (lambda p, path: SEGMENTS.distance_to(p), {"1-d"}),
    "hutchinson": (lambda p, path: hutchinson(SYSTEM, p), set()),
    "check_invariance": (lambda p, path: check_invariance(SYSTEM, p, 1e-9), set()),
    "check_minimality": (lambda p, path: check_minimality(SYSTEM, ESTIMATE, p, 1e-9), set()),
    "check_monotone_distance": (lambda p, path: check_monotone_distance(ORBIT, p), set()),
    "SegmentSet": (lambda p, path: SegmentSet(np.zeros((2, 2)), p), {"1-d"}),
    "Orbit": (lambda p, path: Orbit(p, np.ones(max(len(p) - 1, 0))), {"wrong d"}),
    "write_cloud_csv": (lambda p, path: write_cloud_csv(path, p), {"wrong d"}),
    "render_svg_scatter": (lambda p, path: render_svg_scatter(path, p), set()),
    "render_svg_scatter highlights": (lambda p, path: render_svg_scatter(path, CLOUD.points, p),
                                      set()),
    # a 1-d array is one point here
    **{entry: (lambda p, path, call=call: call(p), {"1-d"}) for entry, call in APPLIES.items()},
}

CASES = [(entry, fault) for entry, (_, skip) in ENTRIES.items()
         for fault in FAULTS if fault not in skip]


@pytest.mark.parametrize("entry,fault", CASES, ids=[f"{e}-{f}" for e, f in CASES])
def test_every_entry_point_raises_one_error_type_per_fault(entry, fault, tmp_path):
    points, error = FAULTS[fault]
    call, _ = ENTRIES[entry]
    path = tmp_path / "out"
    with pytest.raises(error):
        call(points, path)
    assert not path.exists()


def test_greedy_thin_raises_on_nan_instead_of_dropping_later_points():
    with pytest.raises(GeometryValidationError):
        greedy_thin([[np.nan, 0.0], [0.0, 0.0], [5.0, 5.0]], 0.1)


@pytest.mark.parametrize("reference", [
    np.zeros((2, 3)),
    PointCloud(np.zeros((2, 3))),
    SegmentSet(np.zeros((1, 3)), np.ones((1, 3))),
], ids=["raw", "PointCloud", "SegmentSet"])
def test_monotone_check_names_a_reference_of_the_wrong_dimension(reference):
    with pytest.raises(DimensionMismatchError, match="^reference: expected dimension 2, got 3$"):
        check_monotone_distance(ORBIT, reference)


# fault -> (point, error) for a (d,) point or vector of 2-d operands.
POINT_FAULTS = {
    "0-d": (np.float64(1.0), GeometryValidationError),
    "2-d": (np.zeros((1, 2)), GeometryValidationError),
    "(0,)": (np.empty(0), GeometryValidationError),
    "nan": (np.array([np.nan, 0.0]), GeometryValidationError),
    "inf": (np.array([0.0, np.inf]), GeometryValidationError),
    "-inf": (np.array([-np.inf, 0.0]), GeometryValidationError),
    "wrong d": (np.zeros(3), DimensionMismatchError),
}

# entry -> (call on the faulty point, the name its message starts with,
# faults that do not apply); a 2-d array is a stack for apply.
POINT_ENTRIES = {
    **{entry: (call, "point", {"2-d"}) for entry, call in APPLIES.items()},
    "apply_map": (lambda x: apply_map(SYSTEM, 1, x), "x", set()),
    "run_orbit": (lambda x: run_orbit(SYSTEM, x, Cyclic((1, 2)), 3), "x0", set()),
    "solve": (lambda x: solve(LINEAR, Cyclic((1, 2)), 1e-9, 10, x0=x), "x0", set()),
    "composition_lipschitz_on_tree": (
        lambda x: composition_lipschitz_on_tree(SYSTEM, (1, 2), x, 3, 8, 1), "x0", set()),
    "LinearSystem.residual": (lambda x: LINEAR.residual(x), "x", set()),
}

POINT_CASES = [(entry, fault) for entry, (_, _, skip) in POINT_ENTRIES.items()
               for fault in POINT_FAULTS if fault not in skip]


@pytest.mark.parametrize("entry,fault", POINT_CASES, ids=[f"{e}-{f}" for e, f in POINT_CASES])
def test_every_point_entry_raises_one_error_type_per_fault_naming_the_point(entry, fault):
    point, error = POINT_FAULTS[fault]
    call, name, _ = POINT_ENTRIES[entry]
    with pytest.raises(error, match=f"^{name}: "):
        call(point)


# entry -> (call on the tolerance, its name, whether it must be above 0)
TOLERANCES = {
    "estimate_omega": (lambda v: estimate_omega(ORBIT, 2, v), "cluster_eps", True),
    "solve": (lambda v: solve(LINEAR, Cyclic((1, 2)), v, 10), "tolerance", True),
    "check_invariance": (lambda v: check_invariance(SYSTEM, CLOUD, v), "tol", False),
    "check_minimality": (lambda v: check_minimality(SYSTEM, ESTIMATE, CLOUD, v), "tol", False),
    "compare_omegas": (lambda v: compare_omegas(ESTIMATE, ESTIMATE, v), "tol", False),
    "check_monotone_distance": (lambda v: check_monotone_distance(ORBIT, CLOUD, base_slack=v),
                                "base_slack", False),
    "greedy_thin": (lambda v: greedy_thin([[0, 0], [0.5, 0], [3, 0]], v), "eps", True),
    "SegmentSet.sample_points": (lambda v: SEGMENTS.sample_points(v), "spacing", True),
}

TOLERANCE_CASES = [(entry, value) for entry, (_, _, positive) in TOLERANCES.items()
                   for value in [np.nan, np.inf, -np.inf, -1e-9, -1, True, "1e-6", None]
                   + [0.0] * positive]


@pytest.mark.parametrize("entry,value", TOLERANCE_CASES,
                         ids=[f"{e}-{v}" for e, v in TOLERANCE_CASES])
def test_every_tolerance_follows_one_rule(entry, value):
    call, name, positive = TOLERANCES[entry]
    bound = "above 0" if positive else "of at least 0"
    with pytest.raises(ValueError, match=f"^{name}: need a finite number {bound}, got "):
        call(value)
    if not positive:
        call(0.0)


# entry -> (call on the count, returning something to compare, its name, its
# least value)
COUNTS = {
    "run_orbit": (lambda n: run_orbit(SYSTEM, [0.0, 0.3], Cyclic((1, 2)), n).points,
                  "step count", 0),
    "solve": (lambda n: solve(LINEAR, Cyclic((1, 2)), 1e-9, n).final_point, "max_iter", 1),
    "estimate_omega": (lambda n: estimate_omega(ORBIT, n, 1e-6).representatives.points,
                       "burn-in", 0),
    "composition_lipschitz_on_tree depth": (
        lambda n: composition_lipschitz_on_tree(SYSTEM, (1, 2), [0.0, 0.3], n, 8, 1), "depth", 0),
    "composition_lipschitz_on_tree samples": (
        lambda n: composition_lipschitz_on_tree(SYSTEM, (1, 2), [0.0, 0.3], 3, n, 1),
        "samples", 2),
    "composition_lipschitz_on_tree seed": (
        lambda n: composition_lipschitz_on_tree(SYSTEM, (1, 2), [0.0, 0.3], 3, 8, n), "seed", 0),
    "IidRandom seed": (lambda n: generate(IidRandom(n, (0.5, 0.5)), 8), "seed", 0),
    "generate": (lambda n: generate(Cyclic((1, 2)), n), "symbol count", 0),
    "check_disjunctive": (lambda n: check_disjunctive([1, 2, 1], n).found, "window length", 1),
    "enumeration_prefix_length window": (lambda n: enumeration_prefix_length(n, 2),
                                         "window length", 0),
    "enumeration_prefix_length alphabet": (lambda n: enumeration_prefix_length(2, n),
                                           "alphabet size", 1),
}

COUNT_FAULTS = {"2.5": 2.5, "True": True, "nan": np.nan, "string": "2", "None": None,
                "below-low": None}

COUNT_CASES = [(entry, fault) for entry in COUNTS for fault in COUNT_FAULTS]


@pytest.mark.parametrize("entry,fault", COUNT_CASES, ids=[f"{e}-{f}" for e, f in COUNT_CASES])
def test_every_count_is_an_integer(entry, fault):
    call, name, low = COUNTS[entry]
    value = low - 1 if fault == "below-low" else COUNT_FAULTS[fault]
    with pytest.raises(ValueError, match=f"^{name}: need an integer of at least {low}, got "):
        call(value)


@pytest.mark.parametrize("entry", COUNTS)
def test_an_integral_float_count_reads_as_its_integer(entry):
    call, _, _ = COUNTS[entry]
    assert np.array_equal(call(2.0), call(2))


# entry -> (call on one symbol or row number, returning something to compare,
# its name)
SYMBOLS = {
    "apply_map": (lambda s: apply_map(SYSTEM, s, [0.0, 0.3]), "symbol"),
    "composition_lipschitz_exact": (lambda s: composition_lipschitz_exact(SYSTEM, (1, s)),
                                    "composition word"),
    "composition_lipschitz_on_tree": (
        lambda s: composition_lipschitz_on_tree(SYSTEM, (s,), [0.0, 0.3], 3, 8, 1),
        "composition word"),
    "LinearSystem.row_hyperplane": (lambda s: LINEAR.row_hyperplane(s).offset, "row"),
    "gap_between": (lambda s: gap_between(LINEAR, 1, s), "row"),
}

SYMBOL_CASES = [(entry, fault) for entry in SYMBOLS
                for fault in [1.5, True, "2", np.nan, None]]


@pytest.mark.parametrize("entry,fault", SYMBOL_CASES,
                         ids=[f"{e}-{f}" for e, f in SYMBOL_CASES])
def test_every_symbol_and_row_number_is_integral(entry, fault):
    call, name = SYMBOLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be integral, got "):
        call(fault)


@pytest.mark.parametrize("entry", SYMBOLS)
def test_an_integral_float_symbol_reads_as_its_integer(entry):
    call, _ = SYMBOLS[entry]
    assert np.array_equal(call(2.0), call(2))


# config key -> (call on the library argument behind it, faults of both)
PARITY = {
    "steps": (lambda v: run_orbit(SYSTEM, [0.0, 0.3], Cyclic((1, 2)), v),
              [2.5, -1, True, "60", None, np.nan]),
    "burn_in": (lambda v: estimate_omega(ORBIT, v, 1e-6), [2.5, -1, True, "2", None, np.nan]),
    "cluster_eps": (lambda v: estimate_omega(ORBIT, 2, v),
                    [0, -1, True, "1e-6", None, np.nan, np.inf]),
}

PARITY_CASES = [(key, value) for key, (_, faults) in PARITY.items() for value in faults]


@pytest.mark.parametrize("key,value", PARITY_CASES, ids=[f"{k}-{v}" for k, v in PARITY_CASES])
def test_a_config_number_gets_the_message_of_its_library_argument(key, value):
    config = preset_config("example2_parallel")
    config[key] = value
    with pytest.raises(ScenarioError) as from_config:
        scenario_from_dict(config)
    with pytest.raises(ValueError) as from_library:
        PARITY[key][0](value)
    rule = str(from_library.value).split(": ", 1)[1]
    if key == "steps":  # a scenario runs at least one step, run_orbit 0 or more
        rule = rule.replace("at least 0", "at least 1")
    assert str(from_config.value) == f"config.{key}: {rule}"
