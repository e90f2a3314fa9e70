"""One contract for finite point sets: every entry point that takes a ``(k, d)``
cloud raises the same error type for the same fault (``clouds.points_of``)."""

import numpy as np
import pytest

from ifslab import (
    Cyclic,
    DimensionMismatchError,
    EmptyCloudError,
    GeometryValidationError,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    Orbit,
    PointCloud,
    SegmentSet,
    check_invariance,
    check_minimality,
    check_monotone_distance,
    estimate_omega,
    greedy_thin,
    hausdorff,
    hutchinson,
    run_orbit,
)
from ifslab.fileio import render_svg_scatter, write_cloud_csv

SYSTEM = IFSystem((HyperplaneProjection(Hyperplane([0, 1], 0.0)),
                   HyperplaneProjection(Hyperplane([0, 1], 1.0))), 2)
ORBIT = run_orbit(SYSTEM, [0.0, 0.3], Cyclic((1, 2)), 20)
ESTIMATE = estimate_omega(ORBIT, burn_in=2, cluster_eps=1e-6)
CLOUD = PointCloud.of([0.0, 0.0], [0.0, 1.0])
SEGMENTS = SegmentSet([[0.0, 0.0]], [[1.0, 0.0]])

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
