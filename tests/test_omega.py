"""Omega estimation, Hausdorff geometry, and the invariance check family."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ifslab import (
    Cyclic,
    DimensionMismatchError,
    DisjunctiveEnumeration,
    EmptyCloudError,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    PointCloud,
    SegmentSet,
    check_invariance,
    check_minimality,
    check_monotone_distance,
    compare_omegas,
    directed_hausdorff_distance,
    estimate_omega,
    hausdorff,
    run_orbit,
)


def line(normal, offset):
    return HyperplaneProjection(Hyperplane(normal, offset))


def parallel_lines_system():
    return IFSystem((line([0, 1], 0), line([0, 1], 1)), 2)


def square_system():
    return IFSystem((line([1, 0], 1), line([1, 0], 0),
                     line([0, 1], 1), line([0, 1], 0)), 2)


def triangle_system():
    return IFSystem((line([0, 1], 0), line([1, 1], 1), line([1, 0], 0)), 2)


def triangle_boundary_segments():
    v = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    return SegmentSet(v, np.roll(v, -1, axis=0))


SQUARE_CORNERS = PointCloud.of([0, 0], [1, 0], [0, 1], [1, 1])


def test_estimate_parallel_lines_two_points():
    orbit = run_orbit(parallel_lines_system(), [0, 0.3], Cyclic((1, 2)), 100)
    est = estimate_omega(orbit, burn_in=2, cluster_eps=1e-6)
    assert est.representatives.size == 2
    assert hausdorff(est.representatives, PointCloud.of([0, 0], [0, 1])) == 0.0


def test_estimate_constant_tail_single_representative():
    sys1 = IFSystem((line([0, 1], 0),), 2)
    orbit = run_orbit(sys1, [5.0, 0.0], Cyclic((1,)), 50)
    est = estimate_omega(orbit, burn_in=0, cluster_eps=1e-6)
    assert est.representatives.size == 1


def test_estimate_square_corners():
    orbit = run_orbit(square_system(), [0.3, 0.7], DisjunctiveEnumeration(4), 10_000)
    est = estimate_omega(orbit, burn_in=1_000, cluster_eps=1e-6)
    assert est.representatives.size == 4
    assert hausdorff(est.representatives, SQUARE_CORNERS) <= 1e-9


def test_estimate_validates_inputs():
    orbit = run_orbit(parallel_lines_system(), [0, 0.3], Cyclic((1, 2)), 10)
    with pytest.raises(ValueError):
        estimate_omega(orbit, burn_in=11, cluster_eps=1e-6)
    with pytest.raises(ValueError):
        estimate_omega(orbit, burn_in=2, cluster_eps=0.0)
    with pytest.raises(ValueError, match="cluster_eps must be positive"):
        estimate_omega(orbit, burn_in=2, cluster_eps=float("nan"))


def test_estimate_covering_and_separation_invariants():
    rng = np.random.default_rng(21)
    sys3 = triangle_system()
    for eps in (1e-2, 0.1):
        orbit = run_orbit(sys3, rng.standard_normal(2), DisjunctiveEnumeration(3), 2000)
        est = estimate_omega(orbit, burn_in=200, cluster_eps=eps)
        reps = est.representatives.points
        tail = orbit.tail(200)
        # covering: every tail point within eps of a representative
        assert np.all(est.representatives.distance_to(tail) <= eps)
        # separation: representatives pairwise farther than eps
        if len(reps) > 1:
            gaps = np.linalg.norm(reps[:, None, :] - reps[None, :, :], axis=2)
            gaps[np.diag_indices(len(reps))] = np.inf
            assert gaps.min() > eps


def test_hausdorff_trivial_values():
    a = PointCloud.of([0, 0])
    b = PointCloud.of([3, 4])
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == 5.0
    c = PointCloud.of([0, 0], [1, 0])
    assert directed_hausdorff_distance(c, a) == 1.0
    assert directed_hausdorff_distance(a, c) == 0.0
    assert hausdorff(c, a) == 1.0


def test_hausdorff_rejects_bad_input():
    with pytest.raises(EmptyCloudError):
        hausdorff(np.empty((0, 2)), PointCloud.of([0, 0]))
    with pytest.raises(DimensionMismatchError):
        hausdorff(PointCloud.of([0, 0]), PointCloud.of([0, 0, 0]))


def test_hausdorff_metric_axioms_on_random_triples():
    rng = np.random.default_rng(9)
    for _ in range(200):
        dim = int(rng.integers(2, 4))
        a = PointCloud(rng.standard_normal((int(rng.integers(1, 8)), dim)))
        b = PointCloud(rng.standard_normal((int(rng.integers(1, 8)), dim)))
        c = PointCloud(rng.standard_normal((int(rng.integers(1, 8)), dim)))
        hab, hba = hausdorff(a, b), hausdorff(b, a)
        assert hab == hba
        assert hausdorff(a, a) == 0.0
        assert hab <= hausdorff(a, c) + hausdorff(c, b) + 1e-9


@st.composite
def cloud_triples(draw):
    """Three clouds in one dimension, of 1 to 12 Gaussian points each, at a
    common scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return [rng.standard_normal((draw(st.integers(1, 12)), dim)) * scale for _ in range(3)]


@settings(max_examples=200, deadline=None)
@given(cloud_triples())
def test_hausdorff_is_symmetric_and_satisfies_the_triangle_inequality(clouds):
    a, b, c = clouds
    hab, hac, hcb = hausdorff(a, b), hausdorff(a, c), hausdorff(c, b)
    assert hab == hausdorff(b, a)
    assert hab <= hac + hcb + 1e-12 * (hac + hcb)


@settings(max_examples=200, deadline=None)
@given(cloud_triples(), st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_hausdorff_is_zero_between_equal_sets(clouds, seed, repeats):
    a = clouds[0]
    rng = np.random.default_rng(seed)
    # The same set: its points permuted, some of them repeated.
    same = np.vstack([a[rng.permutation(len(a))], a[rng.integers(0, len(a), size=repeats)]])
    assert hausdorff(a, same) == 0.0
    assert hausdorff(same, a) == 0.0
    assert hausdorff(a, a) == 0.0


def test_invariance_square_corners():
    report = check_invariance(square_system(), SQUARE_CORNERS, 1e-9)
    assert report.invariant
    assert report.symmetric_excess == max(report.forward_excess, report.backward_excess)


def test_invariance_edge_midpoint_fails():
    # direct oracle: the four projections of (0.5, 0) are
    # (1,0), (0,0), (0.5,1), (0.5,0); the farthest leaves by 1.0
    report = check_invariance(square_system(), PointCloud.of([0.5, 0.0]), 1e-9)
    assert not report.subinvariant
    assert report.forward_excess >= 0.5
    assert report.forward_excess == pytest.approx(1.0, abs=1e-12)


def test_invariance_single_fixed_point():
    sys1 = IFSystem((line([0, 1], 0),), 2)
    report = check_invariance(sys1, PointCloud.of([2.0, 0.0]), 1e-9)
    assert report.invariant


def test_monotone_distance_square():
    orbit = run_orbit(square_system(), [0.3, 0.7], DisjunctiveEnumeration(4), 1000)
    report = check_monotone_distance(orbit, SQUARE_CORNERS, system=square_system())
    assert report.passed and report.hypothesis_met
    assert np.all(report.distances <= report.distances[0] + 1e-9)
    # Cauchy tail: the monotone bounded sequence has settled
    tail = report.distances[-100:]
    assert tail.max() - tail.min() <= 1e-9


def test_monotone_distance_orbit_inside_reference():
    orbit = run_orbit(square_system(), [0.0, 0.0], DisjunctiveEnumeration(4), 200)
    report = check_monotone_distance(orbit, SQUARE_CORNERS, system=square_system())
    assert report.passed
    assert np.all(report.distances <= 1e-12)


def test_monotone_distance_hypothesis_unmet():
    orbit = run_orbit(square_system(), [0.3, 0.7], DisjunctiveEnumeration(4), 100)
    report = check_monotone_distance(orbit, PointCloud.of([0.5, 0.0]),
                                     system=square_system())
    assert report.hypothesis_met is False
    assert not report.passed


def test_monotone_distance_exact_triangle_boundary():
    sys3 = triangle_system()
    orbit = run_orbit(sys3, [0.2, 0.6], DisjunctiveEnumeration(3), 1000)
    report = check_monotone_distance(orbit, triangle_boundary_segments(), system=sys3)
    assert report.passed and report.hypothesis_met
    assert report.hypothesis_excess <= 1e-12


def test_segment_set_distances_are_exact():
    seg = triangle_boundary_segments()
    d = seg.distance_to([[0.5, -1.0], [0.5, 0.1], [2.0, 0.0]])
    assert d == pytest.approx([1.0, 0.1, 1.0], abs=1e-12)


def test_blocked_distances_equal_one_shot_arrays():
    rng = np.random.default_rng(8)
    for n_query, n_cloud, dim in ((1, 5, 2), (1023, 40, 3), (2500, 300, 2), (3000, 17, 5)):
        queries = rng.standard_normal((n_query, dim))
        cloud = PointCloud(rng.standard_normal((n_cloud, dim)))
        one_shot = cdist(queries, cloud.points).min(axis=1)
        assert np.array_equal(cloud.distance_to(queries), one_shot)
        assert directed_hausdorff_distance(queries, cloud) == one_shot.max()
        segs = SegmentSet(rng.standard_normal((n_cloud, dim)), rng.standard_normal((n_cloud, dim)))
        d = segs.ends - segs.starts
        dd = np.einsum("ij,ij->i", d, d)
        rel = queries[:, None, :] - segs.starts[None, :, :]
        t = np.clip(np.einsum("mkj,kj->mk", rel, d) / dd, 0.0, 1.0)
        foot = segs.starts[None, :, :] + t[:, :, None] * d[None, :, :]
        assert np.array_equal(segs.distance_to(queries),
                              np.linalg.norm(queries[:, None, :] - foot, axis=2).min(axis=1))


def test_cloud_distance_memory_is_bounded_by_query_blocks():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.standard_normal((2000, 2)))
    queries = rng.standard_normal((20_000, 2))
    tracemalloc.start()
    try:
        cloud.distance_to(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_minimality_square():
    orbit = run_orbit(square_system(), [0.3, 0.7], DisjunctiveEnumeration(4), 5000)
    est = estimate_omega(orbit, burn_in=500, cluster_eps=1e-6)
    report = check_minimality(square_system(), est, SQUARE_CORNERS, 1e-9)
    assert report.passed and report.intersects and report.contains_omega


def test_minimality_disjoint_candidate_is_vacuous():
    sys2 = parallel_lines_system()
    orbit = run_orbit(sys2, [0, 0.3], Cyclic((1, 2)), 100)
    est = estimate_omega(orbit, burn_in=10, cluster_eps=1e-6)
    far = PointCloud.of([7.0, 0.0], [7.0, 1.0])  # invariant, disjoint component
    report = check_minimality(sys2, est, far, 1e-9)
    assert report.passed and not report.intersects
    assert "no intersection" in report.note


def test_minimality_self_candidate():
    orbit = run_orbit(square_system(), [0.3, 0.7], DisjunctiveEnumeration(4), 3000)
    est = estimate_omega(orbit, burn_in=300, cluster_eps=1e-6)
    report = check_minimality(square_system(), est, est.representatives, 1e-9)
    assert report.passed and report.intersects


def test_minimality_hypothesis_unmet():
    orbit = run_orbit(square_system(), [0.3, 0.7], DisjunctiveEnumeration(4), 500)
    est = estimate_omega(orbit, burn_in=100, cluster_eps=1e-6)
    report = check_minimality(square_system(), est, PointCloud.of([0.5, 0.0]), 1e-9)
    assert not report.hypothesis_met and not report.passed


def test_compare_omegas_identical_and_offset():
    sys2 = parallel_lines_system()
    est_a = estimate_omega(run_orbit(sys2, [0, 0.3], Cyclic((1, 2)), 100), 10, 1e-6)
    est_b = estimate_omega(run_orbit(sys2, [0, 0.3], Cyclic((1, 2)), 100), 10, 1e-6)
    assert compare_omegas(est_a, est_b, 1e-12).passed

    # negative control: with a cyclic driver the omega set follows the start
    est_c = estimate_omega(run_orbit(sys2, [5, 0.3], Cyclic((1, 2)), 100), 10, 1e-6)
    cmp = compare_omegas(est_a, est_c, 1e-3)
    assert cmp.distance == pytest.approx(5.0, abs=1e-12)
    assert not cmp.passed


def test_compare_omegas_same_square_different_drivers():
    sys4 = square_system()
    est_a = estimate_omega(
        run_orbit(sys4, [0.3, 0.7], DisjunctiveEnumeration(4), 10_000), 1000, 1e-6)
    from ifslab import IidRandom
    est_b = estimate_omega(
        run_orbit(sys4, [0.3, 0.7], IidRandom.uniform(13, 4), 10_000), 1000, 1e-6)
    assert compare_omegas(est_a, est_b, 1e-9).passed


def test_orbit_stays_bounded_near_subinvariant_reference():
    rng = np.random.default_rng(30)
    sys4 = square_system()
    for _ in range(5):
        x0 = rng.standard_normal(2) * 10
        orbit = run_orbit(sys4, x0, DisjunctiveEnumeration(4), 500)
        d = check_monotone_distance(orbit, SQUARE_CORNERS).distances
        assert np.all(d <= d[0] + 1e-9)


def test_estimate_level_invariance_all_examples():
    # superinvariance: backward excess <= 2*eps + 1e-3 on long disjunctive runs;
    # invariance at estimate level: symmetric excess tight for the point-like
    # omegas and <= 0.05 for the triangle continuum
    example1 = IFSystem((line([1, -1], 0), line([0, 1], 0)), 2)
    runs = [
        (example1, 2, [0.0, 2.0], 10_000, 1e-6, 1e-6),
        (parallel_lines_system(), 2, [0.0, 0.3], 10_000, 1e-6, 1e-6),
        (square_system(), 4, [0.3, 0.7], 10_000, 1e-6, 1e-6),
        (triangle_system(), 3, [0.2, 0.6], 100_000, 1e-2, 0.05),
    ]
    for system, n, x0, steps, eps, sym_tol in runs:
        orbit = run_orbit(system, x0, DisjunctiveEnumeration(n), steps)
        est = estimate_omega(orbit, burn_in=steps // 10, cluster_eps=eps)
        report = check_invariance(system, est.representatives, sym_tol)
        assert report.backward_excess <= 2 * eps + 1e-3
        assert report.symmetric_excess <= sym_tol


def test_omega_estimate_serializes():
    orbit = run_orbit(parallel_lines_system(), [0, 0.3], Cyclic((1, 2)), 50)
    est = estimate_omega(orbit, 5, 1e-6, driver=Cyclic((1, 2)))
    payload = est.to_dict()
    assert payload["burn_in"] == 5
    assert payload["driver"]["kind"] == "Cyclic"
    assert len(payload["representatives"]) == 2
