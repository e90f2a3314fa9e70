"""Property battery for point-set thinning: greedy thinning itself, the
Hutchinson operator (the one step that merges points), the omega clustering,
and the monotone-distance hypothesis, each against a naive reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ifslab import (
    AffineMap,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    IidRandom,
    PointCloud,
    SegmentSet,
    check_monotone_distance,
    estimate_omega,
    greedy_thin,
    hutchinson,
    run_orbit,
)
from ifslab.clouds import DEDUP_TOL
from ifslab.omega import SAMPLE_SPACING


def naive_thin(points, eps):
    """One point at a time, in arrival order: keep a point iff it lies
    strictly farther than ``eps`` from every point kept so far."""
    kept = []
    for p in points:
        if not kept or np.all(np.linalg.norm(np.asarray(kept) - p, axis=1) > eps):
            kept.append(p)
    return np.asarray(kept).reshape(-1, points.shape[1])


@st.composite
def clouds_with_repeats(draw, dim=None, max_size=40):
    """``n`` draws, with repetition, from a few distinct Gaussian points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3)) if dim is None else dim
    distinct = rng.standard_normal((draw(st.integers(1, 12)), dim))
    return distinct[rng.integers(0, len(distinct), size=draw(st.integers(1, max_size)))]


@st.composite
def systems_2d(draw):
    """Up to four generators: hyperplanes with small integer normals (a
    generator may repeat, so images coincide) and contractive affine maps."""
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            normal = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]))
            maps.append(HyperplaneProjection(Hyperplane(normal, draw(st.integers(-1, 1)))))
        else:
            c = draw(st.sampled_from([0.0, 0.5, 1.0]))
            maps.append(AffineMap(c * np.eye(2), [draw(st.integers(-1, 1)), 0.5]))
    return IFSystem(tuple(maps), 2)


@settings(max_examples=40, deadline=None)
@given(clouds_with_repeats(max_size=5000), st.sampled_from([DEDUP_TOL, 0.1, 0.5, 1.0]))
@example(np.random.default_rng(0).standard_normal((9, 2))[
    np.random.default_rng(1).integers(0, 9, size=4500)], 0.5)
def test_greedy_thin_equals_one_point_at_a_time_scan(points, eps):
    # up to 5000 points: more than one 2048-point block
    assert np.array_equal(greedy_thin(points, eps), naive_thin(points, eps))


def test_greedy_thin_memory_is_bounded_by_blocks():
    # every point kept: each block is measured against up to 8000 kept points
    points = np.random.default_rng(9).standard_normal((10_000, 2))
    tracemalloc.start()
    try:
        kept = greedy_thin(points, DEDUP_TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(kept, points)
    assert peak < 64 * 2**20


@settings(max_examples=60, deadline=None)
@given(systems_2d(), clouds_with_repeats(dim=2))
def test_hutchinson_merges_images_once_at_dedup_tol(system, points):
    images = np.vstack([m.apply(points) for m in system.maps])
    out = hutchinson(system, PointCloud(points)).points
    gaps = cdist(out, out)
    np.fill_diagonal(gaps, np.inf)
    assert np.all(gaps > DEDUP_TOL)
    assert np.all(cdist(images, out).min(axis=1) <= DEDUP_TOL)
    assert np.array_equal(out, naive_thin(images, DEDUP_TOL))


def naive_segment_distance(y, starts, ends):
    best = np.inf
    for a, b in zip(starts, ends):
        d = b - a
        t = 0.0 if d @ d == 0.0 else min(max((y - a) @ d / (d @ d), 0.0), 1.0)
        best = min(best, float(np.linalg.norm(y - (a + t * d))))
    return best


def naive_samples(starts, ends):
    """Each segment at ``SAMPLE_SPACING``, endpoints included, one by one."""
    pts = []
    for a, b in zip(starts, ends):
        n = max(int(np.ceil(np.linalg.norm(b - a) / SAMPLE_SPACING)), 1)
        pts.extend(a + (j / n) * (b - a) for j in range(n + 1))
    return pts


def naive_hypothesis_excess(system, base, distance):
    """``max over generators f and base points p of d(f(p), C)``."""
    return max(distance(m.apply(p)) for m in system.maps for p in base)


@settings(max_examples=40, deadline=None)
@given(systems_2d(), clouds_with_repeats(dim=2, max_size=15))
def test_hypothesis_excess_of_a_cloud_equals_naive_loop(system, points):
    orbit = run_orbit(system, points[0], IidRandom.uniform(3, system.n_maps), 20)
    report = check_monotone_distance(orbit, PointCloud(points), system=system)
    naive = naive_hypothesis_excess(
        system, points, lambda y: float(np.linalg.norm(points - y, axis=1).min()))
    assert report.hypothesis_excess == pytest.approx(naive, rel=1e-12, abs=1e-14)


@settings(max_examples=15, deadline=None)
@given(systems_2d(), st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_hypothesis_excess_of_a_segment_set_equals_naive_loop(system, seed, k):
    rng = np.random.default_rng(seed)
    starts, ends = rng.uniform(-0.3, 0.3, (k, 2)), rng.uniform(-0.3, 0.3, (k, 2))
    orbit = run_orbit(system, [1.0, 1.0], IidRandom.uniform(3, system.n_maps), 20)
    report = check_monotone_distance(orbit, SegmentSet(starts, ends), system=system)
    naive = naive_hypothesis_excess(system, naive_samples(starts, ends),
                                    lambda y: naive_segment_distance(y, starts, ends))
    assert report.hypothesis_excess == pytest.approx(naive, rel=1e-12, abs=1e-14)


def test_point_cloud_keeps_coincident_points():
    assert PointCloud.of([0, 0], [0, 0]).size == 2
    given_points = np.array([[1.0, 2.0], [1.0, 2.0 + 1e-15], [0.0, 0.0]])
    assert np.array_equal(PointCloud(given_points).points, given_points)


@settings(max_examples=30, deadline=None)
@given(systems_2d(), st.integers(0, 2**32 - 1), st.integers(1, 600),
       st.sampled_from([1e-13, 1e-9, 1e-3, 0.1]))
def test_omega_representatives_are_the_tail_thinned_once(system, seed, steps, eps):
    orbit = run_orbit(system, [0.3, -0.7], IidRandom.uniform(seed, system.n_maps), steps)
    burn_in = steps // 2
    est = estimate_omega(orbit, burn_in=burn_in, cluster_eps=eps)
    assert np.array_equal(est.representatives.points,
                          greedy_thin(orbit.tail(burn_in), eps))
