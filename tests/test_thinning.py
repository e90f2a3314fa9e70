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
from ifslab import clouds
from ifslab.clouds import (
    DEDUP_TOL,
    GRAPH_MIN_POINTS,
    QUERY_BLOCK,
    nearest_distances,
    points_of,
)
from ifslab.omega import SAMPLE_SPACING


def naive_thin(points, eps):
    """One point at a time, in arrival order: keep a point iff it lies
    strictly farther than ``eps`` from every point kept so far."""
    kept = []
    for p in points:
        if not kept or np.all(np.linalg.norm(np.asarray(kept) - p, axis=1) > eps):
            kept.append(p)
    return np.asarray(kept).reshape(-1, points.shape[1])


# The block scan alone, verbatim as greedy_thin ran it before the conflict
# graph: the reference that the two-strategy greedy_thin must equal.
def scan_thin(points, eps):
    """Arrival-order greedy thinning: keep a point iff it lies strictly farther
    than ``eps`` from every point kept so far.

    Equivalent to the naive one-point-at-a-time scan but vectorized per block;
    kept points come back in arrival order.
    """
    pts = points_of(points)
    kept = []
    for start in range(0, len(pts), QUERY_BLOCK):
        blk = pts[start:start + QUERY_BLOCK]
        if kept:
            dmin = nearest_distances(blk, np.asarray(kept))
        else:
            dmin = np.full(len(blk), np.inf)
        while True:
            idx = np.nonzero(dmin > eps)[0]
            if idx.size == 0:
                break
            i = int(idx[0])
            rep = blk[i]
            kept.append(rep)
            dmin[i:] = np.minimum(dmin[i:], np.linalg.norm(blk[i:] - rep, axis=1))
    return np.asarray(kept)


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


def planted_cloud(seed, n, dim, eps, scale=1.0, offset=0.0, planted=0, lattice=False):
    """``n`` points in arrival order: Gaussian points, scaled and shifted,
    and ``planted`` near-duplicates ``p + t * eps * u`` of them (``u`` a unit
    vector, ``t`` one of 1 - 1e-12, 1 and 1 + 1e-12), which sit on the
    boundary of the ``eps`` test, shuffled among them. With ``lattice`` the
    points are integer multiples of ``eps`` (a power of two) and ``u`` is a
    signed axis, so that ``t = 1`` plants exact ties."""
    rng = np.random.default_rng(seed)
    if lattice:
        base = eps * rng.integers(-10**6, 10**6, size=(n - planted, dim)).astype(float)
        u = np.eye(dim)[rng.integers(0, dim, size=planted)] * rng.choice([-1.0, 1.0], (planted, 1))
    else:
        base = offset + scale * rng.standard_normal((n - planted, dim))
        u = rng.standard_normal((planted, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = rng.choice([1 - 1e-12, 1.0, 1 + 1e-12], size=(planted, 1))
    near = base[rng.integers(0, len(base), size=planted)] + t * eps * u
    return np.vstack([base, near])[rng.permutation(n)]


@st.composite
def sparse_clouds(draw, max_size=4500):
    """The sparse, high-dimension regime, where thinning keeps most points
    and blocks switch to the conflict graph: d from 2 to 64 and up to
    ``max_size`` points (more than one QUERY_BLOCK), with near-duplicates
    planted on the ``eps`` boundary. Returns ``(points, eps)``."""
    n = draw(st.integers(2, max_size))
    dim = draw(st.integers(2, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    planted = draw(st.integers(0, n // 4))
    if draw(st.booleans()):
        eps = draw(st.sampled_from([2.0**-30, 0.5]))
        return planted_cloud(seed, n, dim, eps, planted=planted, lattice=True), eps
    eps = draw(st.sampled_from([DEDUP_TOL, 1e-9, 1e-6, 1e-3]))
    points = planted_cloud(seed, n, dim, eps, planted=planted,
                           scale=draw(st.sampled_from([1e-3, 1.0, 1e3])),
                           offset=draw(st.sampled_from([0.0, 1.0, 1e3])))
    return points, eps


@settings(max_examples=15, deadline=None)
@given(sparse_clouds())
@example((planted_cloud(5, 4500, 50, 1e-9, planted=600), 1e-9))
@example((planted_cloud(6, 4500, 3, DEDUP_TOL, offset=1e3, planted=1500), DEDUP_TOL))
@example((planted_cloud(7, 3000, 8, 0.5, planted=1000, lattice=True), 0.5))
def test_greedy_thin_equals_block_scan_on_sparse_high_dimension_clouds(cloud):
    points, eps = cloud
    assert np.array_equal(greedy_thin(points, eps), scan_thin(points, eps))


@settings(max_examples=40, deadline=None)
@given(clouds_with_repeats(max_size=5000), st.sampled_from([DEDUP_TOL, 0.1, 0.5, 1.0]))
def test_greedy_thin_equals_block_scan_on_clouds_with_repeats(points, eps):
    assert np.array_equal(greedy_thin(points, eps), scan_thin(points, eps))


@pytest.fixture
def graph_calls(monkeypatch):
    """Records, for each conflict graph greedy_thin tries, its vertex count
    and whether it decided the block (False: the edge guard declined it)."""
    calls = []
    real = clouds._conflict_graph_keep

    def spy(points, eps):
        keep = real(points, eps)
        calls.append((len(points), keep is not None))
        return keep

    monkeypatch.setattr(clouds, "_conflict_graph_keep", spy)
    return calls


@pytest.mark.parametrize("n, planted, graphs", [
    (2001, 20, [(2000, True)]),  # like an i.i.d. inconsistent Kaczmarz tail in d = 50
    (GRAPH_MIN_POINTS + 1, 0, [(GRAPH_MIN_POINTS, True)]),
    (GRAPH_MIN_POINTS, 0, []),  # too few survivors after the first kept point
])
def test_sparse_blocks_are_decided_on_the_conflict_graph(graph_calls, n, planted, graphs):
    points = planted_cloud(8, n, 50, 1e-9, planted=planted)
    assert np.array_equal(greedy_thin(points, 1e-9), scan_thin(points, 1e-9))
    assert graph_calls == graphs


def _isolated_then_coincident():
    rng = np.random.default_rng(10)
    return np.vstack([rng.standard_normal((3, 50)), np.tile(rng.standard_normal(50), (2000, 1))])


def _isolated_then_dense_2d():
    rng = np.random.default_rng(11)
    return np.vstack([[[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]], rng.uniform(0, 0.05, (2000, 2))])


@pytest.mark.parametrize("points, eps", [(_isolated_then_coincident(), 1e-9),
                                         (_isolated_then_dense_2d(), 0.1)],
                         ids=["coincident-d50", "dense-2d"])
def test_dense_blocks_pass_the_switch_and_stay_on_the_scan(graph_calls, points, eps):
    # after the first isolated point the block passes the switch rule, and its
    # ~2M close pairs fail the edge guard; listing them would hold them all
    tracemalloc.start()
    try:
        kept = greedy_thin(points, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(kept, scan_thin(points, eps))
    assert len(kept) == 4
    assert graph_calls == [(2002, False)]
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
