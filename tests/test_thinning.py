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
    distinct_rows,
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
# graph. It decides across blocks by cdist and inside a block by
# np.linalg.norm, two arithmetics that differ in the last bits; greedy_thin
# equals it except at such ties.
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


def norm_scan_thin(points, eps):
    """The block scan with every pair decided as :func:`naive_thin` decides
    it, by ``np.linalg.norm`` of the row difference. Across blocks ``cdist``
    screens the queries: one whose nearest kept point it puts within a
    relative 1e-9 of ``eps``, far beyond the rounding gap of the two sums of
    squares in d <= 64, is measured by the norm against every kept point."""
    pts = points_of(points)
    kept = []
    for start in range(0, len(pts), QUERY_BLOCK):
        blk = pts[start:start + QUERY_BLOCK]
        alive = np.ones(len(blk), dtype=bool)
        if kept:
            ref = np.asarray(kept)
            dmin = nearest_distances(blk, ref)
            alive = dmin > eps * (1 + 1e-9)
            for j in np.flatnonzero(abs(dmin - eps) <= eps * 1e-9):
                alive[j] = (np.linalg.norm(ref - blk[j], axis=1) > eps).all()
        idx = np.flatnonzero(alive)
        while idx.size:
            kept.append(blk[idx[0]])
            idx = idx[1:][np.linalg.norm(blk[idx[1:]] - blk[idx[0]], axis=1) > eps]
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


def planted_tie(seed=0, dim=50):
    """``q, p``, then QUERY_BLOCK far points, then ``p`` again, with ``eps``
    the distance of ``p`` and ``q`` as ``np.linalg.norm`` takes it, for a pair
    that ``cdist`` puts an ulp farther apart. Returns ``(points, eps)``."""
    rng = np.random.default_rng(seed)
    while True:
        q, p = rng.standard_normal((2, dim))
        eps = float(np.linalg.norm([p - q], axis=1)[0])
        if cdist([p], [q])[0, 0] > eps:
            far = 100 * rng.standard_normal((QUERY_BLOCK, dim))
            return np.vstack([q, p, far, p]), eps


PLANTED_TIE = planted_tie()


@st.composite
def tied_clouds(draw):
    """Repeats, in up to three blocks, of a few distinct points in d = 2 to
    64, thinned at the distance of two of them as ``cdist`` or as
    ``np.linalg.norm`` takes it. Returns ``(points, eps)``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.standard_normal((draw(st.integers(2, 30)), draw(st.integers(2, 64))))
    pair = distinct[rng.choice(len(distinct), 2, replace=False)]
    if draw(st.booleans()):
        eps = cdist(pair[:1], pair[1:])[0, 0]
    else:
        eps = np.linalg.norm(pair[:1] - pair[1], axis=1)[0]
    size = draw(st.integers(1, 2 * QUERY_BLOCK + 100))
    return distinct[rng.integers(0, len(distinct), size=size)], float(eps)


@settings(max_examples=40, deadline=None)
@given(tied_clouds())
@example(PLANTED_TIE)
def test_greedy_thin_equals_one_point_at_a_time_scan_at_ties(cloud):
    points, eps = cloud
    assert np.array_equal(greedy_thin(points, eps), naive_thin(points, eps))


def test_greedy_thin_leaves_the_block_scan_at_a_planted_tie():
    points, eps = PLANTED_TIE
    kept = greedy_thin(points, eps)
    assert np.array_equal(kept, naive_thin(points, eps)) and len(kept) == QUERY_BLOCK + 1
    # The block scan decides the repeat of p, in the second block, by cdist
    # against q and keeps it.
    assert len(scan_thin(points, eps)) == QUERY_BLOCK + 2


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
@example((planted_cloud(0, 2200, 24, 1e-3, planted=500, scale=1e-3), 1e-3))
def test_greedy_thin_equals_block_scan_on_sparse_high_dimension_clouds(cloud):
    # planted ties, which scan_thin's cdist decides otherwise: an exact scan
    points, eps = cloud
    assert np.array_equal(greedy_thin(points, eps), norm_scan_thin(points, eps))


@settings(max_examples=40, deadline=None)
@given(clouds_with_repeats(max_size=5000), st.sampled_from([DEDUP_TOL, 0.1, 0.5, 1.0]))
def test_greedy_thin_equals_block_scan_on_clouds_with_repeats(points, eps):
    assert np.array_equal(greedy_thin(points, eps), scan_thin(points, eps))


@settings(max_examples=20, deadline=None)
@given(sparse_clouds(max_size=2 * QUERY_BLOCK), st.integers(0, 2**32 - 1), st.integers(1, 500))
def test_repeats_interleaved_across_blocks_change_nothing(cloud, seed, repeats):
    points, eps = cloud
    rng = np.random.default_rng(seed)
    # each repeat goes before original row `at`, after its original `source`,
    # a few of them at the first block boundary
    at = np.concatenate([rng.integers(1, len(points) + 1, size=repeats),
                         np.minimum(len(points), QUERY_BLOCK + np.arange(-2, 3))])
    source = rng.integers(0, at)
    repeated = np.insert(points, at, points[source], axis=0)
    assert np.array_equal(greedy_thin(repeated, eps), greedy_thin(points, eps))


SIGNED_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 300))
def test_distinct_rows_are_first_occurrences_by_bytes(seed, dim, n):
    rng = np.random.default_rng(seed)
    points = rng.choice(SIGNED_VALUES, size=(n, dim))
    first, inverse = distinct_rows(points)
    assert np.all(np.diff(first) > 0)
    assert points[first][inverse].tobytes() == points.tobytes()
    keys = [row.tobytes() for row in points]
    assert len(set(keys)) == len(first)
    assert [keys.index(key) for key in keys] == first[inverse].tolist()


def test_distinct_rows_survive_hash_collisions(monkeypatch):
    points = np.random.default_rng(3).choice(SIGNED_VALUES, size=(500, 3))
    expected = distinct_rows(points)
    monkeypatch.setattr(clouds, "_row_hashes", lambda bits: np.zeros(len(bits), dtype=np.uint64))
    first, inverse = distinct_rows(points)
    assert np.array_equal(first, expected[0]) and np.array_equal(inverse, expected[1])
    assert len(first) > 1


def test_distinct_rows_tell_signed_zeros_apart():
    first, inverse = distinct_rows(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]


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
    """Three isolated points, then 2000 distinct points that coincide to a few
    ulps: greedy_thin thins distinct rows, so exact copies would be one row."""
    rng = np.random.default_rng(10)
    centre = rng.standard_normal(50)
    jitter = rng.integers(-3, 4, size=(2000, 50)) * np.spacing(centre)
    return np.vstack([rng.standard_normal((3, 50)), centre + jitter])


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


CUBE_3D = IFSystem(tuple(HyperplaneProjection(Hyperplane(np.eye(3)[i], c))
                         for i in range(3) for c in (0, 1))
                   + (HyperplaneProjection(Hyperplane([1, 2, 2], 1)),), 3)


@settings(max_examples=30, deadline=None)
@given(st.one_of(systems_2d(), st.just(CUBE_3D)), st.integers(0, 2**32 - 1),
       st.integers(1, 3000))
@example(CUBE_3D, 1, 2 * QUERY_BLOCK + 5)
def test_monotone_distances_taken_per_distinct_point_equal_per_row(system, seed, steps):
    rng = np.random.default_rng(seed)
    orbit = run_orbit(system, rng.standard_normal(system.dim),
                      IidRandom.uniform(seed, system.n_maps), steps)
    segments = SegmentSet(rng.uniform(-1, 1, (3, system.dim)),
                          rng.uniform(-1, 1, (3, system.dim)))
    for ref in (PointCloud(rng.standard_normal((5, system.dim))), segments):
        report = check_monotone_distance(orbit, ref)
        assert report.distances.tobytes() == ref.distance_to(orbit.points).tobytes()


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
