"""IFS generators, orbit runs, Hutchinson operator, composition diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import (
    AffineMap,
    Ball,
    Box,
    ConvexProjection,
    Custom,
    Cyclic,
    DegenerateTreeError,
    DisjunctiveEnumeration,
    DriverExhaustedError,
    GeometryValidationError,
    Halfspace,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    IidRandom,
    Orbit,
    PointCloud,
    SubspaceProjection,
    SymbolRangeError,
    apply_map,
    composition_lipschitz_exact,
    composition_lipschitz_on_tree,
    hutchinson,
    run_orbit,
    spectral_norm,
)
from ifslab import clouds
from ifslab.geometry import AffineSubspace

# Orthogonal to both start vectors of a power iteration from (1, 1, 1) and
# (1, 2, 3), so such an iteration never sees the stretch along it.
HIDDEN = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)


def line(normal, offset):
    return HyperplaneProjection(Hyperplane(normal, offset))


def square_system():
    # H1: x=1, H2: x=0, H3: y=1, H4: y=0
    return IFSystem((line([1, 0], 1), line([1, 0], 0),
                     line([0, 1], 1), line([0, 1], 0)), 2)


def parallel_lines_system():
    # H1: y=0, H2: y=1
    return IFSystem((line([0, 1], 0), line([0, 1], 1)), 2)


def triangle_system():
    # H1: y=0, H2: x+y=1, H3: x=0; pairwise intersections (0,0), (1,0), (0,1)
    return IFSystem((line([0, 1], 0), line([1, 1], 1), line([1, 0], 0)), 2)


def test_apply_map_square_example():
    assert np.allclose(apply_map(square_system(), 1, [0.3, 0.7]), [1, 0.7])


def test_apply_map_fixed_point():
    sys2 = parallel_lines_system()
    x = np.array([4.2, 0.0])  # already on H1
    assert np.array_equal(apply_map(sys2, 1, x), x)


def test_apply_map_affine():
    half = IFSystem((AffineMap(0.5 * np.eye(2), [0, 0]),), 2)
    assert np.allclose(apply_map(half, 1, [2, 4]), [1, 2])


def test_apply_map_validates():
    with pytest.raises(SymbolRangeError):
        apply_map(square_system(), 5, [0, 0])
    with pytest.raises(Exception):
        apply_map(square_system(), 1, [0, 0, 0])


def test_run_orbit_parallel_lines():
    orbit = run_orbit(parallel_lines_system(), [0, 0.3], Cyclic((1, 2)), 4)
    expected = [[0, 0.3], [0, 0], [0, 1], [0, 0], [0, 1]]
    assert np.array_equal(orbit.points, np.asarray(expected, dtype=float))
    assert orbit.symbols.tolist() == [1, 2, 1, 2]


def test_run_orbit_zero_steps():
    orbit = run_orbit(square_system(), [0.5, 0.5], Cyclic((1, 2, 3, 4)), 0)
    assert orbit.points.shape == (1, 2) and orbit.n_steps == 0


def test_run_orbit_intersecting_lines_contracts():
    # maps: f1 projects onto y=0, f2 onto y=x; brute-force oracle runs the
    # closed-form projection formulas directly
    sys2 = IFSystem((line([0, 1], 0), line([1, -1], 0)), 2)

    def oracle(x0, n):
        p = np.asarray(x0, dtype=float)
        for k in range(n):
            if k % 2 == 0:
                p = np.array([p[0], 0.0])
            else:
                m = 0.5 * (p[0] + p[1])
                p = np.array([m, m])
        return p

    expected = oracle([0, 2], 20)
    orbit = run_orbit(sys2, [0, 2], Cyclic((1, 2)), 20)
    assert np.linalg.norm(expected) <= 1e-6
    assert np.linalg.norm(orbit.points[-1] - expected) <= 1e-12
    assert np.linalg.norm(orbit.points[-1]) <= 1e-6


def test_run_orbit_driver_exhaustion():
    with pytest.raises(DriverExhaustedError):
        run_orbit(parallel_lines_system(), [0, 0.3], Custom((1, 2)), 5)


def test_orbit_recomputation_is_bit_identical():
    sys4 = square_system()
    a = run_orbit(sys4, [0.37, 0.91], DisjunctiveEnumeration(4), 500)
    b = run_orbit(sys4, [0.37, 0.91], DisjunctiveEnumeration(4), 500)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.symbols, b.symbols)


def test_orbits_with_shared_driver_stay_nonexpansive():
    rng = np.random.default_rng(12)
    sys3 = triangle_system()
    syms = rng.integers(1, 4, size=300).tolist()
    a = run_orbit(sys3, rng.standard_normal(2) * 3, syms, 300)
    b = run_orbit(sys3, rng.standard_normal(2) * 3, syms, 300)
    gaps = np.linalg.norm(a.points - b.points, axis=1)
    assert np.all(np.diff(gaps) <= 1e-10)


def test_numpy_array_drivers_replay_orbits():
    sys3 = triangle_system()
    orbit = run_orbit(sys3, [0.2, 0.6], IidRandom.uniform(4, 3), 300)
    replay = run_orbit(sys3, [0.2, 0.6], orbit.symbols, 300)
    assert np.array_equal(replay.points, orbit.points)
    assert np.array_equal(replay.symbols, orbit.symbols)
    prefix = run_orbit(sys3, [0.2, 0.6], np.array([1, 2, 1, 2]), 2)
    assert np.array_equal(prefix.points, run_orbit(sys3, [0.2, 0.6], [1, 2], 2).points)
    with pytest.raises(DriverExhaustedError):
        run_orbit(sys3, [0.2, 0.6], np.array([1, 2, 1, 2]), 5)


def _mover():
    # A rotation about (1, 1, 1) followed by a shift: nonexpansive, and it
    # carries points back out of every body below.
    axis = np.ones(3) / np.sqrt(3.0)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    rotation = np.eye(3) + np.sin(1.0) * k + (1.0 - np.cos(1.0)) * (k @ k)
    return AffineMap(rotation, [0.9, -0.4, 0.2])


GENERATORS = {
    "hyperplane": lambda: HyperplaneProjection(Hyperplane([1.0, 2.0, -1.0], 0.5)),
    "subspace": lambda: SubspaceProjection(
        AffineSubspace.spanned_by([0.1, 0.2, 0.3], [[1.0, 0.0, 1.0]])),
    "empty-basis subspace": lambda: SubspaceProjection(
        AffineSubspace.single_point([0.1, -0.2, 0.3])),
    "halfspace": lambda: ConvexProjection(Halfspace([1.0, -1.0, 0.5], 0.2)),
    "ball": lambda: ConvexProjection(Ball([0.1, 0.0, 0.0], 0.8)),
    "box": lambda: ConvexProjection(Box([-0.5, -0.5, -0.5], [0.4, 0.6, 0.5])),
    "affine": lambda: AffineMap(0.5 * np.eye(3) + 0.3 * np.outer(HIDDEN, HIDDEN),
                                [0.2, 0.1, -0.3]),
}


@pytest.mark.parametrize("kind", list(GENERATORS))
def test_orbit_steps_equal_repeated_apply(kind):
    system = IFSystem((GENERATORS[kind](), _mover()), 3)
    for x0 in ([0.05, 0.05, 0.05], [3.0, -2.0, 4.0]):
        orbit = run_orbit(system, x0, IidRandom.uniform(9, 2), 200)
        x = np.asarray(x0, dtype=float)
        for k, s in enumerate(orbit.symbols):
            x = apply_map(system, int(s), x)
            assert np.array_equal(orbit.points[k + 1], x)


def test_hutchinson_singleton():
    sys2 = parallel_lines_system()
    out = hutchinson(sys2, PointCloud.of([3.0, 0.4]))
    assert sorted(out.points.tolist()) == [[3.0, 0.0], [3.0, 1.0]]


def test_hutchinson_square_corners_invariant():
    corners = PointCloud.of([0, 0], [1, 0], [0, 1], [1, 1])
    out = hutchinson(square_system(), corners)
    assert out.size == 4
    assert sorted(out.points.tolist()) == sorted(corners.points.tolist())


def test_hutchinson_fixed_point():
    sys2 = IFSystem((line([0, 1], 0), line([1, 0], 0)), 2)
    out = hutchinson(sys2, PointCloud.of([0.0, 0.0]))
    assert out.points.tolist() == [[0.0, 0.0]]


def test_hutchinson_rejects_empty():
    with pytest.raises(Exception):
        hutchinson(parallel_lines_system(), np.empty((0, 2)))


def test_hutchinson_is_monotone():
    rng = np.random.default_rng(5)
    sys3 = triangle_system()
    big = rng.standard_normal((12, 2))
    small = big[:5]
    phi_small = hutchinson(sys3, small)
    phi_big = hutchinson(sys3, big)
    for p in phi_small.points:
        assert np.min(np.linalg.norm(phi_big.points - p, axis=1)) <= 1e-12


def test_composition_exact_two_lines_angle():
    # lines through the origin at angle theta compose to |cos theta|; oracle:
    # sampled two-point Lipschitz quotients never exceed it and approach it
    rng = np.random.default_rng(17)
    for theta in (np.pi / 4, np.pi / 3, 1.1):
        sys2 = IFSystem((line([0, 1], 0), line([np.sin(theta), -np.cos(theta)], 0)), 2)
        got = composition_lipschitz_exact(sys2, (1, 2))
        assert got == pytest.approx(abs(np.cos(theta)), abs=1e-9)
        quotients = []
        for _ in range(200):
            p, q = rng.standard_normal(2) * 5, rng.standard_normal(2) * 5
            fp = apply_map(sys2, 2, apply_map(sys2, 1, p))
            fq = apply_map(sys2, 2, apply_map(sys2, 1, q))
            gap = np.linalg.norm(p - q)
            if gap > 1e-9:
                quotients.append(np.linalg.norm(fp - fq) / gap)
        assert max(quotients) <= got + 1e-9
        assert max(quotients) >= got - 1e-3


def test_composition_exact_single_projector_is_one():
    assert composition_lipschitz_exact(parallel_lines_system(), (1,)) == pytest.approx(1.0, abs=1e-12)


def test_composition_exact_orthogonal_square_word():
    assert composition_lipschitz_exact(square_system(), (1, 3)) == pytest.approx(0.0, abs=1e-12)


def test_composition_exact_unavailable_for_convex_bodies():
    sys_mixed = IFSystem((line([0, 1], 0), ConvexProjection(Ball([0, 0], 1.0))), 2)
    assert composition_lipschitz_exact(sys_mixed, (1, 2)) is None
    assert composition_lipschitz_exact(sys_mixed, (1,)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("wrap, wrong", [
    (HyperplaneProjection, lambda: Halfspace([1, 0], 0)),
    (HyperplaneProjection, lambda: AffineSubspace.single_point([0, 0])),
    (SubspaceProjection, lambda: Hyperplane([1, 0], 0)),
    (SubspaceProjection, lambda: Ball([0, 0], 1.0)),
    (ConvexProjection, lambda: Hyperplane([1, 0], 0)),
    (ConvexProjection, lambda: AffineSubspace.single_point([0, 0])),
], ids=["hyperplane-of-halfspace", "hyperplane-of-subspace", "subspace-of-hyperplane",
        "subspace-of-ball", "convex-of-hyperplane", "convex-of-subspace"])
def test_projection_names_reject_the_wrong_set(wrap, wrong):
    with pytest.raises(GeometryValidationError):
        wrap(wrong())


def test_the_sets_are_the_generators():
    plane, body = Hyperplane([1, 0], 0), Halfspace([1, 0], 0)
    assert HyperplaneProjection(plane) is plane and ConvexProjection(body) is body
    # a halfspace's projection has no global linear part, however it is named
    assert composition_lipschitz_exact(IFSystem((body,), 2), [1]) is None
    assert composition_lipschitz_exact(IFSystem((plane,), 2), [1]) == 1.0
    assert np.array_equal(plane.linear_part(), [[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(GeometryValidationError, match="not a generator: PointCloud"):
        IFSystem((PointCloud.of([0.0, 0.0]),), 2)


def test_composition_exact_validates_word():
    with pytest.raises(ValueError):
        composition_lipschitz_exact(square_system(), ())
    with pytest.raises(SymbolRangeError):
        composition_lipschitz_exact(square_system(), (1, 9))


def test_tree_estimate_parallel_lines_collapses():
    # full tree of the parallel-lines system from any x0 is {x0, (x,0), (x,1)};
    # enumerate it to depth 5 and confirm
    sys2 = parallel_lines_system()
    x0 = np.array([0.7, 0.3])
    tree = {tuple(x0)}
    frontier = [x0]
    for _ in range(5):
        nxt = []
        for p in frontier:
            for s in (1, 2):
                q = apply_map(sys2, s, p)
                if tuple(q) not in tree:
                    tree.add(tuple(q))
                    nxt.append(q)
        frontier = nxt
    assert len(tree) == 3

    try:
        value = composition_lipschitz_on_tree(sys2, (2, 1), x0, depth=5,
                                              samples=40, seed=1)
    except DegenerateTreeError:
        value = None
    if value is not None:
        assert value <= 1.0 + 1e-12


def test_tree_estimate_affine_contraction():
    half = IFSystem((AffineMap(0.5 * np.eye(2), [0, 0]),), 2)
    value = composition_lipschitz_on_tree(half, (1,), [3.0, -1.0], depth=4,
                                          samples=30, seed=2)
    assert value == pytest.approx(0.5, abs=1e-9)


def test_tree_estimate_triangle_word_contracts():
    sys3 = triangle_system()
    exact = composition_lipschitz_exact(sys3, (1, 2, 3))
    # product of the three projector linear parts has norm 1/2
    assert exact == pytest.approx(0.5, abs=1e-12)
    value = composition_lipschitz_on_tree(sys3, (1, 2, 3), [0.2, 0.6], depth=6,
                                          samples=60, seed=3)
    assert value < 1.0
    assert value <= exact + 1e-6


def test_tree_estimate_degenerate_tree():
    everything_to_point = IFSystem(
        (SubspaceProjection(AffineSubspace.single_point([1.0, 2.0])),), 2)
    with pytest.raises(DegenerateTreeError):
        composition_lipschitz_on_tree(everything_to_point, (1,), [1.0, 2.0],
                                      depth=3, samples=10, seed=4)


def test_tree_estimate_never_exceeds_exact():
    rng = np.random.default_rng(6)
    for trial in range(20):
        normals = rng.standard_normal((2, 2))
        offsets = rng.standard_normal(2)
        sys2 = IFSystem((line(normals[0], offsets[0]), line(normals[1], offsets[1])), 2)
        exact = composition_lipschitz_exact(sys2, (1, 2))
        try:
            estimate = composition_lipschitz_on_tree(sys2, (1, 2), rng.standard_normal(2),
                                                     depth=5, samples=50, seed=trial)
        except DegenerateTreeError:
            continue
        assert estimate <= exact + 1e-6


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        m = rng.standard_normal((d, d))
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-9)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_affine_map_rejects_expansive_matrix():
    with pytest.raises(GeometryValidationError):
        AffineMap(1.1 * np.eye(2), [0, 0])
    # within tolerance: accepted
    AffineMap((1.0 + 5e-10) * np.eye(2), [0, 0])


def test_affine_map_rejects_norm_power_iteration_misses():
    m = 0.5 * np.eye(3) + 0.7 * np.outer(HIDDEN, HIDDEN)
    assert spectral_norm(m) == pytest.approx(1.2, abs=1e-12)
    with pytest.raises(GeometryValidationError):
        AffineMap(m, [0, 0, 0])


def test_composition_exact_sees_hidden_direction():
    m = 0.5 * np.eye(3) + 0.5 * np.outer(HIDDEN, HIDDEN)
    system = IFSystem((AffineMap(m, [0, 0, 0]),), 3)
    assert composition_lipschitz_exact(system, (1,)) == pytest.approx(1.0, abs=1e-12)


def test_ifsystem_validates_maps():
    with pytest.raises(GeometryValidationError):
        IFSystem((), 2)
    with pytest.raises(Exception):
        IFSystem((line([1, 0, 0], 0),), 2)


# --- the orbit's grouping of its rows --------------------------------------------

def test_orbit_points_are_read_only_and_not_the_callers():
    given_points = np.array([[0.0, 1.0], [2.0, 3.0]])
    orbit = Orbit(given_points, [1])
    given_points[0, 0] = 9.0
    assert orbit.points.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    with pytest.raises(ValueError):
        orbit.points[0, 0] = 9.0
    run = run_orbit(parallel_lines_system(), [0.0, 0.3], Cyclic((1, 2)), 10)
    assert not run.points.flags.writeable
    assert Orbit(run.points, run.symbols).points is run.points  # read-only: no copy
    # a read-only view of a writable array is copied: its base can still change
    base = np.array([[0.0, 1.0], [2.0, 3.0]])
    view = base[:]
    view.flags.writeable = False
    orbit = Orbit(view, [1])
    base[0, 0] = 9.0
    assert orbit.points is not view and orbit.points.tolist() == [[0.0, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize("burn_in", [-1, 3, 2.5, True, "1", None])
def test_orbit_distinct_rows_checks_the_burn_in_before_keeping_it(burn_in):
    orbit = Orbit([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]], [1, 1])
    with pytest.raises(ValueError, match="burn-in"):
        orbit.distinct_rows(burn_in)
    first, inverse = orbit.distinct_rows(1)
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1]
    assert orbit.distinct_rows(2.0)[0].tolist() == [0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
       burn_ins=st.lists(st.integers(0, 199), min_size=1, max_size=5))
def test_orbit_distinct_rows_of_any_tail_in_any_order(seed, n, burn_ins):
    """Whatever tails are asked for, in whatever order, each is
    clouds.distinct_rows of that tail. The first groups its rows; a shorter
    one groups none; a longer one groups the rows before the kept tail and
    one row per distinct point of it."""
    rng = np.random.default_rng(seed)
    points = rng.choice(np.array([0.0, -0.0, 1.0, 0.5]), size=(n, 2))
    orbit = Orbit(points, np.ones(n - 1, dtype=np.int64))
    grouped, real = [], clouds.distinct_rows

    def counting(rows):
        grouped.append(len(rows))
        return real(rows)

    kept = None
    for burn_in in [b % n for b in burn_ins]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(clouds, "distinct_rows", counting)
            first, inverse = orbit.distinct_rows(burn_in)
        expected = real(points[burn_in:])
        assert np.array_equal(first, expected[0]) and np.array_equal(inverse, expected[1])
        if kept is None or burn_in < kept:
            rows = n - burn_in if kept is None else kept - burn_in + len(real(points[kept:])[0])
            assert grouped == [rows]
            kept = burn_in
        else:
            assert grouped == []
        grouped.clear()
