"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them live)."""

import time

import numpy as np

from ifslab import (
    AffineSubspace,
    Ball,
    Box,
    Cyclic,
    DegenerateTreeError,
    DisjunctiveEnumeration,
    Halfspace,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    IidRandom,
    LinearSystem,
    PointCloud,
    SegmentSet,
    check_disjunctive,
    check_invariance,
    check_monotone_distance,
    compare_omegas,
    composition_lipschitz_exact,
    composition_lipschitz_on_tree,
    enumeration_prefix_length,
    estimate_omega,
    gap_between,
    generate,
    hausdorff,
    project_affine_subspace,
    project_convex,
    project_hyperplane,
    run_orbit,
    solve,
)

TRIANGLE_SEEDS = (101, 202, 303)
KACZMARZ_SEED = 2024


def _verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def line(normal, offset):
    return HyperplaneProjection(Hyperplane(normal, offset))


def example1_system():
    # two lines meeting at the origin at 45 degrees: y=x and y=0
    return IFSystem((line([1, -1], 0), line([0, 1], 0)), 2)


def example2_system():
    return IFSystem((line([0, 1], 0), line([0, 1], 1)), 2)


def example3_system():
    # H1: x=1, H2: x=0, H3: y=1, H4: y=0
    return IFSystem((line([1, 0], 1), line([1, 0], 0),
                     line([0, 1], 1), line([0, 1], 0)), 2)


def example4_system():
    # pairwise intersections at (0,0), (1,0), (0,1)
    return IFSystem((line([0, 1], 0), line([1, 1], 1), line([1, 0], 0)), 2)


SQUARE_CORNERS = PointCloud.of([0, 0], [1, 0], [0, 1], [1, 1])


def triangle_boundary():
    v = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    return SegmentSet(v, np.roll(v, -1, axis=0))


def run_triangle(driver):
    orbit = run_orbit(example4_system(), [0.2, 0.6], driver, 100_000)
    return estimate_omega(orbit, burn_in=10_000, cluster_eps=1e-2, driver=driver)


def test_criterion_01_intersecting_lines():
    sys1 = example1_system()
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        orbit = run_orbit(sys1, [0, 2], Cyclic((2, 1)), 200)
        best = min(best, time.perf_counter() - t0)
    final_err = float(np.linalg.norm(orbit.points[-1]))
    dists = np.linalg.norm(orbit.points, axis=1)
    monotone = bool(np.all(np.diff(dists) <= 1e-12))
    ok = final_err <= 1e-8 and monotone and best < 1e-3
    _verdict(1, ok, f"|x_200 - x*|={final_err:.3e} monotone={monotone} "
                    f"time={best * 1e3:.3f}ms")


def test_criterion_02_parallel_lines_gap_pair():
    orbit = run_orbit(example2_system(), [0, 0.3], Cyclic((1, 2)), 100)
    est = estimate_omega(orbit, burn_in=10, cluster_eps=1e-6)
    dist_ref = hausdorff(est.representatives, PointCloud.of([0, 0], [0, 1]))

    pair = LinearSystem([[0, 1], [0, 1]], [0, 1])
    gap = gap_between(pair, 1, 2)

    reps = est.representatives.points
    p = reps[np.argmin(np.abs(reps[:, 1]))]
    q = reps[np.argmax(np.abs(reps[:, 1]))]
    h1, h2 = pair.row_hyperplane(1), pair.row_hyperplane(2)
    mutual = max(float(np.linalg.norm(project_hyperplane(p, h2) - q)),
                 float(np.linalg.norm(project_hyperplane(q, h1) - p)))

    ok = (est.representatives.size == 2 and dist_ref <= 1e-12
          and abs(gap - 1.0) <= 1e-12 and mutual <= 1e-9)
    _verdict(2, ok, f"reps={est.representatives.size} hausdorff={dist_ref:.3e} "
                    f"gap={gap!r} mutual_projection={mutual:.3e}")


def test_criterion_03_square_corners():
    sys3 = example3_system()
    t0 = time.perf_counter()
    orbit = run_orbit(sys3, [0.3, 0.7], DisjunctiveEnumeration(4), 10_000)
    est = estimate_omega(orbit, burn_in=1_000, cluster_eps=1e-6)
    elapsed = time.perf_counter() - t0
    dist = hausdorff(est.representatives, SQUARE_CORNERS)
    inv = check_invariance(sys3, est.representatives, 1e-9)
    ok = (est.representatives.size == 4 and dist <= 1e-9
          and inv.symmetric_excess <= 1e-9 and elapsed < 0.1)
    _verdict(3, ok, f"reps={est.representatives.size} hausdorff={dist:.3e} "
                    f"invariance={inv.symmetric_excess:.3e} time={elapsed * 1e3:.1f}ms")


def test_criterion_04_triangle_boundary():
    sys4 = example4_system()
    boundary = triangle_boundary()
    reference = PointCloud(boundary.sample_points(5e-3))

    t0 = time.perf_counter()
    est = run_triangle(DisjunctiveEnumeration(3))
    elapsed = time.perf_counter() - t0

    dist_boundary = hausdorff(est.representatives, reference)
    inv = check_invariance(sys4, est.representatives, 0.05)

    # the filled triangle is the other candidate reading; recorded, not asserted
    g = np.arange(0.0, 1.0 + 5e-3, 5e-3)
    gx, gy = np.meshgrid(g, g)
    filled = PointCloud(np.column_stack([gx.ravel(), gy.ravel()])[
        gx.ravel() + gy.ravel() <= 1.0 + 1e-12])
    dist_filled = hausdorff(est.representatives, filled)

    ok = dist_boundary <= 0.05 and inv.symmetric_excess <= 0.05 and elapsed < 5.0
    _verdict(4, ok, f"hausdorff(boundary)={dist_boundary:.4f} "
                    f"hausdorff(filled, recorded only)={dist_filled:.4f} "
                    f"invariance={inv.symmetric_excess:.4f} time={elapsed:.2f}s")


def test_criterion_05_driver_robustness():
    estimates = [run_triangle(IidRandom.uniform(seed, 3)) for seed in TRIANGLE_SEEDS]
    worst = 0.0
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            worst = max(worst, compare_omegas(estimates[i], estimates[j], 0.05).distance)
    ok = worst <= 0.05
    _verdict(5, ok, f"worst pairwise hausdorff over seeds {TRIANGLE_SEEDS}: {worst:.4f}")


def test_criterion_06_start_dependence_negative_control():
    sys2 = example2_system()
    est_a = estimate_omega(run_orbit(sys2, [0, 0.3], Cyclic((1, 2)), 100), 10, 1e-6)
    est_b = estimate_omega(run_orbit(sys2, [5, 0.3], Cyclic((1, 2)), 100), 10, 1e-6)
    dist = compare_omegas(est_a, est_b, 0.0).distance
    ok = abs(dist - 5.0) <= 1e-9
    _verdict(6, ok, f"omega distance between starts: {dist!r} (expected 5)")


def test_criterion_07_monotone_distance_suite():
    sys3 = example3_system()
    orbit3 = run_orbit(sys3, [0.3, 0.7], DisjunctiveEnumeration(4), 1000)
    rep3 = check_monotone_distance(orbit3, SQUARE_CORNERS, system=sys3)

    sys4 = example4_system()
    orbit4 = run_orbit(sys4, [0.2, 0.6], DisjunctiveEnumeration(3), 1000)
    rep4 = check_monotone_distance(orbit4, triangle_boundary(), system=sys4)

    ok = (rep3.passed and rep3.hypothesis_met
          and bool(np.all(rep3.distances <= rep3.distances[0] + 1e-9))
          and rep4.passed and rep4.hypothesis_met
          and bool(np.all(rep4.distances <= rep4.distances[0] + 1e-9)))
    _verdict(7, ok, f"square max_step_increase={rep3.max_step_increase:.2e} "
                    f"triangle max_step_increase={rep4.max_step_increase:.2e}")


def test_criterion_08_contractivity_diagnostics():
    zero_word = composition_lipschitz_exact(example3_system(), (1, 3))
    ok_zero = abs(zero_word) <= 1e-12

    angle_word = composition_lipschitz_exact(example1_system(), (1, 2))
    ok_angle = abs(angle_word - np.cos(np.pi / 4)) <= 1e-9

    rng = np.random.default_rng(88)
    ok_pairs = True
    worst_gap = -np.inf
    for trial in range(20):
        sys2 = IFSystem((line(rng.standard_normal(2), rng.standard_normal()),
                         line(rng.standard_normal(2), rng.standard_normal())), 2)
        exact = composition_lipschitz_exact(sys2, (1, 2))
        try:
            tree = composition_lipschitz_on_tree(sys2, (1, 2), rng.standard_normal(2),
                                                 depth=5, samples=50, seed=trial)
        except DegenerateTreeError:
            continue
        worst_gap = max(worst_gap, tree - exact)
        ok_pairs = ok_pairs and exact >= tree - 1e-6

    ok = ok_zero and ok_angle and ok_pairs
    _verdict(8, ok, f"orthogonal word norm={zero_word:.2e} "
                    f"45deg word={angle_word:.12f} worst tree-exact gap={worst_gap:.2e}")


def test_criterion_09_kaczmarz_consistent():
    n = 20
    rng = np.random.Generator(np.random.Philox(KACZMARZ_SEED))
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q1 @ np.diag(np.linspace(1.0, 5.0, n)) @ q2.T
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    x_true = rng.standard_normal(n)
    system = LinearSystem(a, a @ x_true)
    cond = float(np.linalg.cond(a))

    oracle = np.linalg.solve(a, system.rhs)
    t0 = time.perf_counter()
    report = solve(system, IidRandom.uniform(7, n), tol=1e-6, max_iter=100_000)
    elapsed = time.perf_counter() - t0
    err = float(np.linalg.norm(report.final_point - oracle))

    ok = (cond <= 100 and report.converged and report.residual <= 1e-6
          and err <= 1e-4 and elapsed < 1.0)
    _verdict(9, ok, f"cond={cond:.1f} iters={report.iterations} "
                    f"residual={report.residual:.2e} |x-x*|={err:.2e} "
                    f"time={elapsed * 1e3:.0f}ms")


def _random_projection(rng, dim):
    kind = rng.integers(0, 5)
    if kind == 0:
        h = Hyperplane(rng.standard_normal(dim), rng.standard_normal())
        return lambda x: project_hyperplane(x, h)
    if kind == 1:
        k = int(rng.integers(0, dim))
        sub = AffineSubspace.spanned_by(rng.standard_normal(dim),
                                        rng.standard_normal((k, dim)) if k else [])
        return lambda x: project_affine_subspace(x, sub)
    if kind == 2:
        body = Ball(rng.standard_normal(dim), float(rng.uniform(0.2, 3.0)))
    elif kind == 3:
        lo = rng.standard_normal(dim)
        body = Box(lo, lo + rng.uniform(0.1, 2.0, dim))
    else:
        body = Halfspace(rng.standard_normal(dim) + 0.1, rng.standard_normal())
    return lambda x: project_convex(x, body)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(777)
    worst_idem = worst_nonexp = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(2, 6))
        proj = _random_projection(rng, dim)
        x = rng.standard_normal(dim) * rng.uniform(0.1, 8.0)
        y = rng.standard_normal(dim) * rng.uniform(0.1, 8.0)
        px, py = proj(x), proj(y)
        worst_idem = max(worst_idem,
                         float(np.linalg.norm(proj(px) - px))
                         / (1.0 + float(np.linalg.norm(x))))
        worst_nonexp = max(worst_nonexp,
                           float(np.linalg.norm(px - py) - np.linalg.norm(x - y)))
    ok_proj = worst_idem <= 1e-10 and worst_nonexp <= 1e-10

    ok_metric = True
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        a = PointCloud(rng.standard_normal((int(rng.integers(1, 7)), dim)))
        b = PointCloud(rng.standard_normal((int(rng.integers(1, 7)), dim)))
        c = PointCloud(rng.standard_normal((int(rng.integers(1, 7)), dim)))
        ok_metric = ok_metric and hausdorff(a, b) == hausdorff(b, a) \
            and hausdorff(a, a) == 0.0 \
            and hausdorff(a, b) <= hausdorff(a, c) + hausdorff(c, b) + 1e-9

    cyclic_audit = check_disjunctive(generate(Cyclic((1, 2)), 100).tolist(), 2)
    ok_cyclic = cyclic_audit.missing == ((1, 1), (2, 2)) \
        and cyclic_audit.missing_count == 2

    ok_enum = True
    for n in (2, 3):
        prefix = generate(DisjunctiveEnumeration(n),
                          enumeration_prefix_length(3, n)).tolist()
        for m in (1, 2, 3):
            ok_enum = ok_enum and check_disjunctive(prefix, m, alphabet_size=n).complete

    ok = ok_proj and ok_metric and ok_cyclic and ok_enum
    _verdict(10, ok, f"idempotence worst={worst_idem:.2e} "
                     f"nonexpansiveness worst={worst_nonexp:.2e} "
                     f"metric_axioms={ok_metric} cyclic_audit={ok_cyclic} "
                     f"enumeration_audits={ok_enum}")
