"""Geometry primitives: projection examples, construction guards, and the
idempotence / nonexpansiveness / nearest-point properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import (
    AffineSubspace,
    Ball,
    Box,
    DimensionMismatchError,
    GeometryValidationError,
    Halfspace,
    Hyperplane,
    distance,
    orthonormalize,
    project_affine_subspace,
    project_convex,
    project_hyperplane,
)


def test_project_hyperplane_drops_coordinate():
    h = Hyperplane([0, 1], 0.0)
    assert np.allclose(project_hyperplane([1, 1], h), [1, 0])


def test_project_hyperplane_fixes_points_on_plane():
    h = Hyperplane([2, 1], 3.0)
    x = np.array([1.0, 1.0])  # 2*1 + 1 = 3
    assert np.allclose(project_hyperplane(x, h), x, atol=1e-12)


def _grid_refine_nearest_on_line(x, h, lo=-10.0, hi=10.0, rounds=30):
    # independent oracle: parametrize {a.p = b} in R^2 as p(t), refine the grid
    a, b = h.normal, h.offset
    tangent = np.array([-a[1], a[0]]) / np.linalg.norm(a)
    p0 = project_hyperplane(np.zeros(2), h)

    def point(t):
        return p0 + t * tangent

    for _ in range(rounds):
        ts = np.linspace(lo, hi, 41)
        errs = [np.linalg.norm(point(t) - x) for t in ts]
        k = int(np.argmin(errs))
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, 40)]
    return point(0.5 * (lo + hi))


def test_project_hyperplane_derived_example():
    # x = (3, 4) onto {x + y = 1}: grid-refinement oracle confirms (0, 1)
    h = Hyperplane([1, 1], 1.0)
    x = np.array([3.0, 4.0])
    oracle = _grid_refine_nearest_on_line(x, h)
    assert np.allclose(oracle, [0, 1], atol=1e-6)
    assert np.allclose(project_hyperplane(x, h), [0, 1], atol=1e-9)


def test_project_hyperplane_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        project_hyperplane([1, 2, 3], Hyperplane([0, 1], 0.0))


def test_degenerate_normal_rejected_at_construction():
    with pytest.raises(GeometryValidationError):
        Hyperplane([0.0, 1e-13], 0.0)
    with pytest.raises(GeometryValidationError):
        Halfspace([0.0, 0.0], 1.0)


def test_hyperplane_and_halfspace_share_normal_validation():
    for cls, word in ((Hyperplane, "hyperplane"), (Halfspace, "halfspace")):
        with pytest.raises(GeometryValidationError, match=f"^{word} normal is numerically zero$"):
            cls([0.0, 0.0], 1.0)
        # 1e200 is finite, and its square is not: the projection would take no step
        with pytest.raises(GeometryValidationError,
                           match=f"^{word} normal is too long: its squared norm overflows$"):
            cls([1e200, 1e200], 0.0)
        with pytest.raises(GeometryValidationError, match=f"^{word} normal: "):
            cls([0.0, np.nan], 1.0)
        for offset in (np.nan, np.inf, -np.inf):
            with pytest.raises(GeometryValidationError, match=f"^{word} offset must be finite"):
                cls([1.0, 0.0], offset)
        body = cls([3, 4], 2)
        assert body._aa == 25.0 and body.offset == 2.0 and body.normal.dtype == np.float64


def test_project_subspace_single_point():
    s = AffineSubspace.single_point([2.0, -1.0])
    assert np.allclose(project_affine_subspace([8.0, 8.0], s), [2, -1])


def test_project_subspace_line_and_plane():
    line = AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
    assert np.allclose(project_affine_subspace([2, 5], line), [2, 0])
    plane = AffineSubspace([0.0, 0.0, 1.0], [[1, 0, 0], [0, 1, 0]])
    assert np.allclose(project_affine_subspace([4, -2, 7], plane), [4, -2, 1])


def test_subspace_requires_orthonormal_basis():
    with pytest.raises(GeometryValidationError):
        AffineSubspace([0.0, 0.0], [[1.0, 1.0]])


def test_project_convex_examples():
    assert np.allclose(project_convex([3, 0], Ball([0, 0], 1.0)), [1, 0])
    inside = np.array([-1.0, 5.0])
    assert np.allclose(project_convex(inside, Halfspace([1, 0], 0.0)), inside)
    assert np.allclose(project_convex([2, -1], Box([0, 0], [1, 1])), [1, 0])


@pytest.mark.parametrize("project, wrong, what", [
    (project_hyperplane, Ball([0, 0], 1.0), "a hyperplane"),
    (project_hyperplane, Halfspace([1, 0], 0.0), "a hyperplane"),
    (project_affine_subspace, Box([0, 0], [1, 1]), "an affine subspace"),
    (project_affine_subspace, Hyperplane([1, 0], 0.0), "an affine subspace"),
    (project_convex, Hyperplane([1, 0], 0.0), "a convex body"),
    (project_convex, AffineSubspace.single_point([0, 0]), "a convex body"),
], ids=["hyperplane-of-ball", "hyperplane-of-halfspace", "subspace-of-box",
        "subspace-of-hyperplane", "convex-of-hyperplane", "convex-of-subspace"])
def test_projections_reject_a_set_of_the_wrong_type(project, wrong, what):
    with pytest.raises(GeometryValidationError, match=f"^not {what}: {type(wrong).__name__}$"):
        project([2.0, 5.0], wrong)


def test_project_convex_validates_bodies():
    with pytest.raises(GeometryValidationError):
        Ball([0, 0], 0.0)
    with pytest.raises(GeometryValidationError):
        Box([1, 0], [0, 1])


def test_orthonormalize_examples():
    (q,) = orthonormalize([np.array([2.0, 0.0])])
    assert np.allclose(q, [1, 0])
    q1, q2 = orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
    assert np.allclose(q1, [1, 0]) and np.allclose(q2, [0, 1])
    out = orthonormalize([np.array([1.0, 1.0]), np.array([2.0, 2.0])])
    assert len(out) == 1
    assert np.allclose(out[0], np.array([1.0, 1.0]) / np.sqrt(2))


def test_distance_examples():
    assert distance([0, 0], [3, 4]) == 5.0
    assert distance([1.5, -2.0], [1.5, -2.0]) == 0.0
    assert distance([1, 2, 3], [1, 2, 3.5]) == 0.5


def _random_projection(rng, dim, kind=None):
    """A projection of one of five kinds (hyperplane, affine subspace, ball,
    box, halfspace), random unless ``kind`` is given, and its target."""
    kind = rng.integers(0, 5) if kind is None else kind
    if kind == 0:
        h = Hyperplane(rng.standard_normal(dim), rng.standard_normal())
        return lambda x: project_hyperplane(x, h), h
    if kind == 1:
        k = int(rng.integers(0, dim))
        sub = AffineSubspace.spanned_by(rng.standard_normal(dim),
                                        rng.standard_normal((k, dim)) if k else [])
        return lambda x: project_affine_subspace(x, sub), sub
    if kind == 2:
        body = Ball(rng.standard_normal(dim), float(rng.uniform(0.2, 3.0)))
    elif kind == 3:
        lo = rng.standard_normal(dim)
        body = Box(lo, lo + rng.uniform(0.1, 2.0, dim))
    else:
        body = Halfspace(rng.standard_normal(dim) + 0.1, rng.standard_normal())
    return lambda x: project_convex(x, body), body


def test_idempotence_and_nonexpansiveness_battery():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        dim = int(rng.integers(2, 6))
        proj, _ = _random_projection(rng, dim)
        x = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
        y = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
        px, py = proj(x), proj(y)
        assert np.linalg.norm(proj(px) - px) <= 1e-10 * (1.0 + np.linalg.norm(x))
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-10


def _points(dim):
    return st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim).map(np.array)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 2**32 - 1), st.data())
def test_idempotence_and_nonexpansiveness_property(dim, kind, seed, data):
    proj, _ = _random_projection(np.random.default_rng(seed), dim, kind)
    x, y = data.draw(_points(dim)), data.draw(_points(dim))
    px, py = proj(x), proj(y)
    assert np.linalg.norm(proj(px) - px) <= 1e-10 * (1.0 + np.linalg.norm(x))
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-10


def _sample_from_target(rng, target, n):
    dim = target.dim
    if isinstance(target, Hyperplane):
        base = project_hyperplane(np.zeros(dim), target)
        _, _, vt = np.linalg.svd(target.normal.reshape(1, -1))
        tangent = vt[1:]
        return base + rng.standard_normal((n, dim - 1)) @ tangent * 3.0
    if isinstance(target, AffineSubspace):
        coef = rng.standard_normal((n, target.basis.shape[0])) * 3.0
        return target.anchor + coef @ target.basis
    if isinstance(target, Ball):
        raw = rng.standard_normal((n, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = target.radius * rng.uniform(0, 1, n) ** (1.0 / dim)
        return target.center + raw * radii[:, None]
    if isinstance(target, Box):
        return rng.uniform(target.lower, target.upper, (n, dim))
    # halfspace: project arbitrary points, images lie in the set
    return project_convex(rng.standard_normal((n, dim)) * 3.0, target)


def test_nearest_point_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        proj, target = _random_projection(rng, dim)
        x = rng.standard_normal(dim) * 4.0
        px = proj(x)
        samples = _sample_from_target(rng, target, 1000)
        d_proj = np.linalg.norm(x - px)
        d_samples = np.linalg.norm(samples - x, axis=1)
        assert np.all(d_proj <= d_samples + 1e-9)


def test_subspace_projection_agrees_with_hyperplane():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        normal = rng.standard_normal(dim)
        normal /= np.linalg.norm(normal)
        offset = float(rng.standard_normal())
        h = Hyperplane(normal, offset)
        sub = AffineSubspace.from_constraints([normal], [offset])
        x = rng.standard_normal(dim) * 5.0
        assert np.linalg.norm(project_hyperplane(x, h)
                              - project_affine_subspace(x, sub)) <= 1e-9


def test_from_constraints_rejects_inconsistent_stack():
    with pytest.raises(GeometryValidationError):
        AffineSubspace.from_constraints([[0, 1], [0, 1]], [0.0, 1.0])
