"""The generator kernels: orbit steps that write each image into the orbit
buffer, and the ball and box point paths without numpy's wrappers, give bit
for bit the orbits and images of the kernels they replaced (kept below as
oracles)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifslab import (
    AffineMap,
    Ball,
    Box,
    ConvexProjection,
    Cyclic,
    Halfspace,
    Hyperplane,
    HyperplaneProjection,
    IFSystem,
    LinearSystem,
    SubspaceProjection,
    run_orbit,
    solve,
)
from ifslab.geometry import AffineSubspace
from ifslab.ifs import spectral_norm, symbols_from
from ifslab.kaczmarz import STOP_BLOCK, system_to_ifs


# --- oracles: the kernels as they were, each returning a new array -------------

def oracle_move_along(p, normal, t):
    if p.ndim == 1:
        return p - t * normal
    return p - t[:, None] * normal


def oracle_hyperplane(self, p):
    return oracle_move_along(p, self.normal, (p.dot(self.normal) - self.offset) / self._aa)


def oracle_subspace(self, p):
    if self.basis.shape[0] == 0:
        return np.broadcast_to(self.anchor, p.shape).copy()
    return self.anchor + ((p - self.anchor) @ self.basis.T) @ self.basis


def oracle_halfspace(self, p):
    t = np.maximum((p.dot(self.normal) - self.offset) / self._aa, 0.0)
    return oracle_move_along(p, self.normal, t)


def oracle_ball(self, p):
    rel = p - self.center
    dist = np.linalg.norm(rel, axis=-1)
    scale = np.ones_like(dist)
    np.divide(self.radius, dist, out=scale, where=dist > self.radius)
    if p.ndim == 1:
        return self.center + float(scale) * rel
    return self.center + scale[:, None] * rel


def oracle_box(self, p):
    return np.clip(p, self.lower, self.upper)


def oracle_affine(self, p):
    if p.ndim == 1:
        return self.matrix @ p + self.shift
    return p @ self.matrix.T + self.shift


ORACLES = {Hyperplane: oracle_hyperplane, AffineSubspace: oracle_subspace,
           Halfspace: oracle_halfspace, Ball: oracle_ball, Box: oracle_box}

# The attribute holding the set each projection generator projects onto.
SHAPES = {HyperplaneProjection: "plane", SubspaceProjection: "subspace",
          ConvexProjection: "body"}


def oracle_kernel(generator):
    if isinstance(generator, AffineMap):
        return lambda p: oracle_affine(generator, p)
    shape = getattr(generator, SHAPES[type(generator)])
    return lambda p: ORACLES[type(shape)](shape, p)


def oracle_orbit(system, x0, symbols):
    kernels = [oracle_kernel(m) for m in system.maps]
    x = np.asarray(x0, dtype=float)
    points = [x]
    for s in symbols:
        x = kernels[s - 1](x)
        points.append(x)
    return np.array(points)


def same_bits(a, b):
    """``array_equal`` that also tells ``-0.0`` from ``0.0``."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- strategies ------------------------------------------------------------------

KINDS = ["hyperplane", "subspace", "empty-basis subspace", "halfspace", "ball", "box",
         "affine"]

COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                   st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))


def vectors(d):
    return st.lists(COORDS, min_size=d, max_size=d).map(lambda v: np.array(v, dtype=float))


@st.composite
def generators(draw, kind, d):
    """A generator of ``kind`` in R^d and points on its boundary: on the
    hyperplane or the halfspace's boundary plane, on the sphere, on box
    faces."""
    if kind in ("hyperplane", "halfspace"):
        normal = draw(vectors(d))
        assume(np.linalg.norm(normal) > 1e-3)
        on = draw(vectors(d))
        # p.dot(normal) - offset is exactly 0 at the point itself.
        shape = (Hyperplane if kind == "hyperplane" else Halfspace)(normal, float(on.dot(normal)))
        wrap = HyperplaneProjection if kind == "hyperplane" else ConvexProjection
        return wrap(shape), [on]
    if kind == "subspace":
        anchor = draw(vectors(d))
        directions = draw(st.lists(vectors(d), min_size=1, max_size=d))
        return SubspaceProjection(AffineSubspace.spanned_by(anchor, directions)), [anchor]
    if kind == "empty-basis subspace":
        anchor = draw(vectors(d))
        return SubspaceProjection(AffineSubspace.single_point(anchor)), [anchor]
    if kind == "ball":
        # Integer centers and dyadic radii put center +- radius e_j exactly
        # on the sphere.
        center = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), float)
        radius = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        j = draw(st.integers(0, d - 1))
        on = [center.copy(), center.copy()]
        on[0][j] += radius
        on[1][j] -= radius
        return ConvexProjection(Ball(center, radius)), on
    if kind == "box":
        lower = draw(vectors(d))
        upper = lower + np.abs(draw(vectors(d)))  # some widths are 0
        faces = np.where(draw(st.lists(st.booleans(), min_size=d, max_size=d)), lower, upper)
        return ConvexProjection(Box(lower, upper)), [faces]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal((d, d))
    matrix /= max(1.0, spectral_norm(matrix))
    return AffineMap(matrix, draw(vectors(d))), [draw(vectors(d))]


@st.composite
def systems(draw, kind):
    """A two-generator system, the first of ``kind``, some starts (with
    ``-0.0`` components and on the first generator's boundary) and symbols."""
    d = draw(st.integers(1, 6))
    first, on = draw(generators(kind, d))
    second, _ = draw(generators(draw(st.sampled_from(KINDS)), d))
    starts = on + [draw(vectors(d)), np.full(d, -0.0)]
    symbols = draw(st.lists(st.integers(1, 2), max_size=40))
    return IFSystem((first, second), d), starts, np.array(symbols, dtype=np.int64)


# --- orbits and images equal the oracles ------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_orbit_equals_the_oracle_orbit(kind, data):
    system, starts, symbols = data.draw(systems(kind))
    for x0 in starts:
        orbit = run_orbit(system, x0, symbols, len(symbols))
        assert same_bits(orbit.points, oracle_orbit(system, x0, symbols))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_images_equal_the_oracle_on_points_and_stacks(kind, data):
    system, starts, _ = data.draw(systems(kind))
    generator = system.maps[0]
    oracle = oracle_kernel(generator)
    stack = np.array(starts + [generator.apply(x) for x in starts])
    assert same_bits(generator.apply(stack), oracle(stack))
    out = np.empty_like(stack)
    assert generator.kernel(stack, out) is out and same_bits(out, oracle(stack))
    for x in stack:
        assert same_bits(generator.apply(x), oracle(x))
        out = np.empty_like(x)
        assert generator.kernel(x, out) is out and same_bits(out, oracle(x))


@pytest.mark.parametrize("angle", [0.1, 0.15, 0.2, 0.25])
def test_solve_orbit_equals_the_oracle_after_buffer_growths(angle):
    # Two lines at a small angle: each solve stops after more than 2
    # STOP_BLOCK steps, so the orbit buffer has grown at least three times
    # (to STOP_BLOCK, 2 STOP_BLOCK, 4 STOP_BLOCK steps, ...), each time while
    # the loop holds a view of its current point.
    a = np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)]])
    system = LinearSystem(a, a @ np.array([0.5, -0.25]))
    for driver in (Cyclic((1, 2)), Cyclic((2, 1))):
        for x0 in (np.ones(2), np.array([-3.0, 2.0])):
            report = solve(system, driver, tol=1e-10, max_iter=100_000, x0=x0)
            assert report.converged and report.iterations > 2 * STOP_BLOCK
            symbols = symbols_from(driver, report.iterations, system.n_rows)
            expected = oracle_orbit(system_to_ifs(system), x0, symbols)
            assert same_bits(report.orbit.points, expected)
            assert system._residual(expected[-2]) > 1e-10 >= system._residual(expected[-1])
