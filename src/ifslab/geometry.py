"""Euclidean primitives: hyperplanes, affine subspaces, simple convex bodies,
and their metric projections.

Everything works on float64 numpy arrays. Projection functions accept a
single point of shape ``(d,)`` or a stack of points of shape ``(k, d)`` and
return the matching shape. All functions are pure; the geometric objects are
immutable and safe to share between threads.

Each set is also the IFS :class:`Generator` that projects onto it: its
``kernel`` is its unvalidated ``project``, whose arithmetic is the same with
or without ``out``, and ``linear_part()`` the orthogonal projector of a
hyperplane or subspace, or ``None`` for a convex body, whose projection is
only piecewise affine. ``Hyperplane`` and ``Halfspace`` share the private
base ``_Plane`` and its rule, which ``kaczmarz.LinearSystem`` applies to rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GeometryValidationError

# Normals shorter than this are rejected at construction time, so projections
# never have to handle a degenerate direction.
MIN_NORMAL_NORM = 1e-12

# Basis rows of an AffineSubspace must satisfy |<e_i, e_j> - delta_ij| below this.
ORTHONORMAL_TOL = 1e-10

# Gram-Schmidt drops an input whose residual after deflation is below this.
DEPENDENT_RESIDUAL_TOL = 1e-10


def as_vector(x, dim=None, what="vector"):
    """Coerce to a finite 1-d float64 array, optionally checking its dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise GeometryValidationError(f"{what}: expected a 1-d coordinate array, got shape {v.shape}")
    if v.shape[0] == 0:
        raise GeometryValidationError(f"{what}: dimension must be positive")
    if not np.all(np.isfinite(v)):
        raise GeometryValidationError(f"{what}: coordinates must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(dim, v.shape[0], what)
    return v


def _as_points(x, dim, what="point"):
    """Coerce to ``(d,)`` or ``(k, d)`` float64 with the expected dimension."""
    p = np.asarray(x, dtype=float)
    if p.ndim not in (1, 2):
        raise GeometryValidationError(f"{what}: expected shape (d,) or (k, d), got {p.shape}")
    if p.shape[-1] != dim:
        raise DimensionMismatchError(dim, p.shape[-1], what)
    if not np.all(np.isfinite(p)):
        raise GeometryValidationError(f"{what}: coordinates must be finite")
    return p


def distance(x, y):
    """Euclidean distance between two points of the same dimension."""
    a = as_vector(x)
    b = as_vector(y, dim=a.shape[0])
    return float(np.linalg.norm(a - b))


class Generator:
    """Base of the IFS generators: the sets of this module, each standing for
    the projection onto itself, and ``ifs.AffineMap``. Each has ``dim``;
    ``kernel(p, out=None)``, its unvalidated image of ``(d,)`` or ``(k, d)``
    float64 points, which orbit steps use, written into ``out`` (a float64
    array of the result's shape, not aliasing ``p``) when it is given and
    returned; ``apply(x)``, the kernel on validated input, so orbit points
    equal repeated ``apply`` bit for bit; and ``linear_part()``, the matrix
    of an affine generator or ``None``."""

    def apply(self, x):
        return self.kernel(_as_points(x, self.dim))

    def linear_part(self):
        return None


@dataclass(frozen=True, eq=False)
class _Plane(Generator):
    """``normal`` and ``offset`` under one rule: a finite normal of norm at least
    ``MIN_NORMAL_NORM`` with a finite square ``_aa = normal . normal``, and a
    finite offset whose foot point from the origin, ``offset / _aa * normal``, is too."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        what = type(self).__name__.lower()
        n = as_vector(self.normal, what=f"{what} normal")
        with np.errstate(over="ignore"):
            aa = float(n @ n)
        if not math.isfinite(aa):
            raise GeometryValidationError(f"{what} normal is too long: its squared norm overflows")
        if math.sqrt(aa) < MIN_NORMAL_NORM:
            raise GeometryValidationError(f"{what} normal is numerically zero")
        offset = float(self.offset)
        if not math.isfinite(offset):
            raise GeometryValidationError(f"{what} offset must be finite, got {offset!r}")
        if not math.isfinite(offset / aa):
            raise GeometryValidationError(
                f"{what} has no float64 foot point: offset / |normal|^2 = {offset / aa:g}")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_aa", aa)

    @property
    def dim(self):
        return self.normal.shape[0]


class Hyperplane(_Plane):
    """The set ``{x : normal . x = offset}``."""

    def project(self, p, out=None):
        """Unvalidated projection of ``(d,)`` or ``(k, d)`` float64 points:
        ``p - ((a.p - b)/|a|^2) a``."""
        t = (p.dot(self.normal) - self.offset) / self._aa
        step = np.multiply(t if p.ndim == 1 else t[:, None], self.normal, out=out)
        return np.subtract(p, step, out=step)

    kernel = project

    def linear_part(self):
        return np.eye(self.dim) - np.outer(self.normal, self.normal) / self._aa


@dataclass(frozen=True, eq=False)
class AffineSubspace(Generator):
    """``anchor + span(rows of basis)`` with orthonormal basis rows.

    An empty basis (shape ``(0, d)``) denotes the single point ``anchor``.
    """

    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        a = as_vector(self.anchor, what="subspace anchor")
        b = np.asarray(self.basis, dtype=float)
        if b.size == 0:
            b = b.reshape(0, a.shape[0])
        if b.ndim != 2 or b.shape[1] != a.shape[0]:
            raise DimensionMismatchError(a.shape[0], b.shape[-1] if b.ndim else 0, "subspace basis")
        if not np.all(np.isfinite(b)):
            raise GeometryValidationError("subspace basis must be finite")
        gram = b @ b.T
        if gram.size and np.max(np.abs(gram - np.eye(b.shape[0]))) > ORTHONORMAL_TOL:
            raise GeometryValidationError("subspace basis rows are not orthonormal")
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.anchor.shape[0]

    def project(self, p, out=None):
        """Unvalidated projection of ``(d,)`` or ``(k, d)`` float64 points:
        ``anchor + ((p - anchor) B^T) B`` for basis rows ``B``."""
        if self.basis.shape[0] == 0:
            # A copy of the anchor per point; positive keeps each bit.
            return np.positive(np.broadcast_to(self.anchor, p.shape), out=out)
        return np.add(self.anchor, ((p - self.anchor) @ self.basis.T) @ self.basis, out=out)

    kernel = project

    def linear_part(self):
        return self.basis.T @ self.basis

    @classmethod
    def single_point(cls, point):
        p = as_vector(point)
        return cls(p, np.empty((0, p.shape[0])))

    @classmethod
    def spanned_by(cls, anchor, directions):
        """Subspace through ``anchor`` spanned by raw (possibly dependent)
        directions; no directions means the single point ``anchor``."""
        a = as_vector(anchor)
        directions = list(directions)
        ortho = orthonormalize([as_vector(v, dim=a.shape[0]) for v in directions]) \
            if directions else []
        basis = np.asarray(ortho) if ortho else np.empty((0, a.shape[0]))
        return cls(a, basis)

    @classmethod
    def from_constraints(cls, normals, offsets):
        """Solution set of the stack ``normals @ x = offsets``.

        The constraints must be consistent; the basis is the orthonormal
        complement of the span of the normals.
        """
        A = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.atleast_1d(np.asarray(offsets, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise GeometryValidationError("constraint count mismatch between normals and offsets")
        x0, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.linalg.norm(A @ x0 - b) > 1e-9 * (1.0 + np.linalg.norm(b)):
            raise GeometryValidationError("inconsistent constraint stack")
        u, s, vt = np.linalg.svd(A)
        rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)))
        return cls(x0, vt[rank:])


class ConvexBody(Generator):
    """Base of the convex bodies accepted by :func:`project_convex`. A metric
    projection onto a general convex body is only piecewise affine, so it
    has no global linear part."""

    def apply(self, x):
        # looked up at call time, so a wrapper set on the module sees each call
        return project_convex(x, self)


class Halfspace(_Plane, ConvexBody):
    """The set ``{x : normal . x <= offset}``."""

    def project(self, p, out=None):
        """Unvalidated projection of ``(d,)`` or ``(k, d)`` float64 points:
        the hyperplane step, taken only where ``a.p > b``."""
        t = np.maximum((p.dot(self.normal) - self.offset) / self._aa, 0.0)
        step = np.multiply(t if p.ndim == 1 else t[:, None], self.normal, out=out)
        return np.subtract(p, step, out=step)

    kernel = project


@dataclass(frozen=True, eq=False)
class Ball(ConvexBody):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_vector(self.center, what="ball center")
        r = float(self.radius)
        if not (r > 0.0 and np.isfinite(r)):
            raise GeometryValidationError("ball radius must be positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self):
        return self.center.shape[0]

    def project(self, p, out=None):
        """Unvalidated projection of ``(d,)`` or ``(k, d)`` float64 points:
        points outside are scaled radially onto the sphere.

        The distance is ``np.linalg.norm(rel, axis=-1)``'s arithmetic, the
        square root of the plain sum of squares; one point computes it
        without the wrapper, and is scaled only when it lies outside (a
        scale of 1.0 changes no bit)."""
        rel = p - self.center
        if p.ndim == 1:
            dist = math.sqrt(np.add.reduce(rel * rel))
            if dist > self.radius:
                rel *= self.radius / dist
            return np.add(self.center, rel, out=out)
        dist = np.linalg.norm(rel, axis=-1)
        scale = np.ones_like(dist)
        np.divide(self.radius, dist, out=scale, where=dist > self.radius)
        return np.add(self.center, scale[:, None] * rel, out=out)

    kernel = project


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower, what="box lower corner")
        hi = as_vector(self.upper, dim=lo.shape[0], what="box upper corner")
        if np.any(lo > hi):
            raise GeometryValidationError("box lower corner exceeds upper corner")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.shape[0]

    def project(self, p, out=None):
        """Unvalidated projection of ``(d,)`` or ``(k, d)`` float64 points:
        coordinatewise clipping (the method is ``np.clip`` without its
        wrapper)."""
        return p.clip(self.lower, self.upper, out=out)

    kernel = project


def _checked(shape, kind, what):
    """``shape``, checked to be a ``kind``; raises
    :class:`GeometryValidationError` naming ``what`` it is not."""
    if not isinstance(shape, kind):
        raise GeometryValidationError(f"not {what}: {type(shape).__name__}")
    return shape


def project_hyperplane(x, plane):
    """Orthogonal projection onto a hyperplane: ``x - ((a.x - b)/|a|^2) a``."""
    return _checked(plane, Hyperplane, "a hyperplane").apply(x)


def project_affine_subspace(x, subspace):
    """Orthogonal projection onto an affine subspace given by point + orthonormal basis."""
    return _checked(subspace, AffineSubspace, "an affine subspace").apply(x)


def project_convex(x, body):
    """Metric projection onto a halfspace, ball, or box."""
    body = _checked(body, ConvexBody, "a convex body")
    return body.project(_as_points(x, body.dim))


def orthonormalize(vectors):
    """Gram-Schmidt with deflation; drops inputs dependent on earlier ones.

    Returns a list of pairwise orthonormal vectors spanning the same subspace
    as the input. Dependence is detected by a residual norm below
    ``DEPENDENT_RESIDUAL_TOL`` after (repeated) deflation.
    """
    vecs = list(vectors)
    if not vecs:
        raise GeometryValidationError("orthonormalize needs a nonempty list")
    dim = as_vector(vecs[0]).shape[0]
    out = []
    for v in vecs:
        w = as_vector(v, dim=dim).copy()
        # Two deflation passes keep the result orthonormal well below tolerance.
        for _ in range(2):
            for q in out:
                w -= (q @ w) * q
        nrm = float(np.linalg.norm(w))
        if nrm < DEPENDENT_RESIDUAL_TOL:
            continue
        out.append(w / nrm)
    return out
