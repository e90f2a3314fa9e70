"""Finite point clouds, kept as given, and the greedy thinning that the
Hutchinson operator and omega clustering apply to the clouds they produce."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionMismatchError, EmptyCloudError, GeometryValidationError

# The Hutchinson operator merges images closer than this into one point.
DEDUP_TOL = 1e-12

# Query points and cloud points per distance array, which bounds it to
# QUERY_BLOCK x QUERY_BLOCK; greedy_thin takes its arrival-order blocks of this
# size too.
QUERY_BLOCK = 2048


def nearest_distances(queries, points):
    """Distance from each query point to the nearest of ``points``, computed
    QUERY_BLOCK queries by QUERY_BLOCK points at a time."""
    out = np.empty(len(queries))
    for start in range(0, len(queries), QUERY_BLOCK):
        blk = queries[start:start + QUERY_BLOCK]
        dmin = cdist(blk, points[:QUERY_BLOCK]).min(axis=1)
        for ref in range(QUERY_BLOCK, len(points), QUERY_BLOCK):
            np.minimum(dmin, cdist(blk, points[ref:ref + QUERY_BLOCK]).min(axis=1), out=dmin)
        out[start:start + QUERY_BLOCK] = dmin
    return out


def greedy_thin(points, eps):
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


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A nonempty finite set of points, kept as given, coincident ones too."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)  # a copy: the cloud owns its points
        object.__setattr__(self, "points", points_of(pts, what="point cloud"))

    @classmethod
    def of(cls, *points):
        return cls(np.asarray(points, dtype=float))

    @property
    def size(self):
        return len(self.points)

    @property
    def dim(self):
        return self.points.shape[1]

    def distance_to(self, x):
        """Distance from each query point to this cloud (min over members)."""
        return nearest_distances(points_of(np.atleast_2d(x), self.dim, "query points"), self.points)

    def to_list(self):
        return [[float(c) for c in p] for p in self.points]


def points_of(cloud, dim=None, what="cloud"):
    """The ``(k, d)`` float64 points of a :class:`PointCloud` or of raw
    points, without a copy: the one check of a finite point set.

    Raises :class:`GeometryValidationError` unless the shape is ``(k, d)``
    with ``d >= 1`` and every coordinate is finite, :class:`EmptyCloudError`
    when ``k == 0``, and :class:`DimensionMismatchError` when ``dim`` is
    given and differs from ``d``.
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise GeometryValidationError(f"{what} needs shape (k, d), got {pts.shape}")
    if len(pts) == 0:
        raise EmptyCloudError(f"{what} must be nonempty")
    # min and max propagate NaN and, unlike isfinite, allocate no (k, d) mask
    # (such masks raised the presets benchmark's peak RSS by about 5%)
    if not (np.isfinite(pts.min()) and np.isfinite(pts.max())):
        raise GeometryValidationError(f"{what} coordinates must be finite")
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatchError(dim, pts.shape[1], what)
    return pts
