"""Finite point clouds, kept as given, and the greedy thinning that the
Hutchinson operator and omega clustering apply to the clouds they produce."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionMismatchError, EmptyCloudError, GeometryValidationError

# The Hutchinson operator merges images closer than this into one point.
DEDUP_TOL = 1e-12

# Query points per distance array, which bounds it to QUERY_BLOCK x cloud size;
# greedy_thin takes its arrival-order blocks of this size too.
QUERY_BLOCK = 2048


def nearest_distances(queries, points):
    """Distance from each query point to the nearest of ``points``, computed
    for QUERY_BLOCK queries at a time."""
    out = np.empty(len(queries))
    for start in range(0, len(queries), QUERY_BLOCK):
        out[start:start + QUERY_BLOCK] = cdist(queries[start:start + QUERY_BLOCK], points).min(axis=1)
    return out


def greedy_thin(points, eps):
    """Arrival-order greedy thinning: keep a point iff it lies strictly farther
    than ``eps`` from every point kept so far.

    Equivalent to the naive one-point-at-a-time scan but vectorized per block;
    kept points come back in arrival order.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise GeometryValidationError(f"expected (k, d) points, got shape {pts.shape}")
    if len(pts) == 0:
        return pts.copy()
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
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise GeometryValidationError(f"point cloud needs shape (k, d), got {pts.shape}")
        if len(pts) == 0:
            raise EmptyCloudError("point cloud must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise GeometryValidationError("point cloud coordinates must be finite")
        object.__setattr__(self, "points", pts)

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
        q = np.atleast_2d(np.asarray(x, dtype=float))
        if q.shape[1] != self.dim:
            raise DimensionMismatchError(self.dim, q.shape[1], "query points")
        return nearest_distances(q, self.points)

    def to_list(self):
        return [[float(c) for c in p] for p in self.points]


def points_of(cloud, what="cloud"):
    """The ``(k, d)`` points of a :class:`PointCloud` or of raw points;
    raises :class:`EmptyCloudError` unless there is at least one."""
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise EmptyCloudError(f"{what} must be a nonempty (k, d) cloud")
    return pts
