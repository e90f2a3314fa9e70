"""Finite point clouds, kept as given, and the greedy thinning that the
Hutchinson operator and omega clustering apply to the clouds they produce."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DimensionMismatchError, EmptyCloudError, GeometryValidationError

# The Hutchinson operator merges images closer than this into one point.
DEDUP_TOL = 1e-12

# Query points and cloud points per distance array, which bounds it to
# QUERY_BLOCK x QUERY_BLOCK; greedy_thin takes its arrival-order blocks of this
# size too.
QUERY_BLOCK = 2048

# greedy_thin's conflict graph: candidate pairs come from a k-d tree queried at
# eps * (1 + CANDIDATE_SLACK), far above the tree's rounding, and its edges are
# counted EDGE_COUNT_BLOCK query points at a time. It is built only for at
# least GRAPH_MIN_POINTS survivors: on fewer the scan costs at most a few ms,
# and a tree, however small, raised the benchmark's peak RSS by about 0.3 MB.
CANDIDATE_SLACK = 1e-8
EDGE_COUNT_BLOCK = 128
GRAPH_MIN_POINTS = 256


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
    than ``eps`` from every point kept so far; kept points come back in
    arrival order.

    Equivalent to the naive one-point-at-a-time scan, block by block: each
    QUERY_BLOCK of points is first filtered against the points kept from
    earlier blocks, and its survivors (points farther than ``eps`` from all
    of those) are then decided by one of two strategies with one output. The
    scan keeps the first survivor and drops the block's points within ``eps``
    of it, one kept point per pass. Once the block's kept points outnumber
    the points they dropped, and if at least GRAPH_MIN_POINTS survivors
    remain, they go to their conflict graph instead (see
    :func:`_conflict_graph_keep`), unless that graph has more edges than
    vertices, in which case the scan goes on.
    """
    # one memory layout, so that the scan and the graph reduce row norms alike
    pts = np.ascontiguousarray(points_of(points))
    kept = []
    for start in range(0, len(pts), QUERY_BLOCK):
        blk = pts[start:start + QUERY_BLOCK]
        if kept:
            dmin = nearest_distances(blk, np.asarray(kept))
        else:
            dmin = np.full(len(blk), np.inf)
        idx = np.nonzero(dmin > eps)[0]
        survivors, n_kept, graph_tried = idx.size, 0, False
        while idx.size:
            i = int(idx[0])
            rep = blk[i]
            kept.append(rep)
            dmin[i:] = np.minimum(dmin[i:], np.linalg.norm(blk[i:] - rep, axis=1))
            idx = np.nonzero(dmin > eps)[0]
            n_kept += 1
            # kept > dropped, where dropped = survivors - n_kept - idx.size
            if (idx.size >= GRAPH_MIN_POINTS and not graph_tried
                    and 2 * n_kept > survivors - idx.size):
                graph_tried = True
                keep = _conflict_graph_keep(blk[idx], eps)
                if keep is not None:
                    kept.extend(blk[idx[keep]])
                    break
    return np.asarray(kept)


def _conflict_graph_keep(points, eps):
    """The mask of ``points`` that arrival-order greedy thinning keeps,
    decided on their conflict graph, or ``None`` when that graph has more
    edges than vertices.

    A k-d tree finds candidate pairs within ``eps * (1 + CANDIDATE_SLACK)``,
    a superset of the pairs the scan's arithmetic puts within ``eps``: the
    tree's own sums of squared coordinate differences are within a relative
    ``d`` ulps of the scan's. Each candidate pair is then decided as the scan
    decides it, by ``np.linalg.norm`` of the later row minus the earlier one,
    and one pass in arrival order keeps a point iff none of its earlier
    close neighbours was kept. Edges are counted before any is listed, in
    queries of EDGE_COUNT_BLOCK points that stop once the count passes the
    number of vertices, so a dense block costs little time and no pair list.
    """
    n = len(points)
    tree = cKDTree(points)
    radius = eps * (1 + CANDIDATE_SLACK)
    degree = np.empty(n, dtype=np.intp)
    for start in range(0, n, EDGE_COUNT_BLOCK):
        stop = start + EDGE_COUNT_BLOCK
        # each point finds itself too, and each edge is found from both ends
        degree[start:stop] = tree.query_ball_point(points[start:stop], radius,
                                                   return_length=True) - 1
        if degree[:stop].sum() > 2 * n:
            return None
    near = np.nonzero(degree)[0]  # ascending, so the pairs come in arrival order
    lists = tree.query_ball_point(points[near], radius)
    later = np.repeat(near, [len(lst) for lst in lists])
    earlier = np.array([j for lst in lists for j in lst], dtype=np.intp)
    pairs = earlier < later
    later, earlier = later[pairs], earlier[pairs]
    close = np.linalg.norm(points[later] - points[earlier], axis=1) <= eps
    keep = np.ones(n, dtype=bool)
    for a, b in zip(earlier[close].tolist(), later[close].tolist()):
        if keep[a]:
            keep[b] = False
    return keep


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
