"""Finite point clouds, kept as given; the greedy thinning of them; and the
one rule each for points, counts and tolerances that the library, the config
and the CLI read: :func:`points_of`, :func:`count_of` and :func:`tolerance_of`.

``scipy.spatial`` is imported inside the two functions that use it,
:func:`nearest_distances` and :func:`_conflict_graph_keep`, not here: it
loads scipy.sparse, scipy.linalg and qhull too, which took about 0.38 s of
the 0.5 s and 37 of the 66 MB that ``import ifslab`` cost with it on a
2-core machine. Driver generation and audits, writing presets and converged
Kaczmarz solves never measure a distance between clouds; the first call in
a process that does pays the import once.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, fields

import numpy as np

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
    from scipy.spatial.distance import cdist

    out = np.empty(len(queries))
    for start in range(0, len(queries), QUERY_BLOCK):
        blk = queries[start:start + QUERY_BLOCK]
        dmin = cdist(blk, points[:QUERY_BLOCK]).min(axis=1)
        for ref in range(QUERY_BLOCK, len(points), QUERY_BLOCK):
            np.minimum(dmin, cdist(blk, points[ref:ref + QUERY_BLOCK]).min(axis=1), out=dmin)
        out[start:start + QUERY_BLOCK] = dmin
    return out


def greedy_thin(points, eps, _first=None):
    """Arrival-order greedy thinning: keep a point iff it lies strictly farther
    than ``eps`` from every point kept so far; kept points come back in
    arrival order.

    The result equals the naive one-point-at-a-time scan bit for bit: every
    decision is the scan's own, ``np.linalg.norm`` of a row difference
    compared with ``eps``. Only the first occurrence of each distinct row is
    thinned (see :func:`distinct_rows`), since a repeat of an earlier point
    is dropped by that scan: at distance 0 from it if it was kept, and by
    the same arithmetic on the same bits if it was not. ``_first``, for
    callers inside the lab that have grouped the points already, is those
    first occurrences as :func:`distinct_rows` gives them. The points are
    thinned block by block: the first occurrences in each QUERY_BLOCK of
    them are first filtered against the points kept from earlier blocks
    (see :func:`_farther_than`), and the survivors are then decided by one
    of two strategies with one output. The scan keeps the first survivor and
    drops the block's points within ``eps`` of it, one kept point per pass.
    Once the block's kept points outnumber the points they dropped, and if
    at least GRAPH_MIN_POINTS survivors remain, they go to their conflict
    graph instead (see :func:`_conflict_graph_keep`), unless that graph has
    more edges than vertices, in which case the scan goes on.
    """
    eps = tolerance_of(eps, "eps", positive=True)
    # one memory layout, so that the scan and the graph reduce row norms alike
    pts = np.ascontiguousarray(points_of(points))
    distinct = np.zeros(len(pts), dtype=bool)
    distinct[distinct_rows(pts)[0] if _first is None else _first] = True
    kept = []
    for start in range(0, len(pts), QUERY_BLOCK):
        blk = pts[start:start + QUERY_BLOCK]
        idx = np.flatnonzero(distinct[start:start + QUERY_BLOCK])
        if kept and idx.size:
            idx = idx[_farther_than(blk[idx], np.asarray(kept), eps)]
        survivors, n_kept, graph_tried = idx.size, 0, False
        while idx.size:
            rep, rest = blk[idx[0]], idx[1:]
            kept.append(rep)
            idx = rest[np.linalg.norm(blk[rest] - rep, axis=1) > eps]
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


def _farther_than(queries, points, eps):
    """Whether each query point lies farther than ``eps`` from all of
    ``points``, as ``np.linalg.norm`` of their row differences says.

    :func:`nearest_distances` screens the queries. Its ``cdist`` sums the
    squares in another order than ``np.linalg.norm``, and each of the two
    lies within a relative ``gamma_{d+2}`` of the exact distance of the
    same row difference, with ``gamma_n = n u / (1 - n u)`` and unit
    roundoff ``u`` (Higham 2002 section 3.1), plus ``sqrt(d)`` times the
    root of the smallest subnormal where squares underflow. The margin is
    at least twice their gap, so a screened distance above ``eps + margin``
    or at most ``eps - margin`` decides as the norm would; only a query
    whose nearest screened distance lies between those two is decided by
    the norm itself. Squares that overflow float64 are beyond this bound.
    """
    dmin = nearest_distances(queries, points)
    d = points.shape[1]
    nu = (d + 2) * np.finfo(float).eps / 2
    margin = 4 * (nu / (1 - nu) * eps + np.sqrt(d * np.finfo(float).smallest_subnormal))
    far = dmin > eps + margin
    for j in np.flatnonzero(~far & (dmin > eps - margin)).tolist():
        far[j] = (np.linalg.norm(points - queries[j], axis=1) > eps).all()
    return far


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
    from scipy.spatial import cKDTree

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


class Report:
    """Base of every report the lab writes as JSON (the omega estimate, the
    check, solve and audit reports and the run report), which are frozen
    dataclasses whose verdicts are fields computed by the function that
    makes the report.

    :meth:`to_dict` is the fields in declaration order, ready for JSON: an
    array, a tuple or a :class:`PointCloud` becomes nested lists and a nested
    report its own dict. A field's ``json`` metadata overrides this: a
    function to apply to the value (``drivers.DRIVER``), or ``None`` to leave
    the field out (:data:`OMIT`).
    """

    def to_dict(self):
        out = {}
        for f in fields(self):
            write = f.metadata.get("json", _json_value)
            if write is not None:
                out[f.name] = write(getattr(self, f.name))
        return out


def _json_value(value):
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, PointCloud):
        value = value.points
    return value.tolist() if isinstance(value, np.ndarray) else value


# Field metadata of Report: a field left out of to_dict.
OMIT = {"json": None}


def distinct_rows(points):
    """The distinct rows of ``(k, d)`` float64 points, told apart by their
    bytes, so that ``-0.0`` and ``0.0`` differ: the index of each one's first
    occurrence, ascending, and the inverse, the distinct row of every row,
    in the least unsigned integer type that holds it. So
    ``points[first][inverse]`` is ``points`` bit for bit.

    Rows are grouped by a 64-bit hash of their bits, which needs memory for
    a few ``k``-vectors only. Every row is then compared with the first row
    of its group; should two different rows share a hash, all rows are
    grouped again by their bytes.
    """
    rows = np.ascontiguousarray(points)
    bits = rows.view(np.uint64)
    first, inverse = _first_occurrences(_row_hashes(bits))
    if not all(np.array_equal(column[first][inverse], column) for column in bits.T):
        first, inverse = _first_occurrences(
            rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())
    return first, inverse


# Odd, so that multiplying by it permutes the uint64 values: 2^64 over the
# golden ratio.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _row_hashes(bits):
    """A 64-bit hash of each row of ``(k, d)`` uint64 bits: each column is
    folded in by an xor, a multiply and an xor-shift."""
    key = np.zeros(len(bits), dtype=np.uint64)
    for column in bits.T:
        key ^= column
        key *= _HASH_MULTIPLIER
        key ^= key >> np.uint64(32)
    return key


def _first_occurrences(keys):
    """The index of the first occurrence of each distinct key, ascending,
    and the index among those of every key.

    One stable sort puts equal keys together, each run led by its first
    occurrence. Every temporary is dropped as soon as it has served, and the
    inverse takes the least unsigned type that holds it, so this holds
    about three ``k``-vectors of intp at once, against the six that
    ``np.unique`` with both indices holds.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    del keys  # freed here if the caller passed a temporary
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    del ordered
    first = order[starts]
    run = np.cumsum(starts)
    del starts
    run -= 1  # each key's run, in key order
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.min_scalar_type(len(first)))
    rank[by_first] = np.arange(len(first))
    inverse = np.empty(len(order), dtype=rank.dtype)
    inverse[order] = rank[run]
    return first[by_first], inverse


def points_of(cloud, dim=None, what="cloud"):
    """The ``(k, d)`` float64 points of a :class:`PointCloud` or of raw
    points, without a copy: the one check of a finite point set, and through
    ``geometry`` of every finite point and vector the lab takes.

    Raises :class:`GeometryValidationError` unless the shape is ``(k, d)``
    with ``d >= 1`` and every coordinate is finite, :class:`EmptyCloudError`
    when ``k == 0``, and :class:`DimensionMismatchError` when ``dim`` is
    given and differs from ``d``; each message starts ``what: ``.
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise GeometryValidationError(f"{what}: needs shape (k, d), got {pts.shape}")
    if len(pts) == 0:
        raise EmptyCloudError(f"{what}: must be nonempty")
    # min and max propagate NaN and, unlike isfinite, allocate no (k, d) mask
    # (such masks raised the presets benchmark's peak RSS by about 5%)
    low, high = np.minimum.reduce(pts, axis=None), np.maximum.reduce(pts, axis=None)
    if not (math.isfinite(low) and math.isfinite(high)):
        raise GeometryValidationError(f"{what}: coordinates must be finite")
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatchError(dim, pts.shape[1], what)
    return pts


def _integral(values, what, ndim=0):
    """``values`` as an int (``ndim=0``) or a list of ints (``ndim=1``). An
    integral float such as ``2.0`` reads as an integer; ``2.5``, ``nan``, a
    string, ``None`` or a boolean raises ``ValueError`` naming ``what``."""
    if ndim == 0 and type(values) is int:  # of any size, as a seed may be
        return values
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and (np.trunc(arr) == arr).all() and (abs(arr) < 2.0**63).all():
        arr = arr.astype(np.int64)
    if arr.dtype.kind not in "iu" or arr.ndim != ndim:
        raise ValueError(f"{what} must be integral, got {reprlib.repr(values)}")
    return arr.tolist()


def count_of(value, what, low=0):
    """``value`` as an int of at least ``low``: the one check of a count (a
    step count, burn-in, iteration cap, window length, alphabet size or seed).
    ``2.0`` reads as ``2``; ``2.5``, NaN, a boolean, a string, ``None`` or a
    value below ``low`` raises ``ValueError`` whose message starts ``what: ``."""
    try:
        n = _integral(value, what)
    except ValueError:
        n = None
    if n is None or n < low:
        raise ValueError(f"{what}: need an integer of at least {low}, got {reprlib.repr(value)}")
    return n


def tolerance_of(value, what, positive=False):
    """``value`` as a float: the one check of a tolerance, a finite real number,
    no boolean, at least 0, or above 0 when ``positive``. Anything else raises
    ``ValueError`` whose message starts ``what: ``."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0.0 <= value <= float(np.finfo(float).max) and (value > 0.0 or not positive)):
        bound = "above 0" if positive else "of at least 0"
        raise ValueError(f"{what}: need a finite number {bound}, got {reprlib.repr(value)}")
    return float(value)
