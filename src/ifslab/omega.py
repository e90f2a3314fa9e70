"""Omega-limit estimation from orbit tails, Hausdorff geometry on finite
clouds, and numerical verification of the monotone-distance, invariance,
minimality, and driver-robustness claims.

Set estimates are finite clouds. Continuum references (for example a polygon
boundary known in closed form) can be given as a :class:`SegmentSet`, whose
point-set distance is exact; this matters for the monotone-distance check,
where a sampled stand-in would inject fluctuations at the sampling scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clouds import (
    OMIT,
    QUERY_BLOCK,
    PointCloud,
    Report,
    count_of,
    greedy_thin,
    nearest_distances,
    points_of,
    tolerance_of,
)
from .drivers import DRIVER
from .errors import DimensionMismatchError, GeometryValidationError
from .ifs import hutchinson

# The monotone-distance check assesses a SegmentSet reference's subinvariance
# on an even sampling at this spacing.
SAMPLE_SPACING = 1e-3


@dataclass(frozen=True, eq=False)
class SegmentSet:
    """A union of closed line segments of finite squared length, with exact
    point-to-set distance."""

    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        a = points_of(np.atleast_2d(self.starts), what="segment starts")
        b = points_of(np.atleast_2d(self.ends), a.shape[1], "segment ends")
        if a.shape != b.shape:
            raise GeometryValidationError("segment starts/ends must be matching (k, d) arrays")
        with np.errstate(over="ignore"):
            long = ~np.isfinite(np.einsum("ij,ij->i", b - a, b - a))
        if long.any():
            raise GeometryValidationError(f"segment {int(np.argmax(long)) + 1} is too long: "
                                          "its squared length overflows")
        object.__setattr__(self, "starts", a)
        object.__setattr__(self, "ends", b)

    @property
    def dim(self):
        return self.starts.shape[1]

    def distance_to(self, x):
        """Distance from each query point to the nearest segment."""
        q = points_of(np.atleast_2d(x), self.dim, "query points")
        d = self.ends - self.starts
        dd = np.einsum("ij,ij->i", d, d)
        dd = np.where(dd == 0.0, 1.0, dd)
        out = np.empty(len(q))
        for start in range(0, len(q), QUERY_BLOCK):
            blk = q[start:start + QUERY_BLOCK]
            # t = clamp(<q - start, d> / |d|^2): (m, k) parameter of the foot point
            rel = blk[:, None, :] - self.starts[None, :, :]
            t = np.clip(np.einsum("mkj,kj->mk", rel, d) / dd, 0.0, 1.0)
            foot = self.starts[None, :, :] + t[:, :, None] * d[None, :, :]
            out[start:start + QUERY_BLOCK] = np.linalg.norm(blk[:, None, :] - foot, axis=2).min(axis=1)
        return out

    def sample_points(self, spacing=SAMPLE_SPACING):
        """Even sampling of every segment at the given spacing, endpoints
        included, segment by segment: a vertex shared by two segments appears
        twice. ``spacing`` must be finite and above 0."""
        spacing = tolerance_of(spacing, "spacing", positive=True)
        pts = []
        for a, b in zip(self.starts, self.ends):
            length = float(np.linalg.norm(b - a))
            n = max(int(np.ceil(length / spacing)), 1)
            t = np.linspace(0.0, 1.0, n + 1)
            pts.append(a + t[:, None] * (b - a))
        return np.vstack(pts)


@dataclass(frozen=True, eq=False)
class OmegaEstimate(Report):
    """Finite approximation of the omega-limit set of an orbit tail.

    Every tail point lies within ``cluster_eps`` of some representative and
    representatives are pairwise farther than ``cluster_eps`` apart.
    """

    representatives: PointCloud
    burn_in: int
    tail_length: int
    cluster_eps: float
    x0: np.ndarray
    driver: object = field(default=None, metadata=DRIVER)


def estimate_omega(orbit, burn_in, cluster_eps, driver=None):
    """Greedy clustering of the orbit tail in arrival order.

    A tail point becomes a new representative iff it lies strictly farther
    than ``cluster_eps`` from all representatives found so far. The tail's
    distinct rows come from :meth:`Orbit.distinct_rows`, so an orbit that
    has grouped its rows already is not grouped again.
    """
    cluster_eps = tolerance_of(cluster_eps, "cluster_eps", positive=True)
    burn_in = orbit.check_burn_in(burn_in)
    tail = orbit.tail(burn_in)
    reps = greedy_thin(tail, cluster_eps, _first=orbit.distinct_rows(burn_in)[0])
    return OmegaEstimate(
        representatives=PointCloud(reps),
        burn_in=burn_in,
        tail_length=len(tail),
        cluster_eps=cluster_eps,
        x0=orbit.x0.copy(),
        driver=driver,
    )


def directed_hausdorff_distance(source, target):
    """``max over source of min over target`` point distances, brute force."""
    a = points_of(source, what="source")
    b = points_of(target, a.shape[1], "target")
    return float(nearest_distances(a, b).max())


def hausdorff(cloud_a, cloud_b):
    """Symmetric Hausdorff distance between two finite clouds."""
    return max(
        directed_hausdorff_distance(cloud_a, cloud_b),
        directed_hausdorff_distance(cloud_b, cloud_a),
    )


@dataclass(frozen=True)
class InvarianceReport(Report):
    """Directed excesses of one Hutchinson application against a cloud."""

    forward_excess: float  # directed Hausdorff from Phi(S) to S; small => subinvariant
    backward_excess: float  # directed Hausdorff from S to Phi(S); small => superinvariant
    symmetric_excess: float
    tolerance: float
    subinvariant: bool
    superinvariant: bool
    invariant: bool


def check_invariance(system, cloud, tol):
    """Compare ``Phi(S)`` against ``S`` by directed Hausdorff excesses; ``tol``
    must be finite and at least 0."""
    tol = tolerance_of(tol, "tol")
    pts = points_of(cloud)
    image = hutchinson(system, pts)
    forward = directed_hausdorff_distance(image.points, pts)
    backward = directed_hausdorff_distance(pts, image.points)
    return InvarianceReport(
        forward_excess=forward,
        backward_excess=backward,
        symmetric_excess=max(forward, backward),
        tolerance=tol,
        subinvariant=forward <= tol,
        superinvariant=backward <= tol,
        invariant=forward <= tol and backward <= tol,
    )


@dataclass(frozen=True)
class MonotoneDistanceReport(Report):
    """Stepwise audit of ``d(x_n, C)`` for a subinvariant reference ``C``."""

    distances: np.ndarray = field(metadata=OMIT)
    slack: float
    monotone: bool
    max_step_increase: float
    bounded: bool  # d(x_n, C) <= d(x_0, C) + slack for all n
    limit_value: float  # inf_n d(x_n, C)
    initial_distance: float
    final_distance: float
    hypothesis_excess: float  # subinvariance excess of C; None without a system
    hypothesis_met: bool  # None without a system
    passed: bool


def check_monotone_distance(orbit, reference, system=None, base_slack=1e-9):
    """Verify that ``d(x_n, C)`` never increases along the orbit.

    ``reference`` is a :class:`PointCloud` (or raw points) or a
    :class:`SegmentSet`. The verdict uses slack ``base_slack * (1 + d(x_0, C))``
    per step and for the bound ``d(x_n, C) <= d(x_0, C)``; ``base_slack``
    must be finite and at least 0. When ``system`` is given, the
    subinvariance hypothesis on ``C`` is assessed alongside and a violated
    hypothesis marks the report hypothesis-unmet instead of asserting
    monotonicity. Its excess is ``sup d(y, C)`` over the images ``y =
    f_i(p)`` of the cloud's points, or of a SegmentSet sampled at
    ``SAMPLE_SPACING``, measured against ``C`` itself: a subinvariant
    continuum scores ~0. Distances are taken once per distinct orbit point,
    as :meth:`Orbit.distinct_rows` groups them.
    """
    base_slack = tolerance_of(base_slack, "base_slack")
    ref = reference if isinstance(reference, (PointCloud, SegmentSet)) \
        else PointCloud(points_of(reference, what="reference"))
    if ref.dim != orbit.dim:
        raise DimensionMismatchError(orbit.dim, ref.dim, "reference")
    first, inverse = orbit.distinct_rows()
    dists = ref.distance_to(orbit.points[first])[inverse]
    d0 = float(dists[0])
    slack = base_slack * (1.0 + d0)
    steps = np.diff(dists)
    max_inc = float(steps.max()) if len(steps) else 0.0
    monotone = max_inc <= slack
    bounded = bool(np.all(dists <= d0 + slack))
    hypothesis_excess = None
    hypothesis_met = None
    passed = monotone and bounded
    if system is not None:
        base = ref.sample_points(SAMPLE_SPACING) if isinstance(ref, SegmentSet) else ref.points
        hypothesis_excess = max(float(ref.distance_to(m.apply(base)).max()) for m in system.maps)
        hypothesis_met = hypothesis_excess <= slack
        passed = passed and hypothesis_met
    return MonotoneDistanceReport(
        distances=dists,
        slack=slack,
        monotone=monotone,
        max_step_increase=max_inc,
        bounded=bounded,
        limit_value=float(dists.min()),
        initial_distance=d0,
        final_distance=float(dists[-1]),
        hypothesis_excess=hypothesis_excess,
        hypothesis_met=hypothesis_met,
        passed=passed,
    )


@dataclass(frozen=True)
class MinimalityReport(Report):
    """Containment test: a subinvariant set intersecting the omega estimate
    must contain it."""

    hypothesis_met: bool
    candidate_invariance: InvarianceReport
    min_distance: float
    intersects: bool
    containment_excess: float
    contains_omega: bool
    note: str
    passed: bool


def check_minimality(system, omega_estimate, candidate, tol):
    """If the candidate cloud is subinvariant and touches the omega estimate,
    every omega representative must lie within ``tol`` of the candidate;
    ``tol`` must be finite and at least 0."""
    tol = tolerance_of(tol, "tol")
    cand = points_of(candidate, omega_estimate.representatives.dim, "candidate")
    reps = omega_estimate.representatives.points
    inv = check_invariance(system, cand, tol)
    hypothesis_met = inv.subinvariant
    min_distance = float(nearest_distances(cand, reps).min())
    intersects = min_distance <= tol
    containment_excess = directed_hausdorff_distance(reps, cand)
    contains = containment_excess <= tol
    if not hypothesis_met:
        note = "hypothesis unmet: candidate is not subinvariant at tolerance"
    elif not intersects:
        note = "no intersection: containment is vacuous"
    else:
        note = "candidate intersects the omega estimate"
    return MinimalityReport(
        hypothesis_met=hypothesis_met,
        candidate_invariance=inv,
        min_distance=min_distance,
        intersects=intersects,
        containment_excess=containment_excess,
        contains_omega=contains,
        note=note,
        passed=hypothesis_met and (contains or not intersects),
    )


@dataclass(frozen=True)
class OmegaComparison(Report):
    distance: float
    tolerance: float
    passed: bool


def compare_omegas(estimate_a, estimate_b, tol):
    """Symmetric Hausdorff distance between two omega estimates; ``tol`` must
    be finite and at least 0."""
    tol = tolerance_of(tol, "tol")
    a, b = estimate_a.representatives, estimate_b.representatives
    if a.dim != b.dim:
        raise DimensionMismatchError(a.dim, b.dim, "omega estimate")
    dist = hausdorff(a, b)
    return OmegaComparison(distance=dist, tolerance=tol, passed=dist <= tol)
