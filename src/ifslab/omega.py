"""Omega-limit estimation from orbit tails, Hausdorff geometry on finite
clouds, and numerical verification of the monotone-distance, invariance,
minimality, and driver-robustness claims.

Set estimates are finite clouds. Continuum references (for example a polygon
boundary known in closed form) can be given as a :class:`SegmentSet`, whose
point-set distance is exact; this matters for the monotone-distance check,
where a sampled stand-in would inject fluctuations at the sampling scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clouds import (
    QUERY_BLOCK,
    PointCloud,
    distinct_rows,
    greedy_thin,
    nearest_distances,
    points_of,
)
from .drivers import describe_driver
from .errors import DimensionMismatchError, GeometryValidationError
from .ifs import hutchinson

# The monotone-distance check assesses a SegmentSet reference's subinvariance
# on an even sampling at this spacing.
SAMPLE_SPACING = 1e-3


@dataclass(frozen=True, eq=False)
class SegmentSet:
    """A union of closed line segments, with exact point-to-set distance."""

    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        a = points_of(np.atleast_2d(self.starts), what="segment starts")
        b = points_of(np.atleast_2d(self.ends), a.shape[1], "segment ends")
        if a.shape != b.shape:
            raise GeometryValidationError("segment starts/ends must be matching (k, d) arrays")
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
        twice."""
        pts = []
        for a, b in zip(self.starts, self.ends):
            length = float(np.linalg.norm(b - a))
            n = max(int(np.ceil(length / spacing)), 1)
            t = np.linspace(0.0, 1.0, n + 1)
            pts.append(a + t[:, None] * (b - a))
        return np.vstack(pts)


@dataclass(frozen=True, eq=False)
class OmegaEstimate:
    """Finite approximation of the omega-limit set of an orbit tail.

    Every tail point lies within ``cluster_eps`` of some representative and
    representatives are pairwise farther than ``cluster_eps`` apart.
    """

    representatives: PointCloud
    burn_in: int
    tail_length: int
    cluster_eps: float
    x0: np.ndarray
    driver: object = None

    @property
    def dim(self):
        return self.representatives.dim

    def to_dict(self):
        return {
            "representatives": self.representatives.to_list(),
            "burn_in": self.burn_in,
            "tail_length": self.tail_length,
            "cluster_eps": self.cluster_eps,
            "x0": [float(c) for c in self.x0],
            "driver": describe_driver(self.driver),
        }


def _check_cluster_eps(cluster_eps):
    if not 0.0 < cluster_eps < np.inf:
        raise ValueError(f"cluster_eps must be positive and finite, got {cluster_eps!r}")


def _check_burn_in(burn_in, orbit):
    if not 0 <= burn_in < len(orbit.points):
        raise ValueError(f"burn-in {burn_in} must be below the orbit length {len(orbit.points)}")


def estimate_omega(orbit, burn_in, cluster_eps, driver=None):
    """Greedy clustering of the orbit tail in arrival order.

    A tail point becomes a new representative iff it lies strictly farther
    than ``cluster_eps`` from all representatives found so far.
    """
    _check_cluster_eps(cluster_eps)
    _check_burn_in(burn_in, orbit)
    tail = orbit.tail(burn_in)
    reps = greedy_thin(tail, cluster_eps)
    return OmegaEstimate(
        representatives=PointCloud(reps),
        burn_in=int(burn_in),
        tail_length=len(tail),
        cluster_eps=float(cluster_eps),
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
class InvarianceReport:
    """Directed excesses of one Hutchinson application against a cloud."""

    forward_excess: float  # directed Hausdorff from Phi(S) to S; small => subinvariant
    backward_excess: float  # directed Hausdorff from S to Phi(S); small => superinvariant
    tolerance: float

    @property
    def symmetric_excess(self):
        return max(self.forward_excess, self.backward_excess)

    @property
    def subinvariant(self):
        return self.forward_excess <= self.tolerance

    @property
    def superinvariant(self):
        return self.backward_excess <= self.tolerance

    @property
    def invariant(self):
        return self.subinvariant and self.superinvariant

    def to_dict(self):
        return {
            "forward_excess": self.forward_excess,
            "backward_excess": self.backward_excess,
            "symmetric_excess": self.symmetric_excess,
            "tolerance": self.tolerance,
            "subinvariant": self.subinvariant,
            "superinvariant": self.superinvariant,
            "invariant": self.invariant,
        }


def check_invariance(system, cloud, tol):
    """Compare ``Phi(S)`` against ``S`` by directed Hausdorff excesses."""
    pts = points_of(cloud)
    image = hutchinson(system, pts)
    return InvarianceReport(
        forward_excess=directed_hausdorff_distance(image.points, pts),
        backward_excess=directed_hausdorff_distance(pts, image.points),
        tolerance=float(tol),
    )


@dataclass(frozen=True)
class MonotoneDistanceReport:
    """Stepwise audit of ``d(x_n, C)`` for a subinvariant reference ``C``."""

    distances: np.ndarray
    slack: float
    monotone: bool
    max_step_increase: float
    bounded: bool  # d(x_n, C) <= d(x_0, C) + 1e-9 for all n
    limit_value: float  # inf_n d(x_n, C)
    hypothesis_excess: float = None  # subinvariance excess of C, when assessed
    hypothesis_met: bool = None

    @property
    def passed(self):
        ok = self.monotone and self.bounded
        if self.hypothesis_met is not None:
            ok = ok and self.hypothesis_met
        return ok

    def to_dict(self):
        return {
            "slack": self.slack,
            "monotone": self.monotone,
            "max_step_increase": self.max_step_increase,
            "bounded": self.bounded,
            "limit_value": self.limit_value,
            "initial_distance": float(self.distances[0]),
            "final_distance": float(self.distances[-1]),
            "hypothesis_excess": self.hypothesis_excess,
            "hypothesis_met": self.hypothesis_met,
            "passed": self.passed,
        }


def check_monotone_distance(orbit, reference, system=None, base_slack=1e-9):
    """Verify that ``d(x_n, C)`` never increases along the orbit.

    ``reference`` is a :class:`PointCloud` (or raw points) or a
    :class:`SegmentSet`. The verdict uses slack ``base_slack * (1 + d(x_0, C))``
    per step. When ``system`` is given, the subinvariance hypothesis on ``C``
    is assessed alongside and a violated hypothesis marks the report
    hypothesis-unmet instead of asserting monotonicity. Its excess is
    ``sup d(y, C)`` over the images ``y = f_i(p)`` of the cloud's points, or
    of a SegmentSet sampled at ``SAMPLE_SPACING``, measured against ``C``
    itself: a subinvariant continuum scores ~0. Distances are taken once per
    distinct orbit point.
    """
    ref = reference if isinstance(reference, (PointCloud, SegmentSet)) \
        else PointCloud(points_of(reference, what="reference"))
    if ref.dim != orbit.dim:
        raise DimensionMismatchError(orbit.dim, ref.dim, "reference")
    first, inverse = distinct_rows(orbit.points)
    dists = ref.distance_to(orbit.points[first])[inverse]
    d0 = float(dists[0])
    slack = float(base_slack) * (1.0 + d0)
    steps = np.diff(dists)
    max_inc = float(steps.max()) if len(steps) else 0.0
    monotone = max_inc <= slack
    bounded = bool(np.all(dists <= d0 + 1e-9))
    hypothesis_excess = None
    hypothesis_met = None
    if system is not None:
        base = ref.sample_points(SAMPLE_SPACING) if isinstance(ref, SegmentSet) else ref.points
        hypothesis_excess = max(float(ref.distance_to(m.apply(base)).max()) for m in system.maps)
        hypothesis_met = hypothesis_excess <= slack
    return MonotoneDistanceReport(
        distances=dists,
        slack=slack,
        monotone=monotone,
        max_step_increase=max_inc,
        bounded=bounded,
        limit_value=float(dists.min()),
        hypothesis_excess=hypothesis_excess,
        hypothesis_met=hypothesis_met,
    )


@dataclass(frozen=True)
class MinimalityReport:
    """Containment test: a subinvariant set intersecting the omega estimate
    must contain it."""

    candidate_invariance: InvarianceReport
    hypothesis_met: bool
    min_distance: float
    intersects: bool
    containment_excess: float
    contains_omega: bool
    note: str

    @property
    def passed(self):
        return self.hypothesis_met and (self.contains_omega or not self.intersects)

    def to_dict(self):
        return {
            "hypothesis_met": self.hypothesis_met,
            "candidate_invariance": self.candidate_invariance.to_dict(),
            "min_distance": self.min_distance,
            "intersects": self.intersects,
            "containment_excess": self.containment_excess,
            "contains_omega": self.contains_omega,
            "note": self.note,
            "passed": self.passed,
        }


def check_minimality(system, omega_estimate, candidate, tol):
    """If the candidate cloud is subinvariant and touches the omega estimate,
    every omega representative must lie within ``tol`` of the candidate."""
    cand = points_of(candidate, omega_estimate.dim, "candidate")
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
        candidate_invariance=inv,
        hypothesis_met=hypothesis_met,
        min_distance=min_distance,
        intersects=intersects,
        containment_excess=containment_excess,
        contains_omega=contains,
        note=note,
    )


@dataclass(frozen=True)
class OmegaComparison:
    distance: float
    tolerance: float

    @property
    def passed(self):
        return self.distance <= self.tolerance

    def to_dict(self):
        return {"distance": self.distance, "tolerance": self.tolerance, "passed": self.passed}


def compare_omegas(estimate_a, estimate_b, tol):
    """Symmetric Hausdorff distance between two omega estimates."""
    if estimate_a.dim != estimate_b.dim:
        raise DimensionMismatchError(estimate_a.dim, estimate_b.dim, "omega estimate")
    dist = hausdorff(estimate_a.representatives, estimate_b.representatives)
    return OmegaComparison(distance=dist, tolerance=float(tol))
