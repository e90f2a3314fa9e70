"""The Kaczmarz projection method viewed as a nonexpansive IFS on the row
hyperplanes of a linear system.

A consistent system converges to a solution; an inconsistent one never
converges and instead carries an omega estimate of the late orbit, the set the
row projections keep revisiting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clouds import OMIT, Report, _integral, count_of, tolerance_of
from .drivers import DRIVER
from .errors import GeometryValidationError
from .geometry import MIN_NORMAL_NORM, Hyperplane, as_vector
from .ifs import IFSystem, Orbit, _iterate
from .omega import OmegaEstimate, estimate_omega

# Normals count as parallel when their unit vectors differ (up to sign) by
# less than this.
PARALLEL_ANGLE_TOL = 1e-10

# The screen passes every point whose residual may be within tol:
# SCREEN_SLACK * gamma_{d+2} * (|p| + max |b_i|/|a_i|) bounds twice over how
# far the product's rounding can move a residual.
SCREEN_SLACK = 4.0

# The screen's first stage takes the residuals on this many leading rows, at
# O(d) a point. A Kaczmarz step zeroes one row's residual, so until the orbit
# nears tol few points pass them all and go on to the m rows.
SCREEN_ROWS = 4


class _RowError(GeometryValidationError):
    """A row, 1-based, of a linear system that breaks the plane rule."""

    def __init__(self, row, problem):
        self.row = row
        super().__init__(f"row {row} of the linear system {problem}")


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Rows ``a_i . x = b_i``, each a valid :class:`geometry.Hyperplane`."""

    coefficients: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        b = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if a.ndim != 2 or len(a) == 0 or a.shape[1] == 0:
            raise GeometryValidationError(f"coefficients need shape (m, d), got {a.shape}")
        if b.shape != (len(a),):
            raise GeometryValidationError("need exactly one right-hand side per row")
        # geometry's plane rule on all rows, which no non-finite entry passes
        with np.errstate(all="ignore"):
            aa = np.add.reduce(a * a, axis=1)  # np.linalg.norm's arithmetic
            norms, foot = np.sqrt(aa), b / aa
        ok = (norms >= MIN_NORMAL_NORM) & (norms < np.inf) & np.isfinite(foot)
        if not ok.all():
            k = int(np.argmin(ok))
            if not MIN_NORMAL_NORM <= norms[k] < np.inf:
                raise _RowError(k + 1, f"has norm {norms[k]:g}, outside [{MIN_NORMAL_NORM!r}, inf)")
            raise _RowError(k + 1, f"has no float64 foot point: b / |a|^2 = {foot[k]:g}")
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "rhs", b)
        # The rows scaled to unit normals, read by residual and solve.
        a_unit, b_unit = a / norms[:, None], b / norms
        object.__setattr__(self, "_a_unit", a_unit)
        object.__setattr__(self, "_b_unit", b_unit)
        # The stop screen's constants (see _first_within): the first stage's
        # rows, SCREEN_SLACK gamma_{d+2}, sqrt(d) (1 + 4 nu), max |b_i|/|a_i|.
        nu = (a.shape[1] + 2) * np.finfo(float).eps / 2
        object.__setattr__(self, "_a_few", a_unit[:SCREEN_ROWS])
        object.__setattr__(self, "_b_few", b_unit[:SCREEN_ROWS, None])
        object.__setattr__(self, "_slack_gamma", SCREEN_SLACK * nu / (1.0 - nu))
        object.__setattr__(self, "_root_d", np.sqrt(a.shape[1]) * (1.0 + 4.0 * nu))
        object.__setattr__(self, "_b_max", float(np.abs(b_unit).max()))

    @property
    def dim(self):
        return self.coefficients.shape[1]

    @property
    def n_rows(self):
        return len(self.coefficients)

    def _index(self, row):
        """The 0-based index of the 1-based ``row``, which must be integral
        as :func:`clouds._integral` reads it."""
        row = _integral(row, "row")
        if not 1 <= row <= self.n_rows:
            raise GeometryValidationError(f"row {row} outside 1..{self.n_rows}")
        return row - 1

    def row_hyperplane(self, row):
        """Hyperplane of the 1-based row index."""
        i = self._index(row)
        return Hyperplane(self.coefficients[i], self.rhs[i])

    def residual(self, x):
        """Row-normalized max violation: ``max_i |a_i . x - b_i| / |a_i|``."""
        return self._residual(as_vector(x, self.dim, "x"))

    def _residual(self, x):
        """:meth:`residual` of a ``(d,)`` float64 point, unvalidated."""
        return float(np.max(np.abs(self._a_unit @ x - self._b_unit)))

    def _first_within(self, points, tol):
        """Index of the first of the ``(k, d)`` points whose :meth:`_residual`
        is at most ``tol``, or ``None``.

        A screen in two stages keeps every point that may be within ``tol``,
        and :meth:`_residual` decides on the points it keeps, in order. Each
        computed row residual, in :meth:`_residual` or in a product over any
        of the points and rows, lies within ``gamma_{d+1} (|p| + max_i |b_i|
        / |a_i|)`` of the exact one, with ``gamma_n = n u / (1 - n u)`` and
        unit roundoff ``u`` (the dot-product error bound, Higham 2002 section
        3.1). So a point within ``tol`` has its computed row residuals within
        ``tol`` plus twice that on every subset of the rows, and the max over
        a subset is at most the max over all rows. The first stage takes the
        residuals of all the points on the first ``SCREEN_ROWS`` rows, at
        O(d) a point; the second, over all ``m`` rows, runs only on the
        points the first keeps, which are rare until the orbit nears ``tol``,
        and is skipped when ``m <= SCREEN_ROWS``.

        Both stages allow one margin per block, ``SCREEN_SLACK gamma_{d+2}
        (sqrt(d) (1 + 4 nu) max_ij |p_ij| + max_i |b_i| / |a_i|)`` with
        ``gamma_{d+2} = nu / (1 - nu)``. As ``|p| <= sqrt(d) max_j |p_j|``
        and ``1 + 4 nu`` outweighs the rounding of ``|p|``, of ``sqrt(d)``
        and of the product, it is never smaller than ``SCREEN_SLACK
        gamma_{d+2} (|p| + max_i |b_i| / |a_i|)`` computed for any one point
        of the block, which bounds the rounding twice over.
        """
        bound = tol + self._slack_gamma * (
            self._root_d * max(points.max(), -points.min()) + self._b_max)
        near = np.flatnonzero(
            np.abs(self._a_few @ points.T - self._b_few).max(axis=0) <= bound)
        if len(near) and self.n_rows > SCREEN_ROWS:
            full = np.abs(points[near] @ self._a_unit.T - self._b_unit).max(axis=1)
            near = near[full <= bound]
        for j in near.tolist():
            if self._residual(points[j]) <= tol:
                return j
        return None


def system_to_ifs(system):
    """One hyperplane projection per row, row order preserved."""
    return IFSystem(tuple(map(Hyperplane, system.coefficients, system.rhs)), system.dim)


@dataclass(frozen=True, eq=False)
class SolveReport(Report):
    final_point: np.ndarray
    residual: float
    iterations: int
    converged: bool
    max_norm: float
    tol: float
    max_iter: int
    driver: object = field(metadata=DRIVER)
    omega: OmegaEstimate = None  # populated when the run stopped at max_iter
    orbit: Orbit = field(default=None, metadata=OMIT)


def solve(system, driver, tol, max_iter, x0=None):
    """Project onto row hyperplanes in driver order until the row-normalized
    residual drops to ``tol`` or ``max_iter`` steps have run.

    The driver is a spec, a stream, or a list, tuple or numpy array of
    symbols; its symbols are drawn in blocks of ``ifs.SYMBOL_BLOCK`` as the
    run goes. The stop test runs on ``x0`` and then once per
    ``ifs.STEP_BLOCK`` steps, on all of the block's points (see
    :meth:`LinearSystem._first_within`); the orbit ends at the
    first point within ``tol``. So the stop, the orbit and the report are
    those of a test after every step. The orbit buffer grows with the steps
    run, not with ``max_iter``. A run stopped at ``max_iter`` gets an omega
    estimate of the final 20% of its orbit with ``cluster_eps = max(tol,
    1e-9)``.
    """
    tol = tolerance_of(tol, "tolerance", positive=True)
    max_iter = count_of(max_iter, "max_iter", low=1)
    x = np.zeros(system.dim) if x0 is None else as_vector(x0, system.dim, "x0")

    orbit = _iterate(system_to_ifs(system), x, driver, max_iter,
                     stop=lambda pts: system._first_within(pts, tol))
    final_point = orbit.points[-1].copy()
    res = system._residual(final_point)
    converged = res <= tol
    max_norm = float(np.linalg.norm(orbit.points, axis=1).max())
    omega = None
    if not converged:
        n_pts = len(orbit.points)
        burn_in = (4 * n_pts) // 5
        omega = estimate_omega(orbit, burn_in=burn_in,
                               cluster_eps=max(tol, 1e-9), driver=driver)
    return SolveReport(
        final_point=final_point,
        residual=res,
        iterations=orbit.n_steps,
        converged=converged,
        max_norm=max_norm,
        tol=tol,
        max_iter=max_iter,
        driver=driver,
        omega=omega,
        orbit=orbit,
    )


def gap_between(system, row_i, row_j):
    """Infimum distance between two row hyperplanes: zero unless the normals
    are parallel, then the offset difference along the common normal."""
    i, j = system._index(row_i), system._index(row_j)
    u, v = system._a_unit[i], system._a_unit[j]
    sign = 1.0 if float(u @ v) >= 0.0 else -1.0
    if float(np.linalg.norm(u - sign * v)) > PARALLEL_ANGLE_TOL:
        return 0.0
    return float(abs(system._b_unit[i] - sign * system._b_unit[j]))
