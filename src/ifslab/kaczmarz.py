"""The Kaczmarz projection method viewed as a nonexpansive IFS on the row
hyperplanes of a linear system.

A consistent system converges to a solution; an inconsistent one never
converges and instead carries an omega estimate of the late orbit, the set the
row projections keep revisiting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import describe_driver
from .errors import GeometryValidationError
from .geometry import Hyperplane, as_vector
from .ifs import IFSystem, Orbit, _iterate
from .omega import OmegaEstimate, estimate_omega

MIN_ROW_NORM = 1e-12

# Normals count as parallel when their unit vectors differ (up to sign) by
# less than this.
PARALLEL_ANGLE_TOL = 1e-10

# The screen passes every point whose residual may be within tol:
# SCREEN_SLACK * gamma_{d+2} * (|p| + max |b_i|/|a_i|) bounds twice over how
# far the product's rounding can move a residual.
SCREEN_SLACK = 4.0


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Rows ``a_i . x = b_i`` with nonzero coefficient vectors."""

    coefficients: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        b = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if a.ndim != 2 or len(a) == 0 or a.shape[1] == 0:
            raise GeometryValidationError(f"coefficients need shape (m, d), got {a.shape}")
        if b.shape != (len(a),):
            raise GeometryValidationError("need exactly one right-hand side per row")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise GeometryValidationError("system entries must be finite")
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms < MIN_ROW_NORM):
            raise GeometryValidationError("zero row in linear system")
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "rhs", b)
        # The rows scaled to unit normals, read by residual and solve.
        object.__setattr__(self, "_a_unit", a / norms[:, None])
        object.__setattr__(self, "_b_unit", b / norms)

    @property
    def dim(self):
        return self.coefficients.shape[1]

    @property
    def n_rows(self):
        return len(self.coefficients)

    def row_hyperplane(self, row):
        """Hyperplane of the 1-based row index."""
        if not 1 <= row <= self.n_rows:
            raise GeometryValidationError(f"row {row} outside 1..{self.n_rows}")
        return Hyperplane(self.coefficients[row - 1], self.rhs[row - 1])

    def residual(self, x):
        """Row-normalized max violation: ``max_i |a_i . x - b_i| / |a_i|``."""
        return self._residual(as_vector(x, dim=self.dim))

    def _residual(self, x):
        """:meth:`residual` of a ``(d,)`` float64 point, unvalidated."""
        return float(np.max(np.abs(self._a_unit @ x - self._b_unit)))

    def _first_within(self, points, tol):
        """Index of the first of the ``(k, d)`` points whose :meth:`_residual`
        is at most ``tol``, or ``None``.

        One matrix product screens all the points. Its residuals differ from
        :meth:`_residual`'s by at most ``2 gamma_{d+1} (|p| + max_i |b_i| /
        |a_i|)``, with ``gamma_n = n u / (1 - n u)`` and unit roundoff ``u``
        (the dot-product error bound, Higham 2002 section 3.1). So the screen
        drops no point within ``tol``, and :meth:`_residual` decides on the
        points it keeps, in order.
        """
        screen = np.abs(points @ self._a_unit.T - self._b_unit).max(axis=1)
        nu = (self.dim + 2) * np.finfo(float).eps / 2
        margin = SCREEN_SLACK * nu / (1.0 - nu) * (
            np.linalg.norm(points, axis=1) + np.abs(self._b_unit).max())
        for j in np.flatnonzero(screen <= tol + margin).tolist():
            if self._residual(points[j]) <= tol:
                return j
        return None


def system_to_ifs(system):
    """One hyperplane projection per row, row order preserved."""
    return IFSystem(tuple(system.row_hyperplane(i + 1) for i in range(system.n_rows)),
                    system.dim)


@dataclass(frozen=True, eq=False)
class SolveReport:
    final_point: np.ndarray
    residual: float
    iterations: int
    converged: bool
    max_norm: float
    tol: float
    max_iter: int
    driver: object
    omega: OmegaEstimate = None  # populated when the run stopped at max_iter
    orbit: Orbit = None

    def to_dict(self):
        return {
            "final_point": [float(c) for c in self.final_point],
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "max_norm": self.max_norm,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "driver": describe_driver(self.driver),
            "omega": self.omega.to_dict() if self.omega is not None else None,
        }


def solve(system, driver, tol, max_iter, x0=None):
    """Project onto row hyperplanes in driver order until the row-normalized
    residual drops to ``tol`` or ``max_iter`` steps have run.

    The driver is a spec, a stream, or any integer sequence; its symbols are
    drawn in blocks of ``ifs.SYMBOL_BLOCK`` as the run goes. The stop test runs
    on ``x0`` and then once per ``ifs.STEP_BLOCK`` steps, on all of the block's
    points (see :meth:`LinearSystem._first_within`); the orbit ends at the
    first point within ``tol``. So the stop, the orbit and the report are
    those of a test after every step. The orbit buffer grows with the steps
    run, not with ``max_iter``. A run stopped at ``max_iter`` gets an omega
    estimate of the final 20% of its orbit with ``cluster_eps = max(tol,
    1e-9)``.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("need at least one iteration")
    x = np.zeros(system.dim) if x0 is None else as_vector(x0, dim=system.dim)

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
        tol=float(tol),
        max_iter=int(max_iter),
        driver=driver,
        omega=omega,
        orbit=orbit,
    )


def gap_between(system, row_i, row_j):
    """Infimum distance between two row hyperplanes: zero unless the normals
    are parallel, then the offset difference along the common normal."""
    hi = system.row_hyperplane(row_i)
    hj = system.row_hyperplane(row_j)
    u = hi.normal / np.linalg.norm(hi.normal)
    v = hj.normal / np.linalg.norm(hj.normal)
    sign = 1.0 if float(u @ v) >= 0.0 else -1.0
    if float(np.linalg.norm(u - sign * v)) > PARALLEL_ANGLE_TOL:
        return 0.0
    ci = hi.offset / np.linalg.norm(hi.normal)
    cj = hj.offset / np.linalg.norm(hj.normal)
    return float(abs(ci - sign * cj))
