"""Scenario configs: JSON parsing/validation, the four preset figure
reproductions, and check execution.

A scenario bundles a system, a driver, run parameters, an optional reference
set, and a list of named checks. Configs are plain JSON; see the README for
the schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import drivers, geometry, ifs, omega
from .clouds import PointCloud
from .errors import IfsLabError

DEFAULT_CLUSTER_EPS = 1e-6
TRIANGLE_VERTICES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
SQUARE_CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))

CHECK_KINDS = ("invariance", "superinvariance", "monotone_distance",
               "compare_omegas", "matches_reference")


class ScenarioError(IfsLabError, ValueError):
    """A scenario config failed validation."""


def _require(cond, where, message):
    if not cond:
        raise ScenarioError(f"{where}: {message}")


def _get(d, key, where, default=None, required=False):
    _require(isinstance(d, dict), where, f"expected a JSON object, got {type(d).__name__}")
    if key in d:
        return d[key]
    if required:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return default


def _number(d, key, where, default=None, integer=False, low=0):
    """``d[key]``, required unless a ``default`` is given: an integral JSON
    number as an ``int`` if ``integer``, else a finite one as a ``float``, and
    at least ``low``. Anything else raises :class:`ScenarioError` naming the
    key."""
    value = _get(d, key, where, default=default, required=default is None)
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = value.is_integer() if integer else isfinite(value)
    if not (ok and value >= low):
        kind = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{where}.{key}: need {kind} of at least {low}, got {value!r}")
    return int(value) if integer else float(value)


def map_from_dict(d, dim, where):
    kind = _get(d, "kind", where, required=True)
    try:
        if kind == "hyperplane":
            return geometry.Hyperplane(d["normal"], d["offset"])
        if kind == "affine_subspace":
            if "constraints" in d:
                c = d["constraints"]
                return geometry.AffineSubspace.from_constraints(c["normals"], c["offsets"])
            if "basis" in d:
                return geometry.AffineSubspace(d["anchor"], np.asarray(d["basis"], dtype=float))
            return geometry.AffineSubspace.spanned_by(d["anchor"], d.get("directions", []))
        if kind == "halfspace":
            return geometry.Halfspace(d["normal"], d["offset"])
        if kind == "ball":
            return geometry.Ball(d["center"], d["radius"])
        if kind == "box":
            return geometry.Box(d["lower"], d["upper"])
        if kind == "affine":
            return ifs.AffineMap(np.asarray(d["matrix"], dtype=float), d["shift"])
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing key {exc} for map kind {kind!r}") from exc
    except IfsLabError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown map kind {kind!r}")


def driver_from_dict(d, n_maps, where):
    """Build a driver spec over ``n_maps`` symbols. With ``n_maps`` None,
    drivers that need an alphabet size and are not given one fail."""
    kind = _get(d, "kind", where, required=True)

    def size(n, needs):
        _require(n is not None, where, f"{kind} driver needs {needs}")
        return n

    try:
        if kind == "cyclic":
            if "permutation" in d:
                return drivers.Cyclic(tuple(d["permutation"]))
            n_perm = size(n_maps, "a permutation or an alphabet size")
            return drivers.Cyclic(tuple(range(1, n_perm + 1)))
        if kind == "iid":
            seed = _get(d, "seed", where, required=True)
            if "weights" in d:
                return drivers.IidRandom(seed, tuple(d["weights"]))
            return drivers.IidRandom.uniform(seed, size(n_maps, "weights or an alphabet size"))
        if kind == "disjunctive":
            return drivers.DisjunctiveEnumeration(size(d.get("alphabet", n_maps),
                                                       "an alphabet size"))
        if kind == "custom":
            return drivers.Custom(tuple(d["symbols"]), d.get("alphabet", n_maps))
    except ScenarioError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing key {exc} for driver kind {kind!r}") from exc
    except (IfsLabError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown driver kind {kind!r}")


def reference_from_dict(d, where):
    """Build ``(cloud, exact_or_none)`` from a reference description."""
    kind = _get(d, "kind", where, required=True)
    try:
        if kind == "points":
            return PointCloud(_get(d, "points", where, required=True)), None
        if kind == "square_corners":
            return PointCloud(np.asarray(SQUARE_CORNERS)), None
        if kind == "triangle_boundary":
            vertices = np.asarray(d.get("vertices", TRIANGLE_VERTICES), dtype=float)
            _require(vertices.shape == (3, 2), where, "triangle_boundary needs three 2-d vertices")
            spacing = float(d.get("spacing", 5e-3))
            _require(spacing > 0, where, "spacing must be positive")
            segments = omega.SegmentSet(vertices, np.roll(vertices, -1, axis=0))
            return PointCloud(segments.sample_points(spacing)), segments
    except ScenarioError:
        raise
    except (IfsLabError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown reference kind {kind!r}")


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    system: ifs.IFSystem
    driver: object
    x0: np.ndarray
    steps: int
    burn_in: int
    cluster_eps: float
    checks: tuple
    reference_cloud: PointCloud = None
    reference_exact: omega.SegmentSet = None


def scenario_from_dict(config):
    """Validate a config dict and build the runnable scenario."""
    name = str(_get(config, "name", "config", default="scenario"))
    dim = _number(config, "dim", "config", integer=True, low=1)

    raw_maps = _get(config, "maps", "config", required=True)
    _require(isinstance(raw_maps, list) and raw_maps, "config.maps", "need at least one map")
    maps = tuple(map_from_dict(m, dim, f"config.maps[{i}]") for i, m in enumerate(raw_maps))
    try:
        system = ifs.IFSystem(maps, dim)
    except IfsLabError as exc:
        raise ScenarioError(f"config.maps: {exc}") from exc

    driver = driver_from_dict(_get(config, "driver", "config", required=True),
                              system.n_maps, "config.driver")
    _require(driver.n_symbols <= system.n_maps or isinstance(driver, drivers.Custom),
             "config.driver", f"driver alphabet {driver.n_symbols} exceeds map count {system.n_maps}")
    if isinstance(driver, drivers.Custom):
        _require(max(driver.symbols, default=1) <= system.n_maps, "config.driver",
                 "custom symbols exceed the map count")

    try:
        x0 = geometry.as_vector(_get(config, "x0", "config", required=True), dim=dim)
    except IfsLabError as exc:
        raise ScenarioError(f"config.x0: {exc}") from exc

    steps = _number(config, "steps", "config", integer=True, low=1)
    burn_in = _number(config, "burn_in", "config", default=steps // 10, integer=True)
    _require(burn_in <= steps, "config.burn_in", "burn-in must lie within the run")
    cluster_eps = _number(config, "cluster_eps", "config", default=DEFAULT_CLUSTER_EPS)
    _require(cluster_eps > 0, "config.cluster_eps", "cluster_eps must be positive")

    reference_cloud = reference_exact = None
    if "reference_set" in config:
        reference_cloud, reference_exact = reference_from_dict(
            config["reference_set"], "config.reference_set")
        _require(reference_cloud.dim == dim, "config.reference_set",
                 f"reference dimension {reference_cloud.dim} does not match {dim}")

    checks = []
    raw_checks = _get(config, "checks", "config", default=[])
    _require(isinstance(raw_checks, list), "config.checks", "expected a list of checks")
    for i, c in enumerate(raw_checks):
        where = f"config.checks[{i}]"
        kind = _get(c, "kind", where, required=True)
        _require(kind in CHECK_KINDS, where, f"unknown check kind {kind!r}")
        norm = {"kind": kind}
        if kind in ("invariance", "superinvariance", "matches_reference", "compare_omegas"):
            norm["tol"] = _number(c, "tol", where)
        if kind == "monotone_distance":
            norm["slack"] = _number(c, "slack", where, default=1e-9)
        if kind in ("monotone_distance", "matches_reference"):
            _require(reference_cloud is not None, where,
                     f"{kind} needs a reference_set in the config")
        if kind == "compare_omegas":
            norm["driver"] = driver_from_dict(_get(c, "driver", where, required=True),
                                              system.n_maps, f"{where}.driver")
        checks.append(norm)

    return Scenario(
        name=name, system=system, driver=driver, x0=x0, steps=steps,
        burn_in=burn_in, cluster_eps=cluster_eps, checks=tuple(checks),
        reference_cloud=reference_cloud, reference_exact=reference_exact,
    )


@dataclass(frozen=True)
class CheckOutcome:
    kind: str
    passed: bool
    details: dict

    def to_dict(self):
        return {"kind": self.kind, "passed": self.passed, **self.details}


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario: Scenario
    orbit: ifs.Orbit
    estimate: omega.OmegaEstimate
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def report_dict(self):
        return {
            "name": self.scenario.name,
            "parameters": {
                "steps": self.scenario.steps,
                "burn_in": self.scenario.burn_in,
                "cluster_eps": self.scenario.cluster_eps,
                "x0": [float(c) for c in self.scenario.x0],
                "driver": drivers.describe_driver(self.scenario.driver),
            },
            "max_norm": float(np.linalg.norm(self.orbit.points, axis=1).max()),
            "representative_count": self.estimate.representatives.size,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }


def _run_check(scenario, check, orbit_result, estimate):
    kind = check["kind"]
    if kind in ("invariance", "superinvariance"):
        rep = omega.check_invariance(scenario.system, estimate.representatives, check["tol"])
        passed = rep.invariant if kind == "invariance" else rep.superinvariant
        return CheckOutcome(kind, passed, rep.to_dict())
    if kind == "matches_reference":
        dist = omega.hausdorff(estimate.representatives, scenario.reference_cloud)
        return CheckOutcome(kind, dist <= check["tol"],
                            {"distance": dist, "tolerance": check["tol"]})
    if kind == "monotone_distance":
        ref = scenario.reference_exact if scenario.reference_exact is not None \
            else scenario.reference_cloud
        rep = omega.check_monotone_distance(orbit_result, ref, system=scenario.system,
                                            base_slack=check["slack"])
        return CheckOutcome(kind, rep.passed, rep.to_dict())
    if kind == "compare_omegas":
        other = ifs.run_orbit(scenario.system, scenario.x0, check["driver"], scenario.steps)
        other_est = omega.estimate_omega(other, scenario.burn_in, scenario.cluster_eps,
                                         driver=check["driver"])
        rep = omega.compare_omegas(estimate, other_est, check["tol"])
        details = rep.to_dict()
        details["other_driver"] = drivers.describe_driver(check["driver"])
        return CheckOutcome(kind, rep.passed, details)
    raise ScenarioError(f"unknown check kind {kind!r}")


def run_scenario(scenario):
    """Run the orbit, estimate omega, and execute every requested check."""
    orbit_result = ifs.run_orbit(scenario.system, scenario.x0, scenario.driver, scenario.steps)
    estimate = omega.estimate_omega(orbit_result, scenario.burn_in, scenario.cluster_eps,
                                    driver=scenario.driver)
    outcomes = tuple(_run_check(scenario, c, orbit_result, estimate) for c in scenario.checks)
    return ScenarioResult(scenario=scenario, orbit=orbit_result,
                          estimate=estimate, checks=outcomes)


def preset_config(name):
    """Config dict for one of the named figure presets."""
    presets = {
        "example1_intersecting": {
            "name": "example1_intersecting",
            "dim": 2,
            "maps": [
                {"kind": "hyperplane", "normal": [1.0, -1.0], "offset": 0.0},
                {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
            ],
            "driver": {"kind": "cyclic", "permutation": [2, 1]},
            "x0": [0.0, 2.0],
            "steps": 200,
            "burn_in": 150,
            "cluster_eps": 1e-6,
            "reference_set": {"kind": "points", "points": [[0.0, 0.0]]},
            "checks": [
                {"kind": "matches_reference", "tol": 1e-6},
                {"kind": "invariance", "tol": 1e-6},
                {"kind": "monotone_distance", "slack": 1e-9},
            ],
        },
        "example2_parallel": {
            "name": "example2_parallel",
            "dim": 2,
            "maps": [
                {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
                {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 1.0},
            ],
            "driver": {"kind": "cyclic", "permutation": [1, 2]},
            "x0": [0.0, 0.3],
            "steps": 100,
            "burn_in": 10,
            "cluster_eps": 1e-6,
            "reference_set": {"kind": "points", "points": [[0.0, 0.0], [0.0, 1.0]]},
            "checks": [
                {"kind": "matches_reference", "tol": 1e-12},
                {"kind": "invariance", "tol": 1e-9},
                {"kind": "monotone_distance", "slack": 1e-9},
            ],
        },
        "example3_square": {
            "name": "example3_square",
            "dim": 2,
            "maps": [
                {"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 1.0},
                {"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 0.0},
                {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 1.0},
                {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
            ],
            "driver": {"kind": "disjunctive"},
            "x0": [0.3, 0.7],
            "steps": 10_000,
            "burn_in": 1_000,
            "cluster_eps": 1e-6,
            "reference_set": {"kind": "square_corners"},
            "checks": [
                {"kind": "matches_reference", "tol": 1e-9},
                {"kind": "invariance", "tol": 1e-9},
                {"kind": "monotone_distance", "slack": 1e-9},
            ],
        },
        "example4_triangle": {
            "name": "example4_triangle",
            "dim": 2,
            "maps": [
                {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
                {"kind": "hyperplane", "normal": [1.0, 1.0], "offset": 1.0},
                {"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 0.0},
            ],
            "driver": {"kind": "disjunctive"},
            "x0": [0.2, 0.6],
            "steps": 100_000,
            "burn_in": 10_000,
            "cluster_eps": 1e-2,
            "reference_set": {"kind": "triangle_boundary", "spacing": 5e-3},
            "checks": [
                {"kind": "matches_reference", "tol": 0.05},
                {"kind": "invariance", "tol": 0.05},
                {"kind": "monotone_distance", "slack": 1e-9},
                {"kind": "compare_omegas", "tol": 0.05, "driver": {"kind": "iid", "seed": 101}},
            ],
        },
    }
    if name not in presets:
        raise ScenarioError(f"unknown preset {name!r}; available: {', '.join(sorted(presets))}")
    return presets[name]


PRESET_NAMES = ("example1_intersecting", "example2_parallel",
                "example3_square", "example4_triangle")
