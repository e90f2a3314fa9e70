"""Scenario configs: JSON parsing/validation, the four preset figure
reproductions, and check execution.

A scenario bundles a system, a driver, run parameters, an optional reference
set, and a list of named checks. Configs are plain JSON; see the README for
the schema.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from . import drivers, geometry, ifs, omega
from .clouds import OMIT, PointCloud, Report
from .errors import IfsLabError

DEFAULT_CLUSTER_EPS = 1e-6
TRIANGLE_VERTICES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
SQUARE_CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))

# The keys each config object may hold besides its ``kind``: for an object
# with kinds, the keys that kind reads. A disjunctive or custom driver takes
# an ``alphabet``; a cyclic or iid one has the alphabet of its permutation or
# weights, or else the map count.
CONFIG_KEYS = ("name", "dim", "maps", "driver", "x0", "steps", "burn_in", "cluster_eps",
               "reference_set", "checks")
MAP_KEYS = {
    "hyperplane": ("normal", "offset"),
    "affine_subspace": ("constraints", "anchor", "basis", "directions"),
    "halfspace": ("normal", "offset"),
    "ball": ("center", "radius"),
    "box": ("lower", "upper"),
    "affine": ("matrix", "shift"),
}
# The map kinds whose keys, in MAP_KEYS order, are their constructor's arguments.
MAP_TYPES = {"hyperplane": geometry.Hyperplane, "halfspace": geometry.Halfspace,
             "ball": geometry.Ball, "box": geometry.Box, "affine": ifs.AffineMap}
CONSTRAINT_KEYS = ("normals", "offsets")
DRIVER_KEYS = {
    "cyclic": ("permutation",),
    "iid": ("seed", "weights"),
    "disjunctive": ("alphabet",),
    "custom": ("symbols", "alphabet"),
}
REFERENCE_KEYS = {
    "points": ("points",),
    "square_corners": (),
    "triangle_boundary": ("vertices", "spacing"),
}
CHECK_KEYS = {
    "invariance": ("tol",),
    "superinvariance": ("tol",),
    "monotone_distance": ("slack",),
    "compare_omegas": ("tol", "driver"),
    "matches_reference": ("tol",),
}


class ScenarioError(IfsLabError, ValueError):
    """A scenario config value or a command-line input failed validation."""


def _require(cond, where, message):
    if not cond:
        raise ScenarioError(f"{where}: {message}")


@contextmanager
def _at(where):
    """Turn a ``KeyError``, ``TypeError``, ``ValueError`` or :class:`IfsLabError`
    raised while an outside value is read (a config key, a command-line option)
    into a :class:`ScenarioError` naming ``where``. A ``ScenarioError`` passes."""
    try:
        yield
    except ScenarioError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing required key {exc}") from exc
    except (TypeError, ValueError, IfsLabError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _object(value, where, keys):
    """``value``, if it is a dict whose keys are all among ``keys``."""
    _require(isinstance(value, dict), where, f"expected a JSON object, got {type(value).__name__}")
    for key in value:
        _require(key in keys, where, f"unknown key {key!r}")
    return value


def _kind(value, where, what, keys_by_kind):
    """The ``kind`` of a JSON object ``value``, if ``keys_by_kind`` has it and
    ``value`` holds no key besides ``kind`` that this kind does not read."""
    _require(isinstance(value, dict), where, f"expected a JSON object, got {type(value).__name__}")
    kind = value["kind"]
    _require(isinstance(kind, str) and kind in keys_by_kind, where,
             f"unknown {what} kind {kind!r}")
    _object(value, where, ("kind",) + keys_by_kind[kind])
    return kind


def _number(d, key, where, default=None, integer=False, low=0):
    """``d[key]``, required unless a ``default`` is given: an integral JSON
    number as an ``int`` if ``integer``, else a finite one as a ``float``, and
    at least ``low``. Anything else raises :class:`ScenarioError` naming the
    key; a missing key raises ``KeyError`` for the caller's :func:`_at`."""
    value = d[key] if default is None else d.get(key, default)
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = value.is_integer() if integer else isfinite(value)
    if not (ok and value >= low):
        kind = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{where}.{key}: need {kind} of at least {low}, got {value!r}")
    return int(value) if integer else float(value)


def _numbers(d, key, where, default=None):
    """``d[key]``, required unless a ``default`` is given: a JSON number or
    nested lists of them. A string, boolean, ``null`` or object anywhere in
    it raises :class:`ScenarioError` naming the key; a missing key raises
    ``KeyError`` for the caller's :func:`_at`."""
    value = d[key] if default is None else d.get(key, default)
    todo = [value]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(reversed(item))
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ScenarioError(f"{where}: {key} must hold only numbers, got {item!r}")
    return value


def map_from_dict(d, where):
    with _at(where):
        kind = _kind(d, where, "map", MAP_KEYS)

        def num(key, default=None):
            return _numbers(d, key, where, default)

        if kind in MAP_TYPES:
            return MAP_TYPES[kind](*map(num, MAP_KEYS[kind]))
        if "constraints" in d:  # an affine_subspace from here on
            c = _object(d["constraints"], f"{where}.constraints", CONSTRAINT_KEYS)
            return geometry.AffineSubspace.from_constraints(
                _numbers(c, "normals", f"{where}.constraints"),
                _numbers(c, "offsets", f"{where}.constraints"))
        if "basis" in d:
            return geometry.AffineSubspace(num("anchor"), np.asarray(num("basis"), dtype=float))
        return geometry.AffineSubspace.spanned_by(num("anchor"), num("directions", []))


def driver_from_dict(d, n_maps, where, alphabet=None):
    """Build a driver spec over ``n_maps`` maps (None: no bound). Unless a
    permutation or weights give it, its alphabet size is ``d["alphabet"]``
    (disjunctive and custom drivers), else ``alphabet``, else ``n_maps``;
    with none, drivers that need one fail. An alphabet past ``n_maps`` fails."""
    with _at(where):
        kind = _kind(d, where, "driver", DRIVER_KEYS)
        n = _number(d, "alphabet", where, integer=True, low=1) if "alphabet" in d \
            else n_maps if alphabet is None else alphabet

        def size(needs):
            _require(n is not None, where, f"{kind} driver needs {needs}")
            return n

        if kind == "cyclic" and "permutation" in d:
            driver = drivers.Cyclic(_numbers(d, "permutation", where))
        elif kind == "cyclic":
            driver = drivers.Cyclic(tuple(range(1, size("a permutation or an alphabet size") + 1)))
        elif kind == "iid" and "weights" in d:
            driver = drivers.IidRandom(d["seed"], _numbers(d, "weights", where))
        elif kind == "iid":
            driver = drivers.IidRandom.uniform(d["seed"], size("weights or an alphabet size"))
        elif kind == "disjunctive":
            driver = drivers.DisjunctiveEnumeration(size("an alphabet size"))
        else:
            driver = drivers.Custom(_numbers(d, "symbols", where), n)
        _require(n_maps is None or driver.n_symbols <= n_maps, where,
                 f"driver alphabet {driver.n_symbols} exceeds map count {n_maps}")
        return driver


def _lasting(driver, steps, where):
    """``driver``, if it gives the ``steps`` symbols of a run."""
    held = len(driver.symbols) if isinstance(driver, drivers.Custom) else steps
    _require(held >= steps, where, f"custom driver holds {held} symbols, the run takes {steps}")
    return driver


def reference_from_dict(d, where):
    """Build ``(cloud, exact_or_none)`` from a reference description."""
    with _at(where):
        kind = _kind(d, where, "reference", REFERENCE_KEYS)
        if kind == "points":
            return PointCloud(_numbers(d, "points", where)), None
        if kind == "square_corners":
            return PointCloud(np.asarray(SQUARE_CORNERS)), None
        if kind == "triangle_boundary":
            vertices = np.asarray(_numbers(d, "vertices", where, TRIANGLE_VERTICES), dtype=float)
            _require(vertices.shape == (3, 2), where, "triangle_boundary needs three 2-d vertices")
            spacing = _number(d, "spacing", where, default=5e-3)
            _require(spacing > 0, where, "spacing must be positive")
            segments = omega.SegmentSet(vertices, np.roll(vertices, -1, axis=0))
            return PointCloud(segments.sample_points(spacing)), segments


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
    with _at("config"):
        name = _object(config, "config", CONFIG_KEYS).get("name", "scenario")
        _require(isinstance(name, str) and name not in ("", ".", "..")
                 and not any(c in name for c in "/\\\0"), "config.name",
                 f"need a nonempty file stem without a path separator, got {name!r}")
        dim = _number(config, "dim", "config", integer=True, low=1)

        raw_maps = config["maps"]
        _require(isinstance(raw_maps, list) and raw_maps, "config.maps", "need at least one map")
        maps = tuple(map_from_dict(m, f"config.maps[{i}]") for i, m in enumerate(raw_maps))
        with _at("config.maps"):
            system = ifs.IFSystem(maps, dim)

        driver = driver_from_dict(config["driver"], system.n_maps, "config.driver")

        x0 = _numbers(config, "x0", "config")
        with _at("config.x0"):
            x0 = geometry.as_vector(x0, dim=dim)

        steps = _number(config, "steps", "config", integer=True, low=1)
        _lasting(driver, steps, "config.driver")
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

        raw_checks = config.get("checks", [])
    _require(isinstance(raw_checks, list), "config.checks", "expected a list of checks")
    checks = []
    for i, c in enumerate(raw_checks):
        where = f"config.checks[{i}]"
        with _at(where):
            kind = _kind(c, where, "check", CHECK_KEYS)
            norm = {"kind": kind}
            if kind in ("invariance", "superinvariance", "matches_reference", "compare_omegas"):
                norm["tol"] = _number(c, "tol", where)
            if kind == "monotone_distance":
                norm["slack"] = _number(c, "slack", where, default=1e-9)
            if kind in ("monotone_distance", "matches_reference"):
                _require(reference_cloud is not None, where,
                         f"{kind} needs a reference_set in the config")
            if kind == "compare_omegas":
                other = driver_from_dict(c["driver"], system.n_maps, f"{where}.driver")
                norm["driver"] = _lasting(other, steps, f"{where}.driver")
        checks.append(norm)

    return Scenario(
        name=name, system=system, driver=driver, x0=x0, steps=steps,
        burn_in=burn_in, cluster_eps=cluster_eps, checks=tuple(checks),
        reference_cloud=reference_cloud, reference_exact=reference_exact,
    )


@dataclass(frozen=True, eq=False)
class ScenarioResult(Report):
    """A scenario run; its JSON is the run report. Each entry of ``checks``
    is ``{"kind", "passed", <the fields of the report the check ran>}``."""

    name: str
    parameters: dict
    max_norm: float
    representative_count: int
    checks: tuple
    passed: bool
    orbit: ifs.Orbit = field(metadata=OMIT)
    estimate: omega.OmegaEstimate = field(metadata=OMIT)


def _run_check(scenario, check, orbit_result, estimate):
    """The run report's entry for one check."""
    kind = check["kind"]
    if kind in ("invariance", "superinvariance"):
        rep = omega.check_invariance(scenario.system, estimate.representatives, check["tol"])
        passed = rep.invariant if kind == "invariance" else rep.superinvariant
        return {"kind": kind, "passed": passed, **rep.to_dict()}
    if kind == "matches_reference":
        dist = omega.hausdorff(estimate.representatives, scenario.reference_cloud)
        return {"kind": kind, "passed": dist <= check["tol"], "distance": dist,
                "tolerance": check["tol"]}
    if kind == "monotone_distance":
        ref = scenario.reference_exact if scenario.reference_exact is not None \
            else scenario.reference_cloud
        rep = omega.check_monotone_distance(orbit_result, ref, system=scenario.system,
                                            base_slack=check["slack"])
        return {"kind": kind, "passed": rep.passed, **rep.to_dict()}
    if kind == "compare_omegas":
        other = ifs.run_orbit(scenario.system, scenario.x0, check["driver"], scenario.steps)
        other_est = omega.estimate_omega(other, scenario.burn_in, scenario.cluster_eps,
                                         driver=check["driver"])
        rep = omega.compare_omegas(estimate, other_est, check["tol"])
        return {"kind": kind, "passed": rep.passed, **rep.to_dict(),
                "other_driver": drivers.describe_driver(check["driver"])}


def run_scenario(scenario):
    """Run the orbit, estimate omega, and execute every requested check."""
    orbit_result = ifs.run_orbit(scenario.system, scenario.x0, scenario.driver, scenario.steps)
    estimate = omega.estimate_omega(orbit_result, scenario.burn_in, scenario.cluster_eps,
                                    driver=scenario.driver)
    checks = tuple(_run_check(scenario, c, orbit_result, estimate) for c in scenario.checks)
    return ScenarioResult(
        name=scenario.name,
        parameters={"steps": scenario.steps, "burn_in": scenario.burn_in,
                    "cluster_eps": scenario.cluster_eps, "x0": scenario.x0.tolist(),
                    "driver": drivers.describe_driver(scenario.driver)},
        max_norm=float(np.linalg.norm(orbit_result.points, axis=1).max()),
        representative_count=estimate.representatives.size,
        checks=checks,
        passed=all(c["passed"] for c in checks),
        orbit=orbit_result, estimate=estimate,
    )


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
