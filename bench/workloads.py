"""The three benchmark workloads: ``presets``, ``kaczmarz`` and ``ensemble``.

Each workload is built from a seed into a list of tasks, which one round runs
in order. A task's ``run`` is
the timed work and calls the library only through its public entry points,
looked up on the module at call time so that a traced run sees the wrapped
functions. A task's ``check`` is untimed: it compares the output with a known
answer and digests it, so that rounds, runs and traced runs can be compared
bit for bit. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

# kaczmarz: consistent solves as the CLI runs them by default, to the stated
# accuracy; inconsistent solves to a fixed horizon.
CONSISTENT_DIMS = (20, 30, 40, 50)
CONSISTENT_PER_CELL = 8
CONSISTENT_TOL = 1e-6
CONSISTENT_MAX_ITER = 100_000
ORACLE_TOL = 1e-4
INCONSISTENT_SHAPES = ((200, 50), (100, 10))
INCONSISTENT_NOISE = 0.05
INCONSISTENT_TOL = 1e-9
INCONSISTENT_MAX_ITER = 10_000

# ensemble: members per system and the length of each member's orbit.
MEMBERS = 8
MEMBER_STEPS = 10_000
BOUNDARY_TOL = 0.05
CORNER_TOL = 1e-9
FIXED_POINT_TOL = 1e-9
# Spread tolerances. Triangle members mix i.i.d. and enumeration drivers: a
# 10^4-step enumeration prefix covers the boundary only to about 0.06, so two
# members can differ by that much while each lies on the boundary. Square and
# mixed-system members share a finite omega-limit set and must agree to
# rounding.
SPREAD_TOL = {"triangle": 0.1, "square": CORNER_TOL, "mixed": FIXED_POINT_TOL}


@dataclass
class Outcome:
    """The checked result of one task in one round."""

    task: str
    ok: bool
    digest: str = ""
    steps: int = 0
    note: str = ""
    keep: Any = None  # handed to later tasks of the same round


@dataclass
class Task:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any], Outcome]
    sampled: bool = True  # its time counts into task_mean_norm_s


def digest(*parts):
    """SHA-256 over arrays (their float64/int64 bytes) and byte strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def segment_distance(points, starts, ends):
    """Distance from each point to the union of segments; the benchmark's own
    oracle, independent of ``omega.SegmentSet``."""
    p = np.asarray(points, dtype=float)[:, None, :]
    d = ends - starts
    t = np.clip(np.einsum("mkj,kj->mk", p - starts, d) / np.einsum("kj,kj->k", d, d), 0.0, 1.0)
    return np.linalg.norm(p - (starts + t[:, :, None] * d), axis=2).min(axis=1)


def triangle_boundary_distance(points):
    return segment_distance(points, TRIANGLE, np.roll(TRIANGLE, -1, axis=0))


def _fail(task, note):
    return Outcome(task, False, note=note)


# --- presets ---------------------------------------------------------------

PRESET_COUNTS = {"example1_intersecting": 1, "example2_parallel": 2, "example3_square": 4}


def _seeded_preset(config, rng):
    """Move the start (and the comparison driver's seed) without changing the
    preset's known answer."""
    name = config["name"]
    if name == "example1_intersecting":
        direction = rng.standard_normal(2)
        config["x0"] = (rng.uniform(1.0, 3.0) * direction / np.linalg.norm(direction)).tolist()
    elif name == "example2_parallel":
        config["x0"] = [0.0, float(rng.uniform(0.05, 0.95))]
    elif name == "example3_square":
        config["x0"] = rng.uniform(0.05, 0.95, 2).tolist()
    elif name == "example4_triangle":
        config["x0"] = (rng.dirichlet([2.0, 2.0, 2.0]) @ TRIANGLE).tolist()
        for check in config["checks"]:
            if check["kind"] == "compare_omegas":
                check["driver"]["seed"] = int(rng.integers(1, 2**31))
    return config


def _run_preset(lib, config_path, out_dir, name, burn_in, eps, done):
    orbit_csv = out_dir / f"{name}.orbit.csv"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        run_code = lib.cli.main(["run", str(config_path), "--out-dir", str(out_dir)])
        omega_code = lib.cli.main(["omega", str(orbit_csv), "--burn-in", str(burn_in),
                                   "--eps", repr(eps),
                                   "--out", str(out_dir / f"{name}.recluster.json")])
    return run_code, omega_code, printed.getvalue()


def _check_preset(out_dir, name, steps, raw):
    run_code, omega_code, printed = raw
    if (run_code, omega_code) != (0, 0):
        return _fail(name, f"exit codes {run_code}, {omega_code}: {printed.strip()}")
    report = json.loads((out_dir / f"{name}.report.json").read_text())
    reps = json.loads((out_dir / f"{name}.omega.json").read_text())["representatives"]
    again = json.loads((out_dir / f"{name}.recluster.json").read_text())["representatives"]
    failed = [c["kind"] for c in report["checks"] if not c["passed"]]
    if failed or not report["passed"]:
        return _fail(name, f"checks failed: {failed}")
    if report["representative_count"] != len(reps):
        return _fail(name, "report and omega JSON disagree on the representative count")
    want = PRESET_COUNTS.get(name)
    if want is not None and len(reps) != want:
        return _fail(name, f"{len(reps)} representatives, expected {want}")
    if name == "example4_triangle":
        far = float(triangle_boundary_distance(reps).max())
        if far > BOUNDARY_TOL:
            return _fail(name, f"representative {far:.3g} from the triangle boundary")
    if again != reps:
        return _fail(name, "`ifslab omega` re-cluster differs from the run's representatives")
    orbit_bytes = (out_dir / f"{name}.orbit.csv").read_bytes()
    return Outcome(name, True, digest(orbit_bytes, json.dumps(reps).encode()), steps)


def presets(lib, rng, workdir):
    tasks = []
    for name in lib.scenarios.PRESET_NAMES:
        config = _seeded_preset(lib.scenarios.preset_config(name), rng)
        config_path = workdir / f"{name}.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        out_dir = workdir / "out"
        reruns = sum(c["kind"] == "compare_omegas" for c in config["checks"])
        steps = config["steps"] * (1 + reruns)
        tasks.append(Task(
            name,
            partial(_run_preset, lib, config_path, out_dir, name,
                    config["burn_in"], config["cluster_eps"]),
            partial(_check_preset, out_dir, name, steps)))
    return tasks


# --- kaczmarz ----------------------------------------------------------------

def consistent_system(rng, d):
    """Square, row-normalized, singular values 1..5 before normalization, as
    in acceptance criterion 9; returns ``(a, b)``."""
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = q1 @ np.diag(np.linspace(1.0, 5.0, d)) @ q2.T
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a, a @ rng.standard_normal(d)


def inconsistent_system(rng, m, d):
    a = rng.standard_normal((m, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a, a @ rng.standard_normal(d) + INCONSISTENT_NOISE * rng.standard_normal(m)


def _driver(lib, rng, kind, n):
    if kind == "iid":
        return lib.drivers.IidRandom.uniform(int(rng.integers(1, 2**31)), n)
    return lib.drivers.Cyclic(tuple(range(1, n + 1)))


def _solve(lib, system, driver, tol, max_iter, done):
    return lib.kaczmarz.solve(system, driver, tol=tol, max_iter=max_iter)


def _check_consistent(name, system, report):
    oracle = np.linalg.solve(system.coefficients, system.rhs)
    err = float(np.linalg.norm(report.final_point - oracle))
    if not (report.converged and report.residual <= CONSISTENT_TOL):
        return _fail(name, f"not converged: residual {report.residual:.3g} "
                           f"after {report.iterations} iterations")
    if err > ORACLE_TOL:
        return _fail(name, f"|x - oracle| = {err:.3g}")
    return Outcome(name, True, digest(report.orbit.points, report.orbit.symbols),
                   report.iterations)


def _check_inconsistent(name, system, cyclic, report):
    if report.converged or report.iterations != INCONSISTENT_MAX_ITER or report.omega is None:
        return _fail(name, f"expected a run to max_iter with an omega estimate, got "
                           f"{report.iterations} iterations, converged={report.converged}")
    reps = report.omega.representatives.points
    # Cyclic Kaczmarz on an inconsistent system settles on a limit cycle with
    # one point per row.
    if cyclic and len(reps) != system.n_rows:
        return _fail(name, f"{len(reps)} omega points, expected a {system.n_rows}-cycle")
    return Outcome(name, True, digest(report.orbit.points, report.orbit.symbols, reps),
                   report.iterations)


def kaczmarz(lib, rng, workdir):
    tasks = []
    for d in CONSISTENT_DIMS:
        for kind in ("iid", "cyclic"):
            for k in range(CONSISTENT_PER_CELL):
                name = f"consistent-d{d}-{kind}-{k}"
                system = lib.kaczmarz.LinearSystem(*consistent_system(rng, d))
                driver = _driver(lib, rng, kind, d)
                tasks.append(Task(
                    name,
                    partial(_solve, lib, system, driver, CONSISTENT_TOL, CONSISTENT_MAX_ITER),
                    partial(_check_consistent, name, system)))
    for m, d in INCONSISTENT_SHAPES:
        for kind in ("iid", "cyclic"):
            name = f"inconsistent-{m}x{d}-{kind}"
            system = lib.kaczmarz.LinearSystem(*inconsistent_system(rng, m, d))
            driver = _driver(lib, rng, kind, m)
            tasks.append(Task(
                name,
                partial(_solve, lib, system, driver, INCONSISTENT_TOL, INCONSISTENT_MAX_ITER),
                partial(_check_inconsistent, name, system, kind == "cyclic"),
                sampled=False))
    return tasks


# --- ensemble ----------------------------------------------------------------

def _line(lib, normal, offset):
    return lib.ifs.HyperplaneProjection(lib.geometry.Hyperplane(normal, offset))


def _mixed_system(lib, rng):
    """Ball, box, plane and a 0.6-contraction in R^3 whose only common fixed
    point ``p`` lies in all three sets, so every orbit converges to ``p``."""
    g = lib.geometry
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    matrix = 0.6 * rot
    p = rng.uniform(-0.3, 0.3, 3)
    maps = (
        lib.ifs.ConvexProjection(g.Ball(np.zeros(3), 1.0)),
        lib.ifs.ConvexProjection(g.Box(np.full(3, -0.5), np.full(3, 0.8))),
        lib.ifs.SubspaceProjection(g.AffineSubspace.spanned_by(p, rng.standard_normal((2, 3)))),
        lib.ifs.AffineMap(matrix, p - matrix @ p),
    )
    return lib.ifs.IFSystem(maps, 3), p


def _member(lib, system, x0, driver, eps, window, invariance, done):
    orbit = lib.ifs.run_orbit(system, x0, driver, MEMBER_STEPS)
    estimate = lib.omega.estimate_omega(orbit, MEMBER_STEPS // 10, eps, driver=driver)
    audit = lib.drivers.check_disjunctive(orbit.symbols, window, alphabet_size=system.n_maps)
    inv = None
    if invariance:
        inv = lib.omega.check_invariance(system, estimate.representatives, FIXED_POINT_TOL)
    return orbit, estimate, audit, inv


def _check_member(name, kind, answer, raw):
    orbit, estimate, audit, inv = raw
    reps = estimate.representatives.points
    if not audit.complete:
        return _fail(name, f"audit incomplete: {audit.missing_count} of "
                           f"{audit.total_words} words missing")
    if kind == "triangle":
        far = float(triangle_boundary_distance(reps).max())
        if far > BOUNDARY_TOL:
            return _fail(name, f"representative {far:.3g} from the triangle boundary")
    elif kind == "square":
        pair = np.linalg.norm(reps[:, None, :] - SQUARE[None, :, :], axis=2)
        if len(reps) != 4 or pair.min(axis=1).max() > CORNER_TOL \
                or pair.min(axis=0).max() > CORNER_TOL:
            return _fail(name, f"{len(reps)} representatives are not the four corners")
    else:
        far = float(np.linalg.norm(reps - answer, axis=1).max())
        if far > FIXED_POINT_TOL or not inv.invariant:
            return _fail(name, f"representative {far:.3g} from the fixed point, "
                               f"invariance excess {inv.symmetric_excess:.3g}")
    return Outcome(name, True, digest(orbit.points, orbit.symbols, reps), orbit.n_steps,
                   keep=estimate.representatives)


def _spread(lib, members, done):
    clouds = [done[m] for m in members]
    return max(lib.omega.hausdorff(a, b)
               for i, a in enumerate(clouds) for b in clouds[i + 1:])


def _check_spread(name, tol, spread):
    note = f"hausdorff spread {spread!r}"
    if spread > tol:
        return _fail(name, f"{note} exceeds {tol}")
    return Outcome(name, True, digest(np.float64(spread)), note=note)


def ensemble(lib, rng, workdir):
    mixed, fixed_point = _mixed_system(lib, rng)
    systems = {
        # kind: (system, start sampler, cluster eps, audit window, known answer)
        "triangle": (lib.ifs.IFSystem((_line(lib, [0, 1], 0), _line(lib, [1, 1], 1),
                                       _line(lib, [1, 0], 0)), 2),
                     lambda: rng.dirichlet([2.0, 2.0, 2.0]) @ TRIANGLE, 1e-2, 5, None),
        "square": (lib.ifs.IFSystem((_line(lib, [1, 0], 1), _line(lib, [1, 0], 0),
                                     _line(lib, [0, 1], 1), _line(lib, [0, 1], 0)), 2),
                   lambda: rng.uniform(-1.0, 2.0, 2), 1e-6, 4, None),
        "mixed": (mixed, lambda: rng.uniform(-3.0, 3.0, 3), 1e-6, 4, fixed_point),
    }
    tasks = []
    for kind, (system, start, eps, window, answer) in systems.items():
        members = []
        for k in range(MEMBERS):
            name = f"{kind}-{k}"
            if k % 2 == 0:
                driver = lib.drivers.IidRandom.uniform(int(rng.integers(1, 2**31)), system.n_maps)
            else:
                driver = lib.drivers.DisjunctiveEnumeration(system.n_maps)
            tasks.append(Task(
                name,
                partial(_member, lib, system, start(), driver, eps, window, kind == "mixed"),
                partial(_check_member, name, kind, answer)))
            members.append(name)
        tasks.append(Task(f"{kind}-spread", partial(_spread, lib, members),
                          partial(_check_spread, f"{kind}-spread", SPREAD_TOL[kind]),
                          sampled=False))
    return tasks


WORKLOADS = {"presets": presets, "kaczmarz": kaczmarz, "ensemble": ensemble}


def build(name, lib, seed, workdir):
    """The named workload's tasks, with inputs generated from ``seed``."""
    rng = np.random.Generator(np.random.Philox(seed))
    return WORKLOADS[name](lib, rng, workdir)
