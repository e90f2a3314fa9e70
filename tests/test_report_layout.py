"""The JSON layout of every report the lab writes (omega, Kaczmarz, run and
audit): ``to_dict`` and the files the CLI writes against hand-written
oracles, one per report, which list every key in order."""

import json

import numpy as np
import pytest

from ifslab import (
    Cyclic,
    DisjunctiveEnumeration,
    Hyperplane,
    IFSystem,
    LinearSystem,
    PointCloud,
    check_invariance,
    check_minimality,
    check_monotone_distance,
    compare_omegas,
    estimate_omega,
    hausdorff,
    run_orbit,
    solve,
)
from ifslab.cli import main
from ifslab.drivers import check_disjunctive, check_repetitive, describe_driver, generate
from ifslab.scenarios import PRESET_NAMES, preset_config, run_scenario, scenario_from_dict


def estimate_oracle(self):
    return {
        "representatives": [[float(c) for c in p] for p in self.representatives.points],
        "burn_in": self.burn_in,
        "tail_length": self.tail_length,
        "cluster_eps": self.cluster_eps,
        "x0": [float(c) for c in self.x0],
        "driver": describe_driver(self.driver),
    }


def invariance_oracle(self):
    return {
        "forward_excess": self.forward_excess,
        "backward_excess": self.backward_excess,
        "symmetric_excess": self.symmetric_excess,
        "tolerance": self.tolerance,
        "subinvariant": self.subinvariant,
        "superinvariant": self.superinvariant,
        "invariant": self.invariant,
    }


def monotone_oracle(self):
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


def minimality_oracle(self):
    return {
        "hypothesis_met": self.hypothesis_met,
        "candidate_invariance": invariance_oracle(self.candidate_invariance),
        "min_distance": self.min_distance,
        "intersects": self.intersects,
        "containment_excess": self.containment_excess,
        "contains_omega": self.contains_omega,
        "note": self.note,
        "passed": self.passed,
    }


def comparison_oracle(self):
    return {"distance": self.distance, "tolerance": self.tolerance, "passed": self.passed}


def solve_oracle(self):
    return {
        "final_point": [float(c) for c in self.final_point],
        "residual": self.residual,
        "iterations": self.iterations,
        "converged": self.converged,
        "max_norm": self.max_norm,
        "tol": self.tol,
        "max_iter": self.max_iter,
        "driver": describe_driver(self.driver),
        "omega": estimate_oracle(self.omega) if self.omega is not None else None,
    }


def check_entry_oracle(scenario, check, result):
    """The run report's entry for one check: its kind, its verdict and the
    fields of the report it ran, recomputed from the scenario."""
    kind = check["kind"]
    if kind in ("invariance", "superinvariance"):
        rep = check_invariance(scenario.system, result.estimate.representatives, check["tol"])
        passed = rep.invariant if kind == "invariance" else rep.superinvariant
        return {"kind": kind, "passed": passed, **invariance_oracle(rep)}
    if kind == "matches_reference":
        dist = hausdorff(result.estimate.representatives, scenario.reference_cloud)
        return {"kind": kind, "passed": dist <= check["tol"], "distance": dist,
                "tolerance": check["tol"]}
    if kind == "monotone_distance":
        ref = scenario.reference_exact if scenario.reference_exact is not None \
            else scenario.reference_cloud
        rep = check_monotone_distance(result.orbit, ref, system=scenario.system,
                                      base_slack=check["slack"])
        return {"kind": kind, "passed": rep.passed, **monotone_oracle(rep)}
    other = run_orbit(scenario.system, scenario.x0, check["driver"], scenario.steps)
    other_est = estimate_omega(other, scenario.burn_in, scenario.cluster_eps,
                               driver=check["driver"])
    rep = compare_omegas(result.estimate, other_est, check["tol"])
    return {"kind": kind, "passed": rep.passed, **comparison_oracle(rep),
            "other_driver": describe_driver(check["driver"])}


def run_oracle(scenario, result):
    checks = [check_entry_oracle(scenario, c, result) for c in scenario.checks]
    return {
        "name": scenario.name,
        "parameters": {
            "steps": scenario.steps,
            "burn_in": scenario.burn_in,
            "cluster_eps": scenario.cluster_eps,
            "x0": [float(c) for c in scenario.x0],
            "driver": describe_driver(scenario.driver),
        },
        "max_norm": float(np.linalg.norm(result.orbit.points, axis=1).max()),
        "representative_count": result.estimate.representatives.size,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def disjunctivity_oracle(self):
    return {
        "window_length": self.window_length,
        "alphabet_size": self.alphabet_size,
        "total_words": self.total_words,
        "found": self.found,
        "missing_count": self.missing_count,
        "missing": [list(w) for w in self.missing],
        "prefix_length": self.prefix_length,
        "warning": self.warning,
        "complete": self.missing_count == 0,
    }


def repetition_oracle(self):
    return {
        "counts": {str(i + 1): c for i, c in enumerate(self.counts)},
        "absent": list(self.absent),
        "prefix_length": self.prefix_length,
    }


def json_text(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def assert_same_types(got, want, where="report"):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same_types(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_types(a, b, f"{where}[{i}]")


def assert_layout(report, oracle):
    got, want = report.to_dict(), oracle(report)
    assert got == want
    assert_same_types(got, want)
    assert json.dumps(got, indent=2, allow_nan=False) == json.dumps(want, indent=2,
                                                                    allow_nan=False)


def line(normal, offset):
    return Hyperplane(normal, offset)


SQUARE = IFSystem((line([1, 0], 1), line([1, 0], 0), line([0, 1], 1), line([0, 1], 0)), 2)
PARALLEL = IFSystem((line([0, 1], 0), line([0, 1], 1)), 2)
SQUARE_CORNERS = PointCloud.of([0, 0], [1, 0], [0, 1], [1, 1])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_reports_match_their_oracles(name):
    scenario = scenario_from_dict(preset_config(name))
    result = run_scenario(scenario)
    assert_layout(result.estimate, estimate_oracle)
    for check in scenario.checks:
        kind = check["kind"]
        if kind in ("invariance", "superinvariance"):
            assert_layout(check_invariance(scenario.system, result.estimate.representatives,
                                           check["tol"]), invariance_oracle)
        elif kind == "monotone_distance":
            ref = scenario.reference_exact if scenario.reference_exact is not None \
                else scenario.reference_cloud
            assert_layout(check_monotone_distance(result.orbit, ref, system=scenario.system,
                                                  base_slack=check["slack"]), monotone_oracle)
        elif kind == "compare_omegas":
            other = run_orbit(scenario.system, scenario.x0, check["driver"], scenario.steps)
            other_est = estimate_omega(other, scenario.burn_in, scenario.cluster_eps,
                                       driver=check["driver"])
            assert_layout(other_est, estimate_oracle)
            assert_layout(compare_omegas(result.estimate, other_est, check["tol"]),
                          comparison_oracle)


@pytest.mark.parametrize("driver, max_iter, converged", [
    (Cyclic((1, 2, 3)), 1000, True),
    (Cyclic((1, 2, 3)), 1, False),
    ([3, 1, 2] * 10, 30, True),
], ids=["converged", "max-iter", "list-driven"])
def test_solve_reports_match_their_oracle(driver, max_iter, converged):
    system = LinearSystem([[1, 0], [0, 1], [1, 1]], [1, 2, 3])
    report = solve(system, driver, tol=1e-12, max_iter=max_iter)
    assert report.converged == converged and (report.omega is None) == converged
    assert_layout(report, solve_oracle)


def test_minimality_reports_match_their_oracle():
    square_est = estimate_omega(
        run_orbit(SQUARE, [0.3, 0.7], DisjunctiveEnumeration(4), 2000), 200, 1e-6)
    meets = check_minimality(SQUARE, square_est, SQUARE_CORNERS, 1e-9)
    assert meets.intersects
    assert_layout(meets, minimality_oracle)
    lines_est = estimate_omega(run_orbit(PARALLEL, [0, 0.3], Cyclic((1, 2)), 100), 10, 1e-6)
    misses = check_minimality(PARALLEL, lines_est, PointCloud.of([7.0, 0.0], [7.0, 1.0]), 1e-9)
    assert not misses.intersects
    assert_layout(misses, minimality_oracle)


@pytest.mark.parametrize("system", [None, SQUARE], ids=["without-system", "with-system"])
def test_monotone_reports_match_their_oracle(system):
    orbit = run_orbit(SQUARE, np.array([3.0, -2.0]), DisjunctiveEnumeration(4), 500)
    assert_layout(check_monotone_distance(orbit, SQUARE_CORNERS, system=system), monotone_oracle)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_reports_match_their_oracle(tmp_path, capsys, name):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(preset_config(name)))
    assert main(["run", str(config), "--out-dir", str(tmp_path), "--no-svg"]) == 0
    capsys.readouterr()
    scenario = scenario_from_dict(preset_config(name))
    want = run_oracle(scenario, run_scenario(scenario))
    assert (tmp_path / f"{name}.report.json").read_text() == json_text(want)


@pytest.mark.parametrize("prefix, m, alphabet, complete", [
    (generate(DisjunctiveEnumeration(2), 34).tolist(), 3, None, True),
    ([1, 3], 3, 3, False),
], ids=["complete", "missing-warning-absent"])
def test_audit_reports_match_their_oracles(tmp_path, capsys, prefix, m, alphabet, complete):
    audit = check_disjunctive(prefix, m, alphabet_size=alphabet)
    counts = check_repetitive(prefix, alphabet_size=audit.alphabet_size)
    assert audit.complete is complete
    if not complete:
        assert audit.missing_count > len(audit.missing) and audit.warning and counts.absent
    assert_layout(audit, disjunctivity_oracle)
    assert_layout(counts, repetition_oracle)
    seq, out = tmp_path / "seq.txt", tmp_path / "audit.json"
    seq.write_text("".join(f"{s}\n" for s in prefix))
    options = ["--alphabet", str(alphabet)] if alphabet else []
    assert main(["driver", "audit", str(seq), "--m", str(m), *options, "--out", str(out)]) \
        == (0 if complete else 1)
    capsys.readouterr()
    assert out.read_text() == json_text({"disjunctivity": disjunctivity_oracle(audit),
                                         "repetition": repetition_oracle(counts)})
