"""Scenario configs, preset round trips, and the command-line surface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import (
    Cyclic,
    LinearSystem,
    Orbit,
    clouds,
    estimate_omega,
    fileio,
    run_orbit,
    solve,
)
from ifslab.cli import main
from ifslab.errors import EmptyCloudError, GeometryValidationError
from ifslab.geometry import AffineSubspace, Halfspace
from ifslab.scenarios import (
    PRESET_NAMES,
    ScenarioError,
    driver_from_dict,
    preset_config,
    run_scenario,
    scenario_from_dict,
)


def minimal_config(**overrides):
    config = {
        "name": "pair",
        "dim": 2,
        "maps": [
            {"kind": "hyperplane", "normal": [0, 1], "offset": 0.0},
            {"kind": "hyperplane", "normal": [0, 1], "offset": 1.0},
        ],
        "driver": {"kind": "cyclic"},
        "x0": [0.0, 0.3],
        "steps": 60,
        "burn_in": 10,
        "cluster_eps": 1e-6,
    }
    config.update(overrides)
    return config


def _mistype(config, path, value):
    """``config`` with the value at ``path`` (keys and list indices) replaced."""
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return config


def test_scenario_parses_and_runs():
    result = run_scenario(scenario_from_dict(minimal_config()))
    assert result.estimate.representatives.size == 2
    assert result.passed  # no checks requested


def test_scenario_checks_run():
    config = minimal_config(
        reference_set={"kind": "points", "points": [[0, 0], [0, 1]]},
        checks=[{"kind": "matches_reference", "tol": 1e-12},
                {"kind": "invariance", "tol": 1e-9},
                {"kind": "monotone_distance"}],
    )
    result = run_scenario(scenario_from_dict(config))
    assert result.passed
    report = result.to_dict()
    assert report["passed"] and len(report["checks"]) == 3


def test_scenario_failing_check():
    config = minimal_config(
        reference_set={"kind": "points", "points": [[9, 9]]},
        checks=[{"kind": "matches_reference", "tol": 1e-9}],
    )
    result = run_scenario(scenario_from_dict(config))
    assert not result.passed


@pytest.mark.parametrize("breakage,fragment", [
    ({"maps": []}, "at least one map"),
    ({"maps": [{"kind": "mystery"}]}, "unknown map kind"),
    ({"driver": {"kind": "cyclic", "permutation": [1, 2, 3]}}, "alphabet"),
    ({"driver": {"kind": "custom", "symbols": [1, 7]}}, "symbol"),
    ({"burn_in": 100}, "burn-in"),
    ({"checks": [{"kind": "monotone_distance"}]}, "reference_set"),
    ({"x0": [1.0]}, "x0"),
    # mistyped number fields name their key
    ({"dim": None}, "config.dim: need an integer"),
    ({"dim": [2]}, "config.dim: need an integer"),
    ({"steps": None}, "config.steps: need an integer"),
    ({"steps": 2.5}, "config.steps: need an integer"),
    ({"steps": "60"}, "config.steps: need an integer"),
    ({"steps": True}, "config.steps: need an integer"),
    ({"burn_in": -1}, "config.burn_in: need an integer of at least 0"),
    ({"cluster_eps": None}, "config.cluster_eps: need a finite number"),
    ({"cluster_eps": float("nan")}, "config.cluster_eps: need a finite number"),
    ({"cluster_eps": True}, "config.cluster_eps: need a finite number above 0, got True"),
    ({"cluster_eps": 10**400}, "config.cluster_eps: need a finite number above 0, got 1000"),
    ({"driver": {"kind": "iid", "seed": -1}},
     "config.driver: seed: need an integer of at least 0, got -1"),
    ({"checks": [{"kind": "invariance", "tol": None}]}, "config.checks[0].tol: need a finite"),
    ({"checks": [{"kind": "invariance", "tol": float("nan")}]}, "config.checks[0].tol: need"),
    ({"checks": [{"kind": "invariance", "tol": -1e-9}]}, "config.checks[0].tol: need"),
    ({"checks": [{"kind": "monotone_distance", "slack": [1e-9]}]}, "config.checks[0].slack"),
    ({"checks": [{"kind": "monotone_distance", "slack": float("inf")}]},
     "config.checks[0].slack"),
    ({"checks": ["invariance"]}, "config.checks[0]: expected a JSON object"),
    ({"checks": {"kind": "invariance"}}, "config.checks: expected a list"),
    # a name is a plain file stem
    ({"name": None}, "config.name: need a nonempty file stem"),
    ({"name": 3}, "config.name: need a nonempty file stem"),
    ({"name": ""}, "config.name: need a nonempty file stem"),
    ({"name": "."}, "config.name: need a nonempty file stem"),
    ({"name": ".."}, "config.name: need a nonempty file stem"),
    ({"name": "../escaped"}, "config.name: need a nonempty file stem"),
    ({"name": "a/b"}, "config.name: need a nonempty file stem"),
    ({"name": "a\\b"}, "config.name: need a nonempty file stem"),
    # a key that no kind of its object reads
    ({"burnin": 5}, "config: unknown key 'burnin'"),
    ({"maps": [{"kind": "hyperplane", "normal": [0, 1], "offset": 0.0, "normals": [[0, 1]]}]},
     "config.maps[0]: unknown key 'normals'"),
    ({"checks": [{"kind": "invariance", "tol": 1e-9, "tolerance": 1e-3}]},
     "config.checks[0]: unknown key 'tolerance'"),
    # a key that only another kind of its object reads
    (_mistype(preset_config("example2_parallel"), ("checks", 2, "tol"), 1e-3),
     "config.checks[2]: unknown key 'tol'"),
    (_mistype(preset_config("example2_parallel"), ("maps", 0, "radius"), 5),
     "config.maps[0]: unknown key 'radius'"),
    (_mistype(preset_config("example2_parallel"), ("checks", 1, "slack"), 1.0),
     "config.checks[1]: unknown key 'slack'"),
    (_mistype(preset_config("example2_parallel"), ("checks", 1, "driver"), {"kind": "bogus"}),
     "config.checks[1]: unknown key 'driver'"),
    (_mistype(preset_config("example2_parallel"), ("driver", "weights"), [0.5, 0.5]),
     "config.driver: unknown key 'weights'"),
    (_mistype(preset_config("example2_parallel"), ("reference_set", "spacing"), 5e-3),
     "config.reference_set: unknown key 'spacing'"),
    # a custom driver shorter than the run, as the run's driver or a check's
    ({"driver": {"kind": "custom", "symbols": [1, 2]}},
     "config.driver: custom driver holds 2 symbols, the run takes 60"),
    ({"checks": [{"kind": "compare_omegas", "tol": 1e-6,
                  "driver": {"kind": "custom", "symbols": [1, 2] * 29}}]},
     "config.checks[0].driver: custom driver holds 58 symbols, the run takes 60"),
])
def test_scenario_validation_errors(breakage, fragment):
    config = minimal_config(**breakage)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(config)
    assert fragment.lower() in str(err.value).lower()


@pytest.mark.parametrize("spec, expected", [
    ({"kind": "affine_subspace", "anchor": [0, 1], "basis": [[0.6, 0.8]]},
     AffineSubspace.spanned_by([0, 1], [[3, 4]])),
    ({"kind": "halfspace", "normal": [1, 1], "offset": 0.5}, Halfspace([1, 1], 0.5)),
], ids=["subspace-basis", "halfspace"])
def test_config_maps_build_their_sets(spec, expected):
    scenario = scenario_from_dict(minimal_config(maps=[{"kind": "hyperplane", "normal": [0, 1],
                                                        "offset": 0.0}, spec]))
    got = scenario.system.maps[1]
    points = np.array([[0.3, 0.7], [-2.0, 5.0], [4.0, -1.5]])
    assert type(got) is type(expected) and np.array_equal(got.apply(points),
                                                          expected.apply(points))
    assert run_scenario(scenario).passed


@pytest.mark.parametrize("reference", [
    {"kind": "points", "points": []},
    {"kind": "points", "points": [[0.0, float("nan")]]},
    {"kind": "triangle_boundary", "vertices": [[0, 0], [1, 0], [0, float("inf")]]},
    # finite vertices whose sides are longer than float64 holds
    {"kind": "triangle_boundary", "vertices": [[0, 0], [1e308, 0], [0, 1e308]]},
])
def test_reference_set_errors_name_the_config_key(reference):
    with pytest.raises(ScenarioError, match=r"^config\.reference_set: "):
        scenario_from_dict(minimal_config(reference_set=reference))


HYPERPLANE = {"kind": "hyperplane", "normal": [0, 1], "offset": 0.0}


@pytest.mark.parametrize("breakage, prefix", [
    ({"maps": [{**HYPERPLANE, "normal": ["0", True]}, HYPERPLANE]}, "config.maps[0]: normal"),
    ({"maps": [{**HYPERPLANE, "normal": [0, True]}, HYPERPLANE]}, "config.maps[0]: normal"),
    ({"maps": [HYPERPLANE, {**HYPERPLANE, "offset": "1"}]}, "config.maps[1]: offset"),
    ({"maps": [HYPERPLANE, {**HYPERPLANE, "offset": False}]}, "config.maps[1]: offset"),
    ({"maps": [HYPERPLANE, {"kind": "ball", "center": ["0", 0], "radius": 1}]},
     "config.maps[1]: center"),
    ({"maps": [HYPERPLANE, {"kind": "box", "lower": [0, 0], "upper": [True, 1]}]},
     "config.maps[1]: upper"),
    ({"maps": [HYPERPLANE, {"kind": "affine", "matrix": [[0.5, "0"], [0, 0.5]],
                            "shift": [0, 0]}]}, "config.maps[1]: matrix"),
    ({"maps": [HYPERPLANE, {"kind": "affine_subspace", "anchor": [0, 0],
                            "directions": [[1, None]]}]}, "config.maps[1]: directions"),
    ({"maps": [HYPERPLANE, {"kind": "affine_subspace", "constraints": {
        "normals": [[0, 1]], "offsets": ["1"]}}]}, "config.maps[1].constraints: offsets"),
    ({"x0": ["0.1", False]}, "config: x0"),
    ({"x0": [0.0, {"y": 0.3}]}, "config: x0"),
    ({"driver": {"kind": "cyclic", "permutation": [True, 2]}}, "config.driver: permutation"),
    ({"driver": {"kind": "iid", "seed": 1, "weights": ["0.5", 0.5]}},
     "config.driver: weights"),
    ({"driver": {"kind": "custom", "symbols": [1, True, 2]}}, "config.driver: symbols"),
    ({"reference_set": {"kind": "points", "points": [[0, 0], [0, "1"]]}},
     "config.reference_set: points"),
    ({"reference_set": {"kind": "triangle_boundary",
                        "vertices": [[0, 0], [1, 0], [0, True]]}},
     "config.reference_set: vertices"),
], ids=["normal-string", "normal-bool", "offset-string", "offset-bool", "ball-center",
        "box-upper", "affine-matrix", "directions-null", "constraint-offsets", "x0-string",
        "x0-object", "permutation-bool", "weights-string", "symbols-bool", "points-string",
        "vertices-bool"])
def test_config_arrays_hold_only_numbers(tmp_path, capsys, breakage, prefix):
    config = minimal_config(**breakage)
    with pytest.raises(ScenarioError, match="^" + re.escape(prefix) + " must hold only numbers"):
        scenario_from_dict(config)
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps(config))
    assert main(["run", str(conf), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + prefix) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _leaves(value, path=()):
    """The paths (keys and list indices) of every JSON leaf under ``value``."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _leaves(v, (*path, k))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _leaves(v, (*path, i))]
    return [path]


def _config_path(path):
    return "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


PRESET_LEAVES = [(name, path) for name in PRESET_NAMES
                 for path in _leaves(preset_config(name))]
MISTYPED = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.integers(-2, 5), st.floats(), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 5), max_size=2))


@settings(max_examples=300, deadline=None)
@given(leaf=st.sampled_from(PRESET_LEAVES), value=MISTYPED)
def test_a_mistyped_config_value_is_named_or_accepted(leaf, value):
    name, path = leaf
    try:
        scenario_from_dict(_mistype(preset_config(name), path, value))
    except ScenarioError as exc:
        where = str(exc).split(": ", 1)[0]
        assert any(where == _config_path(path[:k]) for k in range(len(path) + 1)), str(exc)


def test_presets_parse_and_small_ones_pass():
    for name in PRESET_NAMES:
        scenario_from_dict(preset_config(name))  # self-validating
    for name in ("example1_intersecting", "example2_parallel", "example3_square"):
        result = run_scenario(scenario_from_dict(preset_config(name)))
        assert result.passed, f"{name} checks failed"


def test_cli_run_emits_files_and_roundtrips(tmp_path, capsys):
    config_path = tmp_path / "ex2.json"
    config_path.write_text(json.dumps(preset_config("example2_parallel")))
    rc = main(["run", str(config_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check matches_reference: pass" in out

    orbit_csv = tmp_path / "out" / "example2_parallel.orbit.csv"
    omega_json = tmp_path / "out" / "example2_parallel.omega.json"
    svg = tmp_path / "out" / "example2_parallel.svg"
    report_json = tmp_path / "out" / "example2_parallel.report.json"
    for path in (orbit_csv, omega_json, svg, report_json):
        assert path.exists()

    # round trip: re-clustering the orbit dump reproduces the representatives
    # bit for bit
    rc = main(["omega", str(orbit_csv), "--burn-in", "10", "--eps", "1e-6",
               "--out", str(tmp_path / "re.json")])
    assert rc == 0
    original = json.loads(omega_json.read_text())
    redone = json.loads((tmp_path / "re.json").read_text())
    assert redone["representatives"] == original["representatives"]
    # without --out, omega prints the JSON it would write
    capsys.readouterr()
    assert main(["omega", str(orbit_csv), "--burn-in", "10", "--eps", "1e-6"]) == 0
    assert capsys.readouterr().out == (tmp_path / "re.json").read_text()

    report = json.loads(report_json.read_text())
    assert report["passed"] is True
    assert svg.read_text().startswith("<svg")

    # --no-svg writes the same files, less the SVG
    rc = main(["run", str(config_path), "--out-dir", str(tmp_path / "plain"), "--no-svg"])
    assert rc == 0
    assert sorted(p.name for p in (tmp_path / "plain").iterdir()) == sorted(
        p.name for p in (orbit_csv, omega_json, report_json))
    for path in (orbit_csv, omega_json, report_json):
        assert (tmp_path / "plain" / path.name).read_bytes() == path.read_bytes()


def test_cli_run_exit_one_on_check_failure(tmp_path):
    config = minimal_config(
        reference_set={"kind": "points", "points": [[9, 9]]},
        checks=[{"kind": "matches_reference", "tol": 1e-9}],
    )
    path = tmp_path / "bad_ref.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1


def test_cli_run_exit_two_on_invalid_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "line" in capsys.readouterr().err

    path2 = tmp_path / "bad_symbol.json"
    path2.write_text(json.dumps(minimal_config(
        driver={"kind": "custom", "symbols": [1, 9]})))
    assert main(["run", str(path2)]) == 2


def test_cli_run_exit_two_on_a_mistyped_number(tmp_path, capsys):
    path = tmp_path / "null_steps.json"
    path.write_text(json.dumps(minimal_config(steps=None)))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.steps: need an integer") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_nan_tolerances(tmp_path, capsys):
    sys_csv = tmp_path / "sys.csv"
    sys_csv.write_text("1,0,1\n0,1,2\n")
    assert main(["kaczmarz", str(sys_csv), "--tol", "nan"]) == 2
    assert "--tol: need a finite number above 0, got nan" in capsys.readouterr().err
    orbit_csv = tmp_path / "orbit.csv"
    orbit_csv.write_text(ORBIT_HEAD + "1,1,0.5,0.25\n")
    out = tmp_path / "omega.json"
    assert main(["omega", str(orbit_csv), "--burn-in", "0", "--eps", "nan",
                 "--out", str(out)]) == 2
    assert "--eps: need a finite number above 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_infinite_tolerances(tmp_path, capsys):
    sys_csv = tmp_path / "sys.csv"
    sys_csv.write_text("1,0,1\n0,1,2\n")
    out = tmp_path / "solve.json"
    assert main(["kaczmarz", str(sys_csv), "--tol", "inf", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol: need a finite number above 0, got inf" in captured.err
    assert not out.exists()
    orbit_csv = tmp_path / "orbit.csv"
    orbit_csv.write_text(ORBIT_HEAD + "1,1,0.5,0.25\n")
    out = tmp_path / "omega.json"
    assert main(["omega", str(orbit_csv), "--burn-in", "0", "--eps", "inf",
                 "--out", str(out)]) == 2
    assert "--eps: need a finite number above 0, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    (["kaczmarz", "SYSTEM", "--tol", "inf"], "--tol"),
    (["kaczmarz", "SYSTEM", "--tol", "0"], "--tol"),
    (["kaczmarz", "SYSTEM", "--max-iter", "0"], "--max-iter"),
    (["omega", "ORBIT", "--burn-in", "99", "--eps", "1e-6"], "--burn-in"),
    (["omega", "ORBIT", "--burn-in", "-1", "--eps", "1e-6"], "--burn-in"),
    (["omega", "ORBIT", "--burn-in", "0", "--eps", "inf"], "--eps"),
    (["omega", "ORBIT", "--burn-in", "0", "--eps", "-1"], "--eps"),
], ids=["tol-inf", "tol-zero", "max-iter-zero", "burn-in-past-the-orbit", "burn-in-negative",
        "eps-inf", "eps-negative"])
def test_cli_number_options_name_the_option(tmp_path, capsys, command, option):
    sys_csv, orbit_csv = tmp_path / "sys.csv", tmp_path / "orbit.csv"
    sys_csv.write_text("1,0,1\n0,1,2\n")
    orbit_csv.write_text(ORBIT_HEAD + "1,1,0.5,0.25\n")
    paths = {"SYSTEM": str(sys_csv), "ORBIT": str(orbit_csv)}
    assert main([paths.get(c, c) for c in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {option}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("preset, path, value, prefix", [
    ("example2_parallel", ("maps", 1, "offset"), None, "config.maps[1]: "),
    ("example2_parallel", ("maps", 1), {"kind": "ball", "center": [0, 0], "radius": None},
     "config.maps[1]: "),
    ("example2_parallel", ("maps", 0),
     {"kind": "affine_subspace", "anchor": [0, 0], "directions": None}, "config.maps[0]: "),
    ("example2_parallel", ("driver",), {"kind": "iid", "seed": None}, "config.driver: "),
    ("example2_parallel", ("driver", "permutation"), None, "config.driver: "),
    ("example2_parallel", ("driver", "permutation"), [1.5, 2], "config.driver: "),
    ("example4_triangle", ("reference_set", "spacing"), None,
     "config.reference_set.spacing: "),
    ("example4_triangle", ("checks", 3, "driver", "seed"), None, "config.checks[3].driver: "),
    ("example2_parallel", ("name",), None, "config.name: "),
    ("example2_parallel", ("name",), "../escaped", "config.name: "),
    ("example2_parallel", ("driver",), {"kind": "disjunctive", "alphabet": 0},
     "config.driver.alphabet: "),
    ("example4_triangle", ("driver",), {"kind": "disjunctive", "alphabet": 4}, "config.driver: "),
    ("example2_parallel", ("driver",), {"kind": "custom", "symbols": [1, 2], "alphabet": 3},
     "config.driver: "),
    ("example4_triangle", ("checks", 3, "driver"), {"kind": "cyclic", "permutation": [2, 1, 4, 3]},
     "config.checks[3].driver: "),
    ("example2_parallel", ("driver",), {"kind": "custom", "symbols": [1, 2]},
     "config.driver: custom driver holds 2 symbols, the run takes 100\n"),
    ("example2_parallel", ("checks", 1), {"kind": "compare_omegas", "tol": 1e-6,
                                          "driver": {"kind": "custom", "symbols": [1, 2]}},
     "config.checks[1].driver: custom driver holds 2 symbols, the run takes 100\n"),
    # its foot point offset / |normal|^2 times the normal is past float64
    ("example2_parallel", ("maps", 0),
     {"kind": "hyperplane", "normal": [1e-12, 0], "offset": 1e300},
     "config.maps[0]: hyperplane has no float64 foot point"),
], ids=["offset", "radius", "directions", "seed", "permutation", "permutation-1.5",
        "spacing", "check-driver-seed", "name", "name-escapes", "alphabet-zero",
        "alphabet-past-the-maps", "custom-alphabet-past-the-maps",
        "check-driver-past-the-maps", "custom-driver-short", "check-custom-driver-short",
        "far-plane"])
def test_cli_run_names_a_mistyped_value(tmp_path, capsys, preset, path, value, prefix):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps(_mistype(preset_config(preset), path, value)))
    assert main(["run", str(conf), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + prefix) and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "escaped.orbit.csv").exists()


@pytest.mark.parametrize("command, error", [
    (["driver", "gen", "--kind", "cyclic", "--n", "4", "--perm", "1,x"], "--perm: "),
    (["driver", "gen", "--kind", "iid", "--seed", "1", "--n", "4", "--weights", "0.5,y"],
     "--weights: "),
    (["driver", "gen", "--kind", "custom", "--n", "2", "--symbols", "1,2.5"], "--symbols: "),
    (["kaczmarz", "SYSTEM", "--x0", "1,a"], "--x0: "),
    (["driver", "gen", "--kind", "cyclic", "--alphabet", "0", "--n", "4"],
     "--alphabet: need an integer of at least 1, got 0\n"),
    (["kaczmarz", "SYSTEM", "--alphabet", "-1"], "--alphabet: need an integer of at least 1, got -1\n"),
    (["kaczmarz", "SYSTEM", "--alphabet", "3"], "driver: driver alphabet 3 exceeds map count 2\n"),
    (["kaczmarz", "SYSTEM", "--driver", "disjunctive", "--alphabet", "3"],
     "driver: driver alphabet 3 exceeds map count 2\n"),
    (["driver", "gen", "--kind", "disjunctive", "--alphabet", "99999999999999999999", "--n", "3"],
     "driver: alphabet size must lie in 1..2**63 - 1, got 99999999999999999999\n"),
], ids=["perm", "weights", "symbols", "x0", "alphabet-zero", "kaczmarz-alphabet-negative",
        "kaczmarz-alphabet-past-the-rows", "disjunctive-alphabet-past-the-rows",
        "disjunctive-alphabet-past-int64"])
def test_cli_options_name_a_bad_item(tmp_path, capsys, command, error):
    sys_csv = tmp_path / "sys.csv"
    sys_csv.write_text("1,0,1\n0,1,2\n")
    command = [str(sys_csv) if c == "SYSTEM" else c for c in command]
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {error}")


@pytest.mark.parametrize("text, line", [
    ("1\n2\nx\n", 3),
    ("1\n2.5\n", 2),
    ("1\n\n  \n2\n1e0\n", 5),
    ("1\n99999999999999999999\n", 2),
], ids=["word", "fraction", "after-blank-lines", "past-int64"])
def test_cli_driver_audit_names_the_line_of_a_bad_symbol(tmp_path, capsys, text, line):
    seq = tmp_path / "seq.txt"
    seq.write_text(text)
    assert main(["driver", "audit", str(seq), "--m", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {seq}, line {line}: ")


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), float("-inf")])
def test_cli_run_rejects_a_non_finite_map_offset(tmp_path, capsys, offset):
    # json writes the offset as NaN, Infinity or -Infinity, which it reads back
    config = minimal_config()
    config["maps"][1]["offset"] = offset
    path = tmp_path / "offset.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.maps[1]: hyperplane offset must be finite")
    assert not (tmp_path / "out").exists()


def test_nan_iid_weights_are_a_config_error(capsys):
    with pytest.raises(ScenarioError, match=r"^config\.driver: weights must be finite"):
        scenario_from_dict(minimal_config(driver={"kind": "iid", "seed": 1,
                                                  "weights": [float("nan"), 1.0]}))
    assert main(["driver", "gen", "--kind", "iid", "--seed", "1", "--weights", "nan,1",
                 "--n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "weights must be finite" in captured.err


def test_cli_driver_gen_matches_module(tmp_path, capsys):
    rc = main(["driver", "gen", "--kind", "disjunctive", "--n", "8",
               "--alphabet", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1 2 1 1 1 2 2 1"

    out_file = tmp_path / "seq.txt"
    rc = main(["driver", "gen", "--kind", "cyclic", "--perm", "1,2", "--n", "6",
               "--out", str(out_file)])
    assert rc == 0
    assert out_file.read_text().splitlines() == ["1", "2", "1", "2", "1", "2"]


def test_cli_driver_gen_is_seed_reproducible(capsys):
    main(["driver", "gen", "--kind", "iid", "--alphabet", "3", "--seed", "5",
          "--n", "12"])
    first = capsys.readouterr().out
    main(["driver", "gen", "--kind", "iid", "--alphabet", "3", "--seed", "5",
          "--n", "12"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("options", [
    ["--kind", "cyclic"],
    ["--kind", "iid", "--alphabet", "3"],
    ["--kind", "iid", "--seed", "5"],
    ["--kind", "disjunctive"],
    ["--kind", "custom"],
])
def test_cli_driver_gen_missing_option_exits_two(options, capsys):
    assert main(["driver", "gen", *options, "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("options, error", [
    (["--kind", "cyclic", "--seed", "5"], "--seed: the cyclic driver does not read it"),
    (["--kind", "iid", "--seed", "5", "--perm", "2,1"],
     "--perm: the iid driver does not read it"),
    (["--kind", "disjunctive", "--weights", "0.5,0.5"],
     "--weights: the disjunctive driver does not read it"),
    (["--kind", "cyclic", "--symbols", "x"], "--symbols: the cyclic driver does not read it"),
])
def test_cli_driver_option_its_kind_does_not_read_exits_two(options, error, capsys):
    assert main(["driver", "gen", *options, "--alphabet", "2", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


def test_cli_kaczmarz_rejects_a_row_whose_norm_overflows(tmp_path, capsys):
    # the row's unit normal would be zero, and (5, 1) would pass for a solution
    sys_csv = tmp_path / "sys.csv"
    sys_csv.write_text("1e200,1e200,0\n0,1,1\n")
    assert main(["kaczmarz", str(sys_csv), "--x0", "5,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {sys_csv}, line 1: "
                            "row 1 of the linear system has norm inf, outside [1e-12, inf)\n")


@pytest.mark.parametrize("text, line, problem", [
    ("1,0,1\n\n0,0,1\n", 3, "row 2 of the linear system has norm 0, "),
    ("1e-12,0,1e300\n0,1,1\n", 1, "row 1 of the linear system has no float64 foot point: "),
], ids=["zero-row-after-an-empty-line", "far-row"])
@pytest.mark.parametrize("source", ["file", "pipe"])
def test_cli_kaczmarz_names_the_file_and_line_of_a_rejected_row(tmp_path, text, line, problem,
                                                                source):
    # the line loop skips the empty line, so row 2 of the first system is on line 3
    path = tmp_path / "sys.csv"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    arg, stdin = (str(path), None) if source == "file" else ("/dev/stdin", text)
    done = subprocess.run([sys.executable, "-m", "ifslab.cli", "kaczmarz", arg], input=stdin,
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"error: {arg}, line {line}: {problem}")
    assert "Traceback" not in done.stderr


def test_cli_kaczmarz_default_driver_names_the_option_it_does_not_read(tmp_path, capsys):
    sys_csv = tmp_path / "sys.csv"
    sys_csv.write_text("1,0,1\n0,1,2\n")
    assert main(["kaczmarz", str(sys_csv), "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed: the cyclic driver does not read it\n"


@pytest.mark.parametrize("d", [
    {"kind": "cyclic", "alphabet": 2},
    {"kind": "cyclic", "alphabet": 2, "permutation": [3, 1, 2]},
    {"kind": "iid", "seed": 4, "alphabet": 2},
], ids=["cyclic", "cyclic-with-permutation", "iid"])
def test_config_alphabet_is_no_cyclic_or_iid_key(d):
    # a permutation or weights give their alphabet, and the map count does
    # otherwise; ``--alphabet`` sizes them on the command line only
    with pytest.raises(ScenarioError, match=r"^d: unknown key 'alphabet'$"):
        driver_from_dict(d, 3, "d")


def test_cli_driver_audit(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("\n".join("121212"))
    rc = main(["driver", "audit", str(seq), "--m", "2"])
    out = capsys.readouterr().out
    assert rc == 1  # cyclic prefixes are not disjunctive
    assert "(1,1), (2,2)" in out

    good = tmp_path / "good.txt"
    rc = main(["driver", "gen", "--kind", "disjunctive", "--alphabet", "2",
               "--n", "34", "--out", str(good)])
    capsys.readouterr()
    rc = main(["driver", "audit", str(good), "--m", "3"])
    assert rc == 0


def test_cli_kaczmarz(tmp_path, capsys):
    sys_csv = tmp_path / "sys.csv"
    sys_csv.write_text("1,0,1\n0,1,2\n")
    rc = main(["kaczmarz", str(sys_csv), "--driver", "cyclic", "--tol", "1e-12",
               "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["final_point"] == pytest.approx([1.0, 2.0], abs=1e-12)
    assert json.loads((tmp_path / "rep.json").read_text()) == payload


def test_cli_presets(tmp_path, capsys):
    assert main(["presets", "list"]) == 0
    assert capsys.readouterr().out.split() == list(PRESET_NAMES)
    target = tmp_path / "ex3.json"
    assert main(["presets", "write", "example3_square", "--out", str(target)]) == 0
    scenario_from_dict(json.loads(target.read_text()))
    capsys.readouterr()
    # without --out, the config goes to stdout
    assert main(["presets", "write", "example3_square"]) == 0
    assert capsys.readouterr().out == target.read_text()
    assert main(["presets", "write", "nope"]) == 2


def test_orbit_csv_roundtrip_is_bitwise(tmp_path):
    from ifslab import Cyclic, Hyperplane, HyperplaneProjection, IFSystem, run_orbit
    sys2 = IFSystem((HyperplaneProjection(Hyperplane([0.3, 1.7], 0.21)),
                     HyperplaneProjection(Hyperplane([1.1, -0.4], -0.97))), 2)
    orbit = run_orbit(sys2, [0.123456789012345, -3.9], Cyclic((2, 1)), 37)
    path = tmp_path / "orbit.csv"
    fileio.write_orbit_csv(path, orbit)
    back = fileio.read_orbit_csv(path)
    assert np.array_equal(back.points, orbit.points)
    assert np.array_equal(back.symbols, orbit.symbols)


def test_cloud_csv_roundtrip(tmp_path):
    from ifslab import PointCloud
    cloud = PointCloud(np.random.default_rng(4).standard_normal((9, 3)))
    path = tmp_path / "cloud.csv"
    fileio.write_cloud_csv(path, cloud)
    back = fileio.read_cloud_csv(path)
    assert np.array_equal(back.points, cloud.points)


def test_linear_system_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1\n")
    from ifslab.errors import GeometryValidationError
    with pytest.raises(GeometryValidationError):
        fileio.read_linear_system_csv(bad)


def _assert_names(info, path, line):
    assert str(path) in str(info.value)
    if line is not None:
        assert f"line {line}:" in str(info.value)


ORBIT_HEAD = "n,symbol,x1,x2\n0,,0.5,0.25\n"


@pytest.mark.parametrize("text, error, line", [
    (ORBIT_HEAD + "1,2,0.5,abc\n", GeometryValidationError, 3),      # a non-numeric coordinate
    (ORBIT_HEAD + "1,two,0.5,0.25\n", GeometryValidationError, 3),   # a non-numeric symbol
    (ORBIT_HEAD + "1,1,0.5,0.25\n2,2,0.5\n", GeometryValidationError, 4),  # a ragged row
    (ORBIT_HEAD + "1,1,0.5,0.25\n\n2,2,0.5,0.25\n", GeometryValidationError, 4),  # a blank row
    ("\n\n" + ORBIT_HEAD + "1,1,0.5,\n", GeometryValidationError, 5),  # after blank lines
    ("n,symbol,x1,x2\n", EmptyCloudError, None),
    ("n,symbol,x1,x2\n0,1,0.5,0.25\n1,2,0.5,0.25\n", GeometryValidationError, 2),  # on row 0
    (ORBIT_HEAD + "1,2,0.5,0.25\n2,,0.5,0.25\n", GeometryValidationError, 4),  # none later
    (ORBIT_HEAD + "1,1,nan,0.25\n", GeometryValidationError, 3),     # a NaN coordinate
    ("\nn,symbol,x1,x2\n0,,-inf,0.25\n1,1,0.5,0.25\n", GeometryValidationError, 3),  # -inf
    (ORBIT_HEAD + "1,1,0.5,0.25\n2,2,0.5,1e999\n", GeometryValidationError, 4),  # overflow
    # bad lines whose coordinate text repeats that of earlier good rows
    (ORBIT_HEAD + "1,1,0.5,0.25\n2,x,0.5,0.25\n", GeometryValidationError, 4),
    (ORBIT_HEAD + "1,1,0.5,0.25\n2,0.5,0.25\n", GeometryValidationError, 4),  # no symbol cell
    (ORBIT_HEAD + "1,1,0.5,0.25\n2,2,0.5\n", GeometryValidationError, 4),  # a prefix of them
    # one non-finite coordinate text on several lines, after another one
    (ORBIT_HEAD + "1,1,0.5,0.25\n2,2,nan,0.25\n3,1,0.5,-inf\n4,2,nan,0.25\n",
     GeometryValidationError, 4),
    # a non-finite value names its line before a later malformed line
    (ORBIT_HEAD + "1,1,nan,0.25\n2,2,0.5\n", GeometryValidationError, 3),
    (ORBIT_HEAD + "1,1,0.5,inf\n2,x,0.5,0.25\n", GeometryValidationError, 3),
    # a float symbol, which numpy below 2.0 reads as an integer with a warning
    (ORBIT_HEAD + "1,1,0.5,0.25\n2,3.0,0.5,0.25\n", GeometryValidationError, 4),
    (ORBIT_HEAD + "1,1,0.5,0.25\n2,2,0.5,0.25,0.125\n", GeometryValidationError, 4),  # a long row
    (ORBIT_HEAD + "1,99999999999999999999,0.5,0.25\n", GeometryValidationError, 3),  # past int64
], ids=["cell", "symbol", "ragged", "blank", "offset", "empty", "row0-symbol", "no-symbol",
        "nan", "inf", "overflow", "repeat-symbol", "repeat-no-symbol", "repeat-short",
        "repeat-nonfinite", "nonfinite-then-ragged", "nonfinite-then-symbol", "float-symbol",
        "extra-value", "symbol-past-int64"])
def test_orbit_csv_faults_name_the_file_and_line(tmp_path, text, error, line):
    path = tmp_path / "orbit.csv"
    path.write_text(text)
    with pytest.raises(error) as info:
        fileio.read_orbit_csv(path)
    _assert_names(info, path, line)


@pytest.mark.parametrize("text, error, line", [
    ("1.0,2.0\n3.0,abc\n", GeometryValidationError, 2),
    ("1.0,2.0\n3.0\n", GeometryValidationError, 2),
    ("\n1.0,2.0\n\n3.0,4.0,5.0\n", GeometryValidationError, 4),
    ("", EmptyCloudError, None),
    ("\n \n", EmptyCloudError, None),
    ("1.0,2.0\n \n3.0,4.0\n", GeometryValidationError, 2),  # only empty lines are skipped
    ("1.0,2.0\n3.0,inf\n", GeometryValidationError, 2),
    ("\n\n1.0,2.0\n\nNaN,4.0\n", GeometryValidationError, 5),
    # a ragged line made of the cells of earlier good rows
    ("1.0,2.0\n3.0,4.0\n1.0,2.0\n1.0\n", GeometryValidationError, 4),
    ("1.0,2.0\n3.0,4.0\n1.0,2.0,3.0,4.0\n", GeometryValidationError, 3),
    # one non-finite row text on several lines
    ("1.0,2.0\n3.0,inf\n1.0,2.0\n3.0,inf\n", GeometryValidationError, 2),
    # a non-finite value names its line before a later malformed line
    ("1.0,2.0\n3.0,inf\n4.0\n", GeometryValidationError, 2),
    ("1.0,2.0\n1e999,4.0\n3.0,abc\n", GeometryValidationError, 2),
], ids=["cell", "ragged", "offset", "empty", "blank", "whitespace", "inf", "nan",
        "repeat-short", "repeat-long", "repeat-nonfinite", "nonfinite-then-ragged",
        "overflow-then-cell"])
def test_cloud_csv_faults_name_the_file_and_line(tmp_path, text, error, line):
    path = tmp_path / "cloud.csv"
    path.write_text(text)
    with pytest.raises(error) as info:
        fileio.read_cloud_csv(path)
    _assert_names(info, path, line)


@pytest.mark.parametrize("text, line", [
    ("1.0,0.0,2.0\n0.0,x,1.0\n", 2),
    ("1.0,0.0,2.0\n0.0,1.0\n", 2),
    ("1.0,0.0,2.0\n\n\n0.0,1.0,1.0,\n", 4),
    ("1.0,0.0,2.0\n0.0,1.0,nan\n", 2),
    ("\n1.0,0.0,2.0\n0.0,-inf,1.0\n", 3),
    # a ragged line made of the cells of an earlier good row
    ("1.0,0.0,2.0\n0.0,1.0,1.0\n1.0,0.0,2.0\n1.0,0.0\n", 4),
    # one non-finite row text on several lines, the first after a good repeat
    ("1.0,0.0,2.0\n1.0,0.0,2.0\n0.0,nan,1.0\n1.0,0.0,2.0\n0.0,nan,1.0\n", 3),
    # a non-finite value names its line before a later malformed line
    ("1.0,0.0,2.0\n0.0,nan,1.0\n0.0,1.0\n", 2),
], ids=["cell", "ragged", "offset", "nan", "inf", "repeat-ragged", "repeat-nonfinite",
        "nonfinite-then-ragged"])
def test_linear_system_csv_faults_name_the_file_and_line(tmp_path, text, line):
    path = tmp_path / "system.csv"
    path.write_text(text)
    with pytest.raises(GeometryValidationError) as info:
        fileio.read_linear_system_csv(path)
    _assert_names(info, path, line)


# --- the grouping budget: no orbit row is grouped twice --------------------------

@pytest.fixture
def grouped(monkeypatch):
    """The rows each caller hands to ``clouds.distinct_rows``, as ``{id:
    [orbit, rows]}``: the orbit whose ``distinct_rows`` asked, or None for
    any other caller. Each orbit is held, so no id is reused."""
    asking, rows = [], {}
    real_rows, real_method = clouds.distinct_rows, Orbit.distinct_rows

    def method(self, burn_in=0):
        asking.append(self)
        try:
            return real_method(self, burn_in)
        finally:
            asking.pop()

    def counting(points):
        owner = asking[-1] if asking else None
        rows.setdefault(id(owner), [owner, 0])[1] += len(points)
        return real_rows(points)

    monkeypatch.setattr(Orbit, "distinct_rows", method)
    monkeypatch.setattr(clouds, "distinct_rows", counting)
    return rows


def _distinct_count(points):
    return len({row.tobytes() for row in points})


def test_a_triangle_run_groups_each_orbit_row_once(tmp_path, grouped, capsys):
    config = preset_config("example4_triangle")
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    rows, burn_in = config["steps"] + 1, config["burn_in"]
    outside = grouped.pop(id(None))[1]
    (run, run_rows), (other, other_rows) = sorted(grouped.values(), key=lambda e: -e[1])
    # The run's orbit: its tail for the estimate, then, for the monotone
    # check, the CSV and the SVG together, its burn-in and one row per
    # distinct point of the tail.
    assert run_rows == rows + _distinct_count(run.tail(burn_in))
    # compare_omegas' orbit is only estimated: its tail alone.
    assert other_rows == rows - burn_in
    # The rest is the invariance check's images of the representatives.
    report = json.loads((out / "example4_triangle.report.json").read_text())
    assert outside == 3 * report["representative_count"]

    grouped.clear()
    assert main(["omega", str(out / "example4_triangle.orbit.csv"), "--burn-in", str(burn_in),
                 "--eps", repr(config["cluster_eps"])]) == 0
    assert [r for _, r in grouped.values()] == [rows - burn_in]


def test_an_omega_estimate_groups_only_the_tail(grouped):
    system = LinearSystem([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    report = solve(system, Cyclic((1, 2, 3)), tol=1e-9, max_iter=3000)
    assert report.omega is not None
    assert [r for _, r in grouped.values()] == [report.omega.tail_length]

    grouped.clear()
    scenario = scenario_from_dict(preset_config("example3_square"))
    orbit = run_orbit(scenario.system, scenario.x0, scenario.driver, scenario.steps)
    estimate_omega(orbit, scenario.burn_in, scenario.cluster_eps)
    assert [r for _, r in grouped.values()] == [len(orbit.tail(scenario.burn_in))]
