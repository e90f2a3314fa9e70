"""Scenario configs, preset round trips, and the command-line surface."""

import json

import numpy as np
import pytest

from ifslab import fileio
from ifslab.cli import main
from ifslab.drivers import Cyclic, IidRandom
from ifslab.errors import EmptyCloudError, GeometryValidationError
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
    report = result.report_dict()
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
    ({"checks": [{"kind": "invariance", "tol": None}]}, "config.checks[0].tol: need a finite"),
    ({"checks": [{"kind": "invariance", "tol": float("nan")}]}, "config.checks[0].tol: need"),
    ({"checks": [{"kind": "invariance", "tol": -1e-9}]}, "config.checks[0].tol: need"),
    ({"checks": [{"kind": "monotone_distance", "slack": [1e-9]}]}, "config.checks[0].slack"),
    ({"checks": [{"kind": "monotone_distance", "slack": float("inf")}]},
     "config.checks[0].slack"),
    ({"checks": ["invariance"]}, "config.checks[0]: expected a JSON object"),
    ({"checks": {"kind": "invariance"}}, "config.checks: expected a list"),
])
def test_scenario_validation_errors(breakage, fragment):
    config = minimal_config(**breakage)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(config)
    assert fragment.lower() in str(err.value).lower()


@pytest.mark.parametrize("reference", [
    {"kind": "points", "points": []},
    {"kind": "points", "points": [[0.0, float("nan")]]},
    {"kind": "triangle_boundary", "vertices": [[0, 0], [1, 0], [0, float("inf")]]},
])
def test_reference_set_errors_name_the_config_key(reference):
    with pytest.raises(ScenarioError, match=r"^config\.reference_set: "):
        scenario_from_dict(minimal_config(reference_set=reference))


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

    report = json.loads(report_json.read_text())
    assert report["passed"] is True
    assert svg.read_text().startswith("<svg")


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
    assert "tolerance must be positive" in capsys.readouterr().err
    orbit_csv = tmp_path / "orbit.csv"
    orbit_csv.write_text(ORBIT_HEAD + "1,1,0.5,0.25\n")
    out = tmp_path / "omega.json"
    assert main(["omega", str(orbit_csv), "--burn-in", "0", "--eps", "nan",
                 "--out", str(out)]) == 2
    assert "cluster_eps must be positive" in capsys.readouterr().err
    assert not out.exists()


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


def test_config_alphabet_leaves_cyclic_and_iid_on_all_maps():
    # only disjunctive and custom drivers read an ``alphabet`` key
    assert driver_from_dict({"kind": "cyclic", "alphabet": 2}, 3, "d") == Cyclic((1, 2, 3))
    assert driver_from_dict({"kind": "iid", "seed": 4, "alphabet": 2}, 3, "d") \
        == IidRandom.uniform(4, 3)


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
], ids=["cell", "symbol", "ragged", "blank", "offset", "empty", "row0-symbol", "no-symbol",
        "nan", "inf", "overflow", "repeat-symbol", "repeat-no-symbol", "repeat-short",
        "repeat-nonfinite", "nonfinite-then-ragged", "nonfinite-then-symbol"])
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
