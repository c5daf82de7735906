import json
import math
import os

import numpy as np
import pytest

from cmcs3 import cli, families


def run(argv):
    return cli.main(argv)


def test_check_revolution_passes(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = run(["check", "--family", "revolution", "--H", "0", "--alpha", "0.25", "--out", out])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["A"] and rep["B"]["pass"] and rep["C"]["pass"]
    assert rep["G"] == 1
    kappas = sorted(
        e["kappa"] for e in rep["branch_points"] if e["kind"] in ("double_point", "both")
    )
    assert np.allclose(kappas, [-1.0, 1.0], atol=1e-6)


def test_check_from_json_file(tmp_path):
    data = families.clifford_spectral_data()
    path = str(tmp_path / "data.json")
    with open(path, "w") as fh:
        json.dump(data.to_json(), fh)
    code = run(["check", path, "--window", "-3", "3"])
    assert code == cli.EXIT_OK


def test_check_detuned_data_fails(tmp_path):
    data, _ = families.revolution_family(families.RevolutionParams(0.0, 0.25))
    obj = data.to_json()
    obj["b"] = [c * 1.1 for c in obj["b"]]
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    code = run(["check", path])
    assert code == cli.EXIT_CHECK_FAILED


def test_check_schema_errors(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert run(["check", missing]) == cli.EXIT_SCHEMA
    assert run(["check"]) == cli.EXIT_SCHEMA
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    assert run(["check", bad]) == cli.EXIT_SCHEMA


def test_surface_clifford(tmp_path):
    out = str(tmp_path / "surf.obj")
    rep = str(tmp_path / "surf.json")
    csv = str(tmp_path / "surf.csv")
    tau = float(np.pi * np.sqrt(2.0))
    code = run(
        [
            "surface", "--family", "clifford",
            "--grid", "24", "10",
            "--domain", "-0.5", "0.5", "-0.2", "0.2",
            "--out", out, "--report", rep, "--csv", csv,
            "--period", f"{tau}", "0",
        ]
    )
    assert code == cli.EXIT_OK
    assert os.path.exists(out) and os.path.exists(csv)
    with open(rep) as fh:
        report = json.load(fh)
    assert report["passes"]
    assert report["periodicity"]["passes"]
    assert abs(report["H_expected"]) < 1e-12


def test_surface_delaunay_hopf_scaling(tmp_path):
    out = str(tmp_path / "del.obj")
    rep = str(tmp_path / "del.json")
    code = run(
        [
            "surface", "--family", "delaunay",
            "--grid", "24", "10",
            "--domain", "-0.4", "0.4", "-0.15", "0.15",
            "--out", out, "--report", rep,
        ]
    )
    assert code == cli.EXIT_OK
    with open(rep) as fh:
        report = json.load(fh)
    # expected Hopf coefficient carries the model's 4 a_r b_r weight
    assert abs(abs(complex(*report["Q_expected"])) - 0.6 * 0.5) < 1e-6


def test_surface_usage_errors(tmp_path):
    assert run(["surface", "--out", str(tmp_path / "x.obj")]) == cli.EXIT_SCHEMA
    code = run(
        ["surface", "--family", "clifford", "--grid", "4", "4", "--out", str(tmp_path / "y.obj")]
    )
    assert code == cli.EXIT_SCHEMA


def test_flow_zero(tmp_path):
    out = str(tmp_path / "traj.csv")
    final = str(tmp_path / "final.json")
    code = run(
        [
            "flow", "--family", "revolution", "--H", "0", "--alpha", "0.25",
            "--c", "zero", "--t-final", "0.01", "--dt0", "0.005",
            "--samples", "2", "--out", out, "--final-json", final,
        ]
    )
    assert code == cli.EXIT_OK
    with open(final) as fh:
        obj = json.load(fh)
    assert obj["completed"]
    assert obj["res_C0"] < 1e-6
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("t,a0")
    assert len(lines) >= 3


def test_flow_bad_c(tmp_path):
    code = run(
        [
            "flow", "--family", "clifford", "--c", "bogus",
            "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == cli.EXIT_SCHEMA


def test_delta_scan(tmp_path):
    out = str(tmp_path / "delta.csv")
    rep = str(tmp_path / "delta.json")
    code = run(
        [
            "delta", "--family", "clifford", "--window", "-2", "2",
            "--samples", "41", "--out", out, "--report", rep,
        ]
    )
    assert code == cli.EXIT_OK
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "kappa,delta,abs_le_2"
    assert len(lines) == 42
    with open(rep) as fh:
        obj = json.load(fh)
    assert obj["condition_F"]
    kappas = sorted(e["kappa"] for e in obj["branch_points"])
    assert np.allclose(kappas, [-1.0, 0.0, 1.0], atol=1e-6)


def test_delta_bad_window(tmp_path):
    code = run(
        ["delta", "--family", "clifford", "--window", "2", "-2", "--out", str(tmp_path / "d.csv")]
    )
    assert code == cli.EXIT_SCHEMA


def test_delta_failing_branch_report_writes_nothing(tmp_path, capsys):
    # a = k^2 - 1/4 is negative on the window, so the branch report fails; the
    # 40 samples miss its roots +-1/2, so every Delta value is computed
    path = str(tmp_path / "data.json")
    with open(path, "w") as fh:
        json.dump({"a": [-0.25, 0, 1], "b": [0, 0.5], "kappa0": 2, "kappa1": -2}, fh)
    out, rep = tmp_path / "delta.csv", tmp_path / "delta.json"
    argv = ["delta", path, "--window", "-3", "3", "--samples", "40"]
    code = run(argv + ["--out", str(out), "--report", str(rep)])
    assert code == cli.EXIT_SCHEMA
    assert "Traceback" not in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(rep)


def test_verify_missing_dir(tmp_path):
    code = run(["verify", "--tests-dir", str(tmp_path / "nope")])
    assert code == cli.EXIT_SCHEMA


SURFACE_REPORT_KEYS = {
    "H_expected", "H_num_mean", "H_max_dev", "Q_expected", "Q_num_mean", "Q_max_dev",
    "conformality_max", "sinh_gordon_max", "periodicity", "grid_effective",
    "frame_defects", "passes",
}


def test_surface_report_diagnostics(tmp_path):
    rep = str(tmp_path / "del.json")
    code = run(
        [
            "surface", "--family", "delaunay", "--grid", "24", "10",
            "--domain", "-1.5", "1.5", "-0.15", "0.15",
            "--out", str(tmp_path / "del.obj"), "--report", rep,
        ]
    )
    assert code == cli.EXIT_OK
    with open(rep) as fh:
        report = json.load(fh)
    assert set(report) == SURFACE_REPORT_KEYS
    # ny = 10 is rounded to the x spacing 3/23: 0.3 / (3/23) + 1 -> 3, then at least 5
    assert report["grid_effective"] == [24, 5]
    defects = report["frame_defects"]
    assert set(defects) == {"unitarity_max", "reconstruction_max", "anchors"}
    assert defects["anchors"] == 3
    assert 0.0 <= defects["unitarity_max"] < 1e-9
    assert 0.0 <= defects["reconstruction_max"] < 1e-7


def test_surface_report_closed_form_has_no_frame_defects(tmp_path):
    rep = str(tmp_path / "c.json")
    code = run(
        [
            "surface", "--family", "clifford", "--grid", "12", "30",
            "--domain", "0", "1.1", "0", "0.4",
            "--out", str(tmp_path / "c.obj"), "--report", rep,
        ]
    )
    assert code == cli.EXIT_OK
    with open(rep) as fh:
        report = json.load(fh)
    assert set(report) == SURFACE_REPORT_KEYS
    assert report["grid_effective"] == [12, 5]
    assert report["frame_defects"] is None


def test_surface_far_strip_exits_numerical(tmp_path):
    # Delaunay(0.3, 0.5) frames fail from Im z ~ 6.6 on: a window reaching 7.2 fails
    code = run(
        [
            "surface", "--family", "delaunay", "--a_r", "0.3", "--b_r", "0.5",
            "--grid", "8", "8", "--domain", "0.4", "1.1", "6.5", "7.2",
            "--out", str(tmp_path / "far.obj"),
        ]
    )
    assert code == cli.EXIT_NUMERICAL


def _nonfinite_argv(tmp_path, case):
    """argv of one CLI call on input with a NaN or an infinity in it."""
    cmd, field, value = case
    if cmd == "surface":
        out = ["--grid", "8", "8", "--out", str(tmp_path / "s.obj")]
        if field == "xi":
            obj = families.delaunay_xi(families.DelaunayParams(0.3, 0.5)).to_json()
            obj["coeffs"][1][0][1][0] = value
            path = str(tmp_path / "xi.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            return ["surface", "--xi", path] + out
        return ["surface", "--family", "delaunay", f"--{field}", str(value)] + out
    obj = families.revolution_family(families.RevolutionParams(0.5, 0.25))[0].to_json()
    if field in ("a", "b"):
        obj[field][0] = value
    else:
        obj[field] = value
    path = str(tmp_path / "data.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return [cmd, path, "--out", str(tmp_path / "out.txt")]


@pytest.mark.parametrize(
    "case",
    [("check", f, v) for f in ("a", "b", "kappa0") for v in (math.nan, math.inf, -math.inf)]
    + [("delta", "kappa0", math.inf), ("delta", "b", math.nan)]
    + [("surface", "xi", math.nan), ("surface", "kappa0", math.nan)]
    + [("surface", "kappa1", math.inf)],
    ids=lambda case: "-".join(map(str, case)),
)
def test_nonfinite_input_exits_schema(tmp_path, capsys, case):
    code = run(_nonfinite_argv(tmp_path, case))
    err = capsys.readouterr().err
    assert code == cli.EXIT_SCHEMA
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "s.obj") and not os.path.exists(tmp_path / "out.txt")


_SPECTRAL_OBJ = {"a": [0.25, 0, 1], "b": [0, 0.5], "kappa0": 1, "kappa1": -1}


@pytest.mark.parametrize(
    "obj",
    [
        {k: v for k, v in _SPECTRAL_OBJ.items() if k != "kappa0"},
        dict(_SPECTRAL_OBJ, a=[[1], [0], [1]]),
        dict(_SPECTRAL_OBJ, a=[[1, 0, 1]]),
        dict(_SPECTRAL_OBJ, b=[[0, 0.5]]),
        dict(_SPECTRAL_OBJ, kappa0=[1]),
        [_SPECTRAL_OBJ],
        dict(_SPECTRAL_OBJ, a=["0.25", "0", "1"]),
        dict(_SPECTRAL_OBJ, b=[False, 0.5]),
        dict(_SPECTRAL_OBJ, kappa0=True),
        dict(_SPECTRAL_OBJ, kappa1="-1"),
        {"a": ["0.25", "0", "1"], "b": [0, 0.5], "kappa0": True, "kappa1": "-1"},
    ],
    ids=["kappa0-missing", "a-column", "a-row", "b-row", "kappa0-list", "top-level-list",
         "a-strings", "b-bool", "kappa0-bool", "kappa1-string", "strings-and-bool"],
)
def test_misshapen_spectral_data_exits_schema(tmp_path, capsys, obj):
    path = str(tmp_path / "data.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    out = tmp_path / "out.json"
    code = run(["check", path, "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    assert "Traceback" not in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("cmd", ["check", "delta"])
def test_nodal_square_curve_without_normalization_exits_numerical(tmp_path, capsys, cmd):
    # a = (k^2 + 1/2)^2 is a square, but b = 0.3 k is not divisible by sqrt(a)
    path = str(tmp_path / "nodal.json")
    with open(path, "w") as fh:
        json.dump({"a": [0.25, 0.0, 1.0, 0.0, 1.0], "b": [0.0, 0.3], "kappa0": 1.2,
                   "kappa1": -0.8}, fh)
    code = run([cmd, path, "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL
    assert "not divisible by sqrt(a)" in err and "Traceback" not in err


def test_surface_xi_file_checks(tmp_path):
    # a valid-looking file that breaks an xi condition fails the check (exit 1);
    # a file of the wrong shape is malformed input (exit 3)
    def code_for(edit):
        obj = families.delaunay_xi(families.DelaunayParams(0.3, 0.5)).to_json()
        edit(obj)
        path = str(tmp_path / "xi.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return run(["surface", "--xi", path, "--grid", "8", "8", "--out", str(tmp_path / "x.obj")])

    def not_traceless(obj):
        obj["coeffs"][1][0][0] = [1.0, 0.0]

    def not_triangular(obj):
        obj["coeffs"][0][1][0] = [1.0, 0.0]

    def wrong_shape(obj):
        obj["g"] = 2

    assert code_for(not_traceless) == cli.EXIT_CHECK_FAILED
    assert code_for(not_triangular) == cli.EXIT_CHECK_FAILED
    assert code_for(wrong_shape) == cli.EXIT_SCHEMA
