import json
import math
import os

import numpy as np
import pytest

from cmcs3 import cli, families, flow, spectral as sp


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
    # the walk covers kappa = infinity, a simple root of b = b1 k: one more
    # real zero of Delta' than the finite roots and crossings
    assert rep["G_details"] == {"nonreal_curve_points": 0, "real_double_points": 2,
                                "real_delta_prime_zeros": 4, "naive_count": 3}
    kappas = sorted(
        e["kappa"] for e in rep["branch_points"] if e["kind"] in ("double_point", "both")
    )
    assert np.allclose(kappas, [-1.0, 1.0], atol=1e-6)
    # each crossing reports how far theta's error can move it; roots of b report null
    for e in rep["branch_points"]:
        assert (e["kappa_err"] is None) == (e["kind"] != "double_point")
        assert e["kappa_err"] is None or 0.0 < e["kappa_err"] < 1e-8


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


@pytest.mark.parametrize("argv", [
    ["check", "--window", "5", "-5"],
    ["check", "--window", "1", "1"],
    ["check", "--window", "3", "nan"],
    ["check", "--window", "nan", "3"],
    ["check", "--window", "inf", "inf"],
    ["delta", "--window", "5", "-5"],
    ["delta", "--window", "3", "nan"],
    ["delta", "--window", "0", "inf"],
], ids=lambda argv: " ".join(argv))
def test_bad_window_exits_schema_before_any_computation(tmp_path, capsys, monkeypatch, argv):
    # lo >= hi and NaN fail both commands; an infinite end fails delta, whose
    # samples it would make NaN.  The check runs before the data is built.
    built = []
    monkeypatch.setattr(families, "revolution_family", lambda *args: built.append(args))
    out = tmp_path / "out"
    code = run(argv + ["--family", "revolution", "--H", "0.5", "--alpha", "0.25", "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "window must satisfy lo < hi" in err and "Traceback" not in err
    assert not built and not out.exists()


def test_check_window_to_infinity(tmp_path):
    # an infinite end is fine for check: the walk enters kappa = infinity
    # as a root of b of multiplicity g + 1 - deg b = 1; the one double point
    # in [0, inf] is the positive marked point
    out = tmp_path / "report.json"
    argv = ["check", "--family", "revolution", "--H", "0.5", "--alpha", "0.25", "--window", "0", "inf"]
    assert run(argv + ["--out", str(out)]) == cli.EXIT_OK
    entries = json.loads(out.read_text())["branch_points"]
    assert [e["kind"] for e in entries] == ["b_root", "double_point", "b_root"]
    assert entries[0]["kappa"] == 0.0 and entries[-1]["kappa"] == math.inf
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    assert abs(entries[1]["kappa"] - max(data.kappa0, data.kappa1)) < 1e-6


def test_delta_failing_branch_report_writes_nothing(tmp_path, capsys, monkeypatch):
    # a = k^2 - 1/4 < 0 between its roots +-1/2, so the walk fails before
    # any ln mu and any Delta value; the 241-sample grid lands on k = 1/2,
    # the base branch point, which must not be what the error names
    path = str(tmp_path / "data.json")
    with open(path, "w") as fh:
        json.dump({"a": [-0.25, 0, 1], "b": [0, 0.5], "kappa0": 2, "kappa1": -2}, fh)
    called = []
    monkeypatch.setattr(sp, "delta", lambda *args: called.append(args))
    monkeypatch.setattr(sp, "lnmu_at", lambda *args: called.append(args))
    out, rep = tmp_path / "delta.csv", tmp_path / "delta.json"
    for samples in ("40", "241"):
        argv = ["delta", path, "--window", "-3", "3", "--samples", samples]
        code = run(argv + ["--out", str(out), "--report", str(rep)])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "a has real zeros" in err and "Traceback" not in err
        assert not called
        assert sorted(os.listdir(tmp_path)) == ["data.json"]


@pytest.mark.parametrize("a,window", [
    ([1.0001, -2.0001, 1], ("-10", "10")),
    ([1.0001, -2.0001, 1], ("-3", "3")),
    ([2, -3, 1], ("1.2", "1.8")),
])
def test_delta_close_real_roots_of_a_exit_schema(tmp_path, capsys, monkeypatch, a, window):
    # a = (k - 1)(k - 1.0001) < 0 between its roots: the roots of a decide
    # a > 0, before any ln mu and whatever the window, so both exit 3; so
    # does a window between the roots 1 and 2 of a = (k - 1)(k - 2), where
    # a < 0 throughout and no root lies in the window
    path = str(tmp_path / "data.json")
    with open(path, "w") as fh:
        json.dump({"a": a, "b": [0, 0.5], "kappa0": 3, "kappa1": -3}, fh)
    calls = []
    monkeypatch.setattr(sp, "lnmu_at", lambda *args: calls.append(args))
    out = tmp_path / "delta.csv"
    code = run(["delta", path, "--window", *window, "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "a has real zeros" in err and "Traceback" not in err
    assert not calls and not out.exists()


def test_delta_cost_does_not_grow_with_samples(tmp_path, monkeypatch):
    # timing-free guard of the scan: the CSV and the branch report come off
    # one theta walk over the window's ends and the roots of b, anchored by
    # one lnmu_at, so a delta run walks the same cells and makes the same
    # calls at 1, 41 and 241 samples, and never calls sp.delta
    calls, walks = [], []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("lnmu_at", "integrate_dlnmu", "delta"):
        monkeypatch.setattr(sp, name, counting(name, getattr(sp, name)))
    theta_walk = sp._theta_walk
    monkeypatch.setattr(sp, "_theta_walk", lambda *args: walks.append(theta_walk(*args)) or walks[-1])
    counts = []
    rep = tmp_path / "delta.json"
    for samples in ("1", "41", "241"):
        calls.clear()
        argv = ["delta", "--family", "revolution", "--H", "0.5", "--alpha", "0.25",
                "--window", "-3", "3", "--samples", samples]
        assert run(argv + ["--out", str(tmp_path / "delta.csv"), "--report", str(rep)]) == 0
        assert "delta" not in calls
        counts.append((calls.count("lnmu_at"), calls.count("integrate_dlnmu")))
        assert json.loads(rep.read_text())["condition_F"] is True
    assert counts == [(1, counts[0][1])] * 3
    assert len(walks) == 3 and all(np.array_equal(w[0], walks[0][0]) for w in walks)
    assert np.allclose(np.tan(walks[0][0][[0, -1]]), [-3.0, 3.0])


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "--family", "clifford", "--samples", "-1"],
        ["delta", "--family", "clifford", "--samples", "0"],
        ["delta", "--family", "clifford", "--samples", "2.5"],
        ["flow", "--family", "clifford", "--samples", "-3"],
    ],
    ids=["delta-negative", "delta-zero", "delta-fraction", "flow-negative"],
)
def test_bad_sample_counts_exit_schema(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "argument --samples" in err and "Traceback" not in err
    assert not out.exists()


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


def _target_flow(tmp_path, H, alpha, index, t_final, samples="2"):
    out, final = str(tmp_path / "traj.csv"), str(tmp_path / "final.json")
    code = run(
        [
            "flow", "--family", "revolution", "--H", str(H), "--alpha", str(alpha),
            "--target-branch", str(index), "--t-final", str(t_final), "--samples", samples,
            "--out", out, "--final-json", final,
        ]
    )
    with open(final) as fh:
        return code, out, json.load(fh)


def test_flow_target_branch_moves_delta_by_t_final(tmp_path):
    # the deform oracle: Delta at the root of b moves by exactly t_final
    start, _ = families.revolution_family(families.RevolutionParams(0.5, 0.3))
    code, _, fin = _target_flow(tmp_path, 0.5, 0.3, 0, 0.02)
    assert code == cli.EXIT_OK and fin["completed"] is True
    end = sp.SpectralData.from_json(fin["data"])
    moved = [sp.delta(d, flow.b_root_basis(d)[0].value).real for d in (start, end)]
    assert abs(moved[1] - moved[0] - 0.02) < 1e-6


def test_flow_target_branch_out_of_range_stops(tmp_path, capsys):
    code, out, fin = _target_flow(tmp_path, 0.0, 0.25, 3, 0.01)
    assert code == cli.EXIT_CHECK_FAILED
    assert "stopped: root index 3 out of range" in capsys.readouterr().out
    assert fin["completed"] is False and fin["rhs_evals"] == 1
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("t,a0") and len(lines) == 2  # the state at t = 0


def test_flow_target_branch_on_a_node_stops(tmp_path, capsys):
    # alpha = 0: the root k = 0 of b is a node of a = k^2; the guard stops the
    # flow at t = 0 before any ln mu is taken there
    code, out, fin = _target_flow(tmp_path, 0.5, 0.0, 0, 0.01)
    assert code == cli.EXIT_CHECK_FAILED
    assert "stopped: a root of b coincides with a root of a" in capsys.readouterr().out
    assert fin["completed"] is False and fin["rhs_evals"] == 1
    with open(out) as fh:
        assert len(fh.read().splitlines()) == 2  # header and the state at t = 0


@pytest.mark.parametrize("c", ["mobius", "zero"])
def test_flow_c_and_target_branch_are_exclusive(tmp_path, capsys, monkeypatch, c):
    built = []
    monkeypatch.setattr(families, "revolution_family", lambda *args: built.append(args))
    out, final = tmp_path / "traj.csv", tmp_path / "final.json"
    argv = ["flow", "--family", "revolution", "--c", c, "--target-branch", "0",
            "--out", str(out), "--final-json", str(final)]
    assert run(argv) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "argument --target-branch: not allowed with argument --c" in err
    assert not built and not out.exists() and not final.exists()


def test_flow_error_estimate_lets_exact_steps_grow(tmp_path):
    # the stage rates of the target driver agree to about an ulp of y, so
    # y5 - y4 rounds to 0; the estimate dt (E @ rates) does not, and dt grows
    # 1e-3 -> 4e-3 -> the remaining 5e-3
    code, _, fin = _target_flow(tmp_path, 0.7, 0.4, 0, 0.01)
    assert code == cli.EXIT_OK
    assert {k: fin[k] for k in ("rhs_evals", "steps_accepted", "rejected_error",
                                "rejected_monitor")} == {
        "rhs_evals": 21, "steps_accepted": 3, "rejected_error": 0, "rejected_monitor": 0}


def test_rotational_commands_make_no_lnmu_quadrature(tmp_path, monkeypatch):
    # d ln mu is exact on rotational data, so check, delta and a flow monitor
    # take every ln mu in closed form: neither leg of the quadrature runs
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("lnmu_at", "_integrate_base_leg", "integrate_dlnmu"):
        monkeypatch.setattr(sp, name, counting(name, getattr(sp, name)))
    base = ["--family", "revolution", "--H", "0.5", "--alpha", "0.25"]
    assert run(["check", *base]) == cli.EXIT_OK
    assert run(["delta", *base, "--out", str(tmp_path / "delta.csv")]) == cli.EXIT_OK
    flow._monitors(sp.mobius_transform_data(families.revolution_family(
        families.RevolutionParams(0.5, 0.25))[0], 0.15))
    assert calls.count("lnmu_at") == 4 + 1 + 2 and set(calls) == {"lnmu_at"}


def test_lnmu_on_a_branch_point_exits_schema(tmp_path, capsys):
    # kappa0 = 1/2 is a root of a; d ln mu is exact (a = k^2 - 1/4, b = 5k/8),
    # and the closed form keeps the entry rule of the legs
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"a": [-0.25, 0, 1], "b": [0, 0.625], "kappa0": 0.5, "kappa1": -2}))
    assert sp.SpectralData.from_json(json.loads(path.read_text())).closed_form is not None
    out = tmp_path / "out.json"
    assert run(["check", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "path endpoint sits on a branch point" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["flow", "--t-final", "nan"],
    ["flow", "--t-final", "inf"],
    ["flow", "--dt0", "0"],
    ["flow", "--rtol", "0"],
    ["flow", "--rtol", "-1"],
    ["flow", "--monitor-tol", "nan"],
    ["check", "--tol", "nan"],
    ["delta", "--tol", "-0.5"],
    ["surface", "--tol-geom", "inf"],
    ["surface", "--tol-period", "0"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_options_exit_schema_before_any_computation(tmp_path, capsys, monkeypatch, argv):
    built = []
    monkeypatch.setattr(families, "revolution_family", lambda *args: built.append(args))
    monkeypatch.setattr(families, "delaunay_xi", lambda *args: built.append(args))
    source = ["--family", "delaunay"] if argv[0] == "surface" else ["--family", "revolution"]
    out = tmp_path / "out"
    assert run(argv + source + ["--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: must be finite and positive" in err and "Traceback" not in err
    assert not built and not out.exists()


@pytest.mark.parametrize("c", ["nan", "1,inf"])
def test_nonfinite_c_coefficients_exit_schema(tmp_path, capsys, recwarn, c):
    out = tmp_path / "trajectory.csv"
    assert run(["flow", "--family", "revolution", "--c", c, "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "finite coefficients" in err and "Traceback" not in err
    assert not out.exists() and not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_check_window_from_minus_infinity_exits_schema(tmp_path, capsys, monkeypatch):
    # ln mu is anchored at the lower end, so it must be finite; [0, inf] stays
    # valid (test_check_window_to_infinity)
    built = []
    monkeypatch.setattr(families, "revolution_family", lambda *args: built.append(args))
    out = tmp_path / "out.json"
    argv = ["check", "--family", "revolution", "--window", " -inf", "0", "--out", str(out)]
    assert run(argv) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "window must satisfy lo < hi with a finite lo" in err and "Traceback" not in err
    assert not built and not out.exists()


@pytest.mark.parametrize("argv", [
    ["--domain", "0", "nan", "0", "1"],
    ["--domain", "0", "inf", "0", "1"],
    ["--pole", "nan", "0", "0", "1"],
    ["--period", "nan", "0"],
    ["--t0", "inf"],
    ["--a_r", "nan"],
    ["--b_r", "inf"],
    ["--kappa0", "nan"],
    ["--kappa1", "inf"],
], ids=lambda argv: " ".join(argv))
def test_surface_nonfinite_options_exit_schema(tmp_path, capsys, monkeypatch, recwarn, argv):
    built = []
    monkeypatch.setattr(families, "delaunay_xi", lambda *args: built.append(args))
    out = tmp_path / "surface.obj"
    assert run(["surface", "--family", "delaunay", *argv, "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert f"argument {argv[0]}: must be finite" in err and "Traceback" not in err
    assert not built and not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_check_and_delta_reports_agree_on_a_closed_window(tmp_path):
    # the window is closed: on Clifford data the double point kappa = -1
    # (Delta = -2) sits on the lower end of [-1, 5], and both the check
    # report (read off the walk of the whole circle) and the delta report
    # (a walk of the window) list it
    check_out, delta_rep = tmp_path / "check.json", tmp_path / "delta.json"
    source = ["--family", "clifford", "--window", "-1", "5"]
    assert run(["check", *source, "--out", str(check_out)]) == cli.EXIT_OK
    assert run(["delta", *source, "--out", str(tmp_path / "delta.csv"), "--report", str(delta_rep)]) == 0
    checked = json.loads(check_out.read_text())["branch_points"]
    scanned = json.loads(delta_rep.read_text())["branch_points"]
    assert [(e["kind"], e["order"]) for e in checked] == [(e["kind"], e["order"]) for e in scanned]
    assert np.allclose([e["kappa"] for e in checked], [-1.0, 0.0, 1.0], rtol=0.0, atol=1e-12)
    assert np.allclose([e["kappa"] for e in scanned], [-1.0, 0.0, 1.0], rtol=0.0, atol=1e-12)


def test_check_walks_theta_once(tmp_path, monkeypatch):
    # the window report and G come off one walk of the circle; ln mu is
    # taken at the marked points (condition C), the window's lower end and 0
    calls, walks = [], []
    lnmu_at, theta_walk = sp.lnmu_at, sp._theta_walk
    monkeypatch.setattr(sp, "lnmu_at", lambda data, k: calls.append(k) or lnmu_at(data, k))
    monkeypatch.setattr(sp, "_theta_walk", lambda *args: walks.append(args) or theta_walk(*args))
    argv = ["check", "--family", "revolution", "--H", "0.5", "--alpha", "0.25", "--window", "-3", "4"]
    assert run(argv + ["--out", str(tmp_path / "check.json")]) == cli.EXIT_OK
    data, _ = families.revolution_family(families.RevolutionParams(0.5, 0.25))
    assert len(walks) == 1
    assert sorted(calls) == sorted([data.kappa0, data.kappa1, -3.0, 0.0])


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "_PARSER", None)
    for _ in range(2):
        assert run(["check", "--family", "clifford", "--out", str(tmp_path / "check.json")]) == cli.EXIT_OK
    assert built == [1]


def test_reused_parser_hands_out_unshared_defaults(tmp_path):
    # list-valued options default to tuples, so no call can change what the
    # next one gets; a call that sets them leaves the defaults as they were
    run(["check", "--family", "clifford", "--window", "-1", "5", "--out", str(tmp_path / "check.json")])
    parser = cli._PARSER
    check = parser.parse_args(["check", "--family", "clifford"])
    surface = parser.parse_args(["surface", "--family", "clifford"])
    delta = parser.parse_args(["delta", "--family", "clifford"])
    assert check.window == (-10.0, 10.0) and delta.window == (-3.0, 3.0)
    assert surface.grid == (64, 16) and surface.domain == (-2.0, 2.0, -0.5, 0.5)
    assert parser.parse_args(["check", "--window", "1", "2"]).window == [1.0, 2.0]
    assert parser.parse_args(["check"]).window == (-10.0, 10.0)


# Curves on which a is not positive on all of RP^1, with kappa0 = 1.7 and
# kappa1 = -0.9: a = k^2 - 1; a = (k - 1)(k - 1.2)(k^2 - 6k + 9.25), a > 0
# on [2, 5]; and the node a = (k - 1)^2 (k^2 + 1/4).
_A_MINUS = {"a": [-1, 0, 1], "b": [0.3, 0.1]}
_A_TWO_ROOTS = {"a": [11.1, -27.55, 23.65, -8.2, 1], "b": [0.3, -0.2, 0.5, 0.1]}
_A_NODE = {"a": [0.25, -0.5, 1.25, -2, 1], "b": [0.3, -0.2, 0.5]}


def _data_file(tmp_path, obj):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({**obj, "kappa0": 1.7, "kappa1": -0.9}))
    return str(path)


@pytest.mark.parametrize("source,window,code,pass_a,listed,root", [
    (_A_MINUS, None, cli.EXIT_CHECK_FAILED, False, None, -1.0),
    (_A_TWO_ROOTS, ("2", "5"), cli.EXIT_CHECK_FAILED, False, [2.263638], 1.0),
    ("revolution", None, cli.EXIT_OK, True, None, 0.0),
    ("revolution", ("0.5", "3"), cli.EXIT_OK, True, [1.618034], 0.0),
    (_A_NODE, ("2", "5"), cli.EXIT_CHECK_FAILED, True, [], 1.0),
], ids=["a-negative", "two-roots-window", "node-default-window", "node-window", "node-json-window"])
def test_check_gives_verdicts_where_a_is_not_positive(tmp_path, capsys, source, window, code, pass_a,
                                                      listed, root):
    # A/B/C decide the exit code; the window report needs a > 0 on the
    # window, G on all of RP^1, and a skipped one is null with a reason that
    # names a real root of a (listed: the double points of a window report)
    if source == "revolution":
        argv = ["check", "--family", "revolution", "--H", "0.5", "--alpha", "0"]
    else:
        argv = ["check", _data_file(tmp_path, source)]
    out = tmp_path / "check.json"
    assert run(argv + (["--window", *window] if window else []) + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and f"kappa = {root:.9g})" in captured.out
    rep = json.loads(out.read_text())
    assert rep["A"] is pass_a
    assert rep["G"] is None and rep["G_details"] is None
    assert f"a real root of a at kappa = {root:.9g}" in rep["skipped"]["G"]
    if listed is None:
        assert rep["branch_points"] is None and "kappa = " in rep["skipped"]["branch_points"]
    else:
        assert "branch_points" not in rep["skipped"]
        doubles = [e["kappa"] for e in rep["branch_points"] if e["kind"] == "double_point"]
        assert len(doubles) == len(listed) and np.allclose(doubles, listed, rtol=0.0, atol=1e-6)


def test_check_of_a_positive_curve_skips_nothing(tmp_path):
    # a > 0 on all of RP^1: one walk gives the window report and G, and the
    # report has no "skipped" key
    out = tmp_path / "check.json"
    assert run(["check", "--family", "revolution", "--H", "0.5", "--alpha", "0.25",
                "--out", str(out)]) == cli.EXIT_OK
    rep = json.loads(out.read_text())
    assert "skipped" not in rep and rep["G"] is not None and rep["branch_points"]


def test_delta_on_a_negative_window_without_roots_exits_schema(tmp_path, capsys):
    # a < 0 on [1.05, 1.15], between the roots 1 and 1.2 of a
    path = _data_file(tmp_path, _A_TWO_ROOTS)
    out = tmp_path / "delta.csv"
    assert run(["delta", path, "--window", "1.05", "1.15", "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "a has real zeros" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["data.json"]


@pytest.mark.parametrize("argv", [
    ["check"],
    ["delta", "--window", "1", "2"],
    ["flow", "--c", "mobius", "--t-final", "0.01"],
], ids=["check", "delta", "flow"])
def test_zero_b_exits_schema(tmp_path, capsys, argv):
    # b = 0 makes theta constant, so every edge of a walk would be a double point
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"a": [0.25, 0, 1], "b": [0], "kappa0": 1.7, "kappa1": -0.9}))
    out = tmp_path / "out.file"
    assert run([argv[0], str(path), *argv[1:], "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "b must be a nonzero polynomial" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["data.json"]


@pytest.mark.parametrize("domain", [("0", "1", "1", "0"), ("1", "0", "0", "1"), ("0", "1", "0", "0")],
                         ids=["y-reversed", "x-reversed", "y-empty"])
def test_surface_reversed_or_empty_domain_exits_schema(tmp_path, capsys, monkeypatch, domain):
    frames = []
    monkeypatch.setattr(families, "flat_xi", lambda *args: frames.append(args))
    out = tmp_path / "surface.obj"
    argv = ["surface", "--family", "clifford", "--grid", "8", "8", "--domain", *domain, "--out", str(out)]
    assert run(argv) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "domain must satisfy X0 < X1 and Y0 < Y1" in err and "Traceback" not in err
    assert not frames and not out.exists()


@pytest.mark.parametrize("spaced,joined", [
    (["flow", "--family", "clifford", "--c", "-0.5,1", "--t-final", "0.01"],
     ["flow", "--family", "clifford", "--c=-0.5,1", "--t-final", "0.01"]),
    (["check", "--family", "clifford", "--window", "-1e-3", "5"],
     ["check", "--family", "clifford", "--window", "-0.001", "5"]),
    (["surface", "--family", "sphere", "--grid", "8", "8", "--kappa1", "-1e-3"],
     ["surface", "--family", "sphere", "--grid", "8", "8", "--kappa1=-1e-3"]),
], ids=["flow-c-list", "check-window-exponent", "surface-kappa1-exponent"])
def test_negative_values_in_exponent_form_and_lists(tmp_path, spaced, joined):
    # a negative number is an option's value, not an option, also in
    # exponent form and as a --c list: each run writes what its =-form
    # (or, for the two-valued --window, its decimal form) writes
    outs = []
    for k, argv in enumerate((spaced, joined)):
        out = tmp_path / f"out{k}"
        code = run(argv + ["--out", str(out)])
        outs.append((code, out.read_bytes()))
    assert outs[0] == outs[1] and outs[0][0] != cli.EXIT_SCHEMA
