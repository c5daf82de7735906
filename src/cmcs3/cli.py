"""Command-line front end.

Subcommands: surface (mesh + geometry report), check (closing conditions),
flow (deformation trajectory), delta (trace-function scan), verify (run the
acceptance test suite).  Exit codes: 0 success, 1 a verification check
failed, 2 numerical failure, 3 malformed input or usage.

All emitted numbers are formatted to 9 significant digits so identical
configurations produce byte-identical files.
"""

import argparse
import cmath
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import families, flow, immersion, iwasawa
from . import loop_algebra as la
from . import spectral as sp
from .errors import CMCError, DomainError, PreconditionError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NUMERICAL = 2
EXIT_SCHEMA = 3


class _SchemaError(Exception):
    pass


class _CheckFailed(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are schema errors (exit 3), not numerical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _SchemaError(message)


def _fmt(x):
    return float(f"{float(x):.9g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, complex):
        return [_fmt(obj.real), _fmt(obj.imag)]
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-cmcs3-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj):
    _write_atomic(path, json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _SchemaError(f"cannot read JSON from {path}: {exc}")


def _load_spectral_data(args):
    if getattr(args, "data", None):
        obj = _load_json(args.data)
        try:
            return sp.SpectralData.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, CMCError):
                raise
            raise _SchemaError(f"bad spectral data file {args.data}: {exc}")
    fam = getattr(args, "family", None)
    if fam == "revolution":
        data, _ = families.revolution_family(
            families.RevolutionParams(args.H, args.alpha)
        )
        return data
    if fam == "clifford":
        return families.clifford_spectral_data()
    raise _SchemaError("provide a spectral data file or --family revolution/clifford")


# ---------------------------------------------------------------------------
# surface


def _surface_setup(args):
    fam = args.family
    if args.xi:
        obj = _load_json(args.xi)
        try:  # shape and finiteness first (exit 3), then the xi checks (exit 1)
            xi = la.LaurentMatrix.from_json(obj, validate=False)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise _SchemaError(f"bad xi file {args.xi}: {exc}")
        try:
            xi = la.LaurentMatrix(xi.g, xi.coeffs)
        except CMCError as exc:
            raise _CheckFailed(f"loop_algebra: xi validation failed: {exc}")
        marked = immersion.MarkedPoints.from_kappa(args.kappa0, args.kappa1)
        return immersion.TiledFrames(xi), marked, xi
    if fam in ("flat", "clifford"):
        t0 = math.pi / 4 if fam == "clifford" else args.t0
        xi, marked = families.flat_xi(t0)
        return families.flat_frame, marked, xi
    if fam == "sphere":
        marked = immersion.MarkedPoints.from_kappa(args.kappa0, args.kappa1)
        return families.sphere_frame, marked, None
    if fam == "delaunay":
        params = families.DelaunayParams(args.a_r, args.b_r)
        xi = families.delaunay_xi(params)
        marked = immersion.MarkedPoints.from_kappa(args.kappa0, args.kappa1)
        return immersion.TiledFrames(xi), marked, xi
    raise _SchemaError("surface needs --family sphere/flat/clifford/delaunay or --xi FILE")


def cmd_surface(args):
    frames, marked, xi = _surface_setup(args)
    nx, ny = args.grid
    if nx < 8 or ny < 8:
        raise _SchemaError("grid must be at least 8x8")
    domain = tuple(args.domain)
    sample = immersion.sample_surface(frames, marked, domain, nx, ny)
    h_exp, q_exp, _ = immersion.expected_invariants(marked)
    if xi is not None:
        q_exp = q_exp * immersion.hopf_scale(xi)
    h_num, q_num = sample.h_num, sample.q_num
    inner = (slice(1, -1), slice(1, -1))
    h_dev = float(np.nanmax(np.abs(h_num[inner] - h_exp)))
    q_dev = float(np.nanmax(np.abs(q_num[inner] - q_exp)))
    conf = float(np.nanmax(sample.conformality[inner]))
    _, sg_max = immersion.sinh_gordon_residual(sample)

    report = {
        "H_expected": h_exp,
        "H_num_mean": float(np.nanmean(h_num[inner])),
        "H_max_dev": h_dev,
        "Q_expected": [q_exp.real, q_exp.imag],
        "Q_num_mean": [
            float(np.nanmean(q_num[inner].real)),
            float(np.nanmean(q_num[inner].imag)),
        ],
        "Q_max_dev": q_dev,
        "conformality_max": conf,
        "sinh_gordon_max": sg_max,
        "periodicity": None,
        # ny is rounded so the y spacing matches the x spacing
        "grid_effective": [len(sample.x), len(sample.y)],
        # worst factorization defects over the grid; None for closed-form frames
        "frame_defects": getattr(frames, "defects", None),
    }
    checks = [
        h_dev < args.tol_geom * max(1.0, abs(h_exp)),
        q_dev < args.tol_geom * max(1.0, abs(q_exp)),
        conf < args.tol_geom,
    ]
    if args.period is not None:
        if xi is None:
            raise _SchemaError("--period needs a Laurent-matrix model (not the sphere)")
        tau = complex(args.period[0], args.period[1])
        per = immersion.periodicity_check(xi, marked, tau, tol=args.tol_period)
        report["periodicity"] = per
        checks.append(bool(per["passes"]))
    report["passes"] = bool(all(checks))

    immersion.export_mesh(
        sample, args.out, stitch_x=args.stitch_x, stitch_y=args.stitch_y,
        pole=np.array(args.pole) if args.pole else None,
    )
    if args.csv:
        immersion.write_surface_csv(sample, args.csv)
    if args.report:
        _write_json(args.report, report)
    print(f"wrote {args.out}; H deviation {h_dev:.3e}, Q deviation {q_dev:.3e}")
    return EXIT_OK if report["passes"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# check


def _branch_json(branch):
    return [
        {"kappa": e.kappa.real, "delta": complex(e.delta).real, "order": e.order, "kind": e.kind,
         "kappa_err": e.kappa_err}
        for e in branch
    ]


def _window(args, finite):
    """--window as (lo, hi), checked before any computation: lo < hi (NaN
    fails it), lo finite (ln mu is anchored there) and, with finite set, hi
    finite too; else exit 3."""
    lo, hi = args.window
    if not (lo < hi and math.isfinite(lo) and (math.isfinite(hi) or not finite)):
        raise _SchemaError("window must satisfy lo < hi with a finite lo" + (" and hi" if finite else ""))
    return lo, hi


def cmd_check(args):
    window = _window(args, finite=False)
    data = _load_spectral_data(args)
    report = sp.check_conditions(data, tol=args.tol)
    branch, g_val, g_details = sp.branch_points_and_g(data, window)
    out = {**report, "branch_points": _branch_json(branch), "G": g_val, "G_details": g_details}
    if args.out:
        _write_json(args.out, out)
    ok = report["A"] and report["B"]["pass"] and report["C"]["pass"]
    print(
        "conditions A/B/C: "
        + "/".join("pass" if p else "FAIL" for p in (report["A"], report["B"]["pass"], report["C"]["pass"]))
        + f"; residuals B={report['residuals']['B']:.3e} "
        + f"C=({report['residuals']['C0']:.3e}, {report['residuals']['C1']:.3e}); G={g_val}"
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# flow


def _c_supplier_from_args(args, data):
    """c_supplier(state, t) of flow_integrate; only the target driver reads t."""
    if args.target_branch is not None:
        return flow.branch_target_supplier(data, args.target_branch)
    if args.c == "zero":
        zero = la.RealPolynomial(np.zeros(1))
        return lambda d, t: zero
    if args.c == "mobius":
        return lambda d, t: d.b
    try:
        coeffs = np.array([float(x) for x in args.c.split(",")])
    except ValueError:
        coeffs = None
    if coeffs is None or not np.isfinite(coeffs).all():
        raise _SchemaError(f"--c must be zero, mobius, or comma-separated finite coefficients; got {args.c!r}")
    if len(coeffs) > data.g + 2:
        raise _SchemaError(f"c has degree > g+1 = {data.g + 1}")
    c = la.RealPolynomial(coeffs)
    return lambda d, t: c


def cmd_flow(args):
    data = _load_spectral_data(args)
    supplier = _c_supplier_from_args(args, data)
    samples = list(np.linspace(0.0, args.t_final, args.samples + 1)[1:])
    trajectory, status = flow.flow_integrate(
        data,
        supplier,
        args.t_final,
        dt0=args.dt0,
        rtol=args.rtol,
        monitor_tol=args.monitor_tol,
        sample_times=samples,
    )
    flow.trajectory_to_csv(trajectory, args.out)
    final = trajectory[-1]
    if args.final_json:
        _write_json(
            args.final_json,
            {
                "t": final.t,
                "data": final.data.to_json(),
                "H": final.data.mean_curvature,
                "res_C0": final.monitors["res_C0"],
                "res_C1": final.monitors["res_C1"],
                "res_B": final.monitors["res_B"],
                **{k: v for k, v in status.items() if k != "t_reached"},
            },
        )
    print(
        f"flow reached t = {final.t:.9g} ({'completed' if status['completed'] else 'stopped: ' + status['reason']}); "
        f"wrote {args.out}"
    )
    if not status["completed"]:
        return EXIT_CHECK_FAILED
    worst = max(final.monitors["res_C0"], final.monitors["res_C1"], final.monitors["res_B"])
    return EXIT_OK if worst < args.monitor_tol else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# delta


def cmd_delta(args):
    lo, hi = _window(args, finite=True)
    data = _load_spectral_data(args)
    kappas = np.linspace(lo, hi, args.samples)
    # one walk over [lo, hi] (hi added for --samples 1), anchored at lo; it
    # checks a > 0 before any ln mu, so a failing window writes nothing
    deltas, branch = sp.delta_scan(data, np.append(kappas, hi))
    deltas = deltas[:-1].real
    flags = np.abs(deltas) <= 2.0 + args.tol
    all_in_range = bool(flags.all())
    lines = ["kappa,delta,abs_le_2"] + [
        f"{k:.9g},{d:.9g},{int(f)}" for k, d, f in zip(kappas.tolist(), deltas.tolist(), flags.tolist())
    ]
    _write_atomic(args.out, "\n".join(lines) + "\n")
    if args.report:
        _write_json(
            args.report,
            {
                "window": [lo, hi],
                "condition_F": all_in_range,
                "branch_points": _branch_json(branch),
            },
        )
    print(
        f"wrote {args.out}; {len(branch)} real zeros of Delta' in [{lo:.9g}, {hi:.9g}]; "
        f"|Delta| <= 2 everywhere: {all_in_range}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    import subprocess

    tests = args.tests_dir
    target = os.path.join(tests, "test_acceptance.py")
    if not os.path.exists(target):
        print(f"acceptance tests not found at {target}", file=sys.stderr)
        return EXIT_SCHEMA
    env = dict(os.environ)
    if args.seed is not None:
        env["CMCS3_SEED"] = str(args.seed)
    proc = subprocess.run([sys.executable, "-m", "pytest", target, "-v"], env=env)
    return EXIT_OK if proc.returncode == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument wiring


def _count_at_least(least):
    """argparse type of an integer count, rejected below least (exit 3)."""
    def count(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    return count


def _finite(text):
    """argparse type of a float that must be finite (exit 3)."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _finite_positive(text):
    """argparse type of a tolerance or time: a finite float > 0 (exit 3)."""
    x = float(text)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return x


def _add_data_source(p):
    p.add_argument("data", nargs="?", help="SpectralData JSON file")
    p.add_argument("--family", choices=["revolution", "clifford"], help="named family instead of a file")
    p.add_argument("--H", type=float, default=0.0, help="revolution mean curvature (>= 0)")
    p.add_argument("--alpha", type=float, default=0.25, help="revolution branch parameter in [0, 1)")


def build_parser():
    parser = _Parser(prog="cmcs3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("surface", help="sample an immersion and write a mesh")
    ps.add_argument("--family", choices=["sphere", "flat", "clifford", "delaunay"])
    ps.add_argument("--xi", help="LaurentMatrix JSON file")
    ps.add_argument("--t0", type=_finite, default=math.pi / 4, help="flat-family angle")
    ps.add_argument("--a_r", type=_finite, default=0.3, help="Delaunay radius a_r")
    ps.add_argument("--b_r", type=_finite, default=0.5, help="Delaunay radius b_r")
    ps.add_argument("--kappa0", type=_finite, default=1.0, help="first marked point (kappa)")
    ps.add_argument("--kappa1", type=_finite, default=-1.0, help="second marked point (kappa)")
    ps.add_argument("--grid", type=int, nargs=2, default=(64, 16), metavar=("NX", "NY"))
    ps.add_argument(
        "--domain", type=_finite, nargs=4, default=(-2.0, 2.0, -0.5, 0.5),
        metavar=("X0", "X1", "Y0", "Y1"),
    )
    ps.add_argument("--out", default="surface.obj", help="OBJ output path")
    ps.add_argument("--csv", help="optional per-vertex CSV output")
    ps.add_argument("--report", help="optional JSON report path")
    ps.add_argument("--period", type=_finite, nargs=2, metavar=("RE", "IM"), help="check this period")
    ps.add_argument("--stitch-x", action="store_true", help="close the mesh in x")
    ps.add_argument("--stitch-y", action="store_true", help="close the mesh in y")
    ps.add_argument("--pole", type=_finite, nargs=4, help="stereographic pole in R^4")
    ps.add_argument("--tol-geom", type=_finite_positive, default=0.02, help="relative geometry tolerance")
    ps.add_argument("--tol-period", type=_finite_positive, default=1e-6)
    ps.set_defaults(fn=cmd_surface)

    pc = sub.add_parser("check", help="verify the closing conditions of spectral data")
    _add_data_source(pc)
    pc.add_argument("--tol", type=_finite_positive, default=1e-8)
    pc.add_argument("--window", type=float, nargs=2, default=(-10.0, 10.0))
    pc.add_argument("--out", help="JSON report path")
    pc.set_defaults(fn=cmd_check)

    pf = sub.add_parser("flow", help="integrate a deformation of spectral data")
    _add_data_source(pf)
    pf.add_argument("--c", default="zero", help="zero | mobius | comma-separated coefficients")
    pf.add_argument("--target-branch", type=int, help="index of the b-root to move at unit rate")
    pf.add_argument("--t-final", type=_finite_positive, default=0.1)
    pf.add_argument("--dt0", type=_finite_positive, default=1e-3)
    pf.add_argument("--rtol", type=_finite_positive, default=1e-8)
    pf.add_argument("--monitor-tol", type=_finite_positive, default=1e-6)
    pf.add_argument("--samples", type=_count_at_least(0), default=10, help="number of trajectory rows after t=0")
    pf.add_argument("--out", default="trajectory.csv")
    pf.add_argument("--final-json", help="write the final state as JSON")
    pf.set_defaults(fn=cmd_flow)

    pd = sub.add_parser("delta", help="scan the trace function on a real window")
    _add_data_source(pd)
    pd.add_argument("--window", type=float, nargs=2, default=(-3.0, 3.0))
    pd.add_argument("--samples", type=_count_at_least(1), default=241)
    pd.add_argument("--tol", type=_finite_positive, default=1e-8)
    pd.add_argument("--out", default="delta.csv")
    pd.add_argument("--report", help="JSON branch report path")
    pd.set_defaults(fn=cmd_delta)

    pv = sub.add_parser("verify", help="run the acceptance test suite")
    pv.add_argument("--tests-dir", default="tests")
    pv.add_argument("--seed", type=int, help="seed for randomized property tests")
    pv.set_defaults(fn=cmd_verify)
    return parser


_PARSER = None  # built on the first main call, then reused: its defaults are immutable


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        return args.fn(args)
    except _SchemaError as exc:
        print(f"cmcs3: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _CheckFailed as exc:
        print(f"cmcs3: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (DomainError, PreconditionError) as exc:
        print(f"cmcs3: invalid input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CMCError as exc:
        print(f"cmcs3: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
