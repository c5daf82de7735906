"""Seeded job mixes for the cmcs3 benchmark workloads, and one oracle per job kind.

Every input (argv lists, xi JSON, spectral-data JSON) is drawn from the
workload seed before timing starts, so the program under test only sees
generated files and argv.  A workload is a fixed cycle of job-kind slots; a
round is ROUND_CYCLES[workload] cycles, and each round draws fresh parameters
from (workload, seed, round).  Parameters are stratified across the slots of a
round so that every round, whatever the seed, covers the same parameter range
with the same share of each kind: that keeps the per-round medians and tails
comparable between seeds.

An oracle runs after its job, outside the timed region, and returns None when
the job's output is right, or a one-line reason when it is not.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EXIT_OK = 0

# Why each workload and job kind exists: see README.md and BENCHMARK.json.
# The mixes are chosen so that a round's median and tail fall inside a cluster
# of similar jobs, not on a gap between clusters, where they would jump
# between seeds.  Surface: median among genus-1 jobs, tail among genus-3 jobs.
SURFACE_CYCLE = ["g1"] * 13 + ["g3"] * 2 + ["clifford", "clifford", "flat", "flat", "far"]
# Closing-scan: three checks and two delta scans on each rotational route, so
# with 51 jobs a round the median falls among the checks and the tail (11th
# slowest) inside the delta cluster.
CLOSING_CYCLE = [
    (kind, route)
    for route in ("family", "json", "mobius")
    for kind in ("check", "check", "check", "delta", "delta")
] + [("check", "clifford"), ("delta", "clifford")]
# One zero driver in five: median and tail fall among the mobius/target jobs,
# not on the edge of the slow zero-driver cluster.
DEFORM_CYCLE = ["zero", "mobius", "target", "mobius", "target"]

CYCLES = {"surface": SURFACE_CYCLE, "closing-scan": CLOSING_CYCLE, "deform": DEFORM_CYCLE}
# Cycles per round.  Percentiles are taken per round, so a round must hold
# enough jobs for a tail: surface rounds hold 100 jobs, 5 of them far strips.
ROUND_CYCLES = {"surface": 5, "closing-scan": 3, "deform": 6}

CLIFFORD_PERIOD = math.pi * math.sqrt(2.0)
DELTA_WINDOW = (-3.0, 3.0)
FLOW_T_FINAL = 0.01
FLOW_MONITOR_TOL = 1e-6
# The CLI prints 9 significant digits; |Delta| <= 2 on the scanned windows.
DELTA_TOL = 1e-8
BRANCH_RATE_TOL = 1e-6


@dataclass
class Job:
    kind: str
    argv: list
    outputs: list
    check: Callable  # (job, rc) -> Optional[str]
    envelope: bool = False  # expected to hit the documented factorization envelope
    expect: dict = field(default_factory=dict)


def _num(x):
    return repr(float(x))


def _strata(rng, n, cycles):
    """n uniforms in [0, 1), one near the middle of each of n equal strata.

    They come in slot order for n = k * cycles slots, k in each cycle: every
    cycle gets one value from each of k blocks of `cycles` neighbouring strata,
    so a run that stops after any cycle still covers the whole range.  The
    seed draws which block goes to which slot of a cycle, which stratum of a
    block to which cycle, and an offset of at most a quarter stratum from the
    middle.
    """
    k = n // cycles
    mids = [(i + 0.5 + 0.5 * (rng.random() - 0.5)) / n for i in range(n)]
    picks = [rng.sample(range(cycles), cycles) for _ in range(k)]
    out = []
    for c in range(cycles):
        out += [mids[b * cycles + picks[b][c]] for b in rng.sample(range(k), k)]
    return out


def _design(rng, slots, cycles, dims=6):
    """Per slot, `dims` uniforms in [0, 1): a Latin hypercube within each slot class.

    A class with n slots in the round gets, in every dimension, one value from
    each of n equal strata, spread evenly over the cycles, so each round and
    each cycle cover every parameter range of every job kind, and per-run
    costs barely move with the seed.
    """
    columns = {}
    for key in sorted(set(slots)):
        n = slots.count(key)
        columns[key] = iter(zip(*(_strata(rng, n, cycles) for _ in range(dims))))
    return [next(columns[key]) for key in slots]


def _round_rng(workload, seed, rnd):
    return random.Random(f"cmcs3-bench:{workload}:{seed}:{rnd}")


# ---------------------------------------------------------------------------
# surface


def _effective_ny(domain, nx, ny):
    # sample_surface keeps the x spacing and rounds ny to match it
    x0, x1, y0, y1 = domain
    hx = (x1 - x0) / (nx - 1)
    return max(int(round((y1 - y0) / hx)) + 1, 5)


def _surface_check(job, rc):
    if rc != EXIT_OK:
        return f"exit {rc}"
    with open(job.expect["report"]) as fh:
        report = json.load(fh)
    if report.get("passes") is not True:
        return "report passes is not true"
    ny_eff = _effective_ny(job.expect["domain"], job.expect["nx"], job.expect["ny"])
    cols = job.expect["nx"] - (1 if job.expect["stitch"] else 0)
    rows = ny_eff - (1 if job.expect["stitch"] else 0)
    with open(job.expect["obj"]) as fh:
        nverts = sum(1 for line in fh if line.startswith("v "))
    if nverts != cols * rows:
        return f"OBJ has {nverts} vertices, expected {cols} x {rows}"
    if job.expect.get("csv"):
        with open(job.expect["csv"]) as fh:
            nrows = sum(1 for _ in fh) - 1
        if nrows != job.expect["nx"] * ny_eff:
            return f"CSV has {nrows} rows, expected {job.expect['nx'] * ny_eff}"
    return None


def _surface_job(idx, kind, argv, domain, nx, ny, stitch=False, csv=False, envelope=False):
    obj, rep = f"j{idx}.obj", f"j{idx}.json"
    argv = argv + [
        "--grid", str(nx), str(ny), "--domain", *(_num(v) for v in domain),
        "--out", obj, "--report", rep,
    ]
    outputs = [obj, rep]
    expect = {"obj": obj, "report": rep, "domain": domain, "nx": nx, "ny": ny, "stitch": stitch}
    if csv:
        argv += ["--csv", f"j{idx}.csv"]
        outputs.append(f"j{idx}.csv")
        expect["csv"] = f"j{idx}.csv"
    if stitch:
        argv += ["--stitch-x", "--stitch-y"]
    return Job(kind, ["surface"] + argv, outputs, _surface_check, envelope, expect)


def _delaunay_radii(u1, u2):
    # wider necks (b_r - a_r > 0.2) reach the factorization envelope before |z| = 5
    a_r = 0.2 + 0.2 * u1
    return a_r, a_r + 0.1 + 0.1 * u2


def surface_round(seed, rnd, cycles, first_idx, workdir):
    from cmcs3 import families
    from cmcs3 import loop_algebra as la

    slots = SURFACE_CYCLE * cycles
    design = _design(_round_rng("surface", seed, rnd), slots, cycles)
    jobs = []
    width = 0.7  # 8x8 windows with spacing 0.1
    for j, (kind, u) in enumerate(zip(slots, design)):
        idx = first_idx + j
        if kind in ("g1", "g3"):
            a_r, b_r = _delaunay_radii(u[1], u[2])
            theta = 0.5 * math.pi * u[3]
        if kind == "g1":
            r = 4.3 * u[0]
            x0, y0 = r * math.cos(theta), r * math.sin(theta)
            domain = (x0, x0 + width, y0, y0 + width)
            argv = ["--family", "delaunay", "--a_r", _num(a_r), "--b_r", _num(b_r)]
            jobs.append(_surface_job(idx, "surface.g1", argv, domain, 8, 8))
        elif kind == "g3":
            r = 1.2 * u[0]
            x0, y0 = r * math.cos(theta), r * math.sin(theta)
            # |beta| < 0.3 puts so much curvature near the origin that the 8x8
            # finite-difference geometry check fails (exit 1)
            rho, phi = 0.3 + 0.3 * u[4], 2.0 * math.pi * u[5]
            beta = complex(rho * math.cos(phi), rho * math.sin(phi))
            xi = la.dress_simple_factor(families.delaunay_xi(families.DelaunayParams(a_r, b_r)), beta)
            path = f"xi{idx}.json"
            with open(os.path.join(workdir, path), "w") as fh:
                json.dump(xi.to_json(), fh)
            domain = (x0, x0 + width, y0, y0 + width)
            jobs.append(_surface_job(idx, "surface.g3", ["--xi", path], domain, 8, 8))
        elif kind == "far":
            # Delaunay(0.3, 0.5) strips fail from Im z ~ 6.6 on; thinner necks
            # factor further out, so the radii are fixed here
            y1, x0 = 7.0 + 3.0 * u[0], u[1]
            domain = (x0, x0 + width, y1 - width, y1)
            argv = ["--family", "delaunay", "--a_r", "0.3", "--b_r", "0.5"]
            jobs.append(_surface_job(idx, "surface.far", argv, domain, 8, 8, envelope=True))
        else:
            x0, y0 = u[1], u[2]
            domain = (x0, x0 + CLIFFORD_PERIOD, y0, y0 + CLIFFORD_PERIOD)
            argv = ["--family", kind]
            if kind == "flat":
                argv += ["--t0", _num(0.4 + 0.8 * u[0])]
            jobs.append(
                _surface_job(idx, "surface.closed", argv, domain, 48, 48, stitch=True, csv=True)
            )
    return jobs


# ---------------------------------------------------------------------------
# closing-scan and deform: seeded rotational data


def rotational(h, alpha):
    """(a, b, kappa0, kappa1, b2) of the rotational cylinder, by its closed form."""
    kappa0 = h + math.sqrt(h * h + 1.0)
    b2 = math.sqrt((kappa0 * kappa0 + 1.0) / (4.0 * (kappa0 * kappa0 + alpha)))
    return [alpha, 0.0, 1.0], [0.0, b2 * (1.0 - alpha)], kappa0, -kappa0, b2


def rotational_delta(kappa, alpha, b2):
    """Delta = 2 cos(2 pi b2 sqrt((k^2+alpha)/(k^2+1))), vectorized over kappa."""
    k2 = np.asarray(kappa, dtype=float) ** 2
    return 2.0 * np.cos(2.0 * math.pi * b2 * np.sqrt((k2 + alpha) / (k2 + 1.0)))


def clifford_delta(kappa):
    k = np.asarray(kappa, dtype=float)
    return 2.0 * np.cos(math.sqrt(2.0) * math.pi * k / np.sqrt(k * k + 1.0))


def _check_check(job, rc):
    if rc != EXIT_OK:
        return f"exit {rc}"
    with open(job.expect["out"]) as fh:
        rep = json.load(fh)
    if not (rep["A"] is True and rep["B"]["pass"] is True and rep["C"]["pass"] is True):
        return "a closing condition failed"
    return None


def _delta_check(job, rc):
    if rc != EXIT_OK:
        return f"exit {rc}"
    e = job.expect
    kappas = np.linspace(DELTA_WINDOW[0], DELTA_WINDOW[1], e["samples"])
    with open(e["out"]) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    if len(rows) != e["samples"]:
        return f"{len(rows)} rows, expected {e['samples']}"
    got = np.array([float(r[1]) for r in rows])
    if e["route"] == "clifford":
        want = clifford_delta(kappas)
    else:
        if e["route"] == "mobius":
            # the file is in the transported coordinate k' = (c k - s)/(c + s k)
            c, s = math.cos(e["phi"]), math.sin(e["phi"])
            kappas = (c * kappas + s) / (c - s * kappas)
        want = rotational_delta(kappas, e["alpha"], e["b2"])
    err = float(np.max(np.abs(got - want)))
    if not err <= DELTA_TOL:
        return f"Delta differs from the closed form by {err:.3e}"
    return None


def _spectral_source(idx, route, h, alpha, phi, workdir):
    from cmcs3 import families
    from cmcs3 import spectral as sp

    if route == "family":
        return ["--family", "revolution", "--H", _num(h), "--alpha", _num(alpha)]
    if route == "clifford":
        return ["--family", "clifford"]
    data, _ = families.revolution_family(families.RevolutionParams(h, alpha))
    if route == "mobius":
        data = sp.mobius_transform_data(data, phi)
    path = f"data{idx}.json"
    with open(os.path.join(workdir, path), "w") as fh:
        json.dump(data.to_json(), fh)
    return [path]


def _mobius_angle(u):
    # |phi| <= 0.2 keeps |cot(phi)| >= 4.9 above kappa0 <= 2 + sqrt(5), so no
    # marked point is sent to infinity
    mag = 0.05 + 0.15 * ((2.0 * u) % 1.0)
    return mag if u < 0.5 else -mag


def closing_round(seed, rnd, cycles, first_idx, workdir):
    slots = CLOSING_CYCLE * cycles
    design = _design(_round_rng("closing-scan", seed, rnd), slots, cycles)
    jobs = []
    for j, ((kind, route), u) in enumerate(zip(slots, design)):
        idx = first_idx + j
        h, alpha = 2.0 * u[0], 0.05 + 0.85 * u[1]
        phi = _mobius_angle(u[2])
        b2 = rotational(h, alpha)[4]
        src = _spectral_source(idx, route, h, alpha, phi, workdir)
        expect = {"route": route, "alpha": alpha, "b2": b2, "phi": phi}
        if kind == "check":
            out = f"j{idx}.json"
            expect["out"] = out
            jobs.append(Job(f"closing-scan.check.{route}", ["check"] + src + ["--out", out],
                            [out], _check_check, expect=expect))
        else:
            m = 41 + int(200.999 * u[3])
            out, rep = f"j{idx}.csv", f"j{idx}.json"
            expect.update(out=out, samples=m)
            argv = ["delta"] + src + [
                "--window", _num(DELTA_WINDOW[0]), _num(DELTA_WINDOW[1]),
                "--samples", str(m), "--out", out, "--report", rep,
            ]
            jobs.append(Job(f"closing-scan.delta.{route}", argv, [out, rep], _delta_check,
                            expect=expect))
    return jobs


def _round9(x):
    return float(f"{float(x):.9g}")


def _flow_check(job, rc):
    if rc != EXIT_OK:
        return f"exit {rc}"
    with open(job.expect["final"]) as fh:
        fin = json.load(fh)
    if fin["completed"] is not True:
        return f"flow stopped: {fin['reason']}"
    worst = max(fin["res_C0"], fin["res_C1"], fin["res_B"])
    if not worst < FLOW_MONITOR_TOL:
        return f"monitor residual {worst:.3e} above tolerance"
    e = job.expect
    if e["driver"] == "zero":
        a, b, k0, k1, _ = rotational(e["H"], e["alpha"])
        want = {"a": [_round9(v) for v in a], "b": [_round9(v) for v in b],
                "kappa0": _round9(k0), "kappa1": _round9(k1)}
        if fin["data"] != want:
            return "zero flow changed the data"
    elif e["driver"] == "target":
        from cmcs3 import flow
        from cmcs3 import spectral as sp

        data = sp.SpectralData.from_json(fin["data"])
        beta = flow.b_root_basis(data)[0].value
        d_final = sp.delta(data, beta).real
        # the root of b = b2 (1 - alpha) k is k = 0, where Delta = 2 cos(2 pi b2 sqrt(alpha))
        d_start = float(rotational_delta(0.0, e["alpha"], e["b2"]))
        moved = d_final - d_start
        if not abs(moved - FLOW_T_FINAL) < BRANCH_RATE_TOL:
            return f"Delta at the targeted root moved by {moved:.9f}, expected {FLOW_T_FINAL}"
    return None


def deform_round(seed, rnd, cycles, first_idx, workdir):
    slots = DEFORM_CYCLE * cycles
    design = _design(_round_rng("deform", seed, rnd), slots, cycles)
    jobs = []
    for j, (driver, u) in enumerate(zip(slots, design)):
        idx = first_idx + j
        h, alpha = 2.0 * u[0], 0.05 + 0.85 * u[1]
        c_args = ["--target-branch", "0"] if driver == "target" else ["--c", driver]
        traj, fin = f"j{idx}.csv", f"j{idx}.json"
        argv = [
            "flow", "--family", "revolution", "--H", _num(h), "--alpha", _num(alpha), *c_args,
            "--t-final", _num(FLOW_T_FINAL), "--samples", "2",
            "--monitor-tol", _num(FLOW_MONITOR_TOL), "--out", traj, "--final-json", fin,
        ]
        expect = {"driver": driver, "H": h, "alpha": alpha, "b2": rotational(h, alpha)[4],
                  "final": fin}
        jobs.append(Job(f"deform.{driver}", argv, [traj, fin], _flow_check, expect=expect))
    return jobs


ROUNDS = {"surface": surface_round, "closing-scan": closing_round, "deform": deform_round}


def make_round(workload, seed, rnd, cycles, first_idx, workdir):
    """Jobs of one round, with their input files written into workdir."""
    return ROUNDS[workload](seed, rnd, cycles, first_idx, workdir)


WARMUP_IDX = 10**6  # warm-up files must not overwrite a round's inputs


def warmup_jobs(workload, workdir):
    """One small job of each kind (not timed, not seeded), so that lazy imports
    and first-call costs are paid before timing starts."""
    shrink = {"--grid": ["8", "8"], "--t-final": ["0.001"], "--samples": ["1"]}
    jobs, seen = [], set()
    for job in make_round(workload, 0, -1, 1, WARMUP_IDX, workdir):
        if job.kind in seen:
            continue
        seen.add(job.kind)
        for flag, value in shrink.items():
            if flag in job.argv:
                i = job.argv.index(flag) + 1
                job.argv[i: i + len(value)] = value
        if job.argv[0] == "delta":
            job.argv[job.argv.index("--samples") + 1] = "9"
        jobs.append(job)
    return jobs
