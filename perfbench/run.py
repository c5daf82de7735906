"""cmcs3 benchmark: three CLI workloads run in-process through cmcs3.cli.main.

Usage (from the repository root):

    python3 perfbench/run.py --workload surface --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

One client runs jobs in a closed loop, in one process with BLAS threads pinned
to 1; it starts no threads or subprocesses.  All inputs are generated from the
seed before timing starts.  Jobs run cycle by cycle through rounds
(workloads.ROUND_CYCLES); another cycle starts only while it is expected to
end within --seconds, and the first round always runs to its end.  Each job
is checked by its oracle outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs jobs untraced for
half of --seconds, then the same jobs traced, and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  Every run also writes a result record for --compare.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported: default threading adds 64 ms outliers

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
DEFAULT_RESULTS = os.path.join(".perfbench_out", "results")

SETUP_REPEATS = 3
MAX_ROUNDS = 16
TAIL_BEYOND = 10

E2E_UNITS = {
    "jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.tail": "ms",
    "failed_frac": "fraction", "setup_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["surface", "closing-scan", "deform"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true",
                   help="one cycle per round, one round, one set-up: a smoke run")
    p.add_argument("--results", default=DEFAULT_RESULTS,
                   help="directory (under the repository root) for result records")
    p.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                   help="compare two directories of result records and exit")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required")
    return args


def import_cmcs3():
    """Import cmcs3 from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "cmcs3", "__init__.py")):
        raise SystemExit(f"perfbench: no cmcs3 sources under {SRC}")
    sys.path.insert(0, SRC)
    import cmcs3
    from cmcs3 import cli

    if not os.path.abspath(cmcs3.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: cmcs3 imported from {cmcs3.__file__}, not {SRC}")
    return cmcs3, cli


# ---------------------------------------------------------------------------
# provenance


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance(args):
    import numpy as np

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cmcs3")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "quick": args.quick,
    }


# ---------------------------------------------------------------------------
# jobs


class Outcome:
    __slots__ = ("job", "ms", "rc", "reason", "bytes_out", "export_bytes")

    def __init__(self, job, ms, rc, reason, bytes_out, export_bytes):
        self.job, self.ms, self.rc, self.reason = job, ms, rc, reason
        self.bytes_out, self.export_bytes = bytes_out, export_bytes

    @property
    def ok(self):
        return self.reason is None

    @property
    def expected(self):
        """Passed, or failed cleanly at the documented factorization envelope."""
        return self.ok or (self.job.envelope and self.rc == 2)


def run_job(cli, job, tracer=None, job_id=None):
    out, err = io.StringIO(), io.StringIO()
    reason = None
    rc = None
    span = tracer.begin_job(job_id) if tracer else None
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
    except Exception:  # a raw traceback out of cli.main is a failed job, not a harness crash
        reason = "uncaught exception: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
    t1 = time.perf_counter_ns()
    if tracer:
        tracer.end_job(span)
    if reason is None:
        try:
            reason = job.check(job, rc)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"oracle could not read the output: {exc!r}"
    sizes = {p: os.path.getsize(p) for p in job.outputs if os.path.exists(p)}
    export = sum(s for p, s in sizes.items() if p.endswith((".obj", ".csv")) and
                 job.argv[0] == "surface")
    bytes_out = sum(sizes.values()) + len(out.getvalue().encode()) + len(err.getvalue().encode())
    for p in sizes:
        os.unlink(p)
    if reason is not None and rc is not None and err.getvalue():
        reason += ": " + err.getvalue().strip().splitlines()[-1][:160]
    return Outcome(job, (t1 - t0) / 1e6, rc, reason, bytes_out, export)


def run_cycles(cli, rounds, cycle_len, seconds, full_round=True, tracer=None, limit=None):
    """Run the job mix cycle by cycle, round after round; returns the outcomes.

    Another cycle starts only while it is expected to end within `seconds`.
    With full_round the first round always runs to its end, so the tail level
    leaves at least 10 jobs beyond it.  `limit` caps the number of jobs.
    """
    jobs = [job for rnd in rounds for job in rnd]
    first = len(rounds[0]) if full_round else 1
    out = []
    start = time.perf_counter()
    for c in range(0, len(jobs), cycle_len):
        elapsed = time.perf_counter() - start
        if limit is not None and len(out) >= limit:
            break
        if len(out) >= first and elapsed + elapsed * cycle_len / len(out) > seconds:
            break
        out += [run_job(cli, job, tracer, i) for i, job in enumerate(jobs[c:c + cycle_len], c)]
    return out


def setup(cli, args, cycles, n_rounds, workdir):
    """Generate every input and warm up; returns (rounds, seconds taken)."""
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.chdir(workdir)
    rounds = []
    per_round = len(workloads.CYCLES[args.workload]) * cycles
    for rnd in range(n_rounds):
        rounds.append(workloads.make_round(args.workload, args.seed, rnd, cycles,
                                           rnd * per_round, workdir))
    for job in workloads.warmup_jobs(args.workload, workdir):
        run_job(cli, job)
    return rounds, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# metrics


def percentiles(outs, round_len):
    """(p50, tail, tail percentile) over all jobs run; a failed job counts as +inf.

    The tail level is the highest percentile that leaves 10 jobs of a round
    beyond it, (round_len - 10) / round_len; it is read from every job of the
    run, nearest rank.  Turning a failure into a success can only lower both.
    """
    vals = sorted(o.ms if o.ok else math.inf for o in outs)
    level = (round_len - TAIL_BEYOND) / round_len if round_len > TAIL_BEYOND else 1.0
    rank = max(math.ceil(level * len(vals)), 1)
    return statistics.median(vals), vals[rank - 1], 100.0 * level


def e2e_metrics(outs, round_len, setup_s):
    passed = sum(1 for o in outs if o.ok)
    p50, tail, tail_pct = percentiles(outs, round_len)
    return {
        "jobs_per_s": passed / (sum(o.ms for o in outs) / 1e3),
        "job_ms.p50": p50,
        "job_ms.tail": tail,
        "failed_frac": (len(outs) - passed) / len(outs),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, tail_pct


def _finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def summary_lines(args, flat, e2e, tail_pct, round_len):
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
             f"{len(flat)} jobs, rounds of {round_len}"]
    notes = {"job_ms.tail": f"p{tail_pct:.4g}: 10 jobs of a round beyond it; failed jobs = +inf",
             "job_ms.p50": "failed jobs count as +inf",
             "failed_frac": f"{sum(1 for o in flat if not o.ok)}/{len(flat)} jobs"}
    for name, value in e2e.items():
        lines.append(f"  {name:<13} {value:>14.6g} {E2E_UNITS[name]:<8} {notes.get(name, '')}")
    kinds = {}
    for o in flat:
        k = kinds.setdefault(o.job.kind, [0, 0, []])
        k[0] += 1
        k[1] += 0 if o.ok else 1
        k[2].append(o.ms)
    lines.append(f"  {'job kind':<26}{'jobs':>6}{'failed':>8}{'median ms':>12}")
    for kind, (n, nf, ms) in sorted(kinds.items()):
        lines.append(f"  {kind:<26}{n:>6}{nf:>8}{statistics.median(ms):>12.1f}")
    seen = set()
    for o in flat:
        if not o.ok and (o.job.kind, o.rc) not in seen:
            seen.add((o.job.kind, o.rc))
            tag = "expected (envelope)" if o.expected else "UNEXPECTED"
            lines.append(f"  failure {tag}: {o.job.kind}: {o.reason}")
    return lines


def trace_lines(tracer, flat, label_of):
    """Per-kind table of spans: calls, inclusive ms, self ms, share of job time."""
    kind_ms, kind_n = {}, {}
    for o in flat:
        kind_ms[o.job.kind] = kind_ms.get(o.job.kind, 0.0) + o.ms
        kind_n[o.job.kind] = kind_n.get(o.job.kind, 0) + 1
    tables = tracer.table(label_of)
    under = tracer.count_under("spectral.period_integrals", "flow.flow_integrate", label_of)
    lines = []
    for kind in sorted(tables):
        rows = tables[kind]
        n = kind_n[kind]
        rhs = rows.get("flow.solve_ab_dot", [0])[0] / n
        lines.append(f"  [{kind}] {n} jobs, {kind_ms[kind] / n:.1f} ms/job; per job: "
                     f"flow.rhs_evals {rhs:g}, flow.monitor_evals {under.get(kind, 0) / n:g}")
        lines.append(f"    {'span':<34}{'calls/job':>10}{'incl ms/job':>13}"
                     f"{'self ms/job':>13}{'self share':>12}")
        for name, (calls, incl, self_ms) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            share = 100.0 * self_ms / kind_ms[kind]
            lines.append(f"    {name:<34}{calls / n:>10.4g}{incl / n:>13.4g}"
                         f"{self_ms / n:>13.4g}{share:>11.1f}%")
    return lines


def trace_report(args, tracer, traced, e2e, round_len, setup_s, lines):
    """Per-layer metrics of the traced jobs; appends the report to lines."""
    traced_e2e, _ = e2e_metrics(traced, round_len, setup_s)
    overhead = 100.0 * (1.0 - traced_e2e["jobs_per_s"] / e2e["jobs_per_s"])
    label_of = {i: o.job.kind for i, o in enumerate(traced)}
    layer = tracing.layer_metrics(tracer, len(traced),
                                  sum(o.export_bytes for o in traced),
                                  sum(o.bytes_out for o in traced))
    layer["trace.overhead"] = (overhead, "%")
    lines.append(f"  tracing overhead {overhead:.2f}% (traced {traced_e2e['jobs_per_s']:.4g} "
                 f"vs untraced {e2e['jobs_per_s']:.4g} jobs/s on the same jobs)")
    lines += trace_lines(tracer, traced, label_of)
    lines.append("  per-layer metrics (per-job mean; .total = run total):")
    for name, (value, unit) in sorted(layer.items()):
        lines.append(f"    {name:<44}{value:>16.6g} {unit}")
    tracer.write(os.path.join(ROOT, ".perfbench_out",
                              f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    return layer


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    if args.compare:
        print(compare.compare(*(os.path.join(ROOT, d) for d in args.compare), spec))
        return 0

    cmcs3, cli = import_cmcs3()
    import_s = time.perf_counter() - T_START

    cycles = 1 if args.quick else workloads.ROUND_CYCLES[args.workload]
    n_rounds = 1 if args.quick else MAX_ROUNDS
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    cwd = os.getcwd()
    try:
        setup_times = []
        for _ in range(1 if args.quick else SETUP_REPEATS):
            rounds, took = setup(cli, args, cycles, n_rounds, workdir)
            setup_times.append(took)
        setup_s = import_s + statistics.median(setup_times)

        cycle_len = len(workloads.CYCLES[args.workload])
        if args.trace == 0:
            outs = run_cycles(cli, rounds, cycle_len, args.seconds)
        else:
            outs = run_cycles(cli, rounds, cycle_len, 0.5 * args.seconds, full_round=False)
            tracer = tracing.Tracer()
            tracer.install(cmcs3)
            try:
                traced = run_cycles(cli, rounds, cycle_len, math.inf, tracer=tracer,
                                    limit=len(outs))
            finally:
                tracer.uninstall()
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    round_len = len(rounds[0])
    e2e, tail_pct = e2e_metrics(outs, round_len, setup_s)
    lines = summary_lines(args, outs, e2e, tail_pct, round_len)
    lines.append(f"  set-up: imports {import_s:.3f} s; generate + warm-up "
                 + ", ".join(f"{t:.3f}" for t in setup_times) + " s (median taken)")
    all_out = list(outs)
    if args.trace == 0:
        metrics = {m["name"]: {"value": _finite(e2e[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        all_out += traced
        layer = trace_report(args, tracer, traced, e2e, round_len, setup_s, lines)
        metrics = {m["name"]: {"value": _finite(layer[m["name"]][0]), "unit": m["unit"]}
                   for m in spec["per_layer"]}

    correct = all(o.expected for o in all_out) and all(
        v["value"] is not None for v in metrics.values())
    prov = provenance(args)
    lines.insert(1, "  provenance: " + json.dumps(prov, sort_keys=True))
    result = {"correct": correct, "attempted": len(all_out),
              "failed": sum(1 for o in all_out if not o.ok), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=prov, e2e={k: _finite(v) for k, v in e2e.items()},
                  tail_percentile=tail_pct,
                  jobs=[[o.job.kind, round(o.ms, 3), o.ok] for o in all_out])
    if args.trace == 0:
        record["metrics"] = dict(metrics, failed_frac={"value": e2e["failed_frac"],
                                                       "unit": "fraction"})
    results_dir = os.path.join(ROOT, args.results)
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                     f"{time.time_ns()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
