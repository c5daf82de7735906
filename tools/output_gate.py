"""Run the same benchmark jobs through two checkouts and diff what they print and write.

Usage (from the repository root):

    python3 tools/output_gate.py BEFORE_DIR AFTER_DIR
    python3 tools/output_gate.py BEFORE_DIR AFTER_DIR --workloads closing-scan deform \\
        --seeds 7 8 9 --rounds 0 2 --keep gate_out

Each checkout must hold src/cmcs3.  The jobs come from perfbench/workloads.py
of the repository this script sits in, so both sides get the same argv; the
input files are generated by each side's own cmcs3.  Each side runs in one
child process of its own (BLAS threads pinned to 1), through cmcs3.cli.main
in-process, one job after another, and records per job: the exit code,
stdout, stderr, the oracle verdict of the workload and the text of every
output file.  Rounds FIRST..LAST (inclusive) of each seed are generated as
perfbench generates them.

The report gives the oracle failures per job kind (`surface.far 15 -> 15`),
then lists, per field, how many jobs differ and by how much:
`rc`, `verdict`, `stdout`, `stderr`, and per output file its JSON keys
(list indices shown as []) or CSV columns.  Text that differs only in its
numbers is compared number by number; `max |diff|` is then the largest
absolute difference.  A list whose length changed shows as `length a -> b`.
Exit status 1 when the oracle failures of some job kind rise from BEFORE to
AFTER, or the two sides ran different jobs; 0 otherwise, whatever the diff
shows.  Standard library only; the children need what cmcs3 needs.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--workloads", nargs="+", default=["closing-scan", "deform"],
                   choices=["surface", "closing-scan", "deform"])
    p.add_argument("--seeds", nargs="+", type=int, default=[7, 8, 9])
    p.add_argument("--rounds", nargs=2, type=int, default=[0, 2], metavar=("FIRST", "LAST"))
    p.add_argument("--keep", help="directory for the two job records (default: a temporary one)")
    # internal: run the checkout BEFORE_DIR alone and write its records to this file
    p.add_argument("--child", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# one side, in a child process


def run_side(args):
    """Run every job through the checkout args.before; write one JSON record per line."""
    sys.path[:0] = [os.path.join(args.before, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    from cmcs3 import cli

    with open(args.child, "w") as rec:
        for workload in args.workloads:
            per_round = len(workloads.CYCLES[workload]) * workloads.ROUND_CYCLES[workload]
            for seed in args.seeds:
                workdir = tempfile.mkdtemp(prefix=f"gate-{workload}-{seed}-")
                os.chdir(workdir)
                try:
                    for rnd in range(args.rounds[0], args.rounds[1] + 1):
                        jobs = workloads.make_round(workload, seed, rnd,
                                                    workloads.ROUND_CYCLES[workload],
                                                    rnd * per_round, workdir)
                        for job in jobs:
                            entry = run_job(cli, job)
                            entry["id"] = f"{workload}/{seed}/{rnd}/{job.argv[0]}:{job.kind}"
                            rec.write(json.dumps(entry) + "\n")
                finally:
                    os.chdir(ROOT)
                    shutil.rmtree(workdir, ignore_errors=True)


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    rc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
        verdict = job.check(job, rc)
    except Exception:  # a traceback out of cli.main or the oracle is recorded, not fatal
        verdict = "uncaught: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
    files = {}
    for path in job.outputs:
        if os.path.exists(path):
            with open(path) as fh:
                files[path.split(".")[-1]] = fh.read()
            os.unlink(path)
    return {"rc": rc, "verdict": verdict, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


# ---------------------------------------------------------------------------
# the diff


def _flatten(obj, path, out):
    """Leaves of a JSON value as (path, value); list indices become []."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        out.append((path + "#len", len(obj)))
        for val in obj:
            _flatten(val, path + "[]", out)
    else:
        out.append((path, obj))
    return out


def fields(entry):
    """(field name, value) pairs of one job record."""
    out = [("rc", entry["rc"]), ("verdict", entry["verdict"]),
           ("stdout", entry["stdout"]), ("stderr", entry["stderr"])]
    for ext, text in sorted(entry["files"].items()):
        if ext == "json":
            out += [(f"{ext}:{k}", v) for k, v in _flatten(json.loads(text), "", [])]
        elif ext == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            out.append((f"{ext}#rows", len(rows)))
            for row in rows[1:]:
                out += [(f"{ext}:{name}", val) for name, val in zip(rows[0], row)]
        else:
            out.append((ext, text))
    return out


def _numbers(value):
    """(skeleton, numbers) of a value, or None when it holds no number."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return "", [float(value)]
    if isinstance(value, str):
        nums = NUMBER.findall(value)
        return (NUMBER.sub("#", value), [float(x) for x in nums]) if nums else None
    return None


def compare(before, after):
    """{field: [jobs differing, max |diff| or None, example]} over matched job records."""
    report = {}
    for b, a in zip(before, after):
        by_name = {}
        for side, entry in enumerate((b, a)):
            for name, value in fields(entry):
                by_name.setdefault(name, [[], []])[side].append(value)
        for name, (vbs, vas) in by_name.items():
            if vbs == vas:
                continue
            if name.endswith("#len") or name.endswith("#rows"):
                _note(report, name, None, f"{b['id']}: length {vbs} -> {vas}")
                continue
            worst, numeric = 0.0, len(vbs) == len(vas)
            for vb, va in zip(vbs, vas):
                if vb == va:
                    continue
                nb, na = _numbers(vb), _numbers(va)
                if nb is None or na is None or nb[0] != na[0] or len(nb[1]) != len(na[1]):
                    numeric = False
                    break
                worst = max([worst] + [abs(x - y) for x, y in zip(nb[1], na[1])])
            example = f"{b['id']}: {vbs[:2]!r:.120} -> {vas[:2]!r:.120}"
            _note(report, name, worst if numeric else None, example)
    return report


def _note(report, key, diff, example):
    row = report.setdefault(key, [0, 0.0, example])
    row[0] += 1
    if row[1] is not None:
        row[1] = None if diff is None else max(row[1], diff)


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        run_side(args)
        return 0
    work = args.keep or tempfile.mkdtemp(prefix="output-gate-")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    records = []
    try:
        for side, checkout in (("before", args.before), ("after", args.after)):
            path = os.path.join(work, f"{side}.jsonl")
            cmd = [sys.executable, os.path.abspath(__file__), os.path.abspath(checkout), "-",
                   "--child", path, "--workloads", *args.workloads,
                   "--seeds", *map(str, args.seeds), "--rounds", *map(str, args.rounds)]
            subprocess.run(cmd, check=True, env=env)
            with open(path) as fh:
                records.append([json.loads(line) for line in fh])
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
    before, after = records
    ids_b, ids_a = [e["id"] for e in before], [e["id"] for e in after]
    failed = [sum(1 for e in side if e["verdict"]) for side in records]
    print(f"{len(before)} jobs before, {len(after)} after; oracle failures {failed[0]} -> "
          f"{failed[1]}")
    if ids_b != ids_a:
        print("the two sides ran different jobs")
        return 1
    print("oracle failures per job kind:")
    rose = False
    for kind in sorted({i.split(":")[-1] for i in ids_b}):  # ids end in ":<job kind>"
        n_b, n_a = (sum(1 for e in side if e["verdict"] and e["id"].endswith(":" + kind))
                    for side in records)
        rose = rose or n_a > n_b
        print(f"  {kind} {n_b} -> {n_a}")
    report = compare(before, after)
    print("differences:")
    for name, (n, worst, example) in sorted(report.items()):
        size = "text" if worst is None else f"max |diff| {worst:.3g}"
        print(f"  {name:<36} {n:>5} jobs  {size:<20} e.g. {example}")
    if not report:
        print("  identical")
    return 1 if rose else 0


if __name__ == "__main__":
    sys.exit(main())
