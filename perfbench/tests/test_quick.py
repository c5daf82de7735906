"""Quick-mode self-test of the benchmark: python3 -m pytest perfbench/tests -q"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

E2E = {"jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.tail": "ms",
       "failed_frac": "fraction", "setup_s": "s", "peak_rss_mb": "MB"}


def bench(tmp_path, *args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args,
           "--results", str(tmp_path / "results")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("workload", ["surface", "closing-scan", "deform"])
def test_quick_end_to_end(tmp_path, workload):
    proc = bench(tmp_path, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--quick")
    res = last_json(proc)
    assert res["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    printed = {}
    for name, unit in E2E.items():
        m = re.search(rf"^\s+{re.escape(name)}\s+(\S+)\s+{re.escape(unit)}\b", proc.stdout, re.M)
        assert m, f"{name} not printed with unit {unit}"
        printed[name] = float(m.group(1))
    if workload == "surface":
        # the far strips are the only failures: Delaunay strips past Im z ~ 6.6
        n_far = int(re.search(r"^\s+surface\.far\s+(\d+)", proc.stdout, re.M).group(1))
        assert n_far >= 1 and res["failed"] == n_far
        assert printed["failed_frac"] == n_far / res["attempted"]
    else:
        assert res["failed"] == 0 and printed["failed_frac"] == 0.0


def test_quick_trace_deform(tmp_path):
    proc = bench(tmp_path, "--workload", "deform", "--seed", "0", "--seconds", "1",
                 "--trace", "1", "--quick")
    res = last_json(proc)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    assert vals["iwasawa.frame.calls.total"] == 0 and vals["flow.rhs_evals.total"] > 0
    assert re.search(r"\[deform\.zero\] 1 jobs, .*flow\.rhs_evals 70,", proc.stdout)
    assert "tracing overhead" in proc.stdout


def test_bare_directory_fails(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(tmp_path, "--workload", "surface", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(bare))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    cases = {
        "improved": [12.0, 12.1, 11.9, 12.2, 11.8],
        "regressed": [8.0, 8.1, 7.9, 8.2, 7.8],
        "unchanged": [10.02, 9.98, 10.0, 10.1, 9.9],
        "unresolved": [5.0, 15.0, 10.0, 7.0, 13.0],
    }
    for want, change in cases.items():
        pairs = list(zip(parent, change))
        assert compare.verdict(parent, change, pairs, "higher", 0.1) == want
    assert compare.verdict([0.05] * 3, [0.0] * 3, [], "lower", 0.0) == "improved"
