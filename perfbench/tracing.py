"""Span tracing of cmcs3 layers from outside the library.

Every call between cmcs3 modules goes through a module attribute
(``la.find_roots``, ``sp.lnmu_at``, ``iwasawa.frame``...), and calls inside a
module go through its globals, so replacing those attributes with recording
wrappers sees every layer boundary without touching ``src/``.  A span records
name, start, end, parent span and job id; spans stay in memory and are written
out when the run ends.  Self time is a span's duration minus the time its
direct child spans cover.
"""

import functools
import gzip
import os
import time
from collections import defaultdict

import numpy as np

# (module attribute path, span name).  The span name is the layer metric prefix.
WRAPPED = [
    ("iwasawa", "frame"), ("iwasawa", "exp_loop"), ("iwasawa", "iwasawa_factor"),
    ("immersion", "sample_surface"), ("immersion", "derive_geometry"),
    ("immersion", "export_mesh"), ("immersion", "write_surface_csv"),
    ("families", "flat_frame"), ("families", "sphere_frame"),
    ("loop_algebra", "find_roots"), ("loop_algebra", "evaluate"),
    ("spectral", "lnmu_at"), ("spectral", "integrate_dlnmu"), ("spectral", "period_integrals"),
    ("spectral", "check_conditions"), ("spectral", "real_branch_points"),
    ("spectral", "g_invariant"), ("spectral", "delta"),
    ("flow", "flow_integrate"), ("flow", "solve_ab_dot"), ("flow", "kappa_dot"),
    ("flow", "build_c_branch_target"), ("flow", "_monitors"),
]
ROOT = "cli.main"


def _frame_obs(fp):
    return (0.5 * (fp.f.n + fp.b.n), max(fp.unitarity_defect, fp.reconstruction_defect))


def _grid_obs(sample):
    return sample.f.shape[0] * sample.f.shape[1]


OBSERVE = {"iwasawa.frame": _frame_obs, "immersion.sample_surface": _grid_obs}


class Tracer:
    """Records spans while a job is active; installs and removes the wrappers."""

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.job = [], [], [], [], []
        self.observed = defaultdict(list)
        self._stack = []
        self._job = None
        self._saved = []

    def install(self, package):
        for mod_name, attr in WRAPPED:
            mod = getattr(package, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.observed[name].append(observe(out))
            return out

        return wrapper

    def begin_job(self, job_id):
        self._job = job_id
        return self._open(ROOT)

    def end_job(self, idx):
        self._close(idx)
        self._job = None

    def write(self, path):
        """Write every span as gzip CSV: id,parent,job,name,start_ns,end_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,job,name,start_ns,end_ns\n")
            for i, (p, j, n, s, e) in enumerate(
                zip(self.parent, self.job, self.name, self.start, self.end)
            ):
                fh.write(f"{i},{p},{j},{n},{s},{e}\n")

    # ------------------------------------------------------------------
    # aggregation

    def table(self, label_of=None):
        """{label: {span name: [calls, inclusive ms, self ms]}}.

        label_of maps a job id to a label (say, its job kind); without it every
        span is counted under "all".
        """
        start = np.array(self.start, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64) - start) / 1e6
        parent = np.array(self.parent, dtype=np.int64)
        child_ms = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_ms, parent[has_parent], dur[has_parent])
        self_ms = dur - child_ms
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for n, j, d, s in zip(self.name, self.job, dur.tolist(), self_ms.tolist()):
            row = out["all" if label_of is None else label_of[j]][n]
            row[0] += 1
            row[1] += d
            row[2] += s
        return out

    def count_under(self, name, ancestor, label_of=None):
        """{label: number of `name` spans with an `ancestor` span above them}."""
        hits = defaultdict(int)
        for i, n in enumerate(self.name):
            if n != name:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name[p] == ancestor:
                    hits["all" if label_of is None else label_of[self.job[i]]] += 1
                    break
                p = self.parent[p]
        return hits


def layer_metrics(tracer, n_jobs, export_bytes, bytes_out):
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Additive metrics appear twice: as a per-job mean under their name and as a
    run total under name + ".total".
    """
    t = tracer.table()["all"]

    def calls(name):
        return t.get(name, [0, 0.0, 0.0])[0]

    def incl(*names):
        return sum(t.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_ms(name):
        return t.get(name, [0, 0.0, 0.0])[2]

    sums = {
        "iwasawa.frame.calls": (calls("iwasawa.frame"), "count"),
        "iwasawa.frame.ms": (incl("iwasawa.frame"), "ms"),
        "iwasawa.exp_loop.ms": (incl("iwasawa.exp_loop"), "ms"),
        "iwasawa.iwasawa_factor.ms": (incl("iwasawa.iwasawa_factor"), "ms"),
        "immersion.grid_points": (sum(tracer.observed["immersion.sample_surface"]), "count"),
        "immersion.sample_surface.self_ms": (self_ms("immersion.sample_surface"), "ms"),
        "immersion.derive_geometry.ms": (incl("immersion.derive_geometry"), "ms"),
        "immersion.export.ms": (incl("immersion.export_mesh", "immersion.write_surface_csv"), "ms"),
        "immersion.export.bytes": (export_bytes, "bytes"),
        "families.closed_frame.calls": (
            calls("families.flat_frame") + calls("families.sphere_frame"), "count"),
        "families.closed_frame.ms": (incl("families.flat_frame", "families.sphere_frame"), "ms"),
        "loop_algebra.find_roots.calls": (calls("loop_algebra.find_roots"), "count"),
        "loop_algebra.find_roots.ms": (incl("loop_algebra.find_roots"), "ms"),
        "loop_algebra.evaluate.calls": (calls("loop_algebra.evaluate"), "count"),
        "loop_algebra.evaluate.ms": (incl("loop_algebra.evaluate"), "ms"),
        "spectral.lnmu_at.calls": (calls("spectral.lnmu_at"), "count"),
        "spectral.lnmu_at.ms": (incl("spectral.lnmu_at"), "ms"),
        "spectral.integrate_dlnmu.calls": (calls("spectral.integrate_dlnmu"), "count"),
        "spectral.integrate_dlnmu.self_ms": (self_ms("spectral.integrate_dlnmu"), "ms"),
        "spectral.period_integrals.calls": (calls("spectral.period_integrals"), "count"),
        "spectral.period_integrals.ms": (incl("spectral.period_integrals"), "ms"),
        "spectral.check_conditions.ms": (incl("spectral.check_conditions"), "ms"),
        "spectral.real_branch_points.self_ms": (self_ms("spectral.real_branch_points"), "ms"),
        "spectral.g_invariant.ms": (incl("spectral.g_invariant"), "ms"),
        "spectral.delta.calls": (calls("spectral.delta"), "count"),
        "flow.rhs_evals": (calls("flow.solve_ab_dot"), "count"),
        "flow.rhs.ms": (incl("flow.solve_ab_dot", "flow.kappa_dot", "flow.build_c_branch_target"), "ms"),
        "flow.monitor_evals": (
            tracer.count_under("spectral.period_integrals", "flow.flow_integrate")["all"], "count"),
        "flow.monitor.ms": (incl("flow._monitors"), "ms"),
        "flow.flow_integrate.self_ms": (self_ms("flow.flow_integrate"), "ms"),
        "cli.self_ms": (self_ms(ROOT), "ms"),
        "cli.bytes_out": (bytes_out, "bytes"),
    }
    out = {}
    for name, (total, unit) in sums.items():
        out[name] = (total / max(n_jobs, 1), unit)
        out[name + ".total"] = (total, unit)
    frames = tracer.observed["iwasawa.frame"]
    out["iwasawa.loop_len"] = (float(np.mean([f[0] for f in frames])) if frames else 0.0, "modes")
    out["iwasawa.defect_max"] = (max((f[1] for f in frames), default=0.0), "ratio")
    lnmu = calls("spectral.lnmu_at")
    roots = tracer.count_under("loop_algebra.find_roots", "spectral.lnmu_at")["all"]
    out["spectral.roots_per_lnmu"] = (roots / lnmu if lnmu else 0.0, "ratio")
    return out

