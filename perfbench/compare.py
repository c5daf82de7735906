"""Compare two sets of benchmark results (say, parent and change).

Each side is a directory of result records written by run.py.  For every
workload and end-to-end metric it prints the median and quartiles of each side
and a verdict, by the pairing rule of the choosing-metrics guide:

- improved: the change wins at least 9/10 of the seed-paired runs (ties count
  for neither) and the medians differ by more than the parent's quartile
  spread; or the spread is too wide to judge but every change run beats every
  parent run;
- unresolved: a side's quartile spread, as a share of its median, is wider
  than the metric's bound;
- regressed: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

failed_frac has no bound: any rise in failures is a regression.
"""

import glob
import json
import os
import statistics


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            records.append(rec)
    return records


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    """Verdict for one metric; parent/change are value lists, pairs (parent, change) tuples."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if bound == 0.0:
        if cm == pm:
            return "unchanged"
        return "improved" if sign * (cm - pm) > 0 else "regressed"
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return "improved"
    spread = max((p3 - p1) / abs(pm) if pm else float("inf"),
                 (c3 - c1) / abs(cm) if cm else float("inf"))
    if spread > bound:
        if better == "higher":
            all_better = min(change) > max(parent)
        else:
            all_better = max(change) < min(parent)
        return "improved" if all_better else "unresolved"
    worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
    return "regressed" if worse > bound else "unchanged"


def compare(dir_a, dir_b, spec):
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("failed_frac", "lower", 0.0))
    side = {"parent": load(dir_a), "change": load(dir_b)}
    workloads = sorted({r["workload"] for recs in side.values() for r in recs})
    lines = [f"{'workload':<14}{'metric':<14}{'parent median [q1, q3]':<38}"
             f"{'change median [q1, q3]':<38}{'pairs':>6}  verdict"]
    for wl in workloads:
        by_seed = {k: {} for k in side}
        for k, recs in side.items():
            for r in recs:
                if r["workload"] == wl:
                    by_seed[k].setdefault(r["seed"], []).append(r)
        for name, better, bound in metrics:
            vals = {
                k: [r["metrics"][name]["value"] for rs in by_seed[k].values() for r in rs
                    if r["metrics"].get(name, {}).get("value") is not None]
                for k in side
            }
            if not vals["parent"] or not vals["change"]:
                lines.append(f"{wl:<14}{name:<14}missing on one side")
                continue
            pairs = []
            for seed in sorted(set(by_seed["parent"]) & set(by_seed["change"])):
                for rp, rc in zip(by_seed["parent"][seed], by_seed["change"][seed]):
                    pv, cv = rp["metrics"][name]["value"], rc["metrics"][name]["value"]
                    if pv is not None and cv is not None:
                        pairs.append((pv, cv))
            cells = []
            for k in side:
                q1, q2, q3 = _quartiles(vals[k])
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals[k])}")
            v = verdict(vals["parent"], vals["change"], pairs, better, bound)
            lines.append(f"{wl:<14}{name:<14}{cells[0]:<38}{cells[1]:<38}{len(pairs):>6}  {v}")
    return "\n".join(lines)
