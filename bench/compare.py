#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

``python bench/compare.py A.json B.json`` prints one row per workload x
end-to-end metric with each side's value and quartiles and a verdict
by the bounds in ``BENCHMARK.json``:

``better`` / ``worse``
    B's value differs from A's by more than the bound -- or every
    sample of B lies on one side of every sample of A;
``within-bound``
    the values differ by no more than the bound, and the spread of
    either side is no wider than the bound;
``unresolved``
    the run-to-run spread (inter-quartile distance over the median) is
    wider than the bound, so "no change" cannot be told from a change.

Every ratio is printed with its base: ``B/A`` is B's value over A's.
A side's value is the median of its runs' values of that workload.  Its
samples -- what the quartiles and the spread are taken over -- are its
runs' values when it has at least four runs, otherwise the per-episode
values of the runs it has (so a run value that is not a median of
episodes, like ``peak_rss_mb``'s maximum, can lie outside them).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import metrics as M

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _side(records: list, workload: str, metric: str):
    runs = [r for r in records
            if r["workload"] == workload and metric in r["metrics"]]
    if not runs:
        return None
    samples = ([r["metrics"][metric] for r in runs] if len(runs) >= 4
               else [x for r in runs for x in r["per_episode"][metric]])
    q1, _, q3 = M.quartiles(samples)
    return {"median": statistics.median(r["metrics"][metric]
                                        for r in runs),
            "q1": q1, "q3": q3, "samples": samples}


def verdict(a: dict, b: dict, better: str, bound: float):
    """``(verdict, change)``: ``change`` is how much worse B's median is
    than A's, as a share of A's (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    sa = [sign * x for x in a["samples"]]
    sb = [sign * x for x in b["samples"]]
    if max(sb) < min(sa):
        return "better", change
    if min(sb) > max(sa):
        return "worse", change
    if max(M.spread(s["samples"]) for s in (a, b)) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within-bound", change


def compare_runs(a_records: list, b_records: list, spec: dict) -> list:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            a = _side(a_records, w, m["name"])
            b = _side(b_records, w, m["name"])
            if a is None or b is None:
                continue
            v, change = verdict(a, b, m["better"], m["bound"])
            rows.append({"workload": w, "metric": m["name"],
                         "unit": m["unit"], "better": m["better"],
                         "bound": m["bound"], "a": a, "b": b,
                         "ratio": b["median"] / a["median"],
                         "change": change, "verdict": v})
    return rows


def render(rows: list, a_name: str = "A", b_name: str = "B") -> str:
    lines = [f"{'workload':<15} {'metric':<14} {'unit':<6} "
             f"{a_name + ' value [q1..q3]':<32} "
             f"{b_name + ' value [q1..q3]':<32} "
             f"{b_name + '/' + a_name:>8} {'bound':>6}  verdict"]
    for r in rows:
        def side(s):
            return f"{s['median']:.5g} [{s['q1']:.5g}..{s['q3']:.5g}]"
        lines.append(
            f"{r['workload']:<15} {r['metric']:<14} {r['unit']:<6} "
            f"{side(r['a']):<32} {side(r['b']):<32} "
            f"{r['ratio']:>8.3f} {r['bound']:>6.2f}  {r['verdict']}"
            f" ({r['better']} is better)")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = []
    for path in argv:
        with open(path) as f:
            sides.append(json.load(f)["runs"])
    rows = compare_runs(sides[0], sides[1], spec)
    print(render(rows, os.path.basename(argv[0]),
                 os.path.basename(argv[1])))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
