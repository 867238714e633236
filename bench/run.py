#!/usr/bin/env python3
"""The benchmark's one command.

``python bench/run.py [--workload W] [--seed N] [--seconds S]
[--trace 0|1] [--record] [--selfcheck] [--out FILE]``

Without ``--workload`` it runs all six.  It prints every metric by name
with its unit, checks each workload's oracle and exits non-zero when an
oracle fails.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (alias ``--traced``).  Names, units and bounds are fixed
in ``BENCHMARK.json``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import repro
except ImportError as exc:  # the program is not in this checkout
    sys.exit(f"bench: cannot import the program from {SRC}: {exc}")
if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: 'repro' resolves to {repro.__file__}, not to this "
             f"checkout's {SRC}")

import metrics as M  # noqa: E402
from episode import DEADLINE_SLACK_S, run_episode  # noqa: E402
from workloads import SLICE_S, WORKLOADS, workload_episode  # noqa: E402

#: Episodes per end-to-end workload run.
EPISODES = 7

TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

#: Names, units and better sides come from BENCHMARK.json alone.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}

#: The metrics computed per slice of the timed window.
SLICED = ("ops_per_s", "op_p50_us", "cpu_s_per_kop")


# -- one end-to-end workload run ---------------------------------------------
def allowed_cpus() -> list:
    return sorted(os.sched_getaffinity(0))


def run_workload(name: str, seed: int, seconds: float,
                 log=print) -> dict:
    """``EPISODES`` watchdogged episodes of ``name``; returns the run
    record (metric values, per-episode values, accounting, oracle)."""
    window = seconds / EPISODES
    cpus = allowed_cpus()
    w = WORKLOADS[name]
    episodes = []
    for e in range(EPISODES):
        res = run_episode(workload_episode,
                          (name, seed, window, False, cpus),
                          deadline_s=window + DEADLINE_SLACK_S,
                          poll_cpus=cpus)
        if not res.ok:
            log(f"  episode {e}: {res.status}: {res.why}")
        episodes.append(res)
    alive = [r.value for r in episodes if r.ok]
    acct = M.account_episodes(
        [(r.status, r.value["attempted"] if r.ok else 0,
          r.value["failed"] if r.ok else 0) for r in episodes])
    shm_left = [n for r in episodes if r.ok for n in r.shm_left]
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "episodes": EPISODES, "window_s": window,
        "backend": w.conduit, "stack": w.stack,
        "accounting": acct, "shm_leaked": len(shm_left),
        "oracle_failures": [m for v in alive for m in v["oracle"]],
        "errors": [m for v in alive for m in v["errors"]][:3],
        "describe": alive[0]["describe"] if alive else "",
        "metrics": {}, "per_episode": {}, "correct": False,
    }
    if not alive:
        return record
    for key in SLICED:
        # the better quartile over every slice of every episode
        record["per_episode"][key] = [
            M.better_quartile(v["slices"][key], BETTER[key])
            for v in alive if v["slices"][key]]
        pooled = [x for v in alive for x in v["slices"][key]]
        if pooled:
            record["metrics"][key] = M.better_quartile(pooled, BETTER[key])
    record["slices"] = sum(len(v["slices"]["ops_per_s"]) for v in alive)
    speeds = [x for v in alive for x in v["slices"]["speed"]]
    if speeds:
        record["speed"] = list(M.quartiles(speeds))
    for key, fold in (("setup_s", statistics.median),
                      ("peak_rss_mb", max)):
        record["per_episode"][key] = [v[key] for v in alive]
        record["metrics"][key] = fold(record["per_episode"][key])
    n = sum(v["lat_n"] for v in alive)
    top = sorted(x for v in alive for x in v["lat_top_us"])
    record["lat_n"] = n
    if n > M.TAIL_MIN_BEYOND:
        # the pooled sample's largest few are among the episodes' own
        record["op_tail"] = [100.0 * (n - M.TAIL_MIN_BEYOND) / n,
                             top[-(M.TAIL_MIN_BEYOND + 1)]]
    record["correct"] = (not record["oracle_failures"]
                         and acct["dead_episodes"] == 0
                         and acct["failed"] == 0)
    return record


def print_run(rec: dict, log=print) -> None:
    stack = rec["stack"] or "bare"
    log(f"workload {rec['workload']}  ({rec['backend']}, {stack})  "
        f"seed={rec['seed']}  {rec['episodes']} episodes x "
        f"{rec['window_s']:.3f} s, {rec.get('slices', 0)} slices of "
        f"{SLICE_S} s")
    if rec["describe"]:
        log(f"  inputs           {rec['describe']}")
    for key, unit in UNITS.items():
        if key not in rec["metrics"]:
            log(f"  {key:<16} unavailable")
            continue
        per = " ".join(f"{v:.4g}" for v in rec["per_episode"][key])
        note = (f"  (n={rec['lat_n']} remote-op samples)"
                if key == "op_p50_us" else "")
        log(f"  {key:<16} {rec['metrics'][key]:.6g} {unit}{note}"
            f"   [episodes: {per}]")
    if "speed" in rec:
        q1, q2, q3 = rec["speed"]
        log(f"  {'box speed':<16} the reference loop took {q2:.3f} "
            f"[{q1:.3f}..{q3:.3f}] of its reference time; the rate and "
            f"the times above are stated at 1.000")
    a = rec["accounting"]
    log(f"  {'failed_share':<16} {a['failed_share']:.6g} ratio  "
        f"({a['failed']} of {a['attempted']} ops; "
        f"{a['dead_episodes']} dead episodes)")
    if "op_tail" in rec:
        pct, val = rec["op_tail"]
        log(f"  {'op_tail_us':<16} {val:.6g} us at p{pct:.4g}  "
            f"(reported, not gated)")
    log(f"  {'shm_leaked':<16} {rec['shm_leaked']} count")
    for msg in rec["errors"]:
        log(f"  op error         {msg}")
    for msg in rec["oracle_failures"]:
        log(f"  ORACLE FAILED    {msg}")
    if not rec["oracle_failures"]:
        log(f"  {'oracle':<16} ok")


def result_line(records: list) -> str:
    """The JSON object that ends the output; with several workloads in
    one invocation each metric name is prefixed with its workload's."""
    prefix = len(records) > 1
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["accounting"]["attempted"] for r in records),
        "failed": sum(r["accounting"]["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": r["metrics"][k], "unit": u}
                    for r in records for k, u in UNITS.items()},
    })


# -- recording ---------------------------------------------------------------
def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    return {"git_sha": git_sha(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0],
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def record_rows(records: list, env: dict) -> None:
    with open(TRAJECTORY, "a") as f:
        for rec in records:
            row = dict(env, workload=rec["workload"], seed=rec["seed"],
                       seconds=rec["seconds"],
                       failed_share=rec["accounting"]["failed_share"],
                       box_speed=rec.get("speed", [None] * 3)[1],
                       **rec["metrics"])
            f.write(json.dumps(row, sort_keys=True) + "\n")


def write_result(path: str, records: list, env: dict) -> None:
    """Add the run records to ``path`` (several runs of a workload in
    one file are one side of a ``compare.py`` comparison)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)["runs"]
    with open(path, "w") as f:
        json.dump({"environment": env, "runs": runs + records}, f,
                  indent=1)


# -- command line ------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=float(SPEC["run_seconds"]),
                    help="timed seconds per workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_const", const=1,
                    dest="trace", help="same as --trace 1")
    ap.add_argument("--record", action="store_true",
                    help="append one row per workload to "
                         "bench/trajectory.jsonl")
    ap.add_argument("--out", metavar="FILE",
                    help="also add the run records to FILE (JSON; one "
                         "side of a compare.py comparison)")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run two full sets of the same code and fail "
                         "if they disagree beyond the bounds")
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    env = environment()   # before our own ranks and pollers load the box

    if args.selfcheck:
        import compare
        sets = [[run_workload(n, args.seed, args.seconds) for n in names]
                for _ in range(2)]
        for recs in sets:
            for rec in recs:
                print_run(rec)
        rows = compare.compare_runs(sets[0], sets[1], SPEC)
        print(compare.render(rows, "first", "second"))
        bad = [r for r in rows if abs(r["change"]) > r["bound"]]
        for r in bad:
            print(f"selfcheck: {r['workload']} {r['metric']} differs by "
                  f"{r['change']:+.1%} of the first set's value, beyond "
                  f"its {r['bound']:.0%} bound")
        wrong = [rec for recs in sets for rec in recs if not rec["correct"]]
        return 1 if bad or wrong else 0

    if args.trace:
        import ladder
        return ladder.main(names, args.seed, SPEC, allowed_cpus())

    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds)
        print_run(rec)
        records.append(rec)
    if args.out:
        write_result(args.out, records, env)
    if args.record:
        record_rows([r for r in records if r["metrics"]], env)
    if any(not rec["metrics"] for rec in records):
        print("bench: a workload had no surviving episode",
              file=sys.stderr)
        return 1
    print(result_line(records))
    return 0 if all(rec["correct"] for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
