"""The six pinned SPMD workloads.

Everything here is written against the program's public API only
(``repro.*``, ``repro.gasnet.am_handler`` and ``stats.snapshot()``) and
must never import ``repro.bench``: a later change to the program cannot
move a metric by editing a workload.

All workloads are closed loops on 2 ranks: a client rank issues its next
op only after the previous one completed (``Workload.active`` says which
ranks are clients).  The backend and the wrapper stack are part of what
a workload's name means.  The
seed only reaches the input generators (:meth:`Workload.inputs`); the
program sees the generated inputs, never the seed or the workload name.
"""

from __future__ import annotations

import os
import resource
import statistics
import struct
import time
from time import perf_counter

import numpy as np

import repro
from metrics import TAIL_MIN_BEYOND
from spans import NullTracer, Tracer

RANKS = 2

#: Ops every active rank issues before anything is timed.
WARMUP_OPS = 200

#: The wrapper stack the KV tier is deployed with.
PRODUCTION_STACK = {"reliability": True, "telemetry": "flight"}

#: Counters summed at the boundaries of a traced section.
COUNT_KEYS = ("ams_sent", "am_bytes", "wire_frames", "pickle_fallbacks",
              "puts", "gets", "atomics", "puts_indexed", "gets_indexed",
              "atomic_batches", "acks_sent", "am_retransmits",
              "kv_cache_hits", "kv_cache_misses")

RMA_KEYS = ("puts", "gets", "atomics", "puts_indexed", "gets_indexed",
            "atomic_batches")


class WrongAnswer(Exception):
    """An op completed but its result fails the workload's oracle."""


def pin_threads(cpu: int) -> None:
    """Pin every thread of the calling process to ``cpu`` (threads
    started later inherit it).  Unpinned, an ``rpc_proc`` episode's p50
    ranged 258-1225 us on the 2-core box; pinned, 508-574 us."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except (ProcessLookupError, ValueError):
            pass  # a thread that ended while we were listing


def my_stats():
    return repro.current_world().ranks[repro.myrank()].stats


def echo(x):
    return x


class Workload:
    """One workload: inputs, collective set-up, one op, one oracle."""

    name = ""
    why = ""
    conduit = "proc+socket"
    stack: dict = {}
    traced_ops = 2000

    def inputs(self, seed: int) -> dict:
        """Everything random about a run, for every rank."""
        return {}

    def describe(self, inputs: dict) -> str:
        return ""

    def active(self, rank: int) -> bool:
        return True

    def setup(self, inputs: dict):
        """Collective constructors and preload; runs on every rank."""

    def op(self, st, i: int, tr) -> bool:
        """Issue op number ``i`` of this rank and wait for it.  Returns
        whether the op was remote; raises :class:`WrongAnswer` when the
        result is wrong."""
        raise NotImplementedError

    def check(self, st, issued: int) -> str:
        """The end-of-run oracle: what is wrong, or "".  Collective --
        it runs all its collectives whatever it finds, so one rank's
        bad news cannot strand the other in a barrier.  ``issued`` is
        how many ops this rank issued, warm-up included."""
        return ""


# -- rpc ---------------------------------------------------------------------
class Rpc(Workload):
    why = ("paper III-F remote invocation; latency-bound, so wire, "
           "transport, wake-up and core.async_task are nearly all of the "
           "time and RMA none of it")

    def __init__(self, name: str, conduit: str, why: str = ""):
        self.name = name
        self.conduit = conduit
        self.why = why or self.why

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"args": [int(x) for x in rng.integers(0, 1 << 30, 4096)]}

    def active(self, rank):
        return rank == 0

    def setup(self, inputs):
        return inputs["args"]

    def op(self, args, i, tr):
        x = args[i % len(args)]
        fut = tr.call("core.async_task.async_", repro.async_(1), echo, x)
        got = tr.call("core.future.get", fut.get)
        if got != x:
            raise WrongAnswer(f"echo({x}) returned {got!r}")
        return True


# -- gups --------------------------------------------------------------------
class Gups(Workload):
    name = "gups_proc"
    why = ("paper V-A random access through SharedArray.atomic_batch; no "
           "AM in the timed loop, so it bypasses every AM, wire, "
           "transport and wrapper change and loads core.shared_array "
           "and the segment lock")
    table_log2 = 16
    window = 256
    pool = 64

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {
            "idx": rng.integers(0, 1 << self.table_log2,
                                (self.pool, self.window), dtype=np.int64),
            "val": rng.integers(1, 1 << 63, (self.pool, self.window),
                                dtype=np.uint64),
        }

    def describe(self, inputs):
        return (f"table 2^{self.table_log2} uint64, block=1, "
                f"{self.window}-update windows, an op is one window, "
                f"rank 0 is the only client")

    def active(self, rank):
        # Two clients collide on the two segment locks in convoys that
        # last 1-5 s: a window then reads 80, 120 or 160 us, with the
        # contended share near one half, so the p50 of the same code
        # jumped between modes (spread 33 % over ten runs).  With one
        # client every window takes both locks uncontended: 71-74 us.
        return rank == 0

    def setup(self, inputs):
        sa = repro.SharedArray(np.uint64, 1 << self.table_log2, block=1)
        sa.fill_local(0)
        repro.barrier()
        return sa, inputs["idx"], inputs["val"]

    def op(self, st, i, tr):
        sa, idx, val = st
        k = i % self.pool
        tr.call("core.shared_array.atomic_batch", sa.atomic_batch,
                idx[k], "xor", val[k])
        return True

    def check(self, st, issued):
        # xor is an involution: replaying the windows that were applied
        # an odd number of times restores the all-zero table.
        sa, idx, val = st
        rounds, extra = divmod(issued, self.pool)
        for k in range(self.pool):
            if (rounds + (k < extra)) % 2:
                sa.atomic_batch(idx[k], "xor", val[k])
        repro.barrier()
        left = int(np.count_nonzero(sa.local_view()))
        return (f"{left} table words are not zero after replaying the "
                f"stream" if left else "")


# -- kv ----------------------------------------------------------------------
_VAL_HEAD = struct.Struct("<II")


class _Kv(Workload):
    conduit = "proc+socket"
    stack = PRODUCTION_STACK
    keys = 4096
    value_bytes = 64
    stream = 8192

    def key(self, k: int) -> str:
        return f"key:{k:06d}"

    def value(self, filler: bytes, k: int, version: int) -> bytes:
        return _VAL_HEAD.pack(k, version) + filler

    def check_value(self, k: int, got) -> None:
        if (not isinstance(got, bytes) or len(got) != self.value_bytes
                or _VAL_HEAD.unpack_from(got)[0] != k):
            raise WrongAnswer(f"get({self.key(k)}) returned {got!r}")

    def describe(self, inputs):
        return (f"DistHashMap(cache=True, replicas=1), {self.keys} keys, "
                f"{self.value_bytes} B values, stack {self.stack}")

    def make_map(self, inputs):
        """Build the map and preload every key (own stripe by index)."""
        m = repro.DistHashMap(cache=True, replicas=1)
        me = repro.myrank()
        filler = inputs["filler"]
        m.multi_put({self.key(k): self.value(filler, k, 0)
                     for k in range(me, self.keys, RANKS)})
        repro.barrier()
        return m


class KvRead(_Kv):
    name = "kv_read_proc"
    why = ("95% get (80% of them on a 10% hot set) / 5% put on the "
           "production stack: hashmap client routing + cache + one AM "
           "round trip through every wrapper; the only workload a "
           "cache or invalidation change shows on")
    put_share = 0.05
    hot_share = 0.10
    hot_weight = 0.80

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 77])
        hot = rng.permutation(self.keys)[:int(self.keys * self.hot_share)]
        streams = []
        for r in range(RANKS):
            rr = np.random.default_rng([seed, r])
            is_put = rr.random(self.stream) < self.put_share
            use_hot = rr.random(self.stream) < self.hot_weight
            k = np.where(use_hot, hot[rr.integers(0, len(hot), self.stream)],
                         rr.integers(0, self.keys, self.stream))
            # puts go to the rank's own stripe, so it knows what it
            # must read back
            k = np.where(is_put, k - (k % RANKS) + r, k) % self.keys
            streams.append({"put": is_put.tolist(), "k": k.tolist()})
        return {"streams": streams,
                "filler": rng.bytes(self.value_bytes - _VAL_HEAD.size)}

    def setup(self, inputs):
        return self.state(self.make_map(inputs), inputs)

    def state(self, m, inputs):
        s = inputs["streams"][repro.myrank()]
        return {"m": m, "put": s["put"], "k": s["k"], "written": {},
                "filler": inputs["filler"], "me": repro.myrank()}

    def op(self, st, i, tr):
        j = i % self.stream
        k = st["k"][j]
        key = self.key(k)
        m = st["m"]
        remote = m.owner_of(key) != st["me"]
        if st["put"][j]:
            v = self.value(st["filler"], k, i + 1)
            tr.call("containers.hashmap.put", m.put, key, v)
            st["written"][k] = v
        else:
            self.check_value(
                k, tr.call("containers.hashmap.get", m.get, key))
        return remote

    def check(self, st, issued):
        repro.barrier()
        st["m"].refresh()
        bad = [k for k, v in st["written"].items()
               if st["m"].get(self.key(k)) != v]
        repro.barrier()
        return (f"{len(bad)} own-stripe writes not read back, first "
                f"{self.key(bad[0])}" if bad else "")


class KvWrite(_Kv):
    name = "kv_write_proc"
    why = ("70% put / 30% update(key, 'add', 1): every op is a mutation "
           "that crosses primary -> synchronous kv_repl -> backup before "
           "the ack, so a read-path gain bought with write-path cost "
           "shows here")
    update_share = 0.30
    counters = 512

    def ctr(self, c: int) -> str:
        return f"ctr:{c:04d}"

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 78])
        streams = []
        for r in range(RANKS):
            rr = np.random.default_rng([seed, r])
            streams.append({
                "upd": (rr.random(self.stream)
                        < self.update_share).tolist(),
                "k": rr.integers(0, self.keys, self.stream).tolist(),
                "c": rr.integers(0, self.counters, self.stream).tolist(),
            })
        return {"streams": streams,
                "filler": rng.bytes(self.value_bytes - _VAL_HEAD.size)}

    def setup(self, inputs):
        m = self.make_map(inputs)
        me = repro.myrank()
        m.multi_put({self.ctr(c): 0
                     for c in range(me, self.counters, RANKS)})
        repro.barrier()
        s = inputs["streams"][me]
        return {"m": m, "s": s, "acked": 0, "filler": inputs["filler"],
                "me": me}

    def op(self, st, i, tr):
        j = i % self.stream
        s, m = st["s"], st["m"]
        if s["upd"][j]:
            key = self.ctr(s["c"][j])
            remote = m.owner_of(key) != st["me"]
            tr.call("containers.hashmap.update", m.update, key, "add", 1)
            st["acked"] += 1
        else:
            k = s["k"][j]
            key = self.key(k)
            remote = m.owner_of(key) != st["me"]
            tr.call("containers.hashmap.put", m.put, key,
                    self.value(st["filler"], k, i + 1))
        return remote

    def check(self, st, issued):
        repro.barrier()
        acked = repro.collectives.allreduce(st["acked"], "sum")
        st["m"].refresh()
        total = sum(st["m"].multi_get(
            [self.ctr(c) for c in range(self.counters)]))
        repro.barrier()
        return (f"counters sum to {total}, {acked} updates were acked"
                if total != acked else "")


# -- bulk copy ---------------------------------------------------------------
class BulkCopy(Workload):
    name = "bulk_copy_proc"
    why = ("paper III-D repro.copy of 4 MiB to the neighbour: "
           "bytes-bound, so per-message software savings should not "
           "show and copy elimination should")
    nbytes = 4 << 20
    traced_ops = 300

    def inputs(self, seed):
        return {"pattern": [
            np.random.default_rng([seed, r]).integers(
                0, 1 << 63, self.nbytes // 8, dtype=np.uint64)
            for r in range(RANKS)]}

    def describe(self, inputs):
        return (f"copy {self.nbytes} B ({self.nbytes >> 20} MiB) per op to "
                f"the neighbour's segment; L2 here is 4 MiB")

    def setup(self, inputs):
        me = repro.myrank()
        n = self.nbytes // 8
        src = repro.allocate(me, n, np.uint64)
        dst = repro.allocate(me, n, np.uint64)
        src_view = src.local(n)
        src_view[:] = inputs["pattern"][me]
        dst.local(n)[:] = 0
        peer_dst = repro.collectives.allgather(dst)[(me + 1) % RANKS]
        repro.barrier()
        return {"src": src, "src_view": src_view, "dst_view": dst.local(n),
                "peer_dst": peer_dst, "n": n,
                "left": inputs["pattern"][(me - 1) % RANKS]}

    def op(self, st, i, tr):
        st["src_view"][0] = i + 1   # the receiver can tell the last copy
        tr.call("core.copy.copy", repro.copy, st["src"], st["peer_dst"],
                st["n"])
        return True

    def check(self, st, issued):
        repro.barrier()
        counts = repro.collectives.allgather(issued)
        want = counts[(repro.myrank() - 1) % RANKS]
        got = st["dst_view"]
        same = int(got[0]) == want and np.array_equal(got[1:],
                                                      st["left"][1:])
        repro.barrier()
        return ("" if same else
                "received buffer differs from the sender's pattern")


WORKLOADS = {w.name: w for w in (
    Rpc("rpc_proc", "proc+socket"),
    Rpc("rpc_smp", "smp",
        why="the rpc_proc body on smp: shares core and gasnet.wire with "
            "it but not the transport, and is the backend the tests "
            "run on"),
    Gups(),
    KvRead(),
    KvWrite(),
    BulkCopy(),
)}


# -- the rank body -----------------------------------------------------------
#: A timed window is cut into slices of this length; the run's value of
#: a metric is taken over the slices of all its episodes (``run.py``).
#: Interference on the shared box comes in bursts of 0.2-1 s (the same
#: launch reads 250 us, then 450-580 us, then 250 us again): a
#: whole-window mean or p50 moves with how many bursts it caught.
SLICE_S = 0.1

#: The reference loop: a fixed piece of pure-Python work that every
#: client times at every slice edge.  The box's CPU changes speed under
#: the benchmark for seconds to minutes at a time (this loop usually
#: reads 200-210 us, at times 160-185 or 230-300, whatever the other
#: vCPU is doing), and the workloads follow it.  A slice's times are
#: divided, and its rate multiplied, by ``loop time /
#: REFERENCE_LOOP_S``: the metrics are stated at the speed at which the
#: loop takes ``REFERENCE_LOOP_S``, the box's usual one (``setup_s``
#: too, by its episode's median).  ``run.py`` prints the factor.
REFERENCE_LOOP_N = 8000
REFERENCE_LOOP_S = 200e-6

#: A slice's loop time is the median of the readings at this many edges
#: on either side of it: single readings scatter by 20 %.
_SPEED_EDGES = 3


def reference_loop() -> float:
    """Seconds the reference loop takes now (the quicker of two goes:
    the first one also pays for the caches the last op left cold)."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        x = 0
        for i in range(REFERENCE_LOOP_N):
            x += i
        best = min(best, perf_counter() - t0)
    return best


def _run_ops(w, st, tr, first: int, *, until=None, count=None,
             stats=None) -> dict:
    """The closed loop: issue ops ``first, first+1, ...`` until the
    clock passes ``until`` or ``count`` ops were issued."""
    lat: list[float] = []        # successful remote ops only
    lat_end: list[float] = []    # when each of them completed
    # per slice edge: (time, cpu, ops so far) before the reference
    # loop, its reading, (time, cpu) after it
    marks: list[tuple] = []
    counts: list[tuple] = []
    errors: list[str] = []
    failed = 0
    i = first
    t_begin = t1 = perf_counter()
    next_mark = t_begin
    while True:
        if t1 >= next_mark:
            c1 = time.process_time()
            loop_s = reference_loop()
            t2 = perf_counter()
            marks.append((t1, c1, i - first, loop_s, t2,
                          time.process_time()))
            next_mark = t2 + SLICE_S
        if count is not None and i - first >= count:
            break
        if stats is not None:
            s0 = stats.snapshot()
        t0 = perf_counter()
        if until is not None and t0 >= until:
            break
        tr.op = i
        try:
            remote = tr.call("op", w.op, st, i, tr)
        except Exception as exc:
            failed += 1
            if len(errors) < 3:
                errors.append(f"{type(exc).__name__}: {exc}")
            remote = False
        t1 = perf_counter()
        if remote:
            lat.append(t1 - t0)
            lat_end.append(t1)
        if stats is not None:
            s1 = stats.snapshot()
            counts.append(tuple(s1[k] - s0[k] for k in COUNT_KEYS))
        i += 1
    return {"issued": i - first, "failed": failed, "errors": errors,
            "lat": lat, "lat_end": lat_end, "marks": marks,
            "t_begin": t_begin, "t_end": t1, "counts": counts}


def _slices(run: dict) -> list:
    """Cut a run at its marks: ``[duration, ops, cpu, remote p50 or
    None, speed]`` per slice; ``speed`` is the slice's reference-loop
    time over ``REFERENCE_LOOP_S`` (above 1: the box ran slow)."""
    out = []
    lat, lat_end = run["lat"], run["lat_end"]
    marks = run["marks"]
    loops = [m[3] for m in marks]
    j = 0
    for n, (a, b) in enumerate(zip(marks, marks[1:])):
        tb = b[0]
        k = j
        while k < len(lat_end) and lat_end[k] <= tb:
            k += 1
        near = loops[max(0, n + 1 - _SPEED_EDGES): n + 1 + _SPEED_EDGES]
        out.append([tb - a[4], b[2] - a[2], b[1] - a[5],
                    statistics.median(lat[j:k]) if k > j else None,
                    statistics.median(near) / REFERENCE_LOOP_S])
        j = k
    return out


def _idle_run(t_begin: float) -> dict:
    """The "run" of a rank that only serves: its window is the wait."""
    return {"issued": 0, "failed": 0, "errors": [], "lat": [],
            "lat_end": [], "marks": [], "t_begin": t_begin,
            "t_end": perf_counter(), "counts": []}


def rank_main(w: Workload, inputs: dict, window_s, traced: bool,
              cpus: list) -> dict:
    """What every rank runs: pin, set up, warm up, the timed part, the
    oracle.  ``window_s`` times an end-to-end window; ``traced`` runs
    some ops plain and then ``w.traced_ops`` ops under spans."""
    me = repro.myrank()
    world = repro.current_world()
    pin_threads(cpus[me % len(cpus)])
    # ranks of an in-process backend share one process: count it once
    own_process = world.conduit.caps.cross_process or me == 0
    st = w.setup(inputs)
    active = w.active(me)
    null = NullTracer()
    parts = []
    if active:
        parts.append(_run_ops(w, st, null, 0, count=WARMUP_OPS))
    issued = sum(p["issued"] for p in parts)
    repro.barrier()
    out = {"rank": me, "active": active}
    cpu0 = time.process_time()
    t_idle = perf_counter()
    if not traced:
        run = (_run_ops(w, st, null, issued,
                        until=perf_counter() + window_s) if active
               else None)
        repro.barrier()
        run = run or _idle_run(t_idle)
        out["slices"] = _slices(run)
    else:
        tracer = Tracer()
        stats = my_stats()
        if active:   # the same ops untraced, for the tracing overhead
            parts.append(_run_ops(w, st, null, issued,
                                  count=w.traced_ops // 4))
            issued += parts[-1]["issued"]
            out["plain_lat"] = parts[-1]["lat"]
        repro.barrier()
        t_idle = perf_counter()
        s0 = stats.snapshot()
        run = (_run_ops(w, st, tracer, issued, count=w.traced_ops,
                        stats=stats) if active else None)
        repro.barrier()
        s1 = stats.snapshot()
        run = run or _idle_run(t_idle)
        out["section_counts"] = {k: s1[k] - s0[k] for k in COUNT_KEYS}
        out["spans"] = tracer.spans
        out["op_counts"] = run["counts"]
    out["cpu_s"] = (time.process_time() - cpu0) if own_process else 0.0
    parts.append(run)
    issued = sum(p["issued"] for p in parts)
    out.update(
        ops=run["issued"], lat=run["lat"], t_begin=run["t_begin"],
        t_end=run["t_end"], issued=issued,
        failed=sum(p["failed"] for p in parts),
        errors=[e for p in parts for e in p["errors"]][:3],
        oracle=w.check(st, issued),
        rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0 if own_process else 0.0),
    )
    return out


# -- one episode (runs in the watchdogged child) -----------------------------
def _episode_slices(ranks: list) -> dict:
    """Per-slice values of one episode at the reference speed, summed
    over ranks.  A rank that only serves has no slices of its own: its
    CPU is spread evenly over its wait (it either spins or sleeps, at a
    steady rate) and scaled like the clients'."""
    active = [r for r in ranks if r["active"]]
    served = sum(r["cpu_s"] / (r["t_end"] - r["t_begin"])
                 for r in ranks if not r["active"])
    rate, cpu_per_kop, p50, speed = [], [], [], []
    for parts in zip(*(r["slices"] for r in active)):
        ops = sum(p[1] for p in parts)
        dur = statistics.mean(p[0] for p in parts)
        box = statistics.mean(p[4] for p in parts)
        speed.append(box)
        rate.append(sum(p[1] / p[0] * p[4] for p in parts))
        if ops:
            cpu_per_kop.append(
                (sum(p[2] / p[4] for p in parts) + served * dur / box)
                / (ops / 1000.0))
        p50 += [p[3] / p[4] * 1e6 for p in parts if p[3] is not None]
    return {"ops_per_s": rate, "cpu_s_per_kop": cpu_per_kop,
            "op_p50_us": p50, "speed": speed}


def workload_episode(name: str, seed: int, window_s, traced: bool,
                     cpus: list) -> dict:
    """One fresh ``repro.spmd`` of workload ``name``; returns the merged
    per-rank reports (everything ``json`` can carry)."""
    w = WORKLOADS[name]
    inputs = w.inputs(seed)
    if w.conduit == "smp":
        pin_threads(cpus[0])   # ranks are threads: one core for all
    t_enter = perf_counter()
    ranks = repro.spmd(rank_main, ranks=RANKS, conduit=w.conduit,
                       args=(w, inputs, window_s, traced, cpus), **w.stack)
    t_return = perf_counter()
    timed = (max(r["t_end"] for r in ranks)
             - min(r["t_begin"] for r in ranks))
    lat = sorted(x * 1e6 for r in ranks for x in r["lat"])
    out = {
        "ops": sum(r["ops"] for r in ranks),
        "lat_n": len(lat),
        "peak_rss_mb": max(r["rss_mb"] for r in ranks),
        # spmd() entry -> first timed op, plus last op -> spmd() return
        "setup_s": (t_return - t_enter) - timed,
        "attempted": sum(r["issued"] for r in ranks),
        "failed": sum(r["failed"] for r in ranks),
        "errors": [e for r in ranks for e in r["errors"]][:3],
        "oracle": [r["oracle"] for r in ranks if r["oracle"]],
        "describe": w.describe(inputs),
    }
    if traced:
        out["lat_us"] = lat
        out["plain_lat_us"] = [x * 1e6 for r in ranks
                               for x in r.get("plain_lat", ())]
        spans: list = []
        for r in ranks:   # parent indices become global
            base = len(spans)
            spans += [(n, a, b, p + base if p >= 0 else -1, op, r["rank"])
                      for n, a, b, p, op in r["spans"]]
        out["spans"] = spans
        out["op_counts"] = {r["rank"]: r["op_counts"] for r in ranks}
        out["section_counts"] = {
            k: sum(r["section_counts"][k] for r in ranks)
            for k in COUNT_KEYS}
    else:
        out["slices"] = _episode_slices(ranks)
        # launch, preload and teardown are Python too, and sit on both
        # sides of the window: at the window's speed (unscaled, a noisy
        # hour's set-up read 16-48 % above a quiet hour's; scaled, 2-20 %)
        if out["slices"]["speed"]:
            out["setup_s"] /= statistics.median(out["slices"]["speed"])
        # the pooled tail only ever needs each episode's largest few
        out["lat_top_us"] = lat[-(TAIL_MIN_BEYOND + 1):]
    return out
