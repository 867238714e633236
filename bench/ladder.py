"""The traced run: one traced workload plus the outside-in latency
ladder.

Every rung is timed from here, around calls into the program's public
functions, in pinned rank processes under the episode watchdog.  Each
layer is reported as time above a raw floor measured in the same run
(``floor.*``), and a ``*_self_us`` is a rung minus the rung below it
(p50s), flagged when negative beyond noise.  Layer names are the
program's module names.
"""

from __future__ import annotations

import collections
import json
import os
import socket
import statistics
import threading
from time import perf_counter

import numpy as np

import repro
from repro.arrays import RectDomain, ndarray
from repro.core import current
from repro.gasnet import ActiveMessage, am_handler
from repro.gasnet.ring import RingConsumer, RingProducer, RingSpec
from repro.gasnet.wire import encode_am, preencode

import metrics as M
from episode import run_episode
from spans import NullTracer
from workloads import (COUNT_KEYS, PRODUCTION_STACK, RANKS, RMA_KEYS,
                       WORKLOADS, KvRead, KvWrite, echo, my_stats,
                       pin_threads, workload_episode)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

PINGS = 2000
PING_WARMUP = 200
PUTS = 300
RING_EPISODES = 10
RING_DEADLINE_S = 3.0
PROBE_DEADLINE_S = 30.0

#: Differences smaller than this are measurement noise, not a negative
#: self time.
NOISE_US = 5.0


@am_handler("bench.ping")
def _ping_handler(ctx, am) -> None:
    ctx.reply(am)


def p50_us(fn, n: int, warm: int = 20) -> float:
    """Median time of ``fn()`` over ``n`` calls after ``warm``, in us."""
    for _ in range(warm):
        fn()
    xs = []
    for _ in range(n):
        t0 = perf_counter()
        fn()
        xs.append(perf_counter() - t0)
    return statistics.median(xs) * 1e6


def p50_each_us(fn, items) -> float:
    """Median time of ``fn(item)``, each item used once, in us."""
    xs = []
    for it in items:
        t0 = perf_counter()
        fn(it)
        xs.append(perf_counter() - t0)
    return statistics.median(xs) * 1e6


def ping_p50_us(n: int = PINGS, warm: int = PING_WARMUP) -> float:
    """Handler-level AM round trip to rank 1 (reply sent from inside the
    handler: the AM substrate without the async-task machinery)."""
    ctx = current()

    def ping():
        ctx.send_am(1, "bench.ping", expect_reply=True).get()

    return p50_us(ping, n, warm)


def rpc_p50_us(n: int = 1000, warm: int = 200) -> float:
    return p50_us(lambda: repro.async_(1)(echo, 7).get(), n, warm)


# -- floors and standalone layers (one process, core 0) ----------------------
def _socketpair_rtt_us(cpus: list, n: int = 3000) -> float:
    """Blocking 42-byte ping-pong over a socketpair between two pinned
    processes: what proc+socket could cost with no software above it."""
    a, b = socket.socketpair()
    msg = bytes(42)
    pid = os.fork()
    if pid == 0:
        try:
            a.close()
            pin_threads(cpus[1 % len(cpus)])
            while True:
                got = b.recv(64)
                if not got:
                    break
                b.sendall(got)
        finally:
            os._exit(0)
    b.close()
    try:
        def rtt():
            a.sendall(msg)
            a.recv(64)
        return p50_us(rtt, n, 200)
    finally:
        a.close()
        os.waitpid(pid, 0)


def _thread_rtt_us(n: int = 3000) -> float:
    """deque + Condition ping-pong between two threads on one core:
    the smp conduit's inbox with no software above it."""
    cv = threading.Condition()
    boxes = (collections.deque(), collections.deque())
    stop = object()

    def put(i, x):
        with cv:
            boxes[i].append(x)
            cv.notify_all()

    def take(i):
        with cv:
            while not boxes[i]:
                cv.wait()
            return boxes[i].popleft()

    def server():
        while True:
            x = take(1)
            if x is stop:
                return
            put(0, x)

    t = threading.Thread(target=server, daemon=True)
    t.start()

    def rtt():
        put(1, 1)
        take(0)

    try:
        return p50_us(rtt, n, 200)
    finally:
        put(1, stop)
        t.join(10)


def _wire_shapes(n: int) -> dict:
    """Fresh AMs of the three shapes the workloads put on the wire."""
    task = preencode((echo, (7,), {}), strict=True)
    value = bytes(64)
    return {
        "trivial": [ActiveMessage("bench.ping", 0, token=i + 1)
                    for i in range(n)],
        "task": [ActiveMessage("exec_task", 0, payload=task, token=i + 1)
                 for i in range(n)],
        "kv": [ActiveMessage("kv_put", 0, args=(1, 1),
                             payload={f"key:{i:06d}": value}, token=i + 1)
               for i in range(n)],
    }


def local_probe(cpus: list) -> dict:
    pin_threads(cpus[0])
    out = {}
    out["floor.socketpair_rtt_us"] = _socketpair_rtt_us(cpus)
    out["floor.thread_rtt_us"] = _thread_rtt_us()
    for shape, ams in _wire_shapes(1500).items():
        out[f"gasnet.wire.encode_{shape}_us"] = p50_each_us(encode_am, ams)
        out[f"gasnet.wire.thaw_{shape}_us"] = p50_each_us(
            lambda am: am._frame.thaw(), ams)
    spec = RingSpec()
    buf = bytearray(spec.region_bytes)
    prod, cons = RingProducer(buf, spec), RingConsumer(buf, spec)
    frame = bytes(42)

    def slot():
        prod.try_emit(frame, 0)
        cons.try_recv()

    out["gasnet.ring.slot_us"] = p50_us(slot, 3000, 100)
    out["core.world.launch_smp_s"] = _empty_launch_s("smp", 5)
    got = repro.spmd(_smp_body, ranks=RANKS, conduit="smp")[0]
    out.update(got)
    return out


def _smp_body() -> dict:
    out = {}
    repro.barrier()
    if repro.myrank() == 0:
        out["gasnet.smp.am_rtt_us"] = ping_p50_us()
        out["rpc_p50_us.smp"] = rpc_p50_us()
    repro.barrier()
    return out


# -- proc launches -----------------------------------------------------------
def _spmd_timed(body, conduit: str, cpus: list, **stack) -> dict:
    """Launch ``body`` on 2 pinned ranks; returns rank 0's report plus
    the counter deltas of its sections, summed over ranks."""
    ranks = repro.spmd(_pinned, ranks=RANKS, conduit=conduit,
                       args=(body, cpus), **stack)
    out = dict(ranks[0]["out"])
    out["counts"] = {
        sec: {k: sum(r["counts"].get(sec, {}).get(k, 0) for r in ranks)
              for k in COUNT_KEYS}
        for sec in ranks[0]["counts"]}
    return out


class _Sections:
    """Collective counter sections: every rank snapshots its stats at
    the same barriers, so summed deltas cover both sides of an op."""

    def __init__(self):
        self.stats = my_stats()
        self.counts: dict[str, dict] = {}

    def run(self, name: str, fn, every_rank: bool = False) -> None:
        repro.barrier()
        s0 = self.stats.snapshot()
        if every_rank or repro.myrank() == 0:
            fn()
        repro.barrier()
        s1 = self.stats.snapshot()
        self.counts[name] = {k: s1[k] - s0[k] for k in COUNT_KEYS}


def _pinned(body, cpus: list) -> dict:
    pin_threads(cpus[repro.myrank() % len(cpus)])
    sec = _Sections()
    out = body(sec) or {}
    repro.barrier()
    return {"out": out, "counts": sec.counts}


def _ping_body(sec: _Sections) -> dict:
    out = {}
    sec.run("ping", lambda: out.update(am_rtt_us=ping_p50_us()))
    return out


def _empty_launch_s(conduit: str, n: int) -> float:
    """Median wall time of an empty ``spmd()`` on ``conduit``."""
    walls = []
    for _ in range(n):
        t0 = perf_counter()
        repro.spmd(int, ranks=RANKS, conduit=conduit)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def ring_episode(cpus: list) -> dict:
    out = _spmd_timed(_ping_body, "proc+ring", cpus)
    out["launch_ring_s"] = _empty_launch_s("proc+ring", 1)
    return out


def wrapper_probe(cpus: list) -> dict:
    """AM round trip under each wrapper of the production stack."""
    out = {}
    for label, stack in (("reliability", {"reliability": True}),
                         ("flight", {"telemetry": "flight"}),
                         ("full", {"telemetry": "full"})):
        got = _spmd_timed(_ping_body, "proc+socket", cpus, **stack)
        out[f"am_rtt_us.{label}"] = got["am_rtt_us"]
        if label == "reliability":
            c, pings = got["counts"]["ping"], PINGS + PING_WARMUP
            out["gasnet.reliability.acks_per_op"] = c["acks_sent"] / pings
            out["gasnet.reliability.retransmits_per_kop"] = (
                1000.0 * c["am_retransmits"] / pings)
    return out


def _proc_body(sec: _Sections) -> dict:
    """The bare proc+socket rungs, rank 0 measuring against rank 1."""
    me = repro.myrank()
    out = {}
    world = repro.current_world()
    conduit = world.conduit
    n4m = 4 << 17
    big = repro.allocate(me, n4m, np.uint64)
    dst = repro.allocate(me, n4m, np.uint64)
    ptrs = repro.collectives.allgather((big, dst))
    sa = repro.SharedArray(np.uint64, 1 << 16, block=1)
    face = RectDomain((0, 0), (64, 64))
    mine = ndarray(np.float64, face)
    theirs = repro.collectives.allgather(mine)[1]

    def rungs():
        out["gasnet.proc.am_rtt_us"] = ping_p50_us()
        out["rpc_p50_us.proc"] = rpc_p50_us()
        peer_big, peer_dst = ptrs[1]
        word = np.ones(1, dtype=np.uint64)
        out["gasnet.rma.put_8b_us"] = p50_us(
            lambda: conduit.rma_put(0, 1, peer_dst.offset, word), 2000)
        block = big.local(n4m)
        block[:] = 3
        out["gasnet.rma.put_4m_us"] = p50_us(
            lambda: conduit.rma_put(0, 1, peer_dst.offset, block), 40, 3)
        out["gasnet.rma.get_4m_us"] = p50_us(
            lambda: conduit.rma_get(0, 1, peer_big.offset, block.dtype,
                                    n4m), 40, 3)
        # the floors of the RMA rungs, in the process that climbs them
        scratch = np.empty_like(block)
        out["floor.memcpy_4m_us"] = p50_us(
            lambda: np.copyto(scratch, block), 40, 3)
        rng = np.random.default_rng(5)
        offs = rng.integers(0, 1 << 15, 256)
        vals = rng.integers(1, 1 << 63, 256, dtype=np.uint64)
        table = np.zeros(1 << 15, dtype=np.uint64)
        out["floor.ufunc_at_256_us"] = p50_us(
            lambda: np.bitwise_xor.at(table, offs, vals), 2000, 50)
        out["gasnet.rma.atomic_batch_256_us"] = p50_us(
            lambda: conduit.rma_atomic_batch(
                0, 1, peer_dst.offset, block.dtype, offs, "xor", vals),
            2000, 50)
        # the same 256 updates through SharedArray, every index owned
        # by rank 1 (block=1: odd indices), so exactly one conduit call
        idx = offs * 2 + 1
        out["window_p50_us"] = p50_us(
            lambda: sa.atomic_batch(idx, "xor", vals), 2000, 50)
        out["core.shared_array.get_scalar_us"] = p50_us(
            lambda: sa[1], 2000, 50)
        out["copy_p50_us"] = p50_us(
            lambda: repro.copy(big, peer_dst, n4m), 40, 3)
        out["arrays.ndarray.ghost_copy_us"] = p50_us(
            lambda: mine.copy(theirs), 300, 20)
        out["core.world.advance_idle_us"] = p50_us(repro.advance, 5000, 50)

    sec.run("rungs", rungs)
    colls = {
        "core.coll_engine.barrier_us": repro.barrier,
        "core.coll_engine.allreduce_8b_us":
            lambda: repro.collectives.allreduce(1, "sum"),
        "core.coll_engine.allreduce_64k_us":
            lambda v=np.ones(8192): repro.collectives.allreduce(v, "sum"),
    }
    for name, fn in colls.items():
        repro.barrier()
        out[name] = p50_us(fn, 300, 20)
    return out


def proc_probe(cpus: list) -> dict:
    out = _spmd_timed(_proc_body, "proc+socket", cpus)
    out["core.proclaunch.launch_s"] = _empty_launch_s("proc+socket", 3)
    return out


def _kv_body(sec: _Sections) -> dict:
    """containers.hashmap rungs on the production stack."""
    me = repro.myrank()
    out = {}
    kv = KvRead()
    inputs = kv.inputs(5)
    m = kv.make_map(inputs)
    remote = [k for k in range(kv.keys) if m.owner_of(kv.key(k)) != me]
    local = [k for k in range(kv.keys) if m.owner_of(kv.key(k)) == me]
    get = lambda k: m.get(kv.key(k))  # noqa: E731

    def rungs():
        out["am_rtt_us.production"] = ping_p50_us(1000)
        m.invalidate_cache()
        first = remote[:600]     # first touch misses, second touch hits
        out["containers.hashmap.get_remote_us"] = p50_each_us(get, first)
        out["containers.hashmap.get_cached_us"] = p50_each_us(get, first)
        out["containers.hashmap.get_local_us"] = p50_each_us(
            get, local[:1000])
        batch = [kv.key(k) for k in remote[600:664]]

        def multi_get():
            m.invalidate_cache()
            t0 = perf_counter()
            m.multi_get(batch)
            return perf_counter() - t0

        out["containers.hashmap.multi_get_64_us"] = statistics.median(
            multi_get() for _ in range(40)) * 1e6

    sec.run("rungs", rungs)
    sec.run("put", lambda: out.update({
        "containers.hashmap.put_us": p50_each_us(
            lambda k: m.put(kv.key(k), kv.value(inputs["filler"], k, 1)),
            remote[:PUTS])}))
    m.multi_put({f"ctr:{c}": 0 for c in range(me, 64, RANKS)})
    repro.barrier()
    ctrs = [c for c in (f"ctr:{c}" for c in range(64))
            if m.owner_of(c) != me] * 10
    sec.run("update", lambda: out.update({
        "containers.hashmap.update_us": p50_each_us(
            lambda c: m.update(c, "add", 1), ctrs[:PUTS])}))
    # the kv_read_proc mix from both ranks, for the cache's hit rate
    st = kv.state(m, inputs)
    tr = NullTracer()

    def mix():
        for i in range(1000):
            kv.op(st, i, tr)

    sec.run("mix", mix, every_rank=True)
    return out


def kv_probe(cpus: list) -> dict:
    return _spmd_timed(_kv_body, "proc+socket", cpus, **PRODUCTION_STACK)


def _kv_write_body(sec: _Sections) -> dict:
    w = KvWrite()
    st = w.setup(w.inputs(5))
    tr = NullTracer()
    for i in range(100):
        w.op(st, i, tr)
    repro.barrier()
    t0 = perf_counter()
    n = 600
    for i in range(100, 100 + n):
        w.op(st, i, tr)
    rate = n / (perf_counter() - t0)
    repro.barrier()
    return {"ops_per_s": repro.collectives.allreduce(rate, "sum")}


def kv_write_ratio_probe(cpus: list) -> dict:
    bare = _spmd_timed(_kv_write_body, "proc+socket", cpus)
    prod = _spmd_timed(_kv_write_body, "proc+socket", cpus,
                       **PRODUCTION_STACK)
    return {"bare_ops_per_s": bare["ops_per_s"],
            "production_ops_per_s": prod["ops_per_s"]}


# -- assembling the ladder ---------------------------------------------------
class Ladder:
    """Collects per-layer values and the reasons for missing ones."""

    def __init__(self, log=print):
        self.values: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.log = log

    def episode(self, what: str, fn, cpus, deadline=PROBE_DEADLINE_S):
        res = run_episode(fn, (cpus,), deadline_s=deadline, poll_cpus=cpus)
        self.log(f"  probe {what:<16} {res.wall_s:6.2f} s  {res.status}"
                 f"{': ' + res.why if res.why else ''}")
        return res

    def take(self, got: dict) -> None:
        for k, v in got.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                self.values[k] = float(v)

    def self_time(self, name: str, rung: str, *below: str) -> None:
        v = self.values
        if rung not in v or any(b not in v for b in below):
            return
        value, flagged = M.rung_self(v[rung], *(v[b] for b in below),
                                     noise=NOISE_US)
        v[name] = value
        if flagged:
            self.notes[name] = (f"negative beyond noise: {rung} measured "
                                f"below {' + '.join(below)}")


def run_ladder(cpus: list, log=print) -> Ladder:
    """All workload-independent rungs."""
    lad = Ladder(log)
    v = lad.values
    shm_leaked = 0
    for what, fn in (("local", local_probe), ("proc", proc_probe),
                     ("wrappers", wrapper_probe), ("kv", kv_probe),
                     ("kv_write_ratio", kv_write_ratio_probe)):
        res = lad.episode(what, fn, cpus)
        if res.ok:
            lad.take(res.value)
            shm_leaked += len(res.shm_left)
            if what == "kv":
                c = res.value["counts"]
                v["containers.hashmap.ams_per_put"] = (
                    c["put"]["ams_sent"] / PUTS)
                mix = c["mix"]
                looked = mix["kv_cache_hits"] + mix["kv_cache_misses"]
                if looked:
                    v["containers.hashmap.cache_hit_rate"] = (
                        mix["kv_cache_hits"] / looked)
    # proc+ring is not a gated workload yet: its failure rate is the
    # metric (see README, "proc+ring").
    ring_ok = []
    for e in range(RING_EPISODES):
        res = lad.episode(f"ring episode {e}", ring_episode, cpus,
                          RING_DEADLINE_S)
        if res.ok:
            ring_ok.append(res.value)
            shm_leaked += len(res.shm_left)
    v["gasnet.ring.episode_failed_share"] = (
        1.0 - len(ring_ok) / RING_EPISODES)
    if ring_ok:
        v["gasnet.ring.am_rtt_us"] = statistics.median(
            r["am_rtt_us"] for r in ring_ok)
        v["core.proclaunch.launch_ring_s"] = statistics.median(
            r["launch_ring_s"] for r in ring_ok)
    v["core.proclaunch.shm_leaked"] = float(shm_leaked)

    # derived rungs; a ping is two trivial frames, request and reply
    wire = ("gasnet.wire.encode_trivial_us", "gasnet.wire.thaw_trivial_us")
    for be, floor in (("smp", "floor.thread_rtt_us"),
                      ("proc", "floor.socketpair_rtt_us")):
        lad.self_time(f"gasnet.{be}.transport_self_us",
                      f"gasnet.{be}.am_rtt_us", floor, *wire, *wire)
        lad.self_time(f"core.async_task.rpc_self_us.{be}",
                      f"rpc_p50_us.{be}", f"gasnet.{be}.am_rtt_us")
    for label, name in (
            ("reliability", "gasnet.reliability.am_overhead_us"),
            ("flight", "telemetry.flight_am_overhead_us"),
            ("full", "telemetry.full_am_overhead_us")):
        lad.self_time(name, f"am_rtt_us.{label}", "gasnet.proc.am_rtt_us")
    lad.self_time("core.shared_array.atomic_batch_self_us",
                  "window_p50_us", "gasnet.rma.atomic_batch_256_us")
    # copy() is a local read of the source plus a remote put
    lad.self_time("core.copy.self_4m_us", "copy_p50_us",
                  "gasnet.rma.put_4m_us", "floor.memcpy_4m_us")
    if "copy_p50_us" in v and "floor.memcpy_4m_us" in v:
        v["core.copy.efficiency"] = (v["floor.memcpy_4m_us"]
                                     / v["copy_p50_us"])
    lad.self_time("containers.hashmap.get_self_us",
                  "containers.hashmap.get_remote_us",
                  "am_rtt_us.production")
    if "bare_ops_per_s" in v and v.get("production_ops_per_s"):
        v["wrappers.kv_write_ratio"] = (v["bare_ops_per_s"]
                                        / v["production_ops_per_s"])
    return lad


def summarize_trace(name: str, seed: int, val: dict, log=print) -> dict:
    """Write the traced section's spans out and return the per-layer
    values that depend on the traced workload."""
    spans, ops = val["spans"], val["ops"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}.json")
    with open(path, "w") as f:
        json.dump({
            "workload": name, "seed": seed, "ops": ops,
            "span_fields": ["name", "start", "end", "parent", "op",
                            "rank"],
            "spans": spans,
            "op_count_fields": list(COUNT_KEYS),
            "op_counts": val["op_counts"],
            "section_counts": val["section_counts"],
        }, f)
    selfs = M.span_self_times([s[:5] for s in spans])
    by_name: dict[str, list] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp[0], []).append((sp[2] - sp[1], selfs[i]))
    log(f"  {len(spans)} spans written to {os.path.relpath(path)}; "
        f"p50 / self p50 / count by name:")
    for sname, v in sorted(by_name.items()):
        log(f"    {sname:<34} "
            f"{statistics.median(d for d, _ in v) * 1e6:10.2f} us "
            f"{statistics.median(x for _, x in v) * 1e6:10.2f} us "
            f"{len(v):7d}")
    c = val["section_counts"]
    out = {
        "gasnet.ams_per_op": c["ams_sent"] / ops,
        "gasnet.rma_ops_per_op": sum(c[k] for k in RMA_KEYS) / ops,
        "gasnet.wire.bytes_per_op": c["am_bytes"] / ops,
        "gasnet.wire.pickle_fallback_share": (
            c["pickle_fallbacks"] / c["wire_frames"]
            if c["wire_frames"] else 0.0),
        "bench.trace_overhead_ratio": (
            statistics.median(val["lat_us"])
            / statistics.median(val["plain_lat_us"])),
    }
    tail = M.tail_percentile(val["lat_us"])
    if tail is not None:
        out["api.op_tail_pct"], out["api.op_tail_us"] = tail
    return out


def main(names: list, seed: int, spec: dict, cpus: list,
         log=print) -> int:
    """The traced run of ``names`` plus the ladder; prints every
    per-layer metric and the result line."""
    correct = True
    attempted = failed = 0
    per_workload = {}
    for name in names:
        w = WORKLOADS[name]
        log(f"traced workload {name}  seed={seed}  "
            f"{w.traced_ops} ops per client under spans")
        res = run_episode(workload_episode, (name, seed, None, True, cpus),
                          deadline_s=PROBE_DEADLINE_S, poll_cpus=cpus)
        if not res.ok:
            log(f"  {res.status}: {res.why}")
            correct = False
            continue
        val = res.value
        attempted += val["attempted"]
        failed += val["failed"]
        correct &= not val["oracle"] and not val["failed"]
        for msg in val["oracle"]:
            log(f"  ORACLE FAILED    {msg}")
        per_workload[name] = summarize_trace(name, seed, val, log)
    lad = run_ladder(cpus, log)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {}
    log("per-layer metrics")
    for prefix, vals in [("", lad.values)] + list(per_workload.items()):
        for key in sorted(vals):
            if key not in declared:
                continue
            shown = f"{prefix}.{key}" if prefix and len(names) > 1 else key
            note = lad.notes.get(key, "")
            log(f"  {shown:<44} {vals[key]:.6g} {declared[key]}"
                f"{'   FLAGGED ' + note if note else ''}")
            metrics[shown] = {"value": vals[key], "unit": declared[key]}
    have = set(lad.values).union(*per_workload.values())
    missing = [k for k in declared if k not in have]
    for key in missing:
        log(f"  {key:<44} unavailable on this box (its probe failed, "
            f"see above)")
    print(json.dumps({"correct": bool(correct and not missing),
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and not missing else 1
