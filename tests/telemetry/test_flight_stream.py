"""The flight ring without a lock, and the stream one kv op records.

The ring's append, its copy and its append count are each atomic under
the GIL, so concurrent recorders and a concurrent dump need no lock;
``dropped`` is exact once the appends stop.  The last two tests pin
what one remote put and one cached get record, event by event, on smp
and on the shipped proc+socket backend, so a cheaper recording path is
checked to record the same stream.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import numpy as np

import repro
from repro.containers import DistHashMap
from repro.containers.hashmap import shard_of
from repro.gasnet.trace import CommEvent
from repro.telemetry import FlightRecorder, merge_dump
from tests.conftest import run_spmd


def test_concurrent_records_and_snapshots_lose_no_count():
    rec = FlightRecorder(rank=3, capacity=64)
    writers, per_writer = 4, 10_000
    stop = threading.Event()
    errors: list[BaseException] = []
    snapshots = [0]

    def write(w: int) -> None:
        try:
            for i in range(per_writer):
                rec.record("ev", src=w, dst=i, nbytes=i, detail=f"{w}:{i}",
                           trace_id=w + 1)
        except BaseException as exc:  # pragma: no cover - the failure
            errors.append(exc)

    def read() -> None:
        try:
            while not stop.is_set():
                evs = rec.snapshot()
                assert len(evs) <= 64
                rec.dropped  # noqa: B018 - read concurrently, must not raise
                snapshots[0] += 1
        except BaseException as exc:  # pragma: no cover - the failure
            errors.append(exc)

    reader = threading.Thread(target=read)
    threads = [threading.Thread(target=write, args=(w,))
               for w in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more thread switches mid-append
    try:
        reader.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        stop.set()
        reader.join(30)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [reader, *threads])
    assert not errors, errors
    assert snapshots[0] > 0
    assert len(rec) == 64
    assert rec.dropped == writers * per_writer - 64
    for ev in rec.snapshot():
        w, i = map(int, ev.detail.split(":"))
        assert ev == CommEvent(ev.t, 3, "ev", w, i, i, ev.detail, w + 1)


def test_a_shipped_ring_keeps_its_eviction_count():
    evs = [CommEvent(float(i), 2, "am", 2, 0, 8, f"h{i}") for i in range(3)]
    rec = FlightRecorder(2, events=evs, dropped=517)
    assert rec.snapshot() == evs
    assert rec.dropped == 517
    text = merge_dump([rec])
    assert "rank 2: 3 events (517 older events evicted)" in text


def test_one_remote_put_and_one_cached_get_record_one_stream():
    """smp, 2 ranks, ``flight``: a put to a key rank 1 owns (replicated
    to rank 0, its backup), then a get of it that the cache answers.
    The put records the request, the replication hop and both replies,
    each under the put's trace id; the cached get records nothing.
    Each rank's events are windowed by its own clock: rank 1's from the
    barrier to when its wait for rank 0's window ends, since a send's
    event is stamped after delivery, so its last reply may follow rank
    0's end."""
    holder: dict = {}
    flags: dict = {}

    def body():
        me = repro.myrank()
        world = repro.current_world()
        ctx = world.ranks[me]
        if me == 0:
            holder["world"] = world
        m = DistHashMap(replicas=1, cache=True)
        key = next(f"k{i}" for i in range(1000)
                   if shard_of(f"k{i}", m.nshards) == 1)
        flags["key"] = key
        repro.barrier()
        t0 = time.perf_counter()    # rank 1's window: the barrier is out
        # A rendezvous past the barrier that sends nothing, so no
        # barrier message is handled inside the window.
        flags[me] = True
        world.poke_all()
        ctx.wait_until(lambda: flags.get(0) and flags.get(1),
                       what="test: rendezvous")
        if me == 0:
            t0 = time.perf_counter()
            m.put(key, 42)
            assert m.get(key) == 42
            flags[("window", 0)] = (t0, time.perf_counter())
            assert m.cache_hits == 1
            world.poke_all()
            # No barrier message may reach rank 1 inside its window.
            ctx.wait_until(lambda: ("window", 1) in flags,
                           what="test: rank 1's window")
        else:
            ctx.wait_until(lambda: ("window", 0) in flags,
                           what="test: the op")
            flags[("window", 1)] = (t0, time.perf_counter())
            world.poke_all()
        repro.barrier()

    run_spmd(body, ranks=2, conduit="smp", telemetry="flight")
    stream = {}
    for rt in holder["world"].telemetry.ranks:
        t0, t1 = flags[("window", rt.rank)]
        stream[rt.rank] = [ev for ev in rt.flight.snapshot()
                           if t0 <= ev.t <= t1]
    kinds = {r: Counter((ev.kind, ev.detail) for ev in evs)
             for r, evs in stream.items()}
    assert kinds[0] == Counter({
        ("kv_put", repr(flags["key"])): 1,
        ("am", "kv_put"): 1, ("am_handled", "kv_repl"): 1,
        ("reply", "__reply__"): 1, ("am_handled", "__reply__"): 1})
    assert kinds[1] == Counter({
        ("am_handled", "kv_put"): 1, ("am", "kv_repl"): 1,
        ("am_handled", "__reply__"): 1, ("reply", "__reply__"): 1})
    assert [ev.kind for ev in stream[0]] == [
        "kv_put", "am", "am_handled", "reply", "am_handled"]
    put_trace = stream[0][0].trace_id
    assert put_trace >> 40 == 1  # minted by rank 0
    assert {ev.trace_id for evs in stream.values() for ev in evs} \
        == {put_trace}


def _put_and_get_window():
    """One rank of the proc+socket leg: rank 0 puts to a key rank 1
    serves, then gets it from its cache; each rank returns the key and
    the ``(kind, detail, trace_id)`` of its flight events in its own
    window around the op.  Each signal is a one-sided put into the
    peer's slot of a flag array, ``[ready, done]`` per rank, polled in
    the receiver's own slab: an RMA event lands in its initiator's ring
    before the window opens or after it closes, and no AM is handled
    inside it but the op's.  Rank 1's window runs from its ready signal
    to when it learns the op ended (a send's event is stamped after
    delivery, so its last one may follow rank 0's end)."""
    me = repro.myrank()
    ctx = repro.current_world().ranks[me]
    m = DistHashMap(replicas=1, cache=True)
    key = next(f"k{i}" for i in range(1000)
               if shard_of(f"k{i}", m.nshards) == 1)
    flags = repro.SharedArray(np.float64, 4, block=2)
    repro.barrier()
    mine, peer = flags.local_view(), 2 * (1 - me)
    flags[peer] = 1.0       # out of the barrier: its messages are handled
    t0 = time.perf_counter()    # rank 1's window: the signal's event is out
    ctx.wait_until(lambda: mine[0] == 1.0, what="test: rendezvous")
    if me == 0:
        t0 = time.perf_counter()
        m.put(key, 42)
        assert m.get(key) == 42
        t1 = time.perf_counter()
        assert m.cache_hits == 1
        flags[peer + 1] = 1.0
    else:
        ctx.wait_until(lambda: mine[1] == 1.0, what="test: the op")
        t1 = time.perf_counter()
    stream = [(ev.kind, ev.detail, ev.trace_id)
              for ev in ctx.telemetry.flight.snapshot() if t0 <= ev.t <= t1]
    if me == 1:
        flags[peer + 1] = 1.0   # snapshot taken: rank 0 may send again
    else:
        ctx.wait_until(lambda: mine[1] == 1.0, what="test: the snapshot")
    repro.barrier()
    return key, stream


def test_one_remote_put_and_one_cached_get_record_one_stream_on_proc():
    """The smp test's stream, event for event, on proc+socket: each
    rank records it in its own process, and the ids still join."""
    (key, stream0), (_, stream1) = run_spmd(
        _put_and_get_window, ranks=2, conduit="proc+socket",
        telemetry="flight")
    assert [ev[:2] for ev in stream0] == [
        ("kv_put", repr(key)), ("am", "kv_put"),
        ("am_handled", "kv_repl"), ("reply", "__reply__"),
        ("am_handled", "__reply__")]
    assert [ev[:2] for ev in stream1] == [
        ("am_handled", "kv_put"), ("am", "kv_repl"),
        ("am_handled", "__reply__"), ("reply", "__reply__")]
    put_trace = stream0[0][2]
    assert put_trace >> 40 == 1  # minted by rank 0
    assert {ev[2] for ev in stream0 + stream1} == {put_trace}
