"""The SPSC ring transport: unit contract and end-to-end behaviour.

Unit tests drive :class:`~repro.gasnet.ring.RingProducer` /
:class:`~repro.gasnet.ring.RingConsumer` over a plain ``bytearray`` —
the classes are buffer-agnostic, so the full slot/spill/backpressure
contract is checkable without processes, including a hypothesis
stateful model against a ``deque`` oracle.  One test then shares a ring
between two processes to pin the cursor stores (a store that passes
through 0 is invisible to a single thread).  The SPMD tests run the
same machinery for real (``conduit="proc+ring"``): OOB spill under a
deliberately tiny slot size, shutdown hygiene after a rank crash, and
the ``wire_ring_*`` telemetry flowing through snapshot / reset /
aggregate / ``metrics_reduce``.
"""

import collections
import glob
import multiprocessing
import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro
from repro.core.collectives import barrier
from repro.errors import RankDead
from repro.gasnet import proc
from repro.gasnet.ring import SLOT_HDR, RingConsumer, RingProducer, RingSpec
from repro.gasnet.stats import CommStats, aggregate
from tests.conftest import run_spmd

RING_COUNTERS = (
    "wire_ring_slots", "wire_ring_frames",
    "wire_ring_spills", "wire_ring_full_backoffs",
    "wire_ring_doorbells", "wire_ring_wakeups",
)


def _pair(slots=4, slot_bytes=64, spill_bytes=256):
    spec = RingSpec(slots=slots, slot_bytes=slot_bytes,
                    spill_bytes=spill_bytes)
    buf = bytearray(spec.region_bytes)
    return spec, RingProducer(buf, spec), RingConsumer(buf, spec)


def _emit_all(prod, cons, data: bytes) -> bytearray:
    """Push all of ``data`` through the ring, draining as needed, and
    return the reassembled byte stream the consumer saw."""
    out = bytearray()
    off = 0
    while off < len(data):
        n = prod.try_emit(data, off)
        if n == 0:
            chunk = cons.try_recv()
            assert chunk is not None, "full ring must have pending slots"
            out += chunk
            continue
        off += n
    while True:
        chunk = cons.try_recv()
        if chunk is None:
            break
        out += chunk
    return out


# -- unit: slot/spill/backpressure contract ---------------------------------
def test_ring_roundtrip_small_message():
    _, prod, cons = _pair()
    msg = b"hello ring"
    assert not cons.pending()
    assert prod.try_emit(msg, 0) == len(msg)
    assert prod.last_spill == 0
    assert cons.pending()
    assert bytes(cons.try_recv()) == msg
    assert cons.try_recv() is None


def test_ring_stream_survives_wraparound():
    """More chunks than slots: cursors wrap, the byte stream does not."""
    spec, prod, cons = _pair(slots=4, slot_bytes=64)
    rng = np.random.default_rng(7)
    data = bytes(rng.integers(0, 256, size=40 * spec.inline_cap,
                              dtype=np.uint8))
    assert bytes(_emit_all(prod, cons, data)) == data


def test_ring_slot_exactly_full_is_inline_only():
    spec, prod, cons = _pair(slot_bytes=64)
    msg = bytes(range(48)) * (spec.inline_cap // 48 + 1)
    msg = msg[:spec.inline_cap]
    assert len(msg) == spec.slot_bytes - SLOT_HDR.size
    assert prod.try_emit(msg, 0) == spec.inline_cap
    assert prod.last_spill == 0 and prod.spill_in_use() == 0
    assert bytes(cons.try_recv()) == msg


def test_ring_spill_roundtrip_and_release():
    """A chunk bigger than one slot's inline room rides the spill
    region and the consumer's copy-out releases it byte-for-byte."""
    spec, prod, cons = _pair(slot_bytes=64, spill_bytes=1024)
    msg = bytes(i % 251 for i in range(3 * spec.inline_cap))
    assert prod.try_emit(msg, 0) == len(msg)  # one slot carries it all
    assert prod.last_spill == len(msg) - spec.inline_cap
    assert prod.spill_in_use() == prod.last_spill
    assert bytes(cons.try_recv()) == msg
    assert prod.spill_in_use() == 0


def test_ring_spill_exhausted_still_progresses():
    """With no spill room at all, a big message spans many inline-only
    slots — bounded region, unbounded stream."""
    spec, prod, cons = _pair(slots=4, slot_bytes=64, spill_bytes=0)
    msg = bytes(i % 256 for i in range(10 * spec.inline_cap))
    assert bytes(_emit_all(prod, cons, msg)) == msg


def test_ring_spill_wrap_contiguity():
    """The bump allocator never wraps a chunk: near the region end a
    slot takes only the contiguous tail, the rest lands in later
    slots — the stream still reassembles exactly."""
    spec, prod, cons = _pair(slots=8, slot_bytes=32, spill_bytes=100)
    rng = np.random.default_rng(11)
    for size in (90, 70, 85, 95, 60):  # repeatedly straddle the wrap
        msg = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
        assert bytes(_emit_all(prod, cons, msg)) == msg
    assert prod.spill_in_use() == 0


def test_ring_backpressure_full_then_recover():
    spec, prod, cons = _pair(slots=2, slot_bytes=64)
    assert prod.try_emit(b"a", 0) == 1
    assert prod.try_emit(b"b", 0) == 1
    assert prod.free_slots() == 0
    assert prod.try_emit(b"c", 0) == 0  # full: no progress, no damage
    assert bytes(cons.try_recv()) == b"a"
    assert prod.free_slots() == 1
    assert prod.try_emit(b"c", 0) == 1
    assert bytes(cons.try_recv()) == b"b"
    assert bytes(cons.try_recv()) == b"c"


def test_ring_spec_rejects_degenerate_geometry():
    with pytest.raises(ValueError):
        RingSpec(slots=1)
    with pytest.raises(ValueError):
        RingSpec(slot_bytes=SLOT_HDR.size)


# -- model: the ring against a deque of chunks ------------------------------
class RingModel(RuleBasedStateMachine):
    """Interleaved produce / consume on a tiny ring (4 slots x 48 inline
    bytes, 96 spill bytes) so that full, cursor wrap, spill shrink at
    the region end and multi-slot messages are all reached.  The oracle
    is the deque of chunks the producer reported as accepted."""

    def __init__(self):
        super().__init__()
        self.spec, self.prod, self.cons = _pair(slots=4, slot_bytes=64,
                                                spill_bytes=96)
        self.chunks: collections.deque = collections.deque()
        self.produced = bytearray()
        self.consumed = bytearray()

    @rule(data=st.binary(max_size=400))
    def produce(self, data):
        """Emit until the message is through or the ring is full (what
        is not accepted is dropped: the stream is what was accepted)."""
        off = 0
        while off < len(data):
            n = self.prod.try_emit(data, off)
            if n == 0:
                assert len(self.chunks) == self.spec.slots  # only when full
                break
            assert n >= min(len(data) - off, self.spec.inline_cap)
            assert self.prod.last_spill == max(0, n - self.spec.inline_cap)
            self.chunks.append(data[off:off + n])
            self.produced += data[off:off + n]
            off += n

    @rule()
    def consume(self):
        assert self.cons.pending() == bool(self.chunks)
        chunk = self.cons.try_recv()
        if not self.chunks:
            assert chunk is None
            return
        assert bytes(chunk) == self.chunks.popleft()
        self.consumed += chunk

    @invariant()
    def stream_is_a_prefix(self):
        assert self.consumed == self.produced[:len(self.consumed)]

    @invariant()
    def cursors_account_for_every_outstanding_chunk(self):
        spec = self.spec
        assert 0 <= self.prod.free_slots() <= spec.slots
        assert 0 <= self.prod.spill_in_use() <= spec.spill_bytes
        assert self.prod.free_slots() == spec.slots - len(self.chunks)
        assert self.prod.spill_in_use() == sum(
            max(0, len(c) - spec.inline_cap) for c in self.chunks)


RingModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
test_ring_model_against_deque_oracle = RingModel.TestCase


# -- two processes: cursor stores must never pass through another value -----
def _produce_stream(name, spec, data):
    shm = shared_memory.SharedMemory(name=name)
    prod = RingProducer(shm.buf, spec)
    mv = memoryview(data)
    off = 0
    while off < len(mv):
        n = prod.try_emit(mv, off)
        if n == 0:
            os.sched_yield()
        off += n


def test_ring_cursor_store_is_never_torn_across_processes():
    """``struct.pack_into`` zero-fills before it packs, so a cursor
    stored that way is briefly 0: the consumer then sees ``tail !=
    head`` on an empty ring and re-reads stale slots.  A forked producer
    publishes 2**20 one-word slots while this process watches the
    shared ``tail`` word (region offset 0) and consumes: ``tail`` never
    decreases and the stream arrives exactly."""
    nslots = 1 << 20
    spec = RingSpec(slots=64, slot_bytes=SLOT_HDR.size + 8, spill_bytes=0)
    data = np.arange(nslots, dtype="<u8").tobytes()
    shm = shared_memory.SharedMemory(create=True, size=spec.region_bytes)
    child = multiprocessing.get_context("fork").Process(
        target=_produce_stream, args=(shm.name, spec, data), daemon=True)
    tail_word = shm.buf[:8].cast("Q")
    cons = RingConsumer(shm.buf, spec)
    got = bytearray()
    last = 0
    try:
        child.start()
        deadline = time.monotonic() + 120.0
        while len(got) < len(data):
            tail = tail_word[0]
            assert tail >= last, f"tail went {last} -> {tail}"
            last = tail
            chunk = cons.try_recv()
            if chunk is not None:
                got += chunk
            elif not child.is_alive() and not cons.pending():
                break
            elif time.monotonic() > deadline:
                pytest.fail(f"stalled after {len(got) // 8} slots")
        child.join(timeout=10.0)
        assert child.exitcode == 0
        assert tail_word[0] == nslots
        assert got == data
    finally:
        child.kill()
        child.join()
        tail_word.release()
        del cons
        try:
            shm.close()
        except BufferError:
            pass  # a failed assert's traceback still holds the views
        shm.unlink()


# -- unit: wire_ring_* counter plumbing -------------------------------------
def test_ring_counters_snapshot_reset_aggregate():
    s = CommStats()
    s.add(wire_ring_slots=2, wire_ring_frames=3, wire_ring_spills=True)
    s.add(wire_ring_slots=1, wire_ring_frames=1, wire_ring_spills=False)
    s.add(wire_ring_full_backoffs=1)
    s.add(wire_ring_doorbells=1)
    s.add(wire_ring_wakeups=1)
    snap = s.snapshot()
    assert snap["wire_ring_slots"] == 3
    assert snap["wire_ring_frames"] == 4
    assert snap["wire_ring_spills"] == 1
    assert snap["wire_ring_full_backoffs"] == 1
    assert snap["wire_ring_doorbells"] == 1
    assert snap["wire_ring_wakeups"] == 1
    other = CommStats()
    other.add(wire_ring_slots=5, wire_ring_frames=5)
    total = aggregate([s, other])
    assert total["wire_ring_slots"] == 8
    assert total["wire_ring_frames"] == 9
    assert total["wire_ring_spills"] == 1
    s.reset()
    assert all(s.snapshot()[k] == 0 for k in RING_COUNTERS)


# -- integration: the transport for real ------------------------------------
def _sum_payload(v):
    # module-level so the function reference pickles across processes
    return int(v.sum())


def test_ring_oob_spill_end_to_end(monkeypatch):
    """Tiny slots force every payload-carrying AM through the spill
    region; the answer must still be exact and the spills observable."""
    monkeypatch.setattr(proc, "RING_SLOT_BYTES", 128)
    work = _sum_payload

    def body():
        me = repro.myrank()
        v = np.arange(512, dtype=np.int64) + me
        got = repro.async_((me + 1) % repro.ranks())(work, v).get()
        assert got == int(v.sum())
        barrier()
        ctx = repro.current_world().ranks[me]
        snap = ctx.stats.snapshot()
        return snap["wire_ring_spills"], snap["wire_ring_frames"]

    res = run_spmd(body, ranks=2, conduit="proc+ring", timeout=60.0)
    assert all(frames > 0 for _, frames in res)
    assert sum(spills for spills, _ in res) > 0


def _echo_payload(v):
    return v


def test_ring_bell_before_backoff_oversized_both_ways(monkeypatch):
    """A message several times the size of the whole ring, in both
    directions at once.  The receiver drains only when the bell rings,
    so the sender must ring it for what is already published *before*
    it backs off on a full ring; ringing only after the last slot hangs
    until the stall limit turns it into a TransientCommError."""
    monkeypatch.setattr(proc, "RING_SLOTS", 4)
    monkeypatch.setattr(proc, "RING_SLOT_BYTES", 256)
    monkeypatch.setattr(proc, "RING_SPILL_BYTES", 1024)
    ring_bytes = 4 * 256 + 1024
    echo = _echo_payload

    def body():
        me = repro.myrank()
        v = np.arange(8192, dtype=np.int64) * (me + 1)
        assert v.nbytes >= 16 * ring_bytes
        barrier()
        got = repro.async_(1 - me)(echo, v).get()
        assert got.dtype == v.dtype and np.array_equal(got, v)
        barrier()
        ctx = repro.current_world().ranks[me]
        return ctx.stats.snapshot()["wire_ring_full_backoffs"]

    timeout = 60.0
    t0 = time.monotonic()
    res = run_spmd(body, ranks=2, conduit="proc+ring", timeout=timeout)
    assert time.monotonic() - t0 < timeout / 4
    assert all(backoffs > 0 for backoffs in res)


def test_ring_crash_leaves_no_shm(monkeypatch):
    """A rank death must not leak the ring block or the per-rank
    segments (they are all /dev/shm files named repro_*)."""
    def body():
        if repro.myrank() == 1:
            repro.die()
        barrier()
        return True

    with pytest.raises(RankDead):
        run_spmd(body, ranks=2, conduit="proc+ring", timeout=60.0)
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro_*") == []


def test_ring_counters_through_metrics_reduce():
    """wire_ring_* counters ride the cluster metrics plane: every rank
    sees one merged view whose totals dominate the per-rank snapshots
    taken just before the reduce (counters only grow)."""
    bounce = _sum_payload

    def body():
        me = repro.myrank()
        n = repro.ranks()
        for i in range(5):
            repro.async_((me + 1) % n)(bounce,
                                       np.arange(8, dtype=np.int64)).get()
        barrier()
        ctx = repro.current_world().ranks[me]
        pre = {k: v for k, v in ctx.stats.snapshot().items()
               if k.startswith("wire_ring_")}
        merged = repro.current_world().metrics_reduce()
        ring = {k: v for k, v in merged["counters"].items()
                if k.startswith("wire_ring_")}
        return pre, ring

    res = run_spmd(body, ranks=3, conduit="proc+ring", telemetry="full",
                   timeout=60.0)
    merged_views = [ring for _, ring in res]
    # the collective is deterministic: all ranks see the same totals
    assert all(m == merged_views[0] for m in merged_views)
    merged = merged_views[0]
    assert set(RING_COUNTERS) <= set(merged)
    for key in ("wire_ring_slots", "wire_ring_frames"):
        assert merged[key] >= sum(pre[key] for pre, _ in res) > 0


def test_socket_transport_has_no_ring_counters():
    """The fallback transport must not touch ring telemetry — the
    counters are how a deployment verifies which transport it is on."""
    bounce = _sum_payload

    def body():
        me = repro.myrank()
        repro.async_((me + 1) % repro.ranks())(
            bounce, np.arange(8, dtype=np.int64)).get()
        barrier()
        ctx = repro.current_world().ranks[me]
        return {k: v for k, v in ctx.stats.snapshot().items()
                if k.startswith("wire_ring_")}

    for snap in run_spmd(body, ranks=2, conduit="proc+socket",
                         timeout=60.0):
        assert all(v == 0 for v in snap.values())
