"""Delivery guarantees and failure detection of the reliable layer.

Complements ``tests/gasnet/test_chaos_conduit.py`` (which proves the
construct stack *works* under chaos): here we pin down the protocol
itself — FIFO preservation under reordering, per-op deadlines with
diagnostics, and the two failure detectors (world heartbeat for crashed
ranks, conduit ping/pong for severed connectivity).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.core.world import current, die
from repro.errors import CommTimeout, PeerFailure, RankDead
from repro.gasnet import ChaosConduit, ReliableConduit, SmpConduit
from repro.gasnet.reliability import ReliabilityConfig


# ------------------------------------------------------------- ordering

def test_fifo_preserved_under_reordering():
    """Reliable delivery restores per-(src,dst) FIFO even when the chaos
    conduit reorders: asyncs sent 0..N-1 to one target append in order."""
    order: list = []   # shared across rank threads

    def body():
        r = repro.myrank()

        def record(i):
            order.append(i)

        if r == 1:
            with repro.finish():
                for i in range(40):
                    repro.async_(0)(record, i)
        repro.barrier()
        if r == 0:
            assert order == list(range(40)), order[:10]
        repro.barrier()
        return True

    conduit = ChaosConduit(seed=0, am_drop_rate=0.15, am_dup_rate=0.15,
                           am_reorder_rate=0.3)
    assert all(repro.spmd(body, ranks=2, conduit=conduit,
                          reliability={"seed": 0}))


# ------------------------------------------------------- rank death

@pytest.mark.parametrize("make_conduit", [
    pytest.param(lambda: SmpConduit(), id="smp"),
    pytest.param(
        lambda: ChaosConduit(seed=0, am_drop_rate=0.05, am_dup_rate=0.05),
        id="chaos",
    ),
])
def test_rank_death_mid_barrier(make_conduit):
    """Killing one rank mid-barrier must convert into PeerFailure on
    *every* other rank within the detection deadline — collectives are
    rendezvous-based, so only the heartbeat detector can see this."""
    observed: dict = {}

    def body():
        r = repro.myrank()
        if r == 1:
            die()
        t0 = time.monotonic()
        try:
            repro.barrier()
        except PeerFailure as e:
            observed[r] = (e.failed_rank, time.monotonic() - t0)
            raise
        pytest.fail("barrier completed despite dead rank")

    conduit = make_conduit()
    kw = {"reliability": {"seed": 0}} if isinstance(
        conduit, ChaosConduit) else {}
    with pytest.raises(RankDead):
        repro.spmd(body, ranks=4, conduit=conduit,
                   heartbeat_timeout=1.0, **kw)
    assert set(observed) == {0, 2, 3}
    for rank, (failed, dt) in observed.items():
        assert failed == 1, (rank, failed)
        assert dt < 10.0, (rank, dt)   # well inside op_timeout


def test_dead_rank_fails_pending_lock_acquire():
    """A pending acquire must observe the holder's death rather than
    queue forever."""
    observed: dict = {}

    def body():
        r = repro.myrank()
        lk = repro.GlobalLock(owner=0)
        repro.barrier()
        if r == 1:
            lk.acquire()
            # crash while holding the lock: rank 2's queued acquire can
            # only be unblocked by the failure detector
            die()
        time.sleep(0.2)  # let rank 1 take the lock first
        try:
            lk.acquire(timeout=10.0)
        except PeerFailure as e:
            observed[r] = e.failed_rank
            raise
        pytest.fail("acquired a lock held by a dead rank")

    with pytest.raises(RankDead):
        repro.spmd(body, ranks=3, heartbeat_timeout=0.8)
    assert observed == {0: 1, 2: 1}


def test_severed_connectivity_detected_by_peer_detector():
    """``kill_rank`` cuts a rank off at the conduit (it keeps running!);
    the reliable layer's ping/pong detector must declare it dead and
    fail peers blocked on it."""
    chaos = ChaosConduit(seed=0)
    observed: dict = {}

    def body():
        r = repro.myrank()
        lk = repro.GlobalLock(owner=0)
        repro.barrier()
        if r == 1:
            lk.acquire()
            chaos.kill_rank(1)      # now unreachable, still alive
            time.sleep(2.5)
            return True
        time.sleep(0.2)
        try:
            lk.acquire(timeout=10.0)
        except PeerFailure as e:
            observed[r] = e.failed_rank
            raise
        pytest.fail("acquired a lock held by an unreachable rank")

    t0 = time.monotonic()
    with pytest.raises((RankDead, PeerFailure)):
        repro.spmd(body, ranks=3, conduit=chaos,
                   reliability={"seed": 0, "peer_timeout": 1.0})
    elapsed = time.monotonic() - t0
    assert observed == {0: 1, 2: 1}
    # Prompt failure: once detected (peer_timeout), nobody — the
    # partitioned rank included — may sit out a default op_timeout.
    assert elapsed < 1.0 + 3.0, elapsed


# --------------------------------------------------------- op deadlines

def test_op_deadline_raises_commtimeout_with_diagnostic():
    """A reply that can never arrive must surface as CommTimeout naming
    the stuck operation, not hang (peer detector disabled to isolate
    the per-op deadline path)."""
    chaos = ChaosConduit(seed=0)

    def body():
        r = repro.myrank()
        lk = repro.GlobalLock(owner=0)
        repro.barrier()
        if r == 1:
            # Hold the lock and go silent past rank 0's deadline; the
            # release (and with it rank 0's acquire reply) never comes.
            # (No kill_rank here: collectives ride the conduit now, so a
            # permanently partitioned rank would wedge finalization with
            # every failure detector disabled.)
            lk.acquire()
            time.sleep(2.5)
            return "held"
        time.sleep(0.2)
        try:
            lk.acquire(timeout=1.0)
        except CommTimeout as e:
            assert "lock" in str(e)
            return str(e)
        pytest.fail("expected CommTimeout")

    res = repro.spmd(
        body, ranks=2, conduit=chaos,
        reliability={"seed": 0, "peer_timeout": None, "op_deadline": 0.5},
    )
    assert "lock" in res[0]


def test_copy_handle_wait_timeout():
    from repro.core.copy import CopyHandle

    def body():
        if repro.myrank() == 0:
            h = CopyHandle(0, None)    # never completed
            with pytest.raises(CommTimeout):
                h.wait(timeout=0.2)
        repro.barrier()
        return True

    assert all(repro.spmd(body, ranks=2))


def test_lock_acquire_timeout_names_lock():
    def body():
        r = repro.myrank()
        lk = repro.GlobalLock(owner=0)
        repro.barrier()
        if r == 0:
            lk.acquire()
            repro.barrier()           # let rank 1 attempt
            time.sleep(0.8)
            lk.release()
        else:
            repro.barrier()
            with pytest.raises(CommTimeout) as ei:
                lk.acquire(timeout=0.2)
            assert "lock" in str(ei.value)
        repro.barrier()
        return True

    assert all(repro.spmd(body, ranks=2))


# -------------------------------------------------------- configuration

def _reliable_layers(conduit) -> int:
    n = 0
    while conduit is not None:
        n += isinstance(conduit, ReliableConduit)
        conduit = getattr(conduit, "_inner", None)
    return n


def test_reliability_knobs_through_world():
    """The ``reliability=`` World knob accepts True, a dict, or a
    ReliabilityConfig.  It installs the delivery protocol only over a
    lossy conduit — exactly once over chaos, never over bare smp — and
    an explicit ``conduit=ReliableConduit(...)`` is honoured as given."""
    def layers():
        return _reliable_layers(current().world.conduit)

    for knob in (True, {"ack_timeout": 0.02}, ReliabilityConfig(seed=1)):
        assert repro.spmd(layers, ranks=2, reliability=knob) == [0, 0]
        assert repro.spmd(layers, ranks=2, conduit=ChaosConduit(seed=0),
                          reliability=knob) == [1, 1]
    assert repro.spmd(
        layers, ranks=2,
        conduit=ReliableConduit(SmpConduit(), ReliabilityConfig(seed=1)),
    ) == [1, 1]


def test_retransmit_backoff_is_capped():
    cfg = ReliabilityConfig(ack_timeout=0.01, backoff=2.0, rto_max=0.1)
    rto = cfg.ack_timeout
    for _ in range(20):
        rto = min(rto * cfg.backoff, cfg.rto_max)
    assert rto == cfg.rto_max


def test_delay_conduit_wrapped_reliable():
    """DelayConduit delays but keeps pair FIFO and loses nothing, so
    ``reliability=`` installs no delivery protocol over it — only the
    peer probes — and the construct stack runs as is."""
    from repro.gasnet import DelayConduit

    def body():
        r, n = repro.myrank(), repro.ranks()
        with repro.finish():
            repro.async_((r + 1) % n)(lambda: None)
        repro.barrier()
        return _reliable_layers(current().world.conduit)

    assert repro.spmd(
        body, ranks=3,
        conduit=DelayConduit(base_delay=0.001, jitter=0.003),
        reliability={"seed": 0},
    ) == [0, 0, 0]
