"""Crash-stop failure detection and blocking-op deadlines.

The fault model is crash-stop: a rank works or dies.  Here we pin down
the world's one failure detector and its two signals (the progress
stamp for crashed ranks, ping/pong probes for severed or hung ones),
the ``reliability=`` knob that configures the probes, and deadlines
with diagnostics for waits that can never complete.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.core.world import ReliabilityConfig, current, die
from repro.errors import CommTimeout, PeerFailure, PgasError, RankDead
from repro.gasnet import ChaosConduit, SmpConduit


# ------------------------------------------------------- rank death

@pytest.mark.parametrize("make_conduit", [
    pytest.param(lambda: SmpConduit(), id="smp"),
    pytest.param(lambda: ChaosConduit(), id="chaos"),
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

    with pytest.raises(RankDead):
        repro.spmd(body, ranks=4, conduit=make_conduit(),
                   heartbeat_timeout=1.0)
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
    the detector's ping/pong probes must declare it dead and fail peers
    blocked on it."""
    chaos = ChaosConduit()
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
                   reliability={"peer_timeout": 1.0})
    elapsed = time.monotonic() - t0
    assert observed == {0: 1, 2: 1}
    # Prompt failure: once detected (peer_timeout), nobody — the
    # partitioned rank included — may sit out a default op_timeout.
    assert elapsed < 1.0 + 3.0, elapsed


# --------------------------------------------------------- op deadlines

def test_op_deadline_raises_commtimeout_with_diagnostic():
    """A reply that can never arrive must surface as CommTimeout naming
    the stuck operation at the op's deadline, not hang (no failure
    detector: the holder is alive, just not releasing)."""
    def body():
        r = repro.myrank()
        lk = repro.GlobalLock(owner=0)
        repro.barrier()
        if r == 1:
            # Hold the lock and go silent past rank 0's deadline; the
            # release (and with it rank 0's acquire reply) never comes.
            lk.acquire()
            time.sleep(1.2)
            return "held"
        time.sleep(0.2)
        try:
            lk.acquire(timeout=0.5)
        except CommTimeout as e:
            assert "lock" in str(e)
            return str(e)
        pytest.fail("expected CommTimeout")

    res = repro.spmd(body, ranks=2)
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

def test_reliability_knobs_through_world():
    """The ``reliability=`` World knob accepts True, a dict, or a
    ReliabilityConfig, and configures the detector's probes only: the
    conduit stack stays as given.  Anything else is refused, and so is a
    field the config does not have."""
    def probes():
        world = current().world
        return (type(world.conduit).__name__, world._probe_period,
                world._peer_timeout)

    assert ReliabilityConfig() == ReliabilityConfig(heartbeat_period=0.05,
                                                    peer_timeout=2.0)
    for knob, want in ((True, (0.05, 2.0)),
                       ({"peer_timeout": 0.7}, (0.05, 0.7)),
                       (ReliabilityConfig(heartbeat_period=0.01),
                        (0.01, 2.0))):
        assert repro.spmd(probes, ranks=2, reliability=knob) == [
            ("SmpConduit", *want)] * 2
    assert repro.spmd(probes, ranks=2) == [("SmpConduit", None, None)] * 2
    with pytest.raises(PgasError, match="reliability="):
        repro.spmd(probes, ranks=2, reliability="on")
    with pytest.raises(TypeError):
        repro.spmd(probes, ranks=2, reliability={"ack_timeout": 0.01})


@pytest.mark.parametrize("ranks", [2, 3])
def test_the_last_live_rank_is_not_judged_by_probe_silence(ranks):
    """A rank that no other live rank of its process probes answers no
    probe, and that silence means nothing: after rank 1 dies, the
    survivors drain for three times ``peer_timeout`` and only rank 1
    is dead — also when rank 0 is left alone (2 ranks)."""
    def body():
        me, world = repro.myrank(), current().world
        if me == 1:
            die()
        t0 = time.monotonic()
        current().wait_until(lambda: time.monotonic() - t0 > 0.75,
                             what="test: drain past three peer_timeouts")
        return sorted(world.dead_ranks)

    res = repro.spmd(body, ranks=ranks, survive_rank_death=True,
                     reliability={"peer_timeout": 0.25})
    assert [r for r in res if r is not None] == [[1]] * (ranks - 1)


def test_delay_conduit_wrapped_reliable():
    """DelayConduit delays but keeps pair FIFO and loses nothing, so
    ``reliability=`` adds only the peer probes over it, and the
    construct stack runs as is."""
    from repro.gasnet import DelayConduit

    def body():
        r, n = repro.myrank(), repro.ranks()
        with repro.finish():
            repro.async_((r + 1) % n)(lambda: None)
        repro.barrier()
        return type(current().world.conduit).__name__

    assert repro.spmd(
        body, ranks=3,
        conduit=DelayConduit(base_delay=0.001, jitter=0.003),
        reliability=True,
    ) == ["DelayConduit"] * 3
