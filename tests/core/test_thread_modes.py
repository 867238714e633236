"""Thread-support modes (paper §IV): serialized vs concurrent.

In serialized mode, AMs are only processed when the target rank makes a
runtime call — so an async sent to a compute-busy rank waits.  In
concurrent mode the shared progress thread (the paper's "worker
Pthread") services it meanwhile.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.core import current
from repro.core.world import World
from repro.errors import PgasError
from repro.gasnet import ActiveMessage
from tests.conftest import run_spmd

# The two modes mean the same thing on both backends; on proc the
# progress thread is also the only thing that receives for a rank that
# computes without calling the runtime.
CONDUITS = ("smp", "proc+socket")


def my_stats():
    return repro.current_world().ranks[repro.myrank()].stats


def _served():
    # module-level: an async's function crosses processes by name
    return "served"


def _busy_loop(stop_at: float) -> int:
    """Compute without touching the runtime until the deadline."""
    x = 0
    while time.perf_counter() < stop_at:
        x += 1
    return x


def _serialized_mode_defers(conduit):
    def body():
        me = repro.myrank()
        repro.barrier()
        elapsed = 0.0
        if me == 0:
            time.sleep(0.02)  # rank 1 has left the barrier's last drain
            t0 = time.perf_counter()
            f = repro.async_(1)(_served)
            # rank 1 is busy below and not polling; our get() waits for
            # its next runtime call.
            assert f.get(timeout=20) == "served"
            elapsed = time.perf_counter() - t0
        else:
            _busy_loop(time.perf_counter() + 0.3)
            repro.advance()  # explicit progress (paper's advance())
        repro.barrier()
        return elapsed

    res = run_spmd(body, ranks=2, conduit=conduit)
    assert res[0] >= 0.25  # served only after the busy loop


def test_serialized_mode_defers_tasks_until_progress():
    _serialized_mode_defers("smp")


def test_serialized_mode_defers_tasks_until_progress_on_proc():
    _serialized_mode_defers("proc+socket")


def _concurrent_mode_services(conduit):
    def body():
        me = repro.myrank()
        repro.barrier()
        elapsed = 0.0
        if me == 0:
            t0 = time.perf_counter()
            f = repro.async_(1)(_served)
            assert f.get(timeout=20) == "served"
            elapsed = time.perf_counter() - t0
        else:
            _busy_loop(time.perf_counter() + 0.5)
        repro.barrier()
        return elapsed

    res = run_spmd(body, ranks=2, thread_mode="concurrent", conduit=conduit)
    # The progress thread served the task while rank 1 was computing.
    assert res[0] < 0.45


def test_concurrent_mode_services_busy_ranks():
    _concurrent_mode_services("smp")


def test_concurrent_mode_services_busy_ranks_on_proc():
    _concurrent_mode_services("proc+socket")


@pytest.mark.parametrize("conduit", CONDUITS)
def test_concurrent_mode_reports_dispatch_errors(conduit):
    """An AM the progress thread cannot dispatch fails the world, as it
    does when the rank dispatches it itself — the thread used to
    swallow it and ``spmd`` returned normally."""
    def body():
        me = repro.myrank()
        repro.barrier()
        if me == 0:
            repro.current_world().ranks[0].send_am(1, "no_such_handler")
        else:
            _busy_loop(time.perf_counter() + 0.3)
        repro.barrier()

    t0 = time.perf_counter()
    with pytest.raises(PgasError, match="no_such_handler"):
        run_spmd(body, ranks=2, thread_mode="concurrent", conduit=conduit)
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("conduit", CONDUITS)
def test_a_failure_recorded_after_the_last_wait_is_still_reported(conduit):
    """The progress thread fails rank 1 while it computes, and rank 1's
    finalize wait finds its barrier already complete, so no wait of its
    own ever sees the failure: ``spmd`` must still raise it."""
    def body():
        if repro.myrank() == 0:
            repro.current_world().ranks[0].send_am(1, "no_such_handler")
        else:
            _busy_loop(time.perf_counter() + 0.3)

    with pytest.raises(PgasError, match="no_such_handler"):
        run_spmd(body, ranks=2, thread_mode="concurrent", conduit=conduit)


def test_concurrent_mode_runs_full_workload():
    """The whole shared-object API works under the progress thread."""
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=8, block=1)
        repro.barrier()
        sa[me] = me * 3
        repro.barrier()
        total = repro.collectives.allreduce(int(sa[me]))
        with repro.finish():
            repro.async_((me + 1) % repro.ranks())(int, 1)
        return total

    res = run_spmd(body, ranks=4, thread_mode="concurrent")
    assert res == [0 + 3 + 6 + 9] * 4


# -- the hammer: nothing on the AM path was guarding anything it lost ---------
HAMMER_N = 2000


def _note(src: int, seq: int) -> int:
    """Record the arrival on the executing rank, in execution order."""
    current().scratch.setdefault(("hammer", src), []).append(seq)
    return seq


@pytest.mark.parametrize("mode", ["serialized", "concurrent"])
@pytest.mark.parametrize("conduit", CONDUITS)
def test_hammer_two_ranks_flood_each_other(conduit, mode):
    """Both ranks fire sequence-numbered asyncs at each other; in
    concurrent mode they also compute without calling the runtime, so
    the progress thread and the rank thread drain one inbox and a
    ``deliver`` crosses threads.  Every future completes with its own
    value, each pair's tasks run in the order they were sent, every AM
    sent is handled exactly once, and no reply finds its token gone
    (that raises ``PgasError`` and fails the world)."""
    def body():
        me = repro.myrank()
        other = 1 - me
        counted = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        futs = []
        for i in range(HAMMER_N):
            futs.append(repro.async_(other)(_note, me, i))
            if mode == "concurrent" and i % 100 == 0:
                _busy_loop(time.perf_counter() + 0.002)
        got = [f.get(timeout=30) for f in futs]
        repro.barrier()
        snap = my_stats().snapshot()
        # RMA only from here to the return: no AM moves (the finalize
        # barrier's would) until both ranks have read their counters.
        counted[me] = 1
        while int(counted[other]) != 1:
            pass
        return (got, current().scratch.get(("hammer", other)),
                snap["ams_sent"], snap["ams_handled"])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        res = run_spmd(body, ranks=2, conduit=conduit, thread_mode=mode,
                       timeout=60)
    finally:
        sys.setswitchinterval(old)
    want = list(range(HAMMER_N))
    for got, arrivals, _sent, _handled in res:
        assert got == want
        assert arrivals == want
    assert sum(r[2] for r in res) == sum(r[3] for r in res)
    assert sum(r[2] for r in res) >= 4 * HAMMER_N


def test_parked_rank_wakes_on_a_deliver_from_another_thread():
    """The inbox append takes no lock; the wake-up after it does.  A
    rank parked in ``poll`` with a long timeout must come back at once
    for a ``deliver`` from any thread, however the two interleave."""
    world = World(1, op_timeout=10.0)
    rank = world.ranks[0]
    worst = 0.0
    for i in range(300):
        t_sent = []

        def sender(delay=(i % 7) * 2e-4):
            time.sleep(delay)
            t_sent.append(time.perf_counter())
            rank.deliver(ActiveMessage("hammer.none", 0))

        t = threading.Thread(target=sender)
        t.start()
        assert world.conduit.poll(0, 5.0)
        woke = time.perf_counter()
        t.join(5)
        assert not t.is_alive()
        worst = max(worst, woke - t_sent[0])
        rank._inbox.clear()
    assert worst < 0.05


def test_a_spent_ring_does_not_end_the_next_park():
    """A ``deliver`` whose message is gone by the time anyone parks
    leaves a ring behind; the next park spends it first, so it still
    sits out its whole timeout on an empty inbox."""
    world = World(1, op_timeout=10.0)
    rank = world.ranks[0]
    rank.deliver(ActiveMessage("hammer.none", 0))
    rank._inbox.clear()
    t0 = time.perf_counter()
    assert not world.conduit.poll(0, 0.05)
    assert time.perf_counter() - t0 >= 0.04


def _poke_then_park() -> float:
    world = repro.current_world()
    world.poke_all()
    t0 = time.perf_counter()
    assert not world.conduit.poll(repro.myrank(), 1.0)
    return time.perf_counter() - t0


@pytest.mark.parametrize("conduit", CONDUITS)
def test_a_poke_before_the_park_ends_it(conduit):
    """A ``poke_all`` that lands before the park is not spent as a
    stale ring: the park it precedes returns at once, inbox empty."""
    [took] = run_spmd(_poke_then_park, ranks=1, conduit=conduit)
    assert took < 0.05


def _close_under_a_parked_poll() -> tuple[bool, float, bool]:
    world = repro.current_world()
    conduit, me = world.conduit, repro.myrank()
    parker = threading.Thread(target=conduit.poll, args=(me, 5.0))
    parker.start()
    deadline = time.monotonic() + 5.0
    while not conduit._parked and time.monotonic() < deadline:
        time.sleep(0.001)
    was_parked = conduit._parked
    t0 = time.perf_counter()
    conduit.close()
    took = time.perf_counter() - t0
    parker.join(5.0)
    return was_parked, took, parker.is_alive()


def test_close_rings_a_parked_poll_out_of_its_park():
    """A thread parked in a proc rank's ``poll`` (a progress thread in a
    handler's nested wait, say) holds the receive lock; ``close`` rings
    it out of the park instead of waiting for its timeout."""
    [(was_parked, took, still_parked)] = run_spmd(
        _close_under_a_parked_poll, ranks=1, conduit="proc+socket")
    assert was_parked
    assert took < 0.5
    assert not still_parked


def test_poke_all_brings_back_a_parked_poll():
    """``poke_all`` from another thread ends a park with nothing in the
    inbox: a state change that is no message still wakes the rank."""
    world = World(1, op_timeout=10.0)
    worst = 0.0
    for _ in range(20):
        t_poked = []

        def poker():
            time.sleep(0.005)
            t_poked.append(time.perf_counter())
            world.poke_all()

        t = threading.Thread(target=poker)
        t.start()
        assert not world.conduit.poll(0, 5.0)
        woke = time.perf_counter()
        t.join(5)
        assert not t.is_alive()
        worst = max(worst, woke - t_poked[0])
    assert worst < 0.05
