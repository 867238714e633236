"""Events and event-driven task dependencies (paper §III-G), in both
thread modes."""

import statistics
import time

import pytest

import repro
from repro.core import current
from repro.core.world import PARK_S
from repro.errors import PgasError
from tests.conftest import run_spmd as run_one_mode
from tests.conftest import run_spmd_both_modes as run_spmd


def test_event_counts_registered_operations():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            assert e.test()  # nothing registered: trivially fired
            repro.async_(1, signal=e)(int, 1)
            repro.async_(2, signal=e)(int, 2)
            e.wait()
            assert e.test() and e.pending() == 0
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_async_after_fires_only_after_event():
    def body():
        if repro.myrank() == 0:
            import time

            e = repro.Event()
            order = []
            repro.async_(1, signal=e)(time.sleep, 0.02)
            repro.async_after(2, after=e)(int, 0).add_callback(
                lambda f: order.append("dependent")
            )
            assert order == []  # cannot have fired yet
            e.wait()
            repro.async_wait()
            while not order:
                repro.advance()
            assert order == ["dependent"]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_async_after_on_already_fired_event_launches_immediately():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()  # never registered: counts as fired
            f = repro.async_after(1, after=e)(lambda: "ran")
            assert f.get() == "ran"
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_over_signal_rejected():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            with pytest.raises(PgasError):
                e.signal()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_incref_validation():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            with pytest.raises(ValueError):
                e.incref(-1)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_manual_event_usage():
    """Events as raw countdown latches (incref/signal by hand)."""
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            e.incref(3)
            assert not e.test() and e.pending() == 3
            e.signal()
            e.signal()
            assert not e.test()
            e.signal()
            assert e.test()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_event_chain_three_stages():
    def body():
        if repro.myrank() == 0:
            e1, e2 = repro.Event(), repro.Event()
            stages = []
            repro.async_(1, signal=e1)(lambda: stages.append)  # noqa: dummy
            repro.async_after(1, after=e1, signal=e2)(lambda: "b")
            f = repro.async_after(1, after=e2)(lambda: "c")
            assert f.get() == "c"
            assert e1.test() and e2.test()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))



def _mark_away():
    """On rank 1: rank 0 has left the runtime."""
    current().scratch["away"] = True


def _signal_once_parked():
    """A task for rank 0 that its progress thread runs while rank 0's own
    thread is away from the runtime: it lets that thread come back and
    park on the event, then signals the event, as rank 0."""
    box = current().scratch["parked_on"]
    box["started"] = True
    deadline = time.monotonic() + 5.0
    while not box["waiting"] and time.monotonic() < deadline:
        time.sleep(0.0005)
    time.sleep(0.002)  # long enough to be parked, a tenth of a park
    box["event"].signal()


@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_the_progress_thread_wakes_a_rank_parked_on_what_it_completed(
        conduit):
    """Concurrent mode: the progress thread takes the message that rank
    0's park waits for, and the task it runs signals rank 0's event.  A
    completion on a thread acting as the owner pokes nobody, and nothing
    else rings rank 0 meanwhile, so the progress thread's poke after
    the advance is what ends the park; without it the park runs out its
    :data:`~repro.core.world.PARK_S`."""
    def body():
        ctx, waits = current(), []
        for _ in range(10):
            if ctx.rank == 1:
                ctx.wait_until(lambda: ctx.scratch.pop("away", False))
                signalled = repro.async_(0)(_signal_once_parked)
                # Nothing else for rank 0 (the barrier's message would
                # ring it) until its park has run out.
                time.sleep(1.5 * PARK_S)
                signalled.get()
            else:
                event = repro.Event()
                event.incref()
                box = ctx.scratch["parked_on"] = {
                    "event": event, "started": False, "waiting": False}
                told = repro.async_(1)(_mark_away)
                # Away from the runtime: its reply, and then the task,
                # are taken by the progress thread alone.
                deadline = time.monotonic() + 5.0
                while not box["started"] and time.monotonic() < deadline:
                    time.sleep(0.0005)
                assert box["started"]
                box["waiting"] = True
                t0 = time.perf_counter()
                event.wait()
                waits.append(time.perf_counter() - t0)
                told.get()
            repro.barrier()
        return waits

    waits = run_one_mode(body, ranks=2, conduit=conduit,
                         thread_mode="concurrent")[0]
    assert statistics.median(waits) < PARK_S / 2, waits
