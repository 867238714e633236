"""The one completion type (paper §III-G): futures, events, finish scopes
and copy handles are one countdown :class:`~repro.core.future.Future`,
and reaching zero wakes only the rank that owns it."""

import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.compat import mpi
from repro.core import world as world_mod
from repro.core.copy import CopyHandle
from repro.core.finish import FinishScope
from repro.core.future import Future, MultiFuture, TaskFuture
from repro.errors import PgasError, SerializationError
from tests.conftest import run_spmd


def test_every_completion_handle_is_one_class():
    def body():
        me = repro.myrank()
        kinds = None
        if me == 0:
            ctx = repro.current_world().ranks[0]
            task = repro.async_(1)(abs, -2)
            team = repro.async_(repro.Team([0, 1]))(abs, -3)
            with repro.finish() as scope:
                pass
            src = repro.allocate(0, 4, np.int64)
            copy = repro.async_copy(src, repro.allocate(1, 4, np.int64), 4)
            req = mpi.irecv(source=0, tag=9)
            mpi.isend("x", dest=0, tag=9).wait()
            handles = [Future(ctx), task, team, repro.Event(), scope, copy,
                       req]
            assert req.wait() == "x" and team.get() == [3, 3]
            assert task.get() == 2 and copy.nbytes == 32
            assert all(isinstance(h, Future) for h in handles)
            # views under the paper's names: no per-instance dict, and no
            # slot of their own but the finish span's start and a
            # request's decoder
            assert not any(hasattr(h, "__dict__") for h in handles)
            kinds = [type(h) for h in handles]
        repro.barrier()
        return kinds

    kinds = run_spmd(body, ranks=2)[0]
    assert kinds == [Future, TaskFuture, MultiFuture, repro.Event,
                     FinishScope, CopyHandle, mpi.Request]
    own = {k: set(k.__dict__.get("__slots__", ())) for k in kinds[1:]}
    assert own == {TaskFuture: set(), MultiFuture: set(), repro.Event: set(),
                   FinishScope: {"_t0"}, CopyHandle: set(),
                   mpi.Request: {"_decode"}}


def _echo(x):
    # module-level: an async's function crosses processes by name
    return x


def _after_a_failing_dependent():
    out = None
    if repro.myrank() == 0:
        e = repro.Event()
        e.incref()
        bad = repro.async_after(1, after=e)(_echo, lambda: 0)
        good = repro.async_after(1, after=e)(_echo, 7)
        e.signal()  # the bad launch's error is its own futures'
        with pytest.raises(SerializationError) as info:
            bad.get(timeout=5.0)
        out = (good.get(timeout=5.0), type(info.value).__name__, e.test())
    repro.barrier()
    return out


@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_a_failing_async_after_dependent_leaves_the_others_launched(conduit):
    """An ``async_after`` dependent whose arguments cannot be encoded
    fails into its own future; ``signal()`` returns, and the event's
    next dependent still launches (it used to raise in the signalling
    rank and strand the rest, which then sat out their timeout)."""
    out = run_spmd(_after_a_failing_dependent, ranks=2, conduit=conduit,
                   timeout=10.0)[0]
    assert out == (7, "SerializationError", True)


@pytest.mark.parametrize("kind", ["event", "finish"])
def test_reaching_zero_pokes_only_the_owner(kind):
    """An event or a finish scope that reaches zero on another rank's
    thread pokes the rank that owns it; the other ranks' ``_poked``
    stays down (it used to wake every local rank).  The other ranks sit
    outside the runtime, so nothing of theirs lowers or raises the flag
    meanwhile.  (On the owner's own thread it pokes nobody:
    ``tests/core/test_finish.py``.)"""
    hold, out_of_barrier = threading.Event(), threading.Barrier(4)
    shared = {}

    def body():
        me = repro.myrank()
        ranks = repro.current_world().ranks
        if me == 0:
            shared["done"] = (repro.Event() if kind == "event"
                              else repro.finish())
            shared["done"].incref(2)
        repro.barrier()
        out_of_barrier.wait(10.0)  # no rank's park can lower its flag now
        flags = None
        if me == 1:
            for rk in ranks:
                rk._poked = False
            done = shared["done"]
            done._settle()
            assert not any(rk._poked for rk in ranks)  # not zero yet
            done._settle()
            flags = [rk._poked for rk in ranks]
            hold.set()
        else:
            hold.wait(10.0)
        repro.barrier()
        return flags

    assert run_spmd(body, ranks=4)[1] == [True, False, False, False]


def test_an_event_signalled_from_another_ranks_thread_wakes_its_owner(
        monkeypatch):
    """An event shared by reference and signalled on another rank's
    thread ends its owner's ``wait()`` by the poke: with the park's
    safety-net clock set to 5 s and no message in flight, the wait
    still ends within a second of the signal."""
    monkeypatch.setattr(world_mod, "PARK_S", 5.0)
    shared = {}
    woke = threading.Event()

    def body():
        me = repro.myrank()
        if me == 0:
            shared["event"] = repro.Event()
            shared["event"].incref()
        repro.barrier()
        took = None
        if me == 0:
            e = shared["event"]
            e.wait()
            took = time.perf_counter() - shared["signalled"]
            woke.set()
        else:
            time.sleep(0.05)  # let rank 0 park
            shared["signalled"] = time.perf_counter()
            shared["event"].signal()
            woke.wait(10.0)  # send nothing that would ring rank 0
        repro.barrier()
        return took

    took = run_spmd(body, ranks=2, timeout=20.0)[0]
    assert took < 1.0, f"the owner's wait ended {took:.2f}s after the signal"


def test_the_countdown_loses_no_update_across_threads():
    """Eight threads count one future up and down 1000 times each under
    a 1 µs switch interval: the count ends where it began, and the
    callbacks fire once, at the last completion — the invariant a lost
    update in the count would break."""
    fut, fired = Future(None), []
    fut.add_callback(lambda f: fired.append(f.get()))

    def churn():
        for _ in range(1000):
            fut.incref()
            fut.set_result(None)   # None keeps the value there

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert fired == [] and fut.pending() == 1
    fut.set_result(7)
    assert fired == [7] and fut.done()
    with pytest.raises(PgasError):
        fut.set_result(8)
