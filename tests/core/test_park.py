"""The park's contract: a blocked rank comes back by a ring, not a clock.

``RankState.wait_until`` parks in the conduit's ``poll`` for at most
:data:`~repro.core.world.PARK_S`, clipped to its deadline.  Every message,
self-send and poke rings the rank's doorbell, so on a round trip the
clock never ends a park; it stays only as the safety net for a predicate
nobody rings for.
"""

import threading
import time

import pytest

import repro
from repro.core import current
from repro.core.world import PARK_S
from repro.errors import CommTimeout
from repro.gasnet.smp import SmpConduit
from tests.conftest import run_spmd

ROUND_TRIPS = 200
# A tenth of what the round trips would take if every park ran out.
ROUND_TRIPS_BUDGET_S = 0.4


def _echo(x):
    # module-level: an async's function crosses processes by name
    return x


def _round_trips():
    """Rank 0 times ``ROUND_TRIPS`` warm round trips to rank 1 and
    returns the window's ends; rank 1 serves them from its finalize
    wait."""
    if repro.myrank() != 0:
        return None
    for i in range(20):
        assert repro.async_(1)(_echo, i).get() == i
    t0 = time.perf_counter()
    for i in range(ROUND_TRIPS):
        assert repro.async_(1)(_echo, i).get() == i
    return t0, time.perf_counter()


class _Bell:
    """A rank's doorbell, noting when each park on it began and ended
    and whether it ended rung (``acquire`` got the lock) or by its
    timeout."""

    def __init__(self, lock, rank: int, parks: list):
        self._lock = lock
        self._rank = rank
        self._parks = parks

    def acquire(self, blocking=True, timeout=-1):
        if not blocking or timeout != PARK_S:
            return self._lock.acquire(blocking, timeout)
        began = time.perf_counter()
        rung = self._lock.acquire(True, timeout)
        self._parks.append((self._rank, began, time.perf_counter(), rung))
        return rung

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()


class _ParkSpy(SmpConduit):
    """The smp backend with every rank's doorbell spied on: ``parks``
    holds ``(rank, began, ended, rung)`` per park ``wait_until`` asks
    for, ``delivered`` ``(rank, when)`` per AM put in a rank's inbox."""

    def __init__(self):
        super().__init__()
        self.parks: list[tuple[int, float, float, bool]] = []
        self.delivered: list[tuple[int, float]] = []

    def attach(self, world):
        super().attach(world)
        for rk in world.ranks:
            rk._bell = _Bell(rk._bell, rk.rank, self.parks)

    def deliver_encoded(self, src, dst, am):
        super().deliver_encoded(src, dst, am)
        self.delivered.append((dst, time.perf_counter()))

    def timeouts(self, t0: float, t1: float) -> str:
        """Each park begun in ``[t0, t1)`` that ended by its timeout,
        and whether an AM reached its rank while it slept: one did (a
        lost wake: the ring never came) or none did (a stalled sender:
        nothing was sent that could ring)."""
        out = []
        for rank, began, ended, rung in self.parks:
            if rung or not t0 <= began < t1:
                continue
            n = sum(1 for r, when in self.delivered
                    if r == rank and began <= when <= ended)
            out.append(f"rank {rank} slept {(ended - began) * 1e3:.1f} ms: "
                       + (f"lost wake, {n} AMs delivered meanwhile" if n
                          else "stalled sender, nothing delivered"))
        return "; ".join(out)


@pytest.mark.parametrize("thread_mode", ["serialized", "concurrent"])
@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_round_trips_are_ended_by_rings(conduit, thread_mode):
    spy = _ParkSpy() if conduit == "smp" else None
    (t0, t1), _ = run_spmd(_round_trips, ranks=2, conduit=spy or conduit,
                           thread_mode=thread_mode)
    assert t1 - t0 < ROUND_TRIPS_BUDGET_S
    if spy is not None:
        # Both ranks' parks in the timed window: rank 1's for the next
        # request, rank 0's for each reply.  A park that is preempted
        # still ends rung; one that nothing rang ends by its timeout.
        parks = [rung for _r, began, _e, rung in spy.parks
                 if t0 <= began < t1]
        assert parks, "no wait_until parked in the backend's poll"
        assert all(parks), (f"{parks.count(False)} parks ended by "
                            f"timeout: {spy.timeouts(t0, t1)}")


def _wait_for_the_clock() -> float:
    t0 = time.monotonic()
    current().wait_until(lambda: time.monotonic() > t0 + 0.1,
                         what="the clock")
    return time.monotonic() - t0


@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_a_predicate_nobody_rings_for_is_retested_by_the_safety_net(
        conduit):
    [took] = run_spmd(_wait_for_the_clock, ranks=1, conduit=conduit)
    assert took < 0.1 + PARK_S + 0.05


def _heartbeat_ages() -> list:
    """Wait on a predicate nobody rings for, five parks long, with a spy
    on the backend's ``poll`` that notes, at each park, how long ago the
    rank's heartbeat was stamped."""
    ctx = current()
    conduit = ctx.world.conduit
    real_poll = conduit.poll
    ages = []

    def poll(rank, timeout=0.0):
        if timeout > 0.0:
            ages.append(time.monotonic() - ctx.last_heartbeat)
        return real_poll(rank, timeout)

    conduit.poll = poll
    try:
        t_end = time.monotonic() + 5 * PARK_S
        ctx.wait_until(lambda: time.monotonic() > t_end, what="the clock")
    finally:
        del conduit.poll
    return ages


@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_an_idle_wait_turn_stamps_the_heartbeat(conduit):
    """A wait turn with nothing queued runs no drain, but it stamps the
    heartbeat all the same: the deadline and the failure detector read
    it as the rank's last drain.  So at every park it is fresh, however
    many parks the wait has sat through."""
    [ages] = run_spmd(_heartbeat_ages, ranks=1, conduit=conduit)
    assert len(ages) >= 4, ages
    assert max(ages) < PARK_S, ages


def _wait_past_a_short_deadline() -> float:
    t0 = time.monotonic()
    with pytest.raises(CommTimeout):
        current().wait_until(lambda: False, what="nothing", timeout=0.005)
    return time.monotonic() - t0


@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_a_park_is_clipped_to_the_deadline(conduit):
    [took] = run_spmd(_wait_past_a_short_deadline, ranks=1,
                      conduit=conduit)
    assert took < 0.005 + 0.05


def test_a_rank_is_poked_after_its_progress_thread_runs_for_it():
    """In ``concurrent`` mode the progress thread runs a task for rank 1
    while rank 1's own thread is outside the runtime, so that run takes
    the message whose ring rank 1 would have woken to.  The progress
    thread must poke rank 1 after the run: rank 1's next wait, which
    tested its predicate before the run, parks and comes back at once
    instead of sitting out :data:`PARK_S`."""
    ready, ran, done = (threading.Event() for _ in range(3))

    def mark():
        ran.set()

    def body():
        ctx = current()
        if ctx.rank == 0:
            assert ready.wait(5)
            repro.async_(1)(mark).get()
            assert done.wait(5)  # send nothing more until rank 1 parked
            return None
        ctx._poked = False  # no earlier poke may stand in for this one
        ready.set()
        assert ran.wait(5)
        time.sleep(0.05)  # the progress thread finishes its advance
        tests = iter((False, False))  # tested before the run, and once more
        began = time.perf_counter()
        ctx.wait_until(lambda: next(tests, True), what="the poke")
        done.set()
        return began

    spy = _ParkSpy()
    _, began = run_spmd(body, ranks=2, conduit=spy,
                        thread_mode="concurrent")
    timed_out = [b for r, b, _e, rung in spy.parks
                 if r == 1 and b >= began and not rung]
    assert not timed_out, "rank 1's park sat out PARK_S: it was not poked"
