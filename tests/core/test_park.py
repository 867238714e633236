"""The park's contract: a blocked rank comes back by a ring, not a clock.

``RankState.wait_until`` parks in the conduit's ``poll`` for at most
:data:`~repro.core.world.PARK_S`, clipped to its deadline.  Every message,
self-send and poke rings the rank's doorbell, so on a round trip the
clock never ends a park; it stays only as the safety net for a predicate
nobody rings for.
"""

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


class _ParkSpy(SmpConduit):
    """The smp backend, noting when every park ``wait_until`` asks for
    began and how long it lasted."""

    def __init__(self):
        super().__init__()
        self.parks: list[tuple[float, float]] = []

    def poll(self, rank, timeout=0.0):
        if timeout != PARK_S:
            return super().poll(rank, timeout)
        t0 = time.perf_counter()
        try:
            return super().poll(rank, timeout)
        finally:
            self.parks.append((t0, time.perf_counter() - t0))


@pytest.mark.parametrize("thread_mode", ["serialized", "concurrent"])
@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_round_trips_are_ended_by_rings(conduit, thread_mode):
    spy = _ParkSpy() if conduit == "smp" else None
    (t0, t1), _ = run_spmd(_round_trips, ranks=2, conduit=spy or conduit,
                           thread_mode=thread_mode)
    assert t1 - t0 < ROUND_TRIPS_BUDGET_S
    if spy is not None:
        # Both ranks' parks in the timed window: rank 1's for the next
        # request, rank 0's for each reply.
        parks = [took for began, took in spy.parks if t0 <= began < t1]
        assert parks, "no wait_until parked in the backend's poll"
        assert max(parks) < PARK_S / 2


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
