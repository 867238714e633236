"""Shared test fixtures/helpers.

``run_spmd`` wraps :func:`repro.spmd` with a short watchdog timeout so a
regression that deadlocks a collective fails the test quickly instead of
hanging the suite.  ``hang_until_declared`` turns the calling rank into
a hung one, the fault the failure detector exists for.
"""

from __future__ import annotations

import time

import pytest

import repro


def run_spmd(fn, ranks: int = 4, timeout: float = 30.0, **kwargs):
    """Run an SPMD body with a test-friendly watchdog."""
    return repro.spmd(fn, ranks=ranks, timeout=timeout, **kwargs)


def stall_until_declared(bound: float) -> None:
    """Stop calling the runtime: sleep in 5 ms steps, answering no probe
    and running no AM, until this rank's world declares it dead (on
    smp, where its peers' probes are judged in this process) or fails,
    or ``bound`` seconds pass (on proc, where no rank of its own process
    probes it)."""
    world, me = repro.current_world(), repro.myrank()
    deadline = time.monotonic() + bound
    while (me not in world.dead_ranks and world.failure is None
           and time.monotonic() < deadline):
        time.sleep(0.005)


def hang_until_declared(bound: float = 2.0) -> None:
    """A hung rank, then a dead one: :func:`stall_until_declared`, then
    :func:`repro.die`.  Its peers find it by probe silence alone."""
    stall_until_declared(bound)
    repro.die()


@pytest.fixture
def spmd4():
    """Run the decorated body on 4 ranks, returning per-rank results."""
    def runner(fn, **kwargs):
        return run_spmd(fn, ranks=4, **kwargs)

    return runner


@pytest.fixture(params=[1, 2, 4, 7])
def nranks(request):
    """A spread of world sizes including 1 and a non-power-of-two."""
    return request.param
