"""Shared test fixtures/helpers.

``run_spmd`` wraps :func:`repro.spmd` with a short watchdog timeout so a
regression that deadlocks a collective fails the test quickly instead of
hanging the suite.  ``hang_until_declared`` turns the calling rank into
a hung one, the fault the failure detector exists for.  Every test runs
under ``no_leaks``: what it starts — threads, ``/dev/shm/repro_*``
blocks, child processes — must be gone when it ends; and under a
:data:`CALL_BUDGET_S` wall budget for its call phase.
"""

from __future__ import annotations

import glob
import os
import threading
import time

import pytest

import repro


LEAK_GRACE_S = 1.0
#: The longest a test's call phase may take.  The slowest test takes a
#: few seconds by construction, so one over this sat out a timeout —
#: a lost wake-up, say — and fails instead of passing slowly.
CALL_BUDGET_S = 20.0


def _threads() -> set:
    return set(threading.enumerate())


def _shm_blocks() -> set:
    return set(glob.glob("/dev/shm/repro_*"))


def _children() -> set:
    """This process's child processes (zombies included), but
    multiprocessing's resource tracker: one serves the whole session."""
    me = str(os.getpid()).encode()
    kids = set()
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            if _read(f"/proc/{pid}/stat").rsplit(b")", 1)[1].split()[1] != me:
                continue
            if b"resource_tracker" in _read(f"/proc/{pid}/cmdline"):
                continue
        except (OSError, IndexError):
            continue  # gone meanwhile
        kids.add(int(pid))
    return kids


def _read(path: str) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, 4096)
    finally:
        os.close(fd)


def _left_behind(probe, before: set) -> set:
    """What ``probe`` finds that was not there ``before``, once
    :data:`LEAK_GRACE_S` has passed without it all going away."""
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        new = probe() - before
        if not new or time.monotonic() >= deadline:
            return new
        time.sleep(0.01)


@pytest.fixture(autouse=True)
def no_leaks():
    """Fail a test that leaves a thread, a shared-memory block or a
    child process behind (each gets :data:`LEAK_GRACE_S` to go)."""
    probes = {"threads": _threads, "/dev/shm blocks": _shm_blocks,
              "child processes": _children}
    before = {name: probe() for name, probe in probes.items()}
    yield
    leaks = {name: _left_behind(probe, before[name])
             for name, probe in probes.items()}
    leaks = {name: sorted(map(str, new)) for name, new in leaks.items()
             if new}
    if leaks:
        pytest.fail(f"test left behind {leaks}", pytrace=False)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test whose call phase passed but took over
    :data:`CALL_BUDGET_S`."""
    t0 = time.monotonic()
    result = yield
    took = time.monotonic() - t0
    if took > CALL_BUDGET_S:
        pytest.fail(f"test took {took:.1f}s, over its {CALL_BUDGET_S:.0f}s "
                    f"budget (did a wait sit out a timeout?)", pytrace=False)
    return result


def run_spmd(fn, ranks: int = 4, timeout: float = 30.0, **kwargs):
    """Run an SPMD body with a test-friendly watchdog."""
    return repro.spmd(fn, ranks=ranks, timeout=timeout, **kwargs)


def run_spmd_both_modes(fn, ranks: int = 4, **kwargs):
    """:func:`run_spmd` in the ``serialized`` thread mode, then in
    ``concurrent`` mode, where the progress thread completes futures,
    events and finish scopes too; the per-rank results of the two runs,
    one after the other."""
    return [result for mode in ("serialized", "concurrent")
            for result in run_spmd(fn, ranks=ranks, thread_mode=mode,
                                   **kwargs)]


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
