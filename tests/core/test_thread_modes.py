"""Thread-support modes (paper §IV): serialized vs concurrent.

In serialized mode, AMs are only processed when the target rank makes a
runtime call — so an async sent to a compute-busy rank waits.  In
concurrent mode the shared progress thread (the paper's "worker
Pthread") services it meanwhile.
"""

import time

import pytest

import repro
from repro.errors import PgasError
from tests.conftest import run_spmd

# The two modes mean the same thing on both backends; on proc the
# progress thread is also the only thing that receives for a rank that
# computes without calling the runtime.
CONDUITS = ("smp", "proc+socket")


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


def test_concurrent_mode_runs_full_workload():
    """The whole shared-object API works under the progress thread."""
    import numpy as np

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
