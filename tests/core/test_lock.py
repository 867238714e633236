"""Global locks: mutual exclusion, FIFO service, trylock, misuse."""

import numpy as np
import pytest

import repro
from repro.errors import PgasError
from tests.conftest import run_spmd


def test_mutual_exclusion_protects_read_modify_write():
    """Non-atomic RMW under a lock must not lose updates."""
    def body():
        lk = repro.GlobalLock()
        counter = repro.SharedVar(np.int64, init=0)
        repro.barrier()
        for _ in range(20):
            with lk:
                counter.value = counter.value + 1  # racy without the lock
        repro.barrier()
        return int(counter.value)

    res = run_spmd(body, ranks=4)
    assert res == [80] * 4


def test_lock_owner_can_be_any_rank():
    def body():
        lk = repro.GlobalLock(owner=1)
        repro.barrier()
        with lk:
            pass
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_trylock_reports_busy():
    def body():
        me = repro.myrank()
        lk = repro.GlobalLock()
        repro.barrier()
        if me == 0:
            assert lk.acquire(block=False) is True
        repro.barrier()
        if me == 1:
            assert lk.acquire(block=False) is False  # held by rank 0
        repro.barrier()
        if me == 0:
            lk.release()
        repro.barrier()
        if me == 1:
            assert lk.acquire(block=False) is True
            lk.release()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_release_without_hold_raises():
    def body():
        me = repro.myrank()
        lk = repro.GlobalLock()
        repro.barrier()
        if me == 1:
            with pytest.raises(PgasError):
                lk.release()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_distinct_locks_are_independent():
    def body():
        me = repro.myrank()
        a = repro.GlobalLock()
        b = repro.GlobalLock()
        assert a.lock_id != b.lock_id
        repro.barrier()
        if me == 0:
            a.acquire()
        repro.barrier()
        if me == 1:
            with b:   # must not block on a's holder
                pass
        repro.barrier()
        if me == 0:
            a.release()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_bad_owner_rejected():
    def body():
        with pytest.raises(PgasError):
            repro.GlobalLock(owner=7)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, timeout=10))


def test_upc_global_lock_alloc_idiom():
    from repro.compat import upc

    def body():
        lk = upc.upc_global_lock_alloc()
        with lk:
            pass
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_acquire_timeout_raises_commtimeout():
    """A blocking acquire on a held lock honours its timeout and names
    the lock in the diagnostic."""
    import time

    from repro.errors import CommTimeout

    def body():
        me = repro.myrank()
        lk = repro.GlobalLock(owner=0)
        repro.barrier()
        if me == 0:
            lk.acquire()
            repro.barrier()
            time.sleep(0.6)
            lk.release()
        else:
            repro.barrier()
            with pytest.raises(CommTimeout) as ei:
                lk.acquire(timeout=0.15)
            assert "lock" in str(ei.value)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_pending_acquire_observes_holder_death():
    """A queued acquire unblocks with PeerFailure when the holder dies
    (failure detector), instead of waiting out its full timeout."""
    from repro.core.world import die
    from repro.errors import PeerFailure, RankDead

    observed = {}

    def body():
        import time as _t

        me = repro.myrank()
        lk = repro.GlobalLock(owner=0)
        repro.barrier()
        if me == 1:
            lk.acquire()
            die()
        _t.sleep(0.2)
        try:
            lk.acquire(timeout=10.0)
        except PeerFailure as e:
            observed[me] = e.failed_rank
            raise

    with pytest.raises(RankDead):
        repro.spmd(body, ranks=2, reliability={"peer_timeout": 0.8})
    assert observed == {0: 1}
