"""Bulk transfer: copy / async_copy / async_copy_fence / events."""

import numpy as np
import pytest

import repro
from repro.errors import BadPointer
from tests.conftest import run_spmd


def test_copy_between_remote_segments():
    def body():
        me = repro.myrank()
        src = dst = None
        if me == 0:
            src = repro.allocate(1, 64, np.float64)   # data on rank 1
            dst = repro.allocate(2, 64, np.float64)   # dest on rank 2
            src.put(np.linspace(0, 1, 64))
            # third-party copy: rank 0 moves rank1 -> rank2
            repro.copy(src, dst, 64)
            assert np.allclose(dst.get(64), np.linspace(0, 1, 64))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_copy_partial_count_and_offset():
    def body():
        me = repro.myrank()
        if me == 0:
            src = repro.allocate(0, 10, np.int64)
            dst = repro.allocate(1, 10, np.int64)
            src.put(np.arange(10))
            repro.copy(src + 2, dst + 5, 3)
            out = dst.get(10)
            assert list(out) == [0, 0, 0, 0, 0, 2, 3, 4, 0, 0]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_copy_zero_count_is_noop():
    def body():
        src = repro.allocate(repro.myrank(), 4, np.int64)
        repro.copy(src, src, 0)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_copy_dtype_size_mismatch_rejected():
    def body():
        a = repro.allocate(repro.myrank(), 4, np.int64)
        b = repro.allocate(repro.myrank(), 4, np.int32)
        with pytest.raises(BadPointer):
            repro.copy(a, b, 4)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_copy_reinterprets_same_width_dtypes():
    def body():
        if repro.myrank() == 0:
            a = repro.allocate(0, 4, np.int64)
            b = repro.allocate(0, 4, np.uint64)
            a.put(np.array([1, 2, 3, 4]))
            repro.copy(a, b, 4)
            assert list(b.get(4)) == [1, 2, 3, 4]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_copy_null_pointer_rejected():
    def body():
        a = repro.allocate(repro.myrank(), 4, np.int64)
        with pytest.raises(BadPointer):
            repro.copy(repro.null_ptr(np.int64), a, 4)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_async_copy_fence_completes_all():
    def body():
        me = repro.myrank()
        if me == 0:
            srcs = [repro.allocate(1, 8, np.int64) for _ in range(4)]
            dsts = [repro.allocate(2, 8, np.int64) for _ in range(4)]
            handles = []
            for k, (s, d) in enumerate(zip(srcs, dsts)):
                s.put(np.full(8, k))
                handles.append(repro.async_copy(s, d, 8))
            repro.async_copy_fence()
            assert all(h.done() for h in handles)
            for k, d in enumerate(dsts):
                assert np.all(d.get(8) == k)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_async_copy_signals_event():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            s = repro.allocate(0, 8, np.int64)
            d = repro.allocate(1, 8, np.int64)
            repro.async_copy(s, d, 8, event=e)
            e.wait()
            assert e.test()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_handle_wait_and_bytes():
    def body():
        if repro.myrank() == 0:
            s = repro.allocate(0, 16, np.float64)
            d = repro.allocate(1, 16, np.float64)
            h = repro.async_copy(s, d, 16)
            h.wait()
            assert h.nbytes == 128
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_upc_memcpy_table1_idiom():
    """Table I: upc_memcpy(...) == copy<Type>(...)."""
    from repro.compat import upc

    def body():
        if repro.myrank() == 0:
            src = repro.allocate(1, 32, np.uint8)
            dst = repro.allocate(0, 32, np.uint8)
            src.put(np.arange(32, dtype=np.uint8))
            upc.upc_memcpy(dst, src, 32)
            assert np.array_equal(dst.get(32),
                                  np.arange(32, dtype=np.uint8))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_outstanding_copies_pruned_without_fence():
    """Handle-only programs (never calling async_copy_fence) must not
    accumulate completed handles without bound: a handle is done when
    async_copy returns, and the runtime keeps no reference to it."""
    import sys

    def body():
        me = repro.myrank()
        if me == 0:
            s = repro.allocate(0, 8, np.float64)
            d = repro.allocate(1, 8, np.float64)
            for _ in range(100):
                h = repro.async_copy(s, d, 8)
                assert h.done() and h.nbytes == 64
                h.wait()
                # this frame's name and getrefcount's argument, only
                assert sys.getrefcount(h) == 2
            repro.async_copy_fence()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_copy_handle_wait_timeout():
    """wait(timeout=...) on a stuck handle raises CommTimeout instead of
    blocking until the world's op_timeout."""
    from repro.core.copy import CopyHandle
    from repro.errors import CommTimeout

    def body():
        if repro.myrank() == 0:
            h = CopyHandle(repro.current_world().ranks[0])  # never completed
            with pytest.raises(CommTimeout):
                h.wait(timeout=0.2)
            assert not h.done()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


@pytest.mark.parametrize("bad", ["null", "itemsize", "range"])
def test_async_copy_failure_leaves_nothing_outstanding(bad):
    """A rejected async_copy used to leave a never-done handle and a
    held event reference, so the next fence sat out op_timeout and
    raised CommTimeout."""
    import time

    def body():
        if repro.myrank() == 0:
            good = repro.allocate(0, 8, np.int64)
            peer = repro.allocate(1, 8, np.int64)
            src, dst, count = {
                "null": (repro.null_ptr(np.int64), peer, 8),
                "itemsize": (good.cast(np.int32), peer, 8),
                "range": (good, peer, 1 << 40),
            }[bad]
            e = repro.Event()
            e.incref()                      # someone else's registration
            with pytest.raises((BadPointer, ValueError)):
                repro.async_copy(src, dst, count, event=e)
            assert e.pending() == 1
            e.decref()
            t0 = time.monotonic()
            repro.async_copy_fence()
            assert time.monotonic() - t0 < 1.0
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, timeout=2))
