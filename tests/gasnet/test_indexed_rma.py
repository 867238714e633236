"""Indexed bulk RMA: segment substrate, conduit contract (fast path and
generic per-element fallback), stats accounting, and tracing."""

import warnings

import numpy as np
import pytest

import repro
from repro.errors import BadPointer
from repro.gasnet.atomics import ATOMIC_OPS
from repro.gasnet.segment import Segment
from repro.gasnet.stats import CommStats
from repro.gasnet.trace import Trace
from tests.conftest import run_spmd


# -- segment primitives -------------------------------------------------

def test_segment_indexed_read_write():
    seg = Segment(1024)
    base = seg.alloc(40 * 8, align=8)
    view = seg.view(base, np.int64, 40)
    view[:] = np.arange(40)
    idx = np.array([3, 0, 39, 17])
    assert list(seg.typed_read_indexed(base, np.int64, idx)) == [3, 0, 39, 17]
    seg.typed_write_indexed(base, idx, np.array([-1, -2, -3, -4]))
    assert view[3] == -1 and view[0] == -2 and view[39] == -3


def test_segment_indexed_bounds_and_alignment():
    seg = Segment(256)
    base = seg.alloc(8 * 8, align=8)
    with pytest.raises(BadPointer):
        seg.typed_read_indexed(base, np.int64, [8_000])
    with pytest.raises(BadPointer):
        seg.typed_read_indexed(base, np.int64, [-1])
    with pytest.raises(BadPointer):
        seg.typed_read_indexed(base + 1, np.int64, [0])


def test_segment_atomic_batch_duplicates_are_applied():
    """ufunc.at path: duplicate indices apply once each, unlike plain
    fancy assignment."""
    seg = Segment(256)
    base = seg.alloc(4 * 8, align=8)
    seg.view(base, np.int64, 4)[:] = 0
    seg.atomic_batch_update(base, np.int64, [2, 2, 2, 1], "add",
                            [10, 10, 10, 5])
    assert list(seg.view(base, np.int64, 4)) == [0, 5, 30, 0]


def test_segment_atomic_batch_swap_and_old_values():
    seg = Segment(256)
    base = seg.alloc(4 * 8, align=8)
    seg.view(base, np.int64, 4)[:] = [1, 2, 3, 4]
    old = seg.atomic_batch_update(base, np.int64, [0, 3], "swap",
                                  [9, 9], return_old=True)
    assert list(old) == [1, 4]
    assert list(seg.view(base, np.int64, 4)) == [9, 2, 3, 9]
    # duplicate swap: sequential semantics, last write wins
    old = seg.atomic_batch_update(base, np.int64, [1, 1], "swap",
                                  [7, 8], return_old=True)
    assert list(old) == [2, 7]
    assert seg.view(base, np.int64, 4)[1] == 8


# -- overflow: wraparound without a warning -------------------------------

def test_float_batch_overflow_to_inf_is_silent():
    seg = Segment(256)
    base = seg.alloc(4 * 8, align=8)
    seg.view(base, np.float64, 4)[:] = np.finfo(np.float64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seg.atomic_batch_update(base, np.float64, [0, 0, 2], "add",
                                np.finfo(np.float64).max)
        old = seg.atomic_batch_update(base, np.float64, [1], "add",
                                      np.finfo(np.float64).max,
                                      return_old=True)
    assert old[0] == np.finfo(np.float64).max
    assert list(np.isinf(seg.view(base, np.float64, 4))) == [
        True, True, True, False]


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("return_old", [False, True])
def test_integer_batch_add_wraps_like_sequential_atomics(dtype, return_old):
    """``add`` wraps modulo 2**64 with no warning, on the ``ufunc.at``
    path (duplicates) and on the unique-offset ``return_old`` path, and
    lands where one scalar atomic per element does."""
    info = np.iinfo(dtype)
    offs = [0, 1, 2, 3] if return_old else [0, 1, 1, 3, 3, 3]
    vals = np.full(len(offs), info.max, dtype=dtype)
    vals[1] = 7
    start = np.array([info.max, 9, info.min, info.max - 1], dtype=dtype)
    batch, seq = Segment(256), Segment(256)
    b_base, s_base = batch.alloc(4 * 8, align=8), seq.alloc(4 * 8, align=8)
    batch.view(b_base, dtype, 4)[:] = start
    seq.view(s_base, dtype, 4)[:] = start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        old = batch.atomic_batch_update(b_base, dtype, offs, "add", vals,
                                        return_old=return_old)
        want_old = [seq.atomic_update(s_base + k * 8, dtype,
                                      ATOMIC_OPS["add"], v)
                    for k, v in zip(offs, vals)]
    assert np.array_equal(batch.view(b_base, dtype, 4),
                          seq.view(s_base, dtype, 4))
    wrapped = [int(x) % 2**64 for x in start]
    for k, v in zip(offs, vals):
        wrapped[k] = (wrapped[k] + int(v)) % 2**64
    assert [int(x) % 2**64 for x in batch.view(b_base, dtype, 4)] == wrapped
    if return_old:
        assert list(old) == want_old
    else:
        assert old is None


def test_callable_batch_overflow_in_scalar_loop_is_silent():
    seg = Segment(256)
    base = seg.alloc(2 * 8, align=8)
    seg.view(base, np.int64, 2)[:] = np.iinfo(np.int64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        old = seg.atomic_batch_update(base, np.int64, [0, 0, 1],
                                      lambda old, v: old + v, [1, 1, 2],
                                      return_old=True)
    assert list(old) == [2**63 - 1, -2**63, 2**63 - 1]
    assert list(seg.view(base, np.int64, 2)) == [-2**63 + 1, -2**63 + 1]


# -- bounds: one reduction, every bad offset named -------------------------

_INDEXED_OPS = {
    "typed_read_indexed":
        lambda seg, base, offs: seg.typed_read_indexed(base, np.int64, offs),
    "typed_write_indexed":
        lambda seg, base, offs: seg.typed_write_indexed(
            base, offs, np.zeros(len(offs), np.int64)),
    "atomic_batch_update":
        lambda seg, base, offs: seg.atomic_batch_update(
            base, np.int64, offs, "add", 1),
}


@pytest.mark.parametrize("name", list(_INDEXED_OPS))
def test_indexed_bounds_name_the_bad_offset(name):
    access = _INDEXED_OPS[name]
    seg = Segment(256)
    base = seg.alloc(8 * 8, align=8)
    last = (seg.size - base) // 8 - 1
    access(seg, base, np.array([3, last, 0]))            # last valid one
    with pytest.raises(BadPointer, match=r"outside segment"):
        access(seg, base, np.array([3, last + 1, 0]))  # first one past
    with pytest.raises(BadPointer, match=r"offset -3 in batch"):
        access(seg, base, np.array([5, -3, 2]))
    # a negative offset is named even beside one past the end
    with pytest.raises(BadPointer, match=r"offset -1 in batch"):
        access(seg, base, np.array([last + 1, -1]))
    with pytest.raises(BadPointer, match=rf"offset {-2**63} in batch"):
        access(seg, base, np.array([0, -2**63]))


def test_smp_batches_count_once_per_target():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=16, block=1)
        repro.barrier()
        stats = repro.current_world().ranks[me].stats
        if me == 0:
            s0 = stats.snapshot()
            sa.gather([1, 5, 9, 13])        # all rank 1
            sa.scatter([2, 6], [1, 1])      # all rank 2
            sa.atomic_batch([3, 7, 11], "add", 1)  # all rank 3
            s1 = stats.snapshot()
            assert s1["gets_indexed"] - s0["gets_indexed"] == 1
            assert s1["puts_indexed"] - s0["puts_indexed"] == 1
            assert s1["atomic_batches"] - s0["atomic_batches"] == 1
            assert s1["batched_elements"] - s0["batched_elements"] == 9
            assert stats.coalescing_ratio == pytest.approx(
                stats.batched_elements / stats.batched_ops
            )
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_stats_batched_counters_reset_and_aggregate():
    s = CommStats()
    s.add(gets_indexed=1, get_bytes=80, batched_elements=10,
          remote_accesses=10)
    s.add(puts_indexed=1, put_bytes=32, batched_elements=4,
          remote_accesses=4)
    s.add(atomic_batches=1, batched_elements=6, remote_accesses=6)
    assert s.batched_ops == 3
    assert s.batched_elements == 20
    assert s.coalescing_ratio == pytest.approx(20 / 3)
    assert s.messages == 3
    assert s.remote_accesses == 20
    snap = s.snapshot()
    assert snap["gets_indexed"] == 1 and snap["batched_elements"] == 20
    s.reset()
    assert s.batched_ops == 0 and s.coalescing_ratio == 0.0


def test_trace_records_indexed_ops():
    def body():
        sa = repro.SharedArray(np.int64, size=16, block=1)
        repro.barrier()
        trace = None
        if repro.myrank() == 0:
            trace = Trace(repro.current_world())
            with trace:
                sa.gather([1, 5])
                sa.scatter([2, 6], [0, 0])
                sa.atomic_batch([3, 7], "xor", 1)
        repro.barrier()
        if trace is not None:
            assert trace.count(kind="get_indexed") == 1
            assert trace.count(kind="put_indexed") == 1
            assert trace.count(kind="atomic_batch") == 1
            assert trace.bytes(kind="get_indexed") == 2 * 8
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))
