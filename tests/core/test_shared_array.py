"""shared_array<T, BS>: UPC block-cyclic layout and access semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.shared_array import (
    global_index_of,
    local_offset_of,
    owner_of,
    slab_elements,
)
from repro.errors import PgasError
from tests.conftest import run_spmd


# -- pure layout math ---------------------------------------------------

def test_cyclic_layout_block_1():
    # BS=1: element i on thread i % THREADS (UPC default)
    for i in range(20):
        assert owner_of(i, 1, 4) == i % 4
        assert local_offset_of(i, 1, 4) == i // 4


def test_blocked_layout():
    # BS=3, 2 threads: [0,1,2]->t0, [3,4,5]->t1, [6,7,8]->t0 ...
    owners = [owner_of(i, 3, 2) for i in range(12)]
    assert owners == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]
    assert local_offset_of(6, 3, 2) == 3
    assert local_offset_of(7, 3, 2) == 4


@settings(max_examples=200, deadline=None)
@given(
    i=st.integers(0, 10_000),
    block=st.integers(1, 17),
    nranks=st.integers(1, 9),
)
def test_layout_roundtrip(i, block, nranks):
    """Property: (owner, local_offset) <-> global index is a bijection."""
    r = owner_of(i, block, nranks)
    off = local_offset_of(i, block, nranks)
    assert 0 <= r < nranks
    assert global_index_of(r, off, block, nranks) == i


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 500),
    block=st.integers(1, 16),
    nranks=st.integers(1, 8),
)
def test_slab_covers_all_elements(size, block, nranks):
    """Property: every element's local offset fits in the uniform slab."""
    slab = slab_elements(size, block, nranks)
    for i in range(size):
        assert local_offset_of(i, block, nranks) < slab


# -- in-world behaviour ------------------------------------------------------

def test_paper_example_subscript():
    """sa[0] = 1; cout << sa[0]; (paper §III-A)."""
    def body():
        sa = repro.SharedArray(np.int64, size=10)
        if repro.myrank() == 0:
            sa[0] = 1
        repro.barrier()
        return int(sa[0])

    assert run_spmd(body, ranks=4) == [1] * 4


def test_dynamic_init_threads():
    """sa.init(THREADS) — the dynamic upc_all_alloc-style form."""
    def body():
        sa = repro.SharedArray(np.int64)
        sa.init(repro.THREADS())
        sa[repro.myrank()] = repro.myrank() ** 2
        repro.barrier()
        return [int(sa[i]) for i in range(repro.ranks())]

    res = run_spmd(body, ranks=4)
    assert res[0] == [0, 1, 4, 9]


def test_every_element_readable_writable_from_every_rank():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=16, block=3)
        repro.barrier()
        if me == 0:
            for i in range(16):
                sa[i] = i * 11
        repro.barrier()
        assert all(sa[i] == i * 11 for i in range(16))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_affinity_matches_layout_math():
    def body():
        sa = repro.SharedArray(np.int64, size=20, block=2)
        repro.barrier()
        n = repro.ranks()
        for i in range(20):
            assert sa.where(i) == owner_of(i, 2, n)
            assert sa.gptr(i).where() == sa.where(i)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_negative_index():
    def body():
        sa = repro.SharedArray(np.int64, size=5)
        if repro.myrank() == 0:
            sa[-1] = 42
        repro.barrier()
        return int(sa[4])

    assert run_spmd(body, ranks=2) == [42, 42]


def test_out_of_range_raises():
    def body():
        sa = repro.SharedArray(np.int64, size=5)
        with pytest.raises(IndexError):
            sa[5]
        with pytest.raises(IndexError):
            sa[-6] = 0
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


@pytest.mark.parametrize("conduit", ["smp", "proc"])
def test_scalar_index_must_be_an_integer(conduit):
    """``sa[3.7]`` once read ``sa[3]``; every element entry point now
    raises on a non-integer (a bool included, as in a batch), and Python
    and NumPy integers stay accepted."""
    def body():
        sa = repro.SharedArray(np.int64, size=10)
        if repro.myrank() == 0:
            sa.write_range(0, np.arange(10) * 11)
        repro.barrier()
        for bad in (3.7, np.float64(3.0), "3", None, True, np.True_):
            with pytest.raises(IndexError, match="must be integers"):
                sa[bad]
            with pytest.raises(IndexError, match="must be integers"):
                sa[bad] = -1
            with pytest.raises(IndexError, match="must be integers"):
                sa.atomic(bad, "add", 1)
            with pytest.raises(IndexError, match="must be integers"):
                sa.gptr(bad)
            with pytest.raises(IndexError, match="must be integers"):
                sa.where(bad)
        with pytest.raises(IndexError, match="must be integers"):
            sa.gather([True])
        with pytest.raises(IndexError, match="index -11 out"):
            sa[-11]
        assert sa[np.int32(3)] == sa[np.uint8(3)] == sa[3] == 33
        assert sa.where(np.int64(-1)) == sa.where(9)
        assert sa.gptr(np.uint64(7)) == sa.gptr(-3)
        repro.barrier()
        assert np.array_equal(sa.read_range(0, 10), np.arange(10) * 11)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))


@pytest.mark.parametrize("conduit", ["smp", "proc"])
def test_element_access_is_one_rma_and_no_global_ptr(conduit, monkeypatch):
    """A remote ``sa[i]``, ``sa[i] = v`` and ``sa.atomic`` are one
    conduit op each; none of them builds a GlobalPtr."""
    from repro.core import global_ptr

    def no_ptr(*a, **k):
        raise AssertionError("element access built a GlobalPtr")

    monkeypatch.setattr(global_ptr.GlobalPtr, "__post_init__", no_ptr)

    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=8, block=2)
        repro.barrier()
        stats = repro.current_world().ranks[me].stats
        theirs = 2 * (1 - me)           # first element the peer owns
        s0 = stats.snapshot()
        sa[theirs] = 40 + me
        assert sa[theirs] == 40 + me
        assert sa.atomic(theirs, "add", 2) == 40 + me
        s1 = stats.snapshot()
        assert [s1[k] - s0[k] for k in ("puts", "gets", "atomics")] == \
            [1, 1, 1]
        assert s1["remote_accesses"] - s0["remote_accesses"] == 3
        with pytest.raises(PgasError, match="unknown atomic op"):
            sa.atomic(theirs, "nope", 1)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))


def test_use_before_init_raises():
    def body():
        sa = repro.SharedArray(np.int64)
        with pytest.raises(PgasError):
            sa[0]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_double_init_raises():
    def body():
        sa = repro.SharedArray(np.int64, size=4)
        with pytest.raises(PgasError):
            sa.init(4)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_local_view_and_indices_consistent():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=23, block=3)
        idx = sa.local_indices()
        lv = sa.local_view()
        lv[: len(idx)] = idx * 7  # owner-side writes
        repro.barrier()
        assert all(sa[int(i)] == i * 7 for i in idx)
        # cross-check someone else's elements too
        other = (me + 1) % repro.ranks()
        for i in range(23):
            if sa.where(i) == other:
                assert sa[i] == i * 7
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_read_range_spans_owners():
    def body():
        sa = repro.SharedArray(np.int64, size=20, block=3)
        idx = sa.local_indices()
        sa.local_view()[: len(idx)] = idx
        repro.barrier()
        got = sa.read_range(2, 17)
        assert np.array_equal(got, np.arange(2, 17))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_gptr_arithmetic_walks_local_slab():
    """The paper's no-phase rule in the shared_array context: gptr(i)+1
    addresses the owner's *next local element*, which for block
    size > 1 equals the next global element within the block."""
    def body():
        sa = repro.SharedArray(np.int64, size=12, block=4)
        idx = sa.local_indices()
        sa.local_view()[: len(idx)] = idx
        repro.barrier()
        p = sa.gptr(0)       # block [0..3] on rank 0
        assert (p + 1)[0] == 1
        assert (p + 3)[0] == 3
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_block_size_validation():
    def body():
        with pytest.raises(PgasError):
            repro.SharedArray(np.int64, size=4, block=0)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_len():
    def body():
        sa = repro.SharedArray(np.int8, size=37)
        repro.barrier()
        return len(sa)

    assert run_spmd(body, ranks=2) == [37, 37]


def test_write_range_spans_owners():
    def body():
        sa = repro.SharedArray(np.int64, size=20, block=3)
        repro.barrier()
        if repro.myrank() == 0:
            sa.write_range(2, np.arange(100, 115))
        repro.barrier()
        got = sa.read_range(0, 20)
        expect = np.zeros(20, dtype=np.int64)
        expect[2:17] = np.arange(100, 115)
        assert np.array_equal(got, expect)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_write_range_bounds_checked():
    def body():
        sa = repro.SharedArray(np.int64, size=10)
        with pytest.raises(IndexError):
            sa.write_range(8, np.arange(5))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_read_write_range_roundtrip_property():
    def body():
        rng = np.random.default_rng(3)
        sa = repro.SharedArray(np.int64, size=64, block=5)
        repro.barrier()
        if repro.myrank() == 0:
            for _ in range(10):
                start = int(rng.integers(0, 60))
                n = int(rng.integers(1, 64 - start))
                vals = rng.integers(0, 1 << 40, n)
                sa.write_range(start, vals)
                assert np.array_equal(sa.read_range(start, start + n),
                                      vals)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))
