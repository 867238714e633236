"""NdArray: allocation, indexing, views, one-sided copy (paper §III-E)."""

import numpy as np
import pytest

import repro
from repro.arrays import ARRAY, NdArray, Point, RectDomain, foreach, ndarray
from repro.errors import BadPointer, DomainError
from tests.conftest import run_spmd


def test_allocation_and_shape():
    def body():
        A = ndarray(np.float64, RectDomain((1, 2), (9, 9), (1, 3)))
        assert A.shape == (8, 3)
        assert A.size == 24
        assert A.where() == repro.myrank()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_array_macro_table2():
    """ARRAY(int, ((1,2),(9,9),(1,3))) — Table II shorthand."""
    def body():
        A = ARRAY(np.int64, ((1, 2), (9, 9), (1, 3)))
        assert A.domain == RectDomain((1, 2), (9, 9), (1, 3))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_zero_initialized_and_point_indexing():
    def body():
        A = ndarray(np.int64, RectDomain((0, 0), (3, 3)))
        assert A[Point(1, 1)] == 0
        A[1, 1] = 42          # tuple indexing
        A[Point(2, 2)] = 7    # point indexing
        assert A[(1, 1)] == 42 and A[Point(2, 2)] == 7
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_index_outside_domain_raises():
    def body():
        A = ndarray(np.int64, RectDomain((2, 2), (4, 4)))
        with pytest.raises(IndexError):
            A[Point(0, 0)]
        with pytest.raises(IndexError):
            A[Point(4, 2)] = 1
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_int_index_only_for_1d():
    def body():
        A = ndarray(np.int64, RectDomain((0, 0), (2, 2)))
        with pytest.raises(IndexError):
            A[1]
        B = ndarray(np.int64, RectDomain((0,), (4,)))
        B[2] = 5
        assert B[2] == 5
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_local_view_matches_foreach_order():
    def body():
        dom = RectDomain((1, 1), (4, 5))
        A = ndarray(np.int64, dom)
        for i, p in enumerate(foreach(dom)):
            A[p] = i
        lv = A.local_view()
        assert lv.shape == (3, 4)
        assert np.array_equal(lv.ravel(), np.arange(12))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_unstrided_flag():
    def body():
        A = ndarray(np.float64, RectDomain((0, 0), (4, 4)))
        assert A.unstrided
        strided = ndarray(np.float64, RectDomain((0,), (8,), (2,)))
        assert not strided.unstrided
        sliced = A.slice(1, 0)
        assert not sliced.unstrided  # stride-4 walk over storage
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


# -- views ----------------------------------------------------------------

def test_constrict_restricts_and_shares_storage():
    """'an array may be restricted to a smaller domain' (§III-E)."""
    def body():
        A = ndarray(np.int64, RectDomain((0, 0), (6, 6)))
        inner = A.constrict(RectDomain((2, 2), (4, 4)))
        assert inner.domain == RectDomain((2, 2), (4, 4))
        inner[Point(3, 3)] = 9
        assert A[Point(3, 3)] == 9  # same storage
        inner.local_view()[:] = 5
        assert A[Point(2, 2)] == 5 and A[Point(0, 0)] == 0
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_slice_gives_n_minus_1_view():
    """'sliced to obtain an (N-1)-dimensional view' (§III-E)."""
    def body():
        A = ndarray(np.int64, RectDomain((0, 0, 0), (3, 3, 3)))
        A[Point(1, 2, 0)] = 11
        s = A.slice(2, 0)  # fix z=0
        assert s.ndim == 2
        assert s[Point(1, 2)] == 11
        s[Point(0, 0)] = 5
        assert A[Point(0, 0, 0)] == 5
        with pytest.raises(DomainError):
            ndarray(np.int64, RectDomain((0,), (2,))).slice(0, 0)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_translate_view():
    """'translating the domain of an array' (§III-E)."""
    def body():
        A = ndarray(np.int64, RectDomain((0, 0), (2, 2)))
        A[Point(0, 0)] = 3
        T = A.translate(Point(10, 10))
        assert T[Point(10, 10)] == 3
        T[Point(11, 11)] = 4
        assert A[Point(1, 1)] == 4
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_permute_and_transpose():
    """'permuting dimensions' (§III-E)."""
    def body():
        A = ndarray(np.int64, RectDomain((0, 0), (2, 3)))
        A[Point(0, 2)] = 7
        T = A.transpose()
        assert T.shape == (3, 2)
        assert T[Point(2, 0)] == 7
        assert np.array_equal(T.local_view(), A.local_view().T)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_strided_constrict():
    def body():
        A = ndarray(np.int64, RectDomain((0,), (10,)))
        A.local_view()[:] = np.arange(10)
        evens = A.constrict(RectDomain((0,), (10,), (2,)))
        assert evens.shape == (5,)
        assert np.array_equal(evens.local_view(), [0, 2, 4, 6, 8])
        evens.local_view()[:] = -1
        assert A[1] == 1 and A[2] == -1
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_set_and_to_from_numpy():
    def body():
        A = ndarray(np.float64, RectDomain((0, 0), (3, 3)))
        A.set(2.5)
        assert np.all(A.to_numpy() == 2.5)
        A.from_numpy(np.arange(9.0).reshape(3, 3))
        assert A[Point(2, 2)] == 8.0
        with pytest.raises(DomainError):
            A.from_numpy(np.zeros((2, 2)))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


# -- remote arrays (handles cross ranks) -------------------------------------

def test_remote_element_access():
    def body():
        me = repro.myrank()
        d = repro.Directory()
        A = ndarray(np.int64, RectDomain((0, 0), (4, 4)))
        A.set(me * 10)
        d.publish_and_sync(A)
        other = (me + 1) % repro.ranks()
        R = d.lookup(other)
        assert not R.is_local()
        assert R[Point(1, 1)] == other * 10   # one-sided remote read
        R[Point(0, 0)] = 99                   # one-sided remote write
        repro.barrier()
        assert A[Point(0, 0)] == 99
        with pytest.raises(BadPointer):
            R.local_view()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_copy_intersects_domains():
    """'the library automatically computes the intersection' (§III-E)."""
    def body():
        A = ndarray(np.int64, RectDomain((0, 0), (4, 4)))
        B = ndarray(np.int64, RectDomain((2, 2), (6, 6)))
        B.set(7)
        A.copy(B)
        lv = A.local_view()
        assert lv[3, 3] == 7 and lv[2, 2] == 7  # intersection [2:4)x[2:4)
        assert lv[0, 0] == 0 and lv[1, 3] == 0
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_copy_disjoint_domains_is_noop():
    def body():
        A = ndarray(np.int64, RectDomain((0, 0), (2, 2)))
        B = ndarray(np.int64, RectDomain((5, 5), (7, 7)))
        B.set(3)
        A.copy(B)
        assert np.all(A.to_numpy() == 0)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_remote_ghost_copy_single_statement():
    """The paper's ghost idiom: A.constrict(ghost).copy(B) where B is
    remote; pack, transfer and unpack are automatic and one-sided."""
    def body():
        me = repro.myrank()
        d = repro.Directory()
        # rank r owns columns [4r, 4r+4) of a global 4x8 grid + 1 ghost col
        lo, hi = 4 * me, 4 * me + 4
        interior = RectDomain((0, lo), (4, hi))
        mine = ndarray(np.float64, RectDomain((0, lo - 1), (4, hi + 1)))
        mine.constrict(interior).local_view()[:] = me + 1.0
        d.publish_and_sync(mine)
        if me == 0:
            nbr = d.lookup(1)
            ghost = RectDomain((0, hi), (4, hi + 1))
            mine.constrict(ghost).copy(nbr)   # single statement!
            assert np.all(
                mine.constrict(ghost).local_view() == 2.0
            )
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_copy_third_party():
    """Initiator owns neither side; AMs do pack and unpack remotely."""
    def body():
        me = repro.myrank()
        d = repro.Directory()
        A = ndarray(np.int64, RectDomain((0, 0), (3, 3)))
        A.set(me)
        d.publish_and_sync(A)
        if me == 2:
            dst = d.lookup(0)
            src = d.lookup(1)
            dst.copy(src)  # rank 2 moves rank1's grid into rank0's
        repro.barrier()
        assert (A.local_view()[0, 0] == (1 if me == 0 else me))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_copy_between_shifted_views():
    def body():
        A = ndarray(np.float64, RectDomain((0, 0), (4, 4)))
        B = ndarray(np.float64, RectDomain((0, 0), (4, 4)))
        B.from_numpy(np.arange(16.0).reshape(4, 4))
        # copy B's values into A displaced by (1, 1)
        A.translate(Point(-1, -1)).copy(B)
        lv = A.local_view()
        assert lv[1, 1] == B[Point(0, 0)]
        assert lv[3, 3] == B[Point(2, 2)]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_copy_dtype_checks():
    def body():
        A = ndarray(np.int64, RectDomain((0,), (4,)))
        B = ndarray(np.int32, RectDomain((0,), (4,)))
        with pytest.raises(DomainError):
            A.copy(B)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_copy_signals_event():
    def body():
        A = ndarray(np.int64, RectDomain((0,), (4,)))
        B = ndarray(np.int64, RectDomain((0,), (4,)))
        e = repro.Event()
        A.copy(B, event=e)
        assert e.test()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_ndarray_free_releases_segment():
    def body():
        ctx = repro.current_world().ranks[repro.myrank()]
        before = ctx.segment.bytes_in_use
        A = ndarray(np.float64, RectDomain((0, 0), (8, 8)))
        assert ctx.segment.bytes_in_use > before
        A.free()
        assert ctx.segment.bytes_in_use == before
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_inject_view_multigrid_idiom():
    """A coarse array embedded into fine index space: the multigrid
    restriction/prolongation addressing pattern."""
    def body():
        coarse = ndarray(np.float64, RectDomain((0, 0), (4, 4)))
        coarse.from_numpy(np.arange(16.0).reshape(4, 4))
        fine_view = coarse.inject(2)   # lives on the even fine points
        assert fine_view.domain == RectDomain((0, 0), (7, 7), (2, 2))
        for (i, j) in foreach(coarse.domain):
            assert fine_view[Point(2 * i, 2 * j)] == coarse[Point(i, j)]
        # and it shares storage
        fine_view[Point(2, 2)] = -5.0
        assert coarse[Point(1, 1)] == -5.0
        # project inverts
        back = fine_view.project(2)
        assert back.domain == coarse.domain
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=1))


def test_remote_copy_error_propagates_to_initiator():
    """A failing remote read (corrupt handle mapping past the segment)
    surfaces as an exception at the *initiating* rank: the conduit's
    range check on the target segment rejects the get."""
    def body():
        me = repro.myrank()
        if me == 0:
            seg_size = repro.current_world().ranks[1].segment.size
            dom = RectDomain((0, 0), (8, 8))
            bogus = NdArray(
                rank=1, base_offset=seg_size - 8, dtype=np.int64,
                domain=dom, elem_base=0, elem_strides=(8, 1),
                alloc_elems=64,
            )
            dst = ndarray(np.int64, dom)
            with pytest.raises(repro.PgasError):
                dst.copy(bogus)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))
