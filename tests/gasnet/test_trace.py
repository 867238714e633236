"""Communication tracing tests."""

import numpy as np
import pytest

import repro
from repro.gasnet.trace import Trace
from tests.conftest import run_spmd


def test_trace_records_puts_and_gets():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=4, block=1)
        repro.barrier()
        trace = Trace(repro.current_world()) if me == 0 else None
        repro.barrier()
        if me == 0:
            with trace:
                sa[1] = 7          # remote put (element 1 on rank 1)
                _ = sa[1]          # remote get
                _ = sa[0]          # local: not a conduit op
            assert trace.count(kind="put") == 1
            assert trace.count(kind="get") == 1
            assert trace.count(kind="put", dst=1) == 1
            assert trace.bytes(kind="put") == 8
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_trace_records_am_handler_names():
    def body():
        me = repro.myrank()
        repro.barrier()
        if me == 0:
            trace = Trace(repro.current_world())
            with trace:
                repro.async_(1)(int, 5).get()
            kinds = [(ev.kind, ev.detail) for ev in trace.events
                     if ev.src == 0]
            assert ("am", "exec_task") in kinds
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_trace_matrix_shows_ghost_pattern():
    """The stencil's comm matrix: nonzero only between face neighbours."""
    from repro.arrays import DistNdArray, RectDomain

    def body():
        me = repro.myrank()
        D = DistNdArray(np.float64, RectDomain((0, 0), (8, 8)), ghost=1)
        D.interior_view()[:] = float(me)
        repro.barrier()
        trace = Trace(repro.current_world()) if me == 0 else None
        repro.barrier()
        if me == 0:
            with trace:
                # rank 0's halves of the exchange only; peers do theirs
                # outside the trace, which records *initiators*.
                for nbr_rank, offs in D.neighbors():
                    if sum(map(abs, offs)) != 1:
                        continue
                    halo = D._halo_region(offs)
                    D.local.constrict(halo).copy(D.remote(nbr_rank))
            partners = trace.partners(0)
            face_nbrs = {r for r, o in D.neighbors()
                         if sum(map(abs, o)) == 1}
            assert partners == face_nbrs
        repro.barrier()
        D.ghost_exchange(faces_only=True)  # leave world consistent
        return True

    assert all(run_spmd(body, ranks=4))


def test_trace_nesting_rejected():
    def body():
        if repro.myrank() == 0:
            trace = Trace(repro.current_world())
            with trace:
                with pytest.raises(RuntimeError):
                    trace.__enter__()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_trace_uninstalls_cleanly():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        if me == 0:
            world = repro.current_world()
            original = world.conduit
            trace = Trace(world)
            with trace:
                sa[1] = 1
            assert world.conduit is original
            n_before = len(trace.events)
            sa[1] = 2  # after exit: not recorded
            assert len(trace.events) == n_before
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


class _Passthrough:
    """A minimal decorating conduit, as another subsystem would install."""

    def __init__(self, inner):
        self._inner = inner
        self.world = inner.world

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_trace_exit_restores_exact_conduit():
    """Exiting a Trace must splice out *its own* wrapper — not blindly
    pop the outermost layer, which may belong to someone else by then."""
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        if me == 0:
            world = repro.current_world()
            original = world.conduit
            trace = Trace(world)
            with trace:
                # Another decorator lands *inside* the with block and
                # stays installed after it.
                deco = _Passthrough(world.conduit)
                world.conduit = deco
                sa[1] = 1
            # The foreign decorator survives; the tracing layer is gone
            # from underneath it.
            assert world.conduit is deco
            assert deco._inner is original
            assert trace.count(kind="put") == 1
            world.conduit = original  # leave the world as found
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_trace_exit_idempotent():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        if me == 0:
            world = repro.current_world()
            original = world.conduit
            trace = Trace(world)
            with pytest.raises(ValueError):
                with trace:
                    raise ValueError("boom")
            assert world.conduit is original
            trace.__exit__(None, None, None)  # second exit: no-op
            assert world.conduit is original
            sa[1] = 1  # the conduit still works
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_trace_exit_noop_if_wrapper_already_removed():
    def body():
        if repro.myrank() == 0:
            world = repro.current_world()
            original = world.conduit
            trace = Trace(world)
            trace.__enter__()
            world.conduit = original  # someone force-uninstalled it
            trace.__exit__(None, None, None)
            assert world.conduit is original
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_trace_select_filters_combine():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=4, block=1)
        repro.barrier()
        out = True
        if me == 0:
            trace = Trace(repro.current_world())
            with trace:
                sa[1] = 1          # put -> rank 1
                sa[2] = 2          # put -> rank 2
                _ = sa[1]          # get -> rank 1
                sa.atomic(3, "add", 1)  # atomic -> rank 3
            assert trace.count() == 4
            assert trace.count(kind="put") == 2
            assert trace.count(dst=1) == 2
            assert trace.count(kind="put", dst=1) == 1
            assert trace.count(kind="get", src=0, dst=1) == 1
            assert trace.count(kind="atomic", dst=3) == 1
            assert trace.count(kind="put", dst=3) == 0
            assert [ev.dst for ev in trace.select(kind="put")] == [1, 2]
        repro.barrier()
        return out

    assert all(run_spmd(body, ranks=4))


def test_trace_matrix_and_partners_filter_by_kind():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=4, block=1)
        repro.barrier()
        if me == 0:
            trace = Trace(repro.current_world())
            with trace:
                sa[1] = 1
                sa[1] = 2
                _ = sa[2]
            m_all = trace.matrix()
            assert m_all[0, 1] == 2 and m_all[0, 2] == 1
            assert m_all.sum() == 3
            m_put = trace.matrix(kind="put")
            assert m_put[0, 1] == 2 and m_put[0, 2] == 0
            assert trace.partners(0) == {1, 2}
            assert trace.partners(3) == set()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_trace_timestamps_monotone():
    def body():
        if repro.myrank() == 0:
            trace = Trace(repro.current_world())
            sa = None
        sa_all = repro.SharedArray(np.int64, size=8, block=1)
        repro.barrier()
        if repro.myrank() == 0:
            with trace:
                for i in range(8):
                    sa_all[i] = i
            ts = [ev.t for ev in trace.events]
            assert ts == sorted(ts)
            assert all(t >= 0 for t in ts)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_trace_and_flight_ring_hold_the_same_records():
    """One observing layer, one record, one spelling: what a Trace
    collects and what the initiator's flight ring keeps are the same
    ``(kind, src, dst, nbytes, detail)``, op for op, in the same order —
    RMA, AM and reply alike."""
    holder = {}

    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=8, block=4)
        repro.barrier()
        if me == 0:
            world = repro.current_world()
            trace = Trace(world)
            with trace:
                sa[4] = 7                                    # put
                assert sa[4] == 7                            # get
                sa.atomic_batch(np.arange(4, 8), "add", 1)   # atomic_batch
                assert repro.async_(1)(abs, -3).get() == 3   # am + reply
            holder.update(trace=trace, world=world)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, telemetry="flight"))
    trace, world = holder["trace"], holder["world"]

    def key(ev):
        return ev.kind, ev.src, ev.dst, ev.nbytes, ev.detail

    conduit_kinds = {"put", "get", "atomic_batch", "am", "reply"}
    seen = set()
    for rank in (0, 1):
        traced = [key(ev) for ev in trace.select(src=rank)]
        assert all(ev.rank == rank for ev in trace.select(src=rank))
        ring = [key(ev) for ev in world.telemetry.rank(rank).flight.snapshot()
                if ev.kind in conduit_kinds]
        # The ring also holds this rank's ops from before and after the
        # ``with`` block; the traced ones are one contiguous run of it.
        n = len(traced)
        assert any(ring[i:i + n] == traced for i in range(len(ring) - n + 1)), \
            (rank, traced, ring)
        seen |= {k[0] for k in traced}
    assert seen == conduit_kinds
    assert ("put", 0, 1, 8, "") in map(key, trace.events)
    assert ("atomic_batch", 0, 1, 32, "4 elems") in map(key, trace.events)
