"""Communication tracing tests: the conduit's event stream as a Trace
and the flight ring see it."""

import sys

import numpy as np
import pytest

import repro
from repro.core import current
from repro.errors import BadPointer, TransientCommError
from repro.gasnet.am import PROBES
from repro.gasnet.trace import Trace
from tests.conftest import run_spmd

BACKENDS = ("smp", "proc+socket")


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


def _own_records_agree():
    """Rank 0's half of the test above, checked where its records live
    (on proc, its own process): the same ops, the same records, in a
    Trace and in rank 0's flight ring."""
    me = repro.myrank()
    sa = repro.SharedArray(np.int64, size=8, block=4)
    repro.barrier()
    out = None
    if me == 0:
        world = repro.current_world()
        trace = Trace(world)
        with trace:
            sa[4] = 7                                    # put
            assert sa[4] == 7                            # get
            sa.atomic_batch(np.arange(4, 8), "add", 1)   # atomic_batch
            assert repro.async_(1)(abs, -3).get() == 3   # am
        conduit_kinds = {"put", "get", "atomic_batch", "am", "reply"}

        def key(ev):
            return ev.kind, ev.src, ev.dst, ev.nbytes, ev.detail

        traced = [key(ev) for ev in trace.select(src=0)]
        ring = [key(ev) for ev in world.telemetry.rank(0).flight.snapshot()
                if ev.kind in conduit_kinds]
        n = len(traced)
        out = (any(ring[i:i + n] == traced for i in range(len(ring) - n + 1)),
               {k[0] for k in traced}, traced)
    repro.barrier()
    return out


def test_trace_and_flight_ring_hold_the_same_records_on_proc():
    """The same agreement across a process boundary, for the records a
    rank process holds: its own ops, in the same order (its peer's
    replies are in the peer's process)."""
    same, kinds, traced = run_spmd(_own_records_agree, ranks=2,
                                   conduit="proc+socket",
                                   telemetry="flight")[0]
    assert same, traced
    assert kinds == {"put", "get", "atomic_batch", "am"}
    assert ("put", 0, 1, 8, "") in traced
    assert ("atomic_batch", 0, 1, 32, "4 elems") in traced


def _failed_ops_recorded():
    """Rank 0 sends an AM that ``fail_next_am`` fails and puts to an
    offset past rank 1's segment, with a Trace open; returns the two
    ops' records as the Trace and the flight ring hold them."""
    me = repro.myrank()
    repro.barrier()
    out = None
    if me == 0:
        world = repro.current_world()
        conduit = world.conduit
        trace = Trace(world)
        with trace:
            conduit.fail_next_am = TransientCommError("injected")
            with pytest.raises(TransientCommError, match="injected"):
                current().send_am(1, "trace_test_never_sent")
            past = world.ranks[1].segment.size
            with pytest.raises(BadPointer):
                conduit.rma_put(0, 1, past, np.ones(1, dtype=np.int64))

        def key(ev):
            return ev.kind, ev.src, ev.dst, ev.nbytes, ev.detail

        ring = world.telemetry.rank(0).flight.snapshot()
        out = ([key(ev) for ev in trace.events],
               [key(ev) for ev in ring if ev.kind in ("am", "put")])
    repro.barrier()
    return out


@pytest.mark.parametrize("conduit", BACKENDS)
def test_an_op_that_raises_is_still_recorded(conduit):
    """An op is recorded when it returns *or raises*, so a failure dump
    shows the op that gave up: an AM failed at the send and an RMA out
    of the target's segment are in the Trace and in the flight ring."""
    traced, ring = run_spmd(_failed_ops_recorded, ranks=2, conduit=conduit,
                            telemetry="flight")[0]
    failed = [("am", 0, 1, 0, "trace_test_never_sent"), ("put", 0, 1, 8, "")]
    assert traced == failed
    assert ring[-2:] == failed


def _probe_census():
    """Every rank waits out a few of its own probe rounds, idle, with a
    Trace open on rank 0; returns the probes sent and any probe event
    the Trace or this rank's flight ring holds."""
    me = repro.myrank()
    world = repro.current_world()
    ctx = current()
    trace = Trace(world) if me == 0 else None
    repro.barrier()
    if trace is not None:
        trace.__enter__()
    ctx.wait_until(lambda: ctx.stats.heartbeats_sent >= 3,
                   what="test: three probe rounds")
    repro.barrier()
    if trace is not None:
        trace.__exit__(None, None, None)
    events = (trace.events if trace is not None else []) + list(
        world.telemetry.rank(me).flight.snapshot())
    return (ctx.stats.heartbeats_sent,
            [ev for ev in events if ev.detail in PROBES])


@pytest.mark.parametrize("conduit", BACKENDS)
def test_probes_stay_out_of_the_event_stream(conduit):
    """Liveness probes are no application traffic: idle ranks send them,
    but neither a Trace nor the flight ring records one."""
    res = run_spmd(_probe_census, ranks=2, conduit=conduit,
                   reliability=True, telemetry="flight")
    for sent, probe_events in res:
        assert sent > 0
        assert probe_events == []


def test_traces_opened_on_every_rank_at_once_leave_no_sink():
    """``world.sinks`` is replaced whole under the world's lock: four
    rank threads (more than the cores) opening and closing Traces at
    once, with the interpreter switching threads as often as it can,
    leave no sink behind (without the lock, a few of 20 000 rounds a
    rank left one)."""
    def body():
        world = repro.current_world()
        repro.barrier()
        for _ in range(20000):
            with Trace(world):
                pass
        repro.barrier()
        return world.sinks

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_spmd(body, ranks=4) == [()] * 4
    finally:
        sys.setswitchinterval(old)
