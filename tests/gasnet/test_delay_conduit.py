"""The full construct stack under randomized message delay/reordering.

Anything that silently relied on the SMP conduit's instant delivery —
replies racing requests, events firing during registration, collectives
overlapping asyncs — fails loudly here.
"""

import numpy as np
import pytest

import repro
from repro.gasnet.delay import DelayConduit


def _run(body, ranks=4, seed=1, **kw):
    return repro.spmd(
        body, ranks=ranks, timeout=60,
        conduit=DelayConduit(base_delay=0.0005, jitter=0.003, seed=seed),
        **kw,
    )


def test_async_and_finish_under_delay():
    def body():
        me, n = repro.myrank(), repro.ranks()
        results = []
        with repro.finish():
            for i in range(10):
                f = repro.async_((me + i) % n)(lambda x: x + 1, i)
                f.add_callback(lambda fut: results.append(fut.get()))
        assert sorted(results) == list(range(1, 11))
        repro.barrier()
        return True

    assert all(_run(body))


def test_listing1_dag_under_delay():
    from tests.core.test_listing1_dag import _check_constraints, _run_dag

    def body():
        if repro.myrank() == 0:
            order, _ = _run_dag()
            _check_constraints(order)
        repro.barrier()
        return True

    assert all(_run(body))


def test_lock_mutual_exclusion_under_delay():
    def body():
        lk = repro.GlobalLock()
        c = repro.SharedVar(np.int64, init=0)
        repro.barrier()
        for _ in range(8):
            with lk:
                c.value = c.value + 1
        repro.barrier()
        return int(c.value)

    res = _run(body, ranks=3)
    assert res == [24, 24, 24]


def test_collectives_under_delay():
    def body():
        me = repro.myrank()
        assert repro.collectives.allreduce(me) == 6
        assert repro.collectives.bcast(
            "x" if me == 2 else None, root=2) == "x"
        got = repro.collectives.alltoall(
            [f"{me}->{d}" for d in range(repro.ranks())]
        )
        assert got[me] == f"{me}->{me}"
        repro.barrier()
        return True

    assert all(_run(body))


def test_remote_allocation_under_delay():
    def body():
        me, n = repro.myrank(), repro.ranks()
        ptrs = [repro.allocate((me + k) % n, 16, np.int64)
                for k in range(1, 4)]
        for p in ptrs:
            p.put(np.arange(16))
        for p in ptrs:
            assert p[15] == 15
            repro.deallocate(p)
        repro.barrier()
        return True

    assert all(_run(body))


def test_fifo_preserved_between_pairs():
    """Back-to-back asyncs to the same target execute in issue order —
    the per-pair FIFO contract survives the delay scrambling."""
    def body():
        me = repro.myrank()
        if me == 0:
            order = []
            with repro.finish():
                for i in range(12):
                    # all to rank 1; target-side append order == issue
                    # order because exec AMs arrive FIFO per pair
                    repro.async_(1)(order_append, i)
            got = repro.async_(1)(order_snapshot).get()
            assert got == list(range(12)), got
        repro.barrier()
        return True

    assert all(_run(body, ranks=2))


def order_append(i):
    ctx = repro.current_world().ranks[repro.myrank()]
    ctx.scratch.setdefault("order", []).append(i)


def order_snapshot():
    ctx = repro.current_world().ranks[repro.myrank()]
    return list(ctx.scratch.get("order", []))


def test_sample_sort_under_delay():
    from repro.bench.sample_sort import sample_sort

    def body():
        return sample_sort(keys_per_rank=512, variant="upcxx").verified

    assert all(_run(body, ranks=4))


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_workqueue_under_delay(seed):
    def body():
        me = repro.myrank()
        wq = repro.DistWorkQueue()
        if me == 0:
            wq.add_local(range(30))
        repro.barrier()
        done = 0
        while wq.get() is not None:
            wq.task_done()
            done += 1
        assert repro.collectives.allreduce(done) == 30
        return True

    assert all(_run(body, ranks=3, seed=seed))


@pytest.mark.parametrize("seed", [21, 42])
def test_chaos_mix_under_delay(seed):
    """The randomized mixed-API stress test on the delay conduit."""
    def body():
        me, n = repro.myrank(), repro.ranks()
        rng = np.random.default_rng(5000 + me)
        sa = repro.SharedArray(np.int64, size=16, block=2)
        counter = repro.SharedVar(np.int64, init=0)
        repro.barrier()
        for round_ in range(10):
            op = rng.integers(0, 4)
            if op == 0:
                sa[int(rng.integers(0, 16))] = me
            elif op == 1:
                _ = sa[int(rng.integers(0, 16))]
            elif op == 2:
                counter.atomic("add", 1)
            else:
                with repro.finish():
                    repro.async_(int(rng.integers(0, n)))(int, round_)
            if round_ % 4 == 3:
                repro.barrier()
        repro.barrier()
        return int(counter.value)

    res = _run(body, ranks=4, seed=seed)
    assert len(set(res)) == 1


# -------------------------------------------------------------- shutdown

def test_close_kills_dispatcher_and_drains_stragglers():
    """close() must leave no live dispatcher thread and no silently
    dropped message: AMs whose delay has not elapsed are delivered
    immediately at shutdown."""
    from repro.core.world import World
    from repro.gasnet.am import ActiveMessage

    conduit = DelayConduit(base_delay=30.0, jitter=0.0)
    world = World(2, conduit=conduit)
    try:
        conduit.send_am(0, 1, ActiveMessage(handler="noop", src_rank=0))
        assert conduit.pending_messages == 1   # queued 30s out
    finally:
        conduit.close()
    assert not conduit._dispatcher.is_alive()
    assert conduit.pending_messages == 0
    # the straggler was drained into the target's inbox, not dropped
    assert len(world.ranks[1]._inbox) == 1
    assert world.ranks[1]._inbox[0].handler == "noop"


def test_close_idempotent_after_normal_run():
    def body():
        repro.barrier()
        return True

    conduit = DelayConduit(base_delay=0.001, jitter=0.001)
    assert all(repro.spmd(body, ranks=2, conduit=conduit))
    assert not conduit._dispatcher.is_alive()   # spmd closed it
    conduit.close()                             # second close is harmless
    assert conduit.pending_messages == 0
