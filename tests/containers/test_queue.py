"""DistQueue: FIFO/bag semantics, remote push, stealing, rank death."""

import pytest

import repro
from repro.containers import DistQueue
from repro.core import collectives
from repro.errors import PgasError, RankDead
from repro.gasnet import ChaosConduit
from tests.conftest import run_spmd


def test_local_fifo_order():
    def body():
        q = DistQueue()
        if repro.myrank() == 0:
            q.put_many(["a", "b", "c"])
            got = [q.get(), q.get(), q.get()]
            assert got == ["a", "b", "c"]  # local pops preserve FIFO
        repro.barrier()
        assert q.get() is None
        return True

    assert all(run_spmd(body, ranks=2))


def test_remote_push_lands_on_target():
    def body():
        me = repro.myrank()
        q = DistQueue()
        if me == 0:
            for r in range(1, repro.ranks()):
                q.put(("job", r), to=r)
            assert q.pushed_remote == repro.ranks() - 1
        repro.barrier()
        if me != 0:
            assert q.local_size() == 1
            assert q.get(max_steal_rounds=1) == ("job", me)
        repro.barrier()
        # Drain to quiesce so every rank's final get() agrees.
        while q.get() is not None:
            pass
        assert q.outstanding() == 0
        return True

    assert all(run_spmd(body, ranks=4))


def test_single_producer_all_consume_exactly_once():
    """One rank seeds everything; stealing spreads it; the union of the
    claims is exactly the seeded set."""
    def body():
        me = repro.myrank()
        q = DistQueue()
        n_items = 60
        if me == 0:
            q.put_many(list(range(n_items)))
        repro.barrier()
        got = []
        while (it := q.get()) is not None:
            got.append(it)
        all_got = collectives.gather(got, root=0)
        if me == 0:
            flat = sorted(x for chunk in all_got for x in chunk)
            assert flat == list(range(n_items))  # exactly once, no loss
        repro.barrier()
        return len(got)

    counts = run_spmd(body, ranks=4)
    assert sum(counts) == 60


def test_explicit_ack_mode():
    def body():
        me = repro.myrank()
        q = DistQueue(auto_ack=False)
        if me == 0:
            q.put_many([1, 2])
        repro.barrier()
        if me == 0:
            a = q.get(max_steal_rounds=1)
            assert a is not None
            assert q.outstanding() == 2  # claimed but not acked
            q.task_done()
            b = q.get(max_steal_rounds=1)
            q.task_done()
            assert {a, b} == {1, 2}
            with pytest.raises(PgasError):
                q.task_done(0)
        repro.barrier()
        assert q.get() is None  # quiesced for everyone
        return True

    assert all(run_spmd(body, ranks=2))


_RELIABILITY = {"peer_timeout": 0.3, "heartbeat_period": 0.01}


def test_push_to_dead_rank_diagnostic_and_quiesce():
    """A push to a dead rank fails with a diagnostic naming the target,
    the item count, and the queue — and does NOT bump the quiesce
    counter, so the pool still quiesces for the survivors."""
    victim = 1
    flags = {"killed": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    holder = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        q = DistQueue()
        repro.barrier()
        ready[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(ready[r] for r in range(n)),
                       what="test: past-the-barrier rendezvous")
        if me == victim:
            holder["conduit"].kill_rank(me)
            flags["killed"] = True
            ctx.wait_until(lambda: all(done[r] for r in range(n)
                                       if r != victim),
                           what="test: partitioned victim parks")
            return None
        ctx.wait_until(lambda: flags["killed"], what="wait kill")
        ctx.wait_until(lambda: victim in ctx.world.dead_ranks,
                       what="victim declared dead")
        if me == 0:
            before = q.outstanding()
            with pytest.raises(RankDead) as ei:
                q.put_many([("lost", i) for i in range(3)], to=victim)
            msg = str(ei.value)
            assert f"rank {victim}" in msg
            assert "3 item(s)" in msg and str(q.qid) in msg
            assert q.outstanding() == before  # no phantom items
            assert q.pushed_remote == 0
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        assert q.get(max_steal_rounds=1) is None  # quiesced
        return True

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = run_spmd(body, ranks=4, conduit=conduit,
                   reliability=_RELIABILITY,
                   survive_rank_death=True)
    assert all(r for r in res if r is not None)


def test_queue_exactly_once_under_kill():
    """Acked pushes between survivors are consumed exactly once even
    with a rank dying mid-stream; steals skip the dead rank instead of
    crashing the drain loop."""
    victim = 1
    flags = {"killed": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    got_all = {r: [] for r in range(4)}
    holder = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        q = DistQueue()
        survivors = [r for r in range(n) if r != victim]
        repro.barrier()
        ready[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(ready[r] for r in range(n)),
                       what="test: past-the-barrier rendezvous")
        if me == victim:
            holder["conduit"].kill_rank(me)
            flags["killed"] = True
            ctx.wait_until(lambda: all(done[r] for r in survivors),
                           what="test: partitioned victim parks")
            return None
        ctx.wait_until(lambda: flags["killed"], what="wait kill")
        ctx.wait_until(lambda: victim in ctx.world.dead_ranks,
                       what="victim declared dead")
        # push a batch to the next *live* rank; every push here is acked
        nxt = survivors[(survivors.index(me) + 1) % len(survivors)]
        per_rank = 8
        q.put_many([(me, i) for i in range(per_rank)], to=nxt)
        while (it := q.get()) is not None:  # unbounded steal rounds
            got_all[me].append(it)
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in survivors),
                       what="rendezvous")
        if me == 0:
            flat = sorted(x for r in survivors for x in got_all[r])
            want = sorted((r, i) for r in survivors
                          for i in range(per_rank))
            assert flat == want  # exactly once: no loss, no dups
        assert q.outstanding() == 0
        return True

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = run_spmd(body, ranks=4, conduit=conduit,
                   reliability=_RELIABILITY,
                   survive_rank_death=True)
    assert all(r for r in res if r is not None)
