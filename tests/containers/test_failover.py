"""Replicated DistHashMap under rank death: promotion, exactly-once,
zero acked-write loss, live rebalancing.

Every kill test runs with ``survive_rank_death=True`` over
``ChaosConduit``: the only injected fault is the deterministic
``kill_rank`` partition, so failures replay exactly.  The victim
partitions itself and parks (a zombie, not an exit), which forces the
survivors through the real detection path — heartbeat silence ->
RankDead after ``peer_timeout`` — rather than the in-process dead-flag
shortcut.  Post-kill rendezvous uses shared-memory flags, never
collectives: a tree barrier would hang on the dead member.
"""

from __future__ import annotations

import pytest

import repro
from repro.containers import DistHashMap, KvOwnerDead
from repro.containers.hashmap import shard_of
from repro.gasnet import ChaosConduit
from repro.gasnet.am import handler_registry
from tests.conftest import run_spmd


RELIABILITY = {"peer_timeout": 0.3, "heartbeat_period": 0.01}


def _key_on_shard(sid: int, nshards: int, prefix: str = "k") -> str:
    return next(f"{prefix}{i}" for i in range(10_000)
                if shard_of(f"{prefix}{i}", nshards) == sid)


def _park_victim(ctx, conduit, flags, done, victim, n):
    """Victim-side kill: partition, signal, wait out the survivors."""
    conduit.kill_rank(ctx.rank)
    flags["killed"] = True
    ctx.wait_until(
        lambda: all(done[r] for r in range(n) if r != victim),
        what="test: partitioned victim parks",
    )


def _sync_shared(ctx, ready, n):
    """Shared-memory rendezvous: no rank proceeds (in particular, no
    rank partitions itself) until every rank has *returned* from the
    preceding barrier — a freshly killed rank can still owe release
    forwarding to tree children that would otherwise strand them."""
    ready[ctx.rank] = True
    ctx.world.poke_all()
    ctx.wait_until(lambda: all(ready[r] for r in range(n)),
                   what="test: past-the-barrier rendezvous")


def test_replicated_roundtrip_and_roles():
    """No-failure baseline: each rank hosts its own primary plus its
    left neighbor's backup, and the map behaves like the unreplicated
    one."""
    def body():
        me, n = repro.myrank(), repro.ranks()
        m = DistHashMap(replicas=1)
        roles = m.local_shards()
        assert roles[me] == "primary"
        assert roles[(me - 1) % n] == "backup"
        m.put(("k", me), me * 11)
        m.update(("c", me), "add", 1, default=0)
        repro.barrier()
        m.refresh()
        for r in range(n):
            assert m.get(("k", r)) == r * 11
            assert m.get(("c", r)) == 1
        assert m.size() == 2 * n
        repro.barrier()
        return True

    conduit = ChaosConduit()
    assert all(repro.spmd(body, ranks=4, conduit=conduit,
                          reliability=RELIABILITY,
                          timeout=30.0))


def test_write_amplification_is_one_record_per_mutation():
    """No failure: every put, update and delete of a present key logs
    exactly one record to the backup: cluster-wide write amplification
    is 1."""
    n_put, n_upd, n_del = 12, 5, 4

    def body():
        me = repro.myrank()
        stats = repro.current_world().ranks[me].stats
        m = DistHashMap(replicas=1)
        # snapshot before the barrier: after it, peers' puts already
        # land on this rank's shards
        before = stats.snapshot()["kv_repl_records"]
        repro.barrier()
        for i in range(n_put):
            m.put((me, i), i)
        for i in range(n_upd):
            m.update((me, i), "add", 1)
        for i in range(n_del):
            assert m.delete((me, i))
        repro.barrier()
        return stats.snapshot()["kv_repl_records"] - before

    conduit = ChaosConduit()
    deltas = repro.spmd(body, ranks=4, conduit=conduit,
                        reliability=RELIABILITY,
                        timeout=30.0)
    assert sum(deltas) == 4 * (n_put + n_upd + n_del)


def test_replicated_put_is_four_active_messages():
    """No failure: a replicated put is the request, the ``kv_repl`` hop
    to the backup and their two replies.  Default heartbeat period:
    pings are AMs too."""
    n_put = 100

    def body():
        me = repro.myrank()
        stats = repro.current_world().ranks[me].stats
        m = DistHashMap(replicas=1)
        keys = [k for k in (f"k{me}-{i}" for i in range(10 * n_put))
                if m.owner_of(k) != me][:n_put]
        assert len(keys) == n_put
        repro.barrier()
        before = stats.snapshot()["ams_sent"]
        for i, k in enumerate(keys):
            m.put(k, i)
        repro.barrier()   # the peer's puts make this rank send too
        sent = stats.snapshot()["ams_sent"] - before
        assert all(m.get(k) == i for i, k in enumerate(keys))
        repro.barrier()
        return sent

    sent = repro.spmd(body, ranks=2, reliability=True, timeout=30.0)
    assert 4.0 <= sum(sent) / (2 * n_put) <= 4.2, sent


@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_die_fails_over_to_the_promoted_backup(conduit):
    """The same guarantee on the backend we ship, with a real crash:
    rank 1 calls ``die()`` (on proc its process exits).  No acked key
    is lost, and puts and ``update()`` calls after the death go through
    the promoted backup."""
    def body():
        me = repro.myrank()
        world = repro.current_world()
        m = DistHashMap(replicas=1, cache=False)
        if me == 0:
            for i in range(60):
                m.put(f"k{i}", i)
        repro.barrier()
        if me == 1:
            repro.die()
        world.ranks[me].wait_until(lambda: 1 in world.dead_ranks,
                                   what="test: rank 1 declared dead")
        if me != 0:
            return None  # keeps serving in the done-or-dead finalize
        lost = [i for i in range(60) if m.get(f"k{i}") != i]
        moved = [k for k in (f"post{i}" for i in range(200))
                 if shard_of(k, 3) == 1][:10]
        for i, k in enumerate(moved):
            m.put(k, i)
            assert m.update(k, "add", 100) == i + 100
        assert [m.get(k) for k in moved] == [i + 100
                                             for i in range(len(moved))]
        return lost, m.owner_of(moved[0])

    res = run_spmd(body, ranks=3, conduit=conduit, reliability=RELIABILITY,
                   survive_rank_death=True, timeout=30.0)
    assert res[0] == ([], 2)


def test_kill_primary_promotes_backup_zero_acked_loss():
    """Acked writes survive the primary's death: the backup is promoted
    and every key written before the kill reads back."""
    victim = 1
    flags = {"killed": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}

    holder = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=1)
        for i in range(30):
            m.put((me, i), me * 100 + i)
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == victim:
            _park_victim(ctx, holder["conduit"], flags, done, victim, n)
            return None
        if me == 0:
            holder["conduit"].kill_rank(victim)
            flags["killed"] = True
        ctx.wait_until(lambda: flags["killed"], what="wait for kill")
        # every acked write — including the victim's — reads back
        for r in range(n):
            for i in range(30):
                assert m.get((r, i)) == r * 100 + i
        # the map keeps taking writes, including on the moved shard
        k = _key_on_shard(victim, n, prefix=f"post{me}-")
        m.put(k, me)
        assert m.get(k) == me
        stats = ctx.stats.snapshot()
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        return stats["kv_promotions"]

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = repro.spmd(body, ranks=4, conduit=conduit,
                     reliability=RELIABILITY,
                     survive_rank_death=True, timeout=30.0)
    promos = [r for r in res if r is not None]
    assert sum(promos) >= 1  # exactly one rank promoted the shard


def test_kill_primary_mid_multi_put():
    """multi_put spanning every shard retries the affected keys against
    the promoted backup; acked batches are never lost."""
    victim = 1
    flags = {"killed": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    holder = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=1)
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == victim:
            _park_victim(ctx, holder["conduit"], flags, done, victim, n)
            return None
        if me == 0:
            # partition the victim while batches are in flight:
            # every batch spans all shards including the victim's
            acked = {}
            for round_ in range(6):
                if round_ == 2:
                    holder["conduit"].kill_rank(victim)
                    flags["killed"] = True
                batch = {f"r{round_}:{me}:{i}": (round_, i)
                         for i in range(32)}
                m.multi_put(batch)   # returns only once acked
                acked.update(batch)
            m.refresh()
            got = m.multi_get(sorted(acked))
            assert got == [acked[k] for k in sorted(acked)]
        else:
            ctx.wait_until(lambda: flags["killed"], what="wait kill")
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        return True

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = repro.spmd(body, ranks=4, conduit=conduit,
                     reliability=RELIABILITY,
                     survive_rank_death=True, timeout=30.0)
    assert all(r for r in res if r is not None)


def test_update_exactly_once_across_failover():
    """Counter increments survive the failover exactly once: the total
    equals the number of acked update() calls even though some retried
    against the promoted backup."""
    victim = 1
    flags = {"killed": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    holder = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=1)
        key = _key_on_shard(victim, n, prefix="ctr")
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == victim:
            _park_victim(ctx, holder["conduit"], flags, done, victim, n)
            return None
        acked = 0
        for i in range(10):
            if me == 0 and i == 4:
                holder["conduit"].kill_rank(victim)
                flags["killed"] = True
            m.update(key, "add", 1, default=0)  # returns only once acked
            acked += 1
        ctx.wait_until(lambda: flags["killed"], what="wait kill")
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        m.refresh()
        total = m.get(key)
        return acked, total

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = repro.spmd(body, ranks=4, conduit=conduit,
                     reliability=RELIABILITY,
                     survive_rank_death=True, timeout=30.0)
    alive = [r for r in res if r is not None]
    want = sum(acked for acked, _total in alive)
    for _acked, total in alive:
        assert total == want  # no lost and no double-applied increment


def test_kill_between_replication_log_and_ack():
    """The nastiest window: the backup applied the replication record
    but the primary died before acking the client.  The client's retry
    lands on the promoted backup, which replays the recorded result —
    applied exactly once."""
    victim = 1
    client = 3
    flags = {"killed": False, "armed": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    holder = {}
    orig = handler_registry["kv_repl"]

    def killing_repl(ctx, am):
        # Partition the primary the instant its replication record
        # reaches the backup: the record applies below, but the ack —
        # and the primary's reply to the client — are blackholed.
        if flags["armed"] and am.src_rank == victim:
            flags["armed"] = False
            holder["conduit"].kill_rank(victim)
            flags["killed"] = True
        orig(ctx, am)

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=1)
        key = _key_on_shard(victim, n, prefix="gap")
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == client:
            flags["armed"] = True
            new = m.update(key, "add", 1, default=0)  # spans the kill
            assert new == 1
            assert m.get(key) == 1
        elif me == victim:
            ctx.wait_until(lambda: flags["killed"], what="wait own kill")
            _park_victim(ctx, holder["conduit"], flags, done, victim, n)
            return None
        ctx.wait_until(lambda: flags["killed"], what="wait kill")
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        m.refresh()
        return m.get(key)

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    handler_registry["kv_repl"] = killing_repl
    try:
        res = repro.spmd(body, ranks=4, conduit=conduit,
                         reliability=RELIABILITY,
                         survive_rank_death=True, timeout=30.0)
    finally:
        handler_registry["kv_repl"] = orig
    assert not flags["armed"]  # the window actually fired
    alive = [r for r in res if r is not None]
    assert alive and all(v == 1 for v in alive)


def test_rebalance_migrates_data_and_update_records():
    """Live migration ships the store *and* the exactly-once update
    records: a duplicate of a pre-migration update replayed at the new
    primary returns the recorded result instead of re-applying."""
    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=1)
        sid, target = 0, 2
        key = _key_on_shard(sid, n, prefix="mig")
        bulk = {f"{key}:{i}": i for i in range(20)
                if shard_of(f"{key}:{i}", n) == sid}
        if me == 0:
            m.multi_put(bulk)
            # a raw update with a pinned op id, so it can be replayed
            fut = ctx.send_am(0, "kv_update",
                              args=(m.map_id, sid, 777_001),
                              payload=(key, "add", (5,), 0, True),
                              expect_reply=True)
            (_k, _sid, _ep, *_), new = fut.get()
            assert new == 5
        repro.barrier()
        if me == 3:
            m.rebalance(sid, target)
        repro.barrier()
        m.refresh()
        assert m.local_shards().get(sid) == (
            "primary" if me == target else m.local_shards().get(sid))
        if me == target:
            assert m.local_shards()[sid] == "primary"
        # data survived the move
        for k, v in bulk.items():
            assert m.get(k) == v
        repro.barrier()
        if me == 0:
            # duplicate of the pre-migration update, sent to the NEW
            # primary: must be deduped via the migrated record
            fut = ctx.send_am(target, "kv_update",
                              args=(m.map_id, sid, 777_001),
                              payload=(key, "add", (5,), 0, True),
                              expect_reply=True)
            (_k, _sid, _ep, *_), new = fut.get()
            assert new == 5          # the recorded result, not 10
            assert m.get(key) == 5   # not double-applied
        repro.barrier()
        return True

    conduit = ChaosConduit()
    assert all(repro.spmd(body, ranks=4, conduit=conduit,
                          reliability=RELIABILITY,
                          survive_rank_death=True, timeout=30.0))


def test_cached_keys_follow_the_shard_to_its_promoted_backup():
    """A client holding cached keys of a shard whose primary dies reads
    the promoted backup's values — no ``refresh()`` — from the op that
    fails it over on: what it cached was true of the dead primary's
    copy, and goes with it."""
    victim, reader = 1, 3
    flags = {"killed": False, "rewritten": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    holder = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=1)
        keys = [k for k in (f"fo{i}" for i in range(400))
                if shard_of(k, n) == victim][:21]
        *held, probe = keys
        if me == 0:
            m.multi_put(dict.fromkeys(keys, "old"))
        repro.barrier()
        if me == reader:
            assert m.multi_get(held) == ["old"] * 20
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == victim:
            _park_victim(ctx, holder["conduit"], flags, done, victim, n)
            return None
        if me == 0:
            holder["conduit"].kill_rank(victim)
            flags["killed"] = True
            for k in held[:10]:         # lands on the promoted backup
                m.put(k, "new")
            flags["rewritten"] = True
            ctx.world.poke_all()
        ctx.wait_until(lambda: flags["rewritten"], what="wait rewrite")
        if me == reader:
            hits = m.cache_hits
            assert m.get(held[0]) == "old"      # cached, never asked
            assert m.cache_hits == hits + 1
            assert m.owner_of(probe) == victim
            assert m.get(probe) == "old"        # fails over, repoints
            assert m.owner_of(probe) == (victim + 1) % n
            assert m.multi_get(held) == ["new"] * 10 + ["old"] * 10
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        return True

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = repro.spmd(body, ranks=4, conduit=conduit,
                     reliability=RELIABILITY,
                     survive_rank_death=True, timeout=30.0)
    assert all(r for r in res if r is not None)


def test_cached_keys_follow_a_rebalanced_shard():
    """... and likewise once a tombstone has redirected it to the rank a
    shard migrated to."""
    def body():
        me, n = repro.myrank(), repro.ranks()
        m = DistHashMap(replicas=1)
        sid, target, reader = 0, 2, 3
        keys = [k for k in (f"rb{i}" for i in range(400))
                if shard_of(k, n) == sid][:21]
        *held, probe = keys
        if me == 1:
            m.multi_put(dict.fromkeys(keys, "old"))
        repro.barrier()
        if me == reader:
            assert m.multi_get(held) == ["old"] * 20
        repro.barrier()
        if me == 1:
            m.rebalance(sid, target)
            m.multi_put(dict.fromkeys(held[:10], "new"))
        repro.barrier()
        if me == reader:
            assert m.owner_of(probe) == sid     # nobody told it
            assert m.get(held[0]) == "old"      # cached, never asked
            assert m.get(probe) == "old"        # redirected, repoints
            assert m.owner_of(probe) == target
            assert m.multi_get(held) == ["new"] * 10 + ["old"] * 10
        repro.barrier()
        return True

    conduit = ChaosConduit()
    assert all(repro.spmd(body, ranks=4, conduit=conduit,
                          reliability=RELIABILITY,
                          survive_rank_death=True, timeout=30.0))


def test_unreplicated_multi_ops_fail_fast_with_diagnostic():
    """Without replication a dead owner is not survivable — but the
    failure must be a diagnostic naming the dead rank and the affected
    keys, not a hang or a bare timeout."""
    victim = 1
    flags = {"killed": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    holder = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=0)
        mine = [_key_on_shard(s, n, prefix=f"ff{s}-") for s in range(n)]
        if me == 0:
            m.multi_put({k: 1 for k in mine})
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == victim:
            _park_victim(ctx, holder["conduit"], flags, done, victim, n)
            return None
        if me == 0:
            holder["conduit"].kill_rank(victim)
            flags["killed"] = True
            with pytest.raises(KvOwnerDead) as ei:
                m.multi_get(mine)
            assert ei.value.owner == victim
            victim_keys = [k for k in mine
                           if shard_of(k, n) == victim]
            assert set(ei.value.keys) >= set(victim_keys)
            msg = str(ei.value)
            assert str(victim) in msg and victim_keys[0] in msg
            with pytest.raises(KvOwnerDead):
                m.multi_put({k: 2 for k in victim_keys})
            with pytest.raises(KvOwnerDead):
                m.put(victim_keys[0], 3)
        else:
            ctx.wait_until(lambda: flags["killed"], what="wait kill")
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        return True

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = repro.spmd(body, ranks=4, conduit=conduit,
                     reliability=RELIABILITY,
                     survive_rank_death=True, timeout=30.0)
    assert all(r for r in res if r is not None)


def test_read_replicas_serve_reads_and_survive():
    """``read_replicas=True`` round-robins reads across primary and
    backup, serves locally-hosted backup copies without AMs, and stays
    correct across a failover."""
    victim = 1
    flags = {"killed": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    holder = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=1, read_replicas=True, cache=False)
        m.put(("rr", me), me)
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == victim:
            _park_victim(ctx, holder["conduit"], flags, done, victim, n)
            return None
        for _ in range(4):          # both parities of the round-robin
            for r in range(n):
                assert m.get(("rr", r)) == r
        if me == 0:
            holder["conduit"].kill_rank(victim)
            flags["killed"] = True
        ctx.wait_until(lambda: flags["killed"], what="wait kill")
        for _ in range(4):
            for r in range(n):
                assert m.get(("rr", r)) == r
        stats = ctx.stats.snapshot()
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        return stats["kv_replica_reads"]

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = repro.spmd(body, ranks=4, conduit=conduit,
                     reliability=RELIABILITY,
                     survive_rank_death=True, timeout=30.0)
    assert sum(r for r in res if r is not None) > 0
