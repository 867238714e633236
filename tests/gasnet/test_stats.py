"""CommStats counter tests."""

import pytest

from repro.gasnet.stats import CommStats, aggregate

#: The counter table, in declaration order.  The bench spine's
#: ``COUNT_KEYS`` / ``RMA_KEYS`` and ``metrics_reduce()`` read these
#: names from ``snapshot()``; renaming or reordering one is an API break.
SNAPSHOT_KEYS = (
    "puts", "put_bytes", "gets", "get_bytes", "atomics", "puts_indexed",
    "gets_indexed", "atomic_batches", "batched_elements", "ams_sent",
    "am_bytes", "ams_handled", "replies_sent", "barriers",
    "collectives", "coll_msgs", "local_accesses", "remote_accesses",
    "am_retransmits", "acks_sent", "stale_replies", "heartbeats_sent",
    "kv_gets",
    "kv_puts", "kv_deletes", "kv_updates", "kv_multi_ops",
    "kv_batched_keys", "kv_cache_hits", "kv_cache_misses",
    "kv_repl_records", "kv_failovers", "kv_promotions",
    "kv_migrations", "dead_peer_fastfails",
    "wire_frames", "wire_fixed", "pickle_fallbacks", "wire_byref",
    "wire_ring_slots", "wire_ring_frames",
    "wire_ring_spills", "wire_ring_full_backoffs",
    "wire_ring_doorbells", "wire_ring_wakeups",
    "wq_steals_attempted", "wq_steals_ok", "slow_ops_flagged",
)


def test_snapshot_keys_and_order_are_pinned():
    assert tuple(CommStats().snapshot()) == SNAPSHOT_KEYS


@pytest.mark.parametrize("name", ["putz", "_lock", "messages", "snapshot"])
def test_add_undeclared_name_raises_and_changes_nothing(name):
    s = CommStats()
    s.add(puts=2)
    before = s.snapshot()
    with pytest.raises(AttributeError, match=name):
        s.add(puts=1, **{name: 1})
    assert s.snapshot() == before
    s.add(puts=1)  # the lock was not left held
    assert s.puts == 3


@pytest.mark.parametrize("used_pickle", [False, True])
@pytest.mark.parametrize("by_ref", [False, True])
@pytest.mark.parametrize("is_reply", [False, True])
def test_record_am_wire_is_the_generic_add_spelled_out(used_pickle, by_ref,
                                                       is_reply):
    """The per-send recorder is hand-written for speed only: it must
    count exactly what the table's ``add`` would."""
    fast, generic = CommStats(), CommStats()
    fast.record_am_wire(40, used_pickle, by_ref, is_reply)
    generic.add(ams_sent=1, am_bytes=40, replies_sent=is_reply,
                wire_frames=1, pickle_fallbacks=used_pickle,
                wire_fixed=not used_pickle, wire_byref=by_ref)
    assert fast.snapshot() == generic.snapshot()


#: Every other fixed-argument recorder, with each of its branches:
#: ``(recorder, args, the add() deltas it must charge)``.
RECORDERS = [
    ("record_am_handled", (), dict(ams_handled=1)),
    ("record_put", (24,), dict(puts=1, put_bytes=24, remote_accesses=1)),
    ("record_get", (24,), dict(gets=1, get_bytes=24, remote_accesses=1)),
    ("record_atomic", (), dict(atomics=1, remote_accesses=1)),
    ("record_put_indexed", (64, 8),
     dict(puts_indexed=1, put_bytes=64, batched_elements=8,
          remote_accesses=8)),
    ("record_get_indexed", (64, 8),
     dict(gets_indexed=1, get_bytes=64, batched_elements=8,
          remote_accesses=8)),
    ("record_atomic_batch", (128,),
     dict(atomic_batches=1, batched_elements=128, remote_accesses=128)),
    ("record_local", (), dict(local_accesses=1)),
    ("record_local", (7,), dict(local_accesses=7)),
    ("record_collective", (False,), dict(collectives=1, barriers=False)),
    ("record_collective", (True,), dict(collectives=1, barriers=True)),
    ("record_coll_msgs", (3,), dict(coll_msgs=3)),
    ("record_kv_get_hosted", (), dict(kv_gets=1, local_accesses=1)),
    ("record_kv_get_cached", (), dict(kv_gets=1, kv_cache_hits=1)),
    ("record_kv_get_missed", (False,),
     dict(kv_gets=1, kv_cache_misses=False)),
    ("record_kv_get_missed", (True,), dict(kv_gets=1, kv_cache_misses=True)),
    ("record_kv_puts", (5,), dict(kv_puts=5)),
    ("record_kv_update", (), dict(kv_updates=1)),
    ("record_kv_delete", (), dict(kv_deletes=1)),
    ("record_kv_multi", (2, 9), dict(kv_multi_ops=2, kv_batched_keys=9)),
    ("record_kv_repl", (4,), dict(kv_repl_records=4)),
]


@pytest.mark.parametrize(
    "recorder, args, deltas", RECORDERS,
    ids=[f"{name}{args}" for name, args, _ in RECORDERS])
def test_a_recorder_is_the_generic_add_spelled_out(recorder, args, deltas):
    """Like :meth:`CommStats.record_am_wire`, the per-op recorders are
    hand-written for speed only: each must count exactly what the
    equivalent ``add`` would, twice over (so an assignment where an
    increment belongs shows), and leave its lock free."""
    fast, generic = CommStats(), CommStats()
    for _ in range(2):
        getattr(fast, recorder)(*args)
        generic.add(**deltas)
    assert fast.snapshot() == generic.snapshot()
    assert all(type(v) is int for v in fast.snapshot().values())
    assert not fast._lock.locked()


def test_every_recorder_is_in_a_table():
    assert ({name for name in dir(CommStats) if name.startswith("record_")}
            == {"record_am_wire"} | {name for name, _a, _d in RECORDERS})


def test_add_bool_deltas_count_as_ints():
    s = CommStats()
    s.add(wire_frames=1, pickle_fallbacks=True, wire_fixed=False,
          wire_byref=True)
    s.add(wire_frames=1, pickle_fallbacks=False, wire_fixed=True)
    snap = s.snapshot()
    assert (snap["wire_frames"], snap["pickle_fallbacks"],
            snap["wire_fixed"], snap["wire_byref"]) == (2, 1, 1, 1)
    assert all(type(v) is int for v in snap.values())
    assert s.wire_fixed_rate == 0.5


def test_counters_accumulate():
    s = CommStats()
    s.add(puts=1, put_bytes=100, remote_accesses=1)
    s.add(puts=1, put_bytes=50, remote_accesses=1)
    s.add(gets=1, get_bytes=8, remote_accesses=1)
    s.add(atomics=1, remote_accesses=1)
    s.add(ams_sent=1, am_bytes=40)
    s.add(ams_handled=1)
    s.add(replies_sent=1)
    s.add(barriers=1)
    s.add(collectives=1)
    s.add(local_accesses=1)
    snap = s.snapshot()
    assert snap["puts"] == 2 and snap["put_bytes"] == 150
    assert snap["gets"] == 1 and snap["get_bytes"] == 8
    assert snap["atomics"] == 1
    assert snap["ams_sent"] == 1 and snap["am_bytes"] == 40
    assert snap["local_accesses"] == 1
    assert snap["remote_accesses"] == 4  # puts + gets + atomics


def test_derived_properties():
    s = CommStats()
    s.add(puts=1, put_bytes=10, remote_accesses=1)
    s.add(gets=1, get_bytes=20, remote_accesses=1)
    s.add(ams_sent=1, am_bytes=30)
    assert s.messages == 3
    assert s.bytes_moved == 60


def test_reset():
    s = CommStats()
    s.add(puts=1, put_bytes=10, remote_accesses=1)
    s.reset()
    assert s.snapshot()["puts"] == 0
    assert s.messages == 0


def test_aggregate():
    a, b = CommStats(), CommStats()
    a.add(puts=1, put_bytes=1, remote_accesses=1)
    b.add(puts=1, put_bytes=2, remote_accesses=1)
    b.add(gets=1, get_bytes=4, remote_accesses=1)
    total = aggregate([a, b])
    assert total["puts"] == 2
    assert total["put_bytes"] == 3
    assert total["gets"] == 1


def test_detector_counters_snapshot_reset_aggregate():
    s = CommStats()
    s.add(stale_replies=1)
    s.add(stale_replies=1)
    s.add(dead_peer_fastfails=1)
    assert s.snapshot()["stale_replies"] == 2
    t = CommStats()
    t.add(stale_replies=1)
    assert aggregate([s, t])["stale_replies"] == 3
    s.reset()
    assert s.snapshot()["stale_replies"] == 0
    assert s.snapshot()["dead_peer_fastfails"] == 0


def _charge_by_add(s: CommStats) -> None:
    s.add(puts_indexed=1, put_bytes=32, batched_elements=4,
          remote_accesses=4)


def _charge_by_recorder(s: CommStats) -> None:
    s.record_put_indexed(32, 4)


def test_derived_properties_consistent_under_concurrent_updates(
        charge=_charge_by_add):
    """messages/bytes_moved/coalescing_ratio read several counters; they
    must come from one locked snapshot, never a torn multi-field read
    (e.g. a put counted in ``puts`` but not yet in ``put_bytes``),
    whether the writers ``charge`` through ``add`` or a recorder."""
    import threading

    s = CommStats()
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            charge(s)

    def reader():
        while not stop.is_set():
            snap = s.snapshot()
            # Invariants that hold in every consistent state:
            if snap["put_bytes"] != 8 * snap["batched_elements"]:
                torn.append(snap)
            if s.batched_ops and s.coalescing_ratio != 4.0:
                torn.append("ratio")

    threads = [threading.Thread(target=writer) for _ in range(2)] + \
              [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    import time

    time.sleep(0.2)
    stop.set()
    for t in threads:
        t.join()
    assert not torn
    assert s.messages == s.batched_ops == s.snapshot()["puts_indexed"]
    assert s.coalescing_ratio == 4.0


def test_derived_properties_consistent_under_concurrent_recorder_updates():
    test_derived_properties_consistent_under_concurrent_updates(
        charge=_charge_by_recorder)


def test_kv_counters_snapshot_reset_aggregate():
    s = CommStats()
    s.add(kv_gets=1)
    s.add(kv_gets=5)
    s.add(kv_puts=2)
    s.add(kv_deletes=1)
    s.add(kv_updates=1)
    s.add(kv_multi_ops=3, kv_batched_keys=60)
    s.add(kv_cache_hits=1)
    s.add(kv_cache_hits=1)
    s.add(kv_cache_misses=1)
    snap = s.snapshot()
    assert snap["kv_gets"] == 6
    assert snap["kv_puts"] == 2
    assert snap["kv_deletes"] == 1
    assert snap["kv_updates"] == 1
    assert snap["kv_multi_ops"] == 3 and snap["kv_batched_keys"] == 60
    assert snap["kv_cache_hits"] == 2 and snap["kv_cache_misses"] == 1
    assert s.kv_cache_hit_rate == 2 / 3
    t = CommStats()
    t.add(kv_multi_ops=1, kv_batched_keys=10)
    assert aggregate([s, t])["kv_batched_keys"] == 70
    s.reset()
    assert all(v == 0 for k, v in s.snapshot().items()
               if k.startswith("kv_"))
    assert s.kv_cache_hit_rate == 0.0


def test_coalescing_ratio_covers_kv_traffic():
    # RMA-only traffic: ratio unchanged from the PR 1 definition.
    s = CommStats()
    s.add(puts_indexed=1, put_bytes=160, batched_elements=20,
          remote_accesses=20)
    assert s.coalescing_ratio == 20.0
    # Container multi-ops fold into the same elements-per-batched-op.
    s.add(kv_multi_ops=3, kv_batched_keys=40)
    assert s.coalescing_ratio == (20 + 40) / (1 + 3)
    # KV-only traffic works too (no indexed RMA issued at all).
    t = CommStats()
    t.add(kv_multi_ops=2, kv_batched_keys=30)
    assert t.coalescing_ratio == 15.0
    assert CommStats().coalescing_ratio == 0.0
