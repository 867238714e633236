"""DistHashMap: sharding, point ops, batching, cache, telemetry."""

import pickle
import zlib

import pytest

import repro
from repro.containers import DistHashMap, shard_of
from repro.containers.shard import CHANGED_WINDOW
from repro.core import collectives
from repro.core.world import current
from repro.errors import PgasError
from tests.conftest import run_spmd


def test_shard_of_stable_and_in_range():
    for key in ["a", ("k", 3), 17, b"bytes", frozenset({1, 2}), -5,
                1 << 80, ""]:
        owner = shard_of(key, 4)
        assert 0 <= owner < 4
        assert owner == shard_of(key, 4)  # deterministic
    # str/bytes/int hash their raw bytes — no pickling on the hot path.
    assert shard_of("a", 4) == zlib.crc32(b"a") % 4
    assert shard_of(b"bytes", 4) == zlib.crc32(b"bytes") % 4
    assert shard_of(17, 4) == zlib.crc32(
        (17).to_bytes(1, "little", signed=True)) % 4
    # Everything else keeps the pickled-crc32 fallback, so existing
    # placements of exotic keys are unchanged.
    for key in [("k", 3), frozenset({1, 2}), None, 3.5]:
        assert shard_of(key, 4) == \
            zlib.crc32(pickle.dumps(key, protocol=4)) % 4


def test_put_get_delete_roundtrip(nranks):
    def body():
        me = repro.myrank()
        m = DistHashMap()
        m.put(("user", me), {"rank": me})
        repro.barrier()
        for r in range(repro.ranks()):
            assert m.get(("user", r)) == {"rank": r}
        with pytest.raises(KeyError):
            m.get("absent")
        assert m.get("absent", default=0) == 0
        repro.barrier()
        if me == 0:
            assert m.delete(("user", 0)) is True
            assert m.delete(("user", 0)) is False
        repro.barrier()
        m.refresh()
        assert m.get(("user", 0), default="gone") == "gone"
        assert m.size() == repro.ranks() - 1
        return True

    assert all(run_spmd(body, ranks=nranks))


def test_values_cross_ranks_by_value():
    """Mutating a value after put (or the returned value after get) must
    not reach into the owner's store — SMP passes references."""
    def body():
        me = repro.myrank()
        m = DistHashMap()
        if me == 0:
            v = [1, 2]
            m.put("k", v)
            v.append(3)  # must not be visible to anyone
        repro.barrier()
        got = m.get("k")
        assert got == [1, 2]
        got.append(99)  # must not corrupt the store or the cache
        assert m.get("k") == [1, 2] or got is not m.get("k")
        repro.barrier()
        m.invalidate_cache()
        assert m.get("k") == [1, 2]
        return True

    assert all(run_spmd(body, ranks=4))


def test_multi_get_multi_put_alignment():
    def body():
        me = repro.myrank()
        m = DistHashMap()
        if me == 0:
            m.multi_put([(f"k{i}", i * i) for i in range(64)])
        repro.barrier()
        m.refresh()
        keys = [f"k{i}" for i in range(64)] + ["missing", "k0"]
        vals = m.multi_get(keys, default=-1)
        assert vals == [i * i for i in range(64)] + [-1, 0]
        with pytest.raises(KeyError):
            m.multi_get(["k1", "nope"])
        assert m.multi_get([]) == []
        return True

    assert all(run_spmd(body, ranks=4))


def test_multi_get_issues_one_am_per_owner():
    """The batching contract: 1k keys at 4 ranks -> <= 3 request AMs."""
    def body():
        me = repro.myrank()
        m = DistHashMap(cache=False)
        keys = [f"key:{i}" for i in range(1000)]
        if me == 0:
            m.multi_put({k: i for i, k in enumerate(keys)})
            ctx = repro.current_world().ranks[0]
            before = ctx.stats.snapshot()["ams_sent"]
            vals = m.multi_get(keys)
            ams = ctx.stats.snapshot()["ams_sent"] - before
            assert vals == list(range(1000))
            assert ams <= repro.ranks() - 1, ams
            s = ctx.stats.snapshot()
            assert s["kv_multi_ops"] <= 2 * (repro.ranks() - 1)
            assert s["kv_batched_keys"] >= 1000
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_update_named_ops_and_callable():
    def body():
        me = repro.myrank()
        m = DistHashMap()
        m.update("sum", "add", 1, default=0)
        m.update("peak", "max", me, default=-1)
        repro.barrier()
        m.refresh()
        assert m.get("sum") == repro.ranks()
        assert m.get("peak") == repro.ranks() - 1
        if me == 0:
            with pytest.raises(KeyError):
                m.update("absent", "add", 1)  # no default -> KeyError
            with pytest.raises(PgasError):
                m.update("sum", "no-such-op", 1)
            assert m.update("lst", _snoc, 7, default=[]) == [7]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def _snoc(old, x):
    return old + [x]


def test_cache_hits_and_epoch_invalidation():
    def body():
        me = repro.myrank()
        m = DistHashMap(cache=True)
        owner_probe = "probe"
        if me == 0:
            m.put(owner_probe, 1)
        repro.barrier()
        readers = [r for r in range(repro.ranks())
                   if r != shard_of(owner_probe, repro.ranks())]
        if me == readers[0]:
            assert m.get(owner_probe) == 1      # miss, fills cache
            assert m.get(owner_probe) == 1      # hit
            assert m.cache_hits >= 1
            # Owner-side mutation bumps the epoch; the next op that
            # contacts the owner observes it and drops the stale entry.
            m.update(owner_probe, "add", 10)    # via owner: epoch moves
            assert m.get(owner_probe) == 11
        repro.barrier()
        # refresh() is the explicit fence: after it, everyone sees 11.
        m.refresh()
        assert m.get(owner_probe) == 11
        repro.barrier()
        nc = DistHashMap(cache=False)
        nc.put(("x", me), me)
        repro.barrier()
        assert nc.cache_hit_rate == 0.0
        return True

    assert all(run_spmd(body, ranks=4))


# -- the cache drops the key that changed, not the shard it lives in --------
# Two ranks; rank 0 is the client, every key lives on rank 1's shard.

CONDUITS = ("smp", "proc+socket")
_LOOKUPS = ("kv_cache_hits", "kv_cache_misses", "ams_sent")


def _on_shard_1(count: int, prefix: str) -> list:
    keys = (f"{prefix}{i}" for i in range(4 * count + 64))
    return [k for k in keys if shard_of(k, 2) == 1][:count]


def _counted(fn) -> tuple:
    """``fn()`` and what it added to this rank's lookup counters."""
    stats = current().stats
    before = stats.snapshot()
    out = fn()
    after = stats.snapshot()
    return out, tuple(after[k] - before[k] for k in _LOOKUPS)


def _owner_changes(m, key, how):
    if how == "put":
        m.put(key, "new")
    elif how == "delete":
        assert m.delete(key)
    else:
        m.update(key, "add", 1)


@pytest.mark.parametrize("how", ["put", "delete", "update"])
@pytest.mark.parametrize("conduit", CONDUITS)
def test_one_changed_key_costs_one_miss(conduit, how):
    """Rank 0 holds 100 keys of rank 1's shard, rank 1 changes one of
    them, rank 0 contacts the shard once (a put of another key): the
    re-read is 99 hits and one fetch — it was 100 fetches when a newer
    epoch emptied the shard."""
    def body():
        me = repro.myrank()
        m = DistHashMap()
        *keys, other = _on_shard_1(101, "c")
        if me == 1:
            m.multi_put(dict.fromkeys(keys, 0))
        repro.barrier()
        if me == 0:
            assert m.multi_get(keys) == [0] * 100
        repro.barrier()
        if me == 1:
            _owner_changes(m, keys[7], how)
        repro.barrier()
        if me == 0:
            assert m.get(keys[7]) == 0          # stale until a contact
            m.put(other, "x")                   # the contact
            vals, (hits, misses, ams) = _counted(
                lambda: [m.get(k, default=None) for k in keys])
            assert (hits, misses, ams) == (99, 1, 1)
            assert vals.pop(7) == {"put": "new", "delete": None,
                                   "update": 1}[how]
            assert vals == [0] * 99
            assert m.get(other) == "x"          # written through
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))


@pytest.mark.parametrize("conduit", CONDUITS)
def test_multi_get_over_a_warm_cache_fetches_only_what_it_lacks(conduit):
    def body():
        me = repro.myrank()
        m = DistHashMap()
        keys = _on_shard_1(60, "w")
        warm, cold = keys[:50], keys[50:]
        if me == 1:
            m.multi_put({k: i for i, k in enumerate(keys)})
        repro.barrier()
        if me == 0:
            m.multi_get(warm)
        repro.barrier()
        if me == 1:
            m.multi_put(dict.fromkeys(warm[:3], "new"))
        repro.barrier()
        if me == 0:
            stats = current().stats
            batched = stats.snapshot()["kv_batched_keys"]
            vals, (hits, misses, ams) = _counted(
                lambda: m.multi_get(keys))
            assert (hits, misses, ams) == (50, 10, 1)
            assert stats.snapshot()["kv_batched_keys"] - batched == 10
            assert vals == list(range(60))      # 3 of them stale: allowed
            # that AM was a contact: its reply named the 3, and only them
            vals, (hits, misses, ams) = _counted(
                lambda: m.multi_get(keys))
            assert (hits, misses, ams) == (57, 3, 1)
            assert vals == ["new"] * 3 + list(range(3, 60))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))


@pytest.mark.parametrize("conduit", CONDUITS)
def test_more_changes_than_the_shard_remembers_drop_it_once(conduit):
    def body():
        me = repro.myrank()
        m = DistHashMap()
        *keys, other = _on_shard_1(101, "o")
        churn = _on_shard_1(CHANGED_WINDOW + 1, "churn")
        if me == 1:
            m.multi_put(dict.fromkeys(keys, 0))
        repro.barrier()
        if me == 0:
            m.multi_get(keys)
        repro.barrier()
        if me == 1:
            for k in churn:             # none of them a key rank 0 holds
                m.put(k, 1)
        repro.barrier()
        if me == 0:
            assert m.get(other, default=None) is None   # the contact
            _v, (hits, misses, ams) = _counted(lambda: m.multi_get(keys))
            assert (hits, misses, ams) == (0, 100, 1)
            _v, (hits, misses, ams) = _counted(lambda: m.multi_get(keys))
            assert (hits, misses, ams) == (100, 0, 0)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))


@pytest.mark.parametrize("conduit", CONDUITS)
def test_refresh_is_still_the_fence(conduit):
    def body():
        me = repro.myrank()
        m = DistHashMap()
        (key,) = _on_shard_1(1, "f")
        if me == 1:
            m.put(key, "old")
        repro.barrier()
        if me == 0:
            assert m.get(key) == "old"
        repro.barrier()
        if me == 1:
            m.put(key, "new")
        repro.barrier()
        if me == 0:
            assert m.get(key) == "old"          # no contact since
            m.refresh()
            assert m.get(key) == "new"
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))


def test_two_maps_are_isolated():
    """Collectively constructed maps get distinct ids and never see
    each other's keys (the ctor rendezvous guard underwrites this)."""
    def body():
        me = repro.myrank()
        a = DistHashMap()
        b = DistHashMap()
        assert a.map_id != b.map_id
        a.put(("k", me), "a")
        repro.barrier()
        assert b.get(("k", me), default=None) is None
        assert b.size() == 0
        assert a.size() == repro.ranks()
        return True

    assert all(run_spmd(body, ranks=3))


def test_misordered_construction_raises():
    """A rank whose rendezvous value is not this map's — it built
    something else in this place — fails the constructor loudly."""
    def body():
        if repro.myrank() == 1:
            collectives.bcast(None, root=0)
            collectives.allgather(("Other", 99, ()))
            return True
        with pytest.raises(PgasError, match="rank 1 constructed Other#99"):
            DistHashMap()
        return True

    assert all(run_spmd(body, ranks=2))


def test_kv_telemetry_histograms_and_flight():
    def body():
        me = repro.myrank()
        m = DistHashMap()
        m.put(("k", me), me)
        repro.barrier()
        m.multi_get([("k", r) for r in range(repro.ranks())])
        m.get(("k", (me + 1) % repro.ranks()))
        repro.barrier()
        tel = repro.current_world().ranks[me].telemetry
        flight_n = len(tel.flight)
        merged = set()
        if me == 0:
            merged = set(
                repro.current_world().telemetry.merged_histograms()
            )
        repro.barrier()
        return merged, flight_n

    res = run_spmd(body, ranks=4, telemetry="full")
    names = res[0][0]
    assert {"kv_put", "kv_get", "kv_multi"} <= names
    assert any(flight_n > 0 for _names, flight_n in res)


def test_contains_and_local_introspection():
    def body():
        me = repro.myrank()
        m = DistHashMap()
        m.put(("mine", me), me)
        repro.barrier()
        assert ("mine", 0) in m
        assert ("nope",) not in m
        total = collectives.allreduce(m.local_size())
        assert total == repro.ranks()
        assert all(k in m for k in m.local_keys())
        return True

    assert all(run_spmd(body, ranks=3))
