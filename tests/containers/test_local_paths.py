"""The client's local fast paths re-validate under the handler lock.

``get``/``multi_get`` (and the writes) peek at the hosted shard without
the lock to decide whether the lock is worth taking.  Whatever lands
between that peek and the lock — a ``kv_migrate``, a ``kv_drop``, a
deposition — retires the copy, and the op has to chase the redirect on
the wire, not read or write the retired copy.  ``multi_get`` used to
skip the second look and served such a read from the tombstoned store.
"""

from __future__ import annotations

import pytest

import repro
from repro.containers import DistHashMap
from repro.containers.hashmap import _map_state, shard_of
from tests.conftest import run_spmd


class _MigrationLandsFirst:
    """Stands in for rank 0's handler lock: the first acquisition is
    preceded by exactly what a live migration of shard 0 to rank 1 does
    to both ranks' hosted maps — deterministic, no timing involved."""

    def __init__(self, real, migrate):
        self.real = real
        self.migrate = migrate

    def __enter__(self):
        migrate, self.migrate = self.migrate, None
        if migrate is not None:
            with self.real:
                migrate()
        return self.real.__enter__()

    def __exit__(self, *exc):
        return self.real.__exit__(*exc)


@pytest.mark.parametrize("read", [
    lambda m, key: m.get(key),
    lambda m, key: m.multi_get([key])[0],
    lambda m, key: m.multi_get([key, key], default=None)[1],
], ids=["get", "multi_get", "multi_get-duplicate-key"])
def test_local_read_chases_a_migration_that_won_the_lock(read):
    def body():
        me, n = repro.myrank(), repro.ranks()
        world = repro.current_world()
        ctx = world.ranks[me]
        m = DistHashMap(cache=False)
        key = next(f"k{i}" for i in range(100)
                   if shard_of(f"k{i}", n) == 0)
        if me == 0:
            m.put(key, "before the move")
        repro.barrier()
        if me == 0:
            def migrate():
                here = _map_state(ctx, m.map_id)
                there = _map_state(world.ranks[1], m.map_id)
                with world.ranks[1]._handler_lock:
                    moved = there.install(
                        0, here.shards[0].snapshot(as_primary=True), 1)
                    moved.put({key: "after the move"})
                here.retire(0, 1)

            real = ctx._handler_lock
            ctx._handler_lock = _MigrationLandsFirst(real, migrate)
            try:
                got = read(m, key)
            finally:
                ctx._handler_lock = real
            assert got == "after the move"
            assert m.owner_of(key) == 1     # the redirect was followed
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_local_write_chases_a_migration_that_won_the_lock():
    def body():
        me, n = repro.myrank(), repro.ranks()
        world = repro.current_world()
        ctx = world.ranks[me]
        m = DistHashMap(cache=False)
        key = next(f"k{i}" for i in range(100)
                   if shard_of(f"k{i}", n) == 0)
        repro.barrier()
        if me == 0:
            def migrate():
                here = _map_state(ctx, m.map_id)
                there = _map_state(world.ranks[1], m.map_id)
                with world.ranks[1]._handler_lock:
                    there.install(
                        0, here.shards[0].snapshot(as_primary=True), 1)
                here.retire(0, 1)

            real = ctx._handler_lock
            ctx._handler_lock = _MigrationLandsFirst(real, migrate)
            try:
                assert m.update(key, "add", 5, default=0) == 5
            finally:
                ctx._handler_lock = real
        repro.barrier()
        if me == 1:
            assert m.local_keys() == [key] and m.get(key) == 5
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))
