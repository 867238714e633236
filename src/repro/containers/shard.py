"""One copy of one :class:`~repro.containers.DistHashMap` shard as a
world-free state machine.  What leaves it for the wire — replication-log
records, snapshots as plain tuples — is made of values the tagged stream
carries, so the map has no wire layout of its own.

Nothing here knows about liveness, conduits or telemetry: the hosting
rank's AM handlers (``hashmap.py``) decide *when* an event happens (a
primary died, a migration was requested); this module decides what the
event does to the copy and which events are illegal.

A copy is a ``PRIMARY`` or ``BACKUP`` :class:`Shard`, *moving* (a primary
frozen by :meth:`Shard.begin_move` while its snapshot travels), or
*absent*, possibly tombstoned — that state lives in :class:`HostedMap`.
``epoch`` bumps on every applied mutation, and the copy remembers which
keys its last epochs changed: a client that says which epoch it last saw
is told the keys to drop (:meth:`Shard.changed_since`), not to drop the
shard.  :class:`ShardCache` is that client's end — where it sends for
one shard, what it has cached from it and the three rules that keep it
true — and world-free like the rest, so a test can drive the two
against each other.
``repl_epoch`` bumps on every change of primary (a deposed primary's log
is rejected by it).  Illegal events raise :class:`KvRedirect` ("ask over
there") or :class:`KvStalePrimary` ("you were deposed").
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Callable, NamedTuple

from repro.errors import PgasError

PRIMARY = "primary"
BACKUP = "backup"

#: Applied-update results each shard retains: the exactly-once dedup
#: window for client-level retries after a lost reply.
APPLIED_WINDOW = 4096

#: Changed keys each shard copy remembers (oldest epochs forgotten
#: first): a client last in contact before that drops the whole shard.
CHANGED_WINDOW = 1024

#: Entries a client caches per shard (oldest-inserted dropped first).
CACHE_LIMIT = 4096

_ABSENT = object()


class KvRedirect(PgasError):
    """The contacted rank does not serve this shard (any more); the
    client should retry at ``hint`` (or refresh its shard table)."""

    def __init__(self, sid: int, hint: int | None = None):
        where = f"; try rank {hint}" if hint is not None else ""
        super().__init__(f"shard {sid} is not served here{where}")
        self.sid = sid
        self.hint = hint


class KvStalePrimary(PgasError):
    """A replication log arrived from a deposed primary: the shard was
    promoted elsewhere under a newer repl_epoch."""

    def __init__(self, sid: int, new_primary: int | None = None):
        where = (f"; new primary is rank {new_primary}"
                 if new_primary is not None else "")
        super().__init__(
            f"stale primary for shard {sid}: a newer replica epoch "
            f"exists{where}")
        self.sid = sid
        self.new_primary = new_primary


class ShardSnapshot(NamedTuple):
    """A full copy of a shard for ``kv_install`` — store, epochs,
    topology and the exactly-once dedup records (update() retries must
    keep deduping at the shard's new home).  ``as_primary`` marks the
    receiving half of a live migration."""

    store: dict
    applied: list            # [(src, op_id, epoch, value), ...]
    epoch: int
    repl_epoch: int
    primary: int
    backup: int | None
    as_primary: bool


class Shard:
    """One rank's copy of one shard.  Every state change goes through a
    method here; the mutators return the replication-log record they
    produced (``None`` when nothing changed), which is exactly what
    :meth:`replay` consumes at the backup.  Each record ends with the
    primary's post-apply epoch, so the backup replays to its exact state::

        ("put", {key: value, ...}, epoch)
        ("del", [key, ...], epoch)
        ("upd", key, new_value, src, op_id, epoch)   # + exactly-once record
    """

    __slots__ = ("sid", "is_primary", "primary", "backup", "moving_to",
                 "store", "epoch", "repl_epoch", "applied", "changed",
                 "changed_keys", "changed_floor")

    def __init__(self, sid: int, role: str, primary: int,
                 backup: int | None):
        self.sid = sid
        self.is_primary = role == PRIMARY
        self.primary = primary       # == the hosting rank iff is_primary
        self.backup = backup
        self.moving_to: int | None = None
        self.store: dict = {}        # key -> value (this copy's truth)
        self.epoch = 0               # bumped on every mutation
        self.repl_epoch = 0          # bumped on promotion/migration
        # (src, op_id) -> (epoch, value), oldest first
        self.applied: OrderedDict = OrderedDict()
        # (epoch, keys it changed): every epoch after changed_floor
        self.changed: deque = deque()
        self.changed_keys = 0
        self.changed_floor = 0

    # -- who may be served ---------------------------------------------
    @property
    def role(self) -> str:
        return PRIMARY if self.is_primary else BACKUP

    def serves(self) -> bool:
        """May this copy answer a client op?  Only a primary that is not
        frozen (moving) does."""
        return self.is_primary and self.moving_to is None

    def redirect(self) -> KvRedirect:
        """Where a client this copy cannot serve should go instead."""
        return KvRedirect(self.sid, self.primary if self.moving_to is None
                          else self.moving_to)

    def require(self) -> None:
        if not self.is_primary or self.moving_to is not None:  # serves()
            raise self.redirect()

    # -- client ops ----------------------------------------------------
    def lookup(self, key: Any) -> tuple[bool, Any]:
        store = self.store
        return (True, store[key]) if key in store else (False, None)

    def put(self, items: dict) -> tuple:
        self.require()
        self.store.update(items)
        self.epoch += 1
        self._changed(self.epoch, tuple(items))
        return ("put", items, self.epoch)

    def delete(self, keys: list) -> tuple | None:
        """Remove ``keys``; the record lists the keys that were present
        (``None``, and no epoch bump, when none was)."""
        self.require()
        store = self.store
        gone = [k for k in keys if store.pop(k, _ABSENT) is not _ABSENT]
        if not gone:
            return None
        self.epoch += 1
        self._changed(self.epoch, gone)
        return ("del", gone, self.epoch)

    def update(self, src: int, op_id: int, key: Any, fn: Callable,
               args: tuple = (), default: Any = None,
               has_default: bool = False) -> tuple | None:
        """Apply ``fn(old, *args)``, exactly once per (src, op_id): a
        duplicate (client retry after a lost reply — possibly landing
        on a promoted backup) changes nothing and returns ``None``;
        :meth:`result_of` has the recorded outcome either way."""
        self.require()
        if (src, op_id) in self.applied:
            return None
        store = self.store
        if key in store:
            old = store[key]
        elif has_default:
            old = default
        else:
            raise KeyError(key)
        new = fn(old, *args)
        store[key] = new
        self.epoch += 1
        self._changed(self.epoch, (key,))
        self._remember(src, op_id, self.epoch, new)
        return ("upd", key, new, src, op_id, self.epoch)

    def result_of(self, src: int, op_id: int) -> tuple[int, Any]:
        """``(epoch, value)`` recorded for an applied update."""
        return self.applied[(src, op_id)]

    def _remember(self, src: int, op_id: int, epoch: int,
                        value: Any) -> None:
        applied = self.applied
        applied[(src, op_id)] = (epoch, value)
        while len(applied) > APPLIED_WINDOW:
            applied.popitem(last=False)

    # -- which keys changed --------------------------------------------
    def _changed(self, epoch: int, keys) -> None:
        log = self.changed
        log.append((epoch, keys))
        self.changed_keys += len(keys)
        while self.changed_keys > CHANGED_WINDOW:
            self.changed_floor, gone = log.popleft()
            self.changed_keys -= len(gone)

    def _forget_changed(self) -> None:
        """This copy can no longer vouch for what led to ``epoch``."""
        self.changed.clear()
        self.changed_keys = 0
        self.changed_floor = self.epoch

    def changed_since(self, seen: int) -> list | None:
        """The keys mutated after epoch ``seen`` (each once), or ``None``
        for "further back than I remember — drop everything"."""
        if seen < self.changed_floor:
            return None
        keys: dict = {}
        for epoch, changed in reversed(self.changed):
            if epoch <= seen:
                break
            keys.update(dict.fromkeys(changed))
        return list(keys)

    # -- replication ---------------------------------------------------
    def replay(self, repl_epoch: int, records: list) -> None:
        """Backup side of the log: reject a deposed primary by its
        repl_epoch, otherwise bring this copy to the sender's state."""
        if repl_epoch < self.repl_epoch:
            raise KvStalePrimary(self.sid, self.primary)
        store = self.store
        for rec in records:
            kind = rec[0]
            if kind == "put":
                store.update(rec[1])
            elif kind == "del":
                for k in rec[1]:
                    store.pop(k, None)
            else:
                _, key, value, src, op_id, epoch = rec
                store[key] = value
                self._remember(src, op_id, epoch, value)
            gap = rec[-1] != self.epoch + 1
            self.epoch = max(self.epoch, rec[-1])
            if gap:     # epochs this copy never saw lie in between
                self._forget_changed()
            else:
                self._changed(self.epoch, (rec[1],) if kind == "upd"
                              else tuple(rec[1]))

    def snapshot(self, as_primary: bool = False) -> ShardSnapshot:
        """This copy in full.  ``as_primary`` is the migration snapshot:
        its receiver takes over under the next repl_epoch."""
        return ShardSnapshot(
            dict(self.store),
            [(src, op_id, ep, val)
             for (src, op_id), (ep, val) in self.applied.items()],
            self.epoch, self.repl_epoch + (1 if as_primary else 0),
            self.primary, self.backup, as_primary)

    @classmethod
    def from_snapshot(cls, sid: int, snap: ShardSnapshot,
                      me: int) -> "Shard":
        """The copy rank ``me`` holds after installing ``snap``: a
        backup of ``snap.primary``, or (``as_primary``) the new primary
        with a fresh epoch so client caches invalidate."""
        if snap.as_primary:
            sh = cls(sid, PRIMARY, me, snap.backup)
            sh.epoch = snap.epoch + 1
        else:
            sh = cls(sid, BACKUP, snap.primary, snap.backup)
            sh.epoch = snap.epoch
        sh._forget_changed()
        sh.store = snap.store
        sh.repl_epoch = snap.repl_epoch
        for src, op_id, ep, val in snap.applied:
            sh.applied[(src, op_id)] = (ep, val)
        return sh

    # -- role changes --------------------------------------------------
    def promote(self, me: int, backup: int | None) -> None:
        """Backup -> primary (the old primary is dead): repl_epoch fences
        its stale logs, epoch invalidates client caches."""
        if self.is_primary:
            raise self.redirect()
        self.is_primary = True
        self.primary = me
        self.backup = backup
        self.repl_epoch += 1
        self.epoch += 1
        self._forget_changed()

    def begin_move(self, to: int) -> None:
        """Freeze for migration: until :meth:`abort_move` (or the copy
        is retired) every client op is redirected at ``to``."""
        self.require()
        self.moving_to = to

    def abort_move(self) -> None:
        self.moving_to = None


class ShardCache:
    """What one client knows of one shard: its route — the ``primary``
    it sends to and that primary's ``backup`` — the ``entries`` it has
    cached, and the newest epoch ``seen`` in a reply.  Three rules keep
    every entry equal to the value the copy it came from had at ``seen``:

    1. *contact* — a reply newer than ``seen`` advances it and drops the
       keys the reply names (:meth:`Shard.changed_since` the ``seen`` its
       request carried, ``since``), or all of them — with ``None``, or
       when ``since`` is newer than ``seen``: the client repointed and
       refilled while the request was out, and the names do not cover
       what it holds now; an older reply changes nothing;
    2. *fill* — a value is cached only if its reply is not older than
       ``seen``;
    3. *repoint* — a client that turns to another primary (:meth:`route`)
       drops the entries and forgets ``seen``: epochs are only ever
       compared within one copy's reign.
    """

    __slots__ = ("primary", "backup", "seen", "entries")

    def __init__(self):
        self.primary: int | None = None
        self.backup: int | None = None
        self.seen = -1
        self.entries: dict = {}

    def route(self, primary: int, backup: int | None) -> None:
        """Send to ``primary`` from now on (rule 3 if that is a turn)."""
        if primary != self.primary:
            self.repoint()
        self.primary = primary
        self.backup = None if backup == primary else backup

    def lose(self, gone: int, dead=()) -> bool:
        """Take rank ``gone`` out of the route: a live backup takes over
        a lost primary.  False when no copy is left to turn to."""
        if self.primary == gone and self.backup is not None \
                and self.backup not in dead:
            self.route(self.backup, None)
        elif self.backup == gone:
            self.backup = None
        else:
            return False
        return True

    def contact(self, epoch: int, changed=None, since: int = -1) -> None:
        if epoch > self.seen:
            if changed is None or since > self.seen:
                self.entries.clear()
            else:
                for k in changed:
                    self.entries.pop(k, None)
            self.seen = epoch

    def fill(self, epoch: int, key: Any, value: Any) -> None:
        if epoch >= self.seen:
            self.entries[key] = value
            if len(self.entries) > CACHE_LIMIT:
                del self.entries[next(iter(self.entries))]

    def repoint(self) -> None:
        self.seen = -1
        self.entries.clear()


class HostedMap:
    """One rank's share of one map: its shard copies, the redirect
    tombstones of copies it gave up, and the map's shape."""

    __slots__ = ("nshards", "replicas", "shards", "moved")

    def __init__(self, nshards: int):
        self.nshards = nshards
        self.replicas = 0
        self.shards: dict[int, Shard] = {}
        self.moved: dict[int, int] = {}      # sid -> new primary

    def lookup(self, sid: int) -> Shard:
        sh = self.shards.get(sid)
        if sh is None:
            raise KvRedirect(sid, self.moved.get(sid))
        return sh

    def serving(self) -> list[Shard]:
        """The copies this rank is the serving primary of."""
        return [sh for _sid, sh in sorted(self.shards.items())
                if sh.serves()]

    def roles(self) -> tuple:
        """This rank's primary claims, as they stand: one ``(sid,
        repl_epoch, epoch, backup)`` tuple (``backup`` -1 for none) per
        primary copy here, frozen or not."""
        return tuple(
            (sid, sh.repl_epoch, sh.epoch,
             -1 if sh.backup is None else sh.backup)
            for sid, sh in sorted(self.shards.items()) if sh.is_primary)

    def new_backup(self, me: int, dead) -> int | None:
        """The next rank after ``me`` (cyclic; a map has one shard per
        rank) not in ``dead``, or None when the map is unreplicated or
        ``me`` is the sole survivor."""
        if self.replicas:
            n = self.nshards
            for i in range(1, n):
                r = (me + i) % n
                if r not in dead:
                    return r
        return None

    def replay(self, sid: int, repl_epoch: int, records: list) -> None:
        sh = self.shards.get(sid)
        if sh is None:
            raise KvStalePrimary(sid, self.moved.get(sid))
        sh.replay(repl_epoch, records)

    def install(self, sid: int, snap: ShardSnapshot,
                me: int) -> Shard | None:
        """Replace whatever copy of ``sid`` is here with ``snap`` —
        unless the copy here is newer (an old primary racing a newer
        promotion): then nothing changes and ``None`` is returned."""
        cur = self.shards.get(sid)
        if cur is not None and cur.repl_epoch > snap.repl_epoch:
            return None
        sh = self.shards[sid] = Shard.from_snapshot(sid, snap, me)
        self.moved.pop(sid, None)
        return sh

    def retire(self, sid: int, new_primary: int) -> None:
        """Give the copy up (migrated away, or deposed) and leave a
        tombstone pointing at its new primary."""
        self.shards.pop(sid, None)
        self.moved[sid] = new_primary

    def drop(self, sid: int, repl_epoch: int, new_primary: int) -> bool:
        """Retire a stale (pre-migration) copy, repl_epoch-guarded."""
        sh = self.shards.get(sid)
        if sh is None or sh.repl_epoch >= repl_epoch:
            return False
        self.retire(sid, new_primary)
        return True

