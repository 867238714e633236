"""A distributed hash map, sharded across ranks by key hash.

Design
------
* **Sharding** — :func:`shard_of` maps a key to a *shard id* by a
  stable CRC32: str/bytes/int keys hash their raw bytes directly, other
  types fall back to hashing the pickled key.  The shard id space is
  fixed at construction (one shard per rank); which rank *serves* a
  shard is dynamic — a per-client shard table maps shard -> (primary,
  backup), seeded from the construction rendezvous and repaired on
  redirects, failovers, and refreshes.
* **Owner-side storage** — each rank keeps its hosted shard copies
  (:class:`~repro.containers.shard.Shard` state machines) in scratch
  space, mutated only by AM handlers (or the host's own local fast
  path) under the rank's handler lock, so every mutation is serialized
  at the shard's primary exactly like the paper's owner-queued locks.
* **Primary/backup replication** — with ``replicas=1`` every mutation
  is applied at the primary and synchronously logged to the shard's
  backup (``kv_repl`` records) *before* the client is acked, so an
  acknowledged write survives the death of either rank.
  Per-shard ``repl_epoch`` numbers fence the protocol: a promoted
  backup bumps its repl_epoch, and a deposed (falsely-suspected)
  primary whose log arrives with a stale repl_epoch is rejected with
  :class:`KvStalePrimary` and drops the shard.
* **Failover** — the world's failure detector feeds
  :meth:`World.mark_dead`; death subscribers and ``dead_ranks`` checks
  let clients fail over to the backup, which self-promotes on the
  first write it receives for a dead primary's shard (bumping
  repl_epoch + epoch, choosing a new backup, re-replicating, and
  republishing its roles through the Directory).
* **Batched ops** — ``multi_get``/``multi_put`` group keys by serving
  rank and issue **one AM per server**, all in flight concurrently —
  the AM-level analogue of the indexed conduit batching contract;
  coalescing lands in the ``kv_multi_ops``/``kv_batched_keys``
  CommStats counters.
* **Read-through cache + read-from-replica** — with ``cache=True``
  each rank memoizes fetched values, ``CACHE_LIMIT`` per shard.  Every
  shard keeps one ``epoch``, bumped on any mutation (and on promotion/
  migration), and the keys its last epochs changed, ``CHANGED_WINDOW``
  of them.  Every request carries the epoch its client last saw, every
  reply the shard's epoch and the keys changed in between, and the
  client keeps three rules (:class:`~repro.containers.shard.ShardCache`):
  a newer reply drops the keys it names — the whole shard only when the
  client was last there before the window; a value is cached only if
  its reply is not older than what the client has seen; and turning to
  another primary drops the shard's entries, so epochs are only
  compared within one copy's reign.  With ``read_replicas=True`` reads
  also round-robin across primary and backup (and are served from a
  locally-hosted backup copy without touching the wire), riding the
  same invalidation.
* **Exactly-once update()** — read-modify-write travels with a
  per-client op-id; the primary records the result of each applied op
  and **replicates the dedup record with the data**, so a client that
  retries after a lost reply — even against a freshly promoted backup
  or a migrated shard — gets the recorded result back instead of a
  second application.
* **Live rebalancing** — :meth:`DistHashMap.rebalance` migrates a
  shard to a chosen rank: the primary freezes the shard (racing ops
  are redirected), ships a full snapshot *including the in-flight
  exactly-once records*, leaves a redirect tombstone, and tells the
  old backup to drop its stale copy.

Consistency model: relaxed.  A ``get`` may return a stale cached (or
replica) value until the client next contacts the shard's primary;
primary-side operations are linearizable per key.  With ``replicas=1``
every *acknowledged* write survives one rank death.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import time
import zlib
from typing import Any, Callable, Iterable, Mapping

from repro.containers.shard import (
    BACKUP,
    PRIMARY,
    HostedMap,
    KvRedirect,
    KvStalePrimary,
    Shard,
    ShardCache,
    ShardSnapshot,
)
from repro.core import collectives
from repro.core.coll_engine import copy_value as _copy
from repro.core.directory import Directory
from repro.core.world import RankState, current, try_current
from repro.telemetry import tracing
from repro.errors import CommTimeout, PeerFailure, PgasError, RankDead
from repro.gasnet.am import am_handler
from repro.gasnet.wire import preencode

_MISSING = object()

#: Owner-side per-map state lives in the rank's scratch space (the same
#: pattern as the distributed work queues).
_SCRATCH_KEY = "kv_maps"

#: Redirect/failover hops a single client op will chase before giving
#: up (each hop re-resolves the shard table, possibly via the
#: Directory; convergence normally takes one or two).
_MAX_HOPS = 64

#: Named read-modify-write ops resolvable at the owner (no pickling of
#: code objects needed).  ``update()`` also accepts any picklable
#: callable ``fn(old, *args) -> new``.
UPDATE_OPS: dict[str, Callable] = {
    "add": lambda old, arg: old + arg,
    "sub": lambda old, arg: old - arg,
    "mul": lambda old, arg: old * arg,
    "max": lambda old, arg: max(old, arg),
    "min": lambda old, arg: min(old, arg),
    "append": lambda old, arg: old + [arg],
}


def shard_of(key: Any, nshards: int) -> int:
    """Shard id of ``key``: a stable CRC32 of the key's bytes.

    Stable across runs (unlike ``hash()``, which is salted for str),
    so layouts — and therefore benchmarks — are reproducible.  The
    common key types hash their raw bytes directly; anything else keeps
    the original pickled-key fallback, so existing placements of
    exotic keys are unchanged.
    """
    t = type(key)
    if t is str:
        raw = key.encode("utf-8")
    elif t is bytes:
        raw = key
    elif t is int:
        raw = key.to_bytes((key.bit_length() + 8) // 8, "little",
                           signed=True)
    else:
        raw = pickle.dumps(key, protocol=4)
    return zlib.crc32(raw) % nshards


def _resolve_update(op) -> Callable:
    if callable(op):
        return op
    try:
        return UPDATE_OPS[op]
    except (KeyError, TypeError):
        raise PgasError(
            f"unknown update op {op!r}; pass a callable or one of "
            f"{sorted(UPDATE_OPS)}"
        ) from None


def _traced(name: str, hist: str | None = None) -> Callable:
    """Open a causal trace root span around a client kv op and, with
    ``hist``, record the op's latency (``full`` only) under that
    histogram name.

    Every AM the op sends (the request, a replication hop, retries
    after failover) inherits this span's trace id via the wire-frame
    trailer, so the whole chain — including handler spans on other
    ranks and kv_failover/kv_promote flight events — is one trace.
    No-op (one extra call) when telemetry is inactive.
    """

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            ctx = try_current()
            if ctx is None or not ctx.telemetry.active:
                return fn(self, *args, **kwargs)
            tel = ctx.telemetry
            opened = tracing.open_span(tel)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracing.close_span(tel, opened, name, hist=hist)

        return wrapper

    return deco


class KvOwnerDead(PgasError):
    """A kv op addressed a dead rank and the map has no live replica to
    fail over to — names the op, the dead owner, and the keys hit."""

    def __init__(self, op: str, owner: int, keys, original):
        keys = list(keys)
        shown = ", ".join(repr(k)[:32] for k in keys[:8])
        if len(keys) > 8:
            shown += f", ... ({len(keys)} keys total)"
        super().__init__(
            f"{op}: owner rank {owner} is dead and no live replica is "
            f"available; affected keys: [{shown}] ({original})")
        self.owner = owner
        self.keys = keys
        self.original = original


# ---------------------------------------------------------------------------
# owner side: hosted shards + replication
# ---------------------------------------------------------------------------
# What an event does to a shard copy is Shard's / HostedMap's business
# (containers/shard.py); this section decides when events happen — it
# knows which ranks are dead, talks to the backup, and publishes roles.

def _map_state(ctx: RankState, map_id: int) -> HostedMap:
    """This rank's share of map ``map_id`` (create on first touch)."""
    tbl = ctx.scratch.setdefault(_SCRATCH_KEY, {})
    st = tbl.get(map_id)
    if st is None:
        st = tbl[map_id] = HostedMap(ctx.world.n_ranks)
    return st


def _new_backup(ctx: RankState, st: HostedMap) -> int | None:
    """The next live rank after this one (cyclic), or None when the map
    is unreplicated or this rank is the sole survivor."""
    if st.replicas:
        n = ctx.world.n_ranks
        dead = ctx.world.dead_ranks
        for i in range(1, n):
            r = (ctx.rank + i) % n
            if r not in dead:
                return r
    return None


def _publish_roles(ctx: RankState, map_id: int, st: HostedMap) -> None:
    """Update this rank's Directory slot in place — handlers can't run
    the collective publish path, but the slot is just a scratch entry."""
    if st.dir_id is not None:
        ctx.dir_table[st.dir_id] = preencode(
            ("DistHashMap", map_id, st.roles()))


def _send_install(ctx: RankState, map_id: int, sh: Shard, to: int,
                  as_primary: bool = False, expect_reply: bool = False):
    """Ship ``sh`` in full to rank ``to``.  Fire-and-forget is safe for
    a new backup: per-(src, dst) FIFO puts the install ahead of any
    later incremental kv_repl records we send to the same rank."""
    return ctx.send_am(to, "kv_install", args=(map_id, sh.sid),
                       payload=tuple(sh.snapshot(as_primary)),
                       expect_reply=expect_reply)


def _promote(ctx: RankState, map_id: int, st: HostedMap,
             sh: Shard) -> None:
    """Backup -> primary: the old primary is dead.  Pick a new backup,
    re-replicate, republish roles."""
    old = sh.primary
    sh.promote(ctx.rank, _new_backup(ctx, st))
    ctx.stats.add(kv_promotions=1)
    ctx.telemetry.flight_event(
        "kv_promote", src=ctx.rank, dst=old,
        detail=f"shard {sh.sid} repl_epoch={sh.repl_epoch}")
    _publish_roles(ctx, map_id, st)
    if sh.backup is not None:
        _send_install(ctx, map_id, sh, sh.backup)


def _replicate(ctx: RankState, map_id: int, st: HostedMap, sh: Shard,
               records: list) -> None:
    """Synchronously log ``records`` to the shard's backup before the
    caller acks the client.  A dead backup is replaced with a blocking
    full install (which already contains the new mutations); a
    KvStalePrimary rejection means *we* were deposed — drop the shard,
    tombstone, and re-raise so the client retries at the new primary."""
    if not st.replicas:
        return
    guard = 0
    while True:
        if ctx.rank in ctx.world.dead_ranks:
            # We were declared dead (hung, then resumed) mid-replication:
            # stop acting as primary — repl_epoch fencing makes any
            # promoted backup reject our stale log anyway.
            raise RankDead(
                f"rank {ctx.rank} declared dead while replicating "
                f"shard {sh.sid}"
            )
        guard += 1
        if guard > 2 * ctx.world.n_ranks + 2:
            sh.backup = None  # churn exhausted every candidate
            return
        backup = sh.backup
        if backup is None or backup == ctx.rank \
                or backup in ctx.world.dead_ranks:
            nb = sh.backup = _new_backup(ctx, st)
            if nb is None:
                return  # sole survivor: nothing to replicate onto
            try:
                _send_install(ctx, map_id, sh, nb, expect_reply=True).get()
            except (RankDead, PeerFailure):
                sh.backup = None
                continue
            _publish_roles(ctx, map_id, st)
            return  # the install already carries the new records
        fut = ctx.send_am(backup, "kv_repl",
                          args=(map_id, sh.sid, sh.repl_epoch),
                          payload=records, expect_reply=True)
        ctx.stats.add(kv_repl_records=len(records))
        try:
            fut.get()
            return
        except (RankDead, PeerFailure):
            sh.backup = None
            continue
        except KvStalePrimary as exc:
            st.retire(sh.sid, exc.new_primary
                      if exc.new_primary is not None else backup)
            _publish_roles(ctx, map_id, st)
            raise


def _resolve(ctx: RankState, map_id: int, sid: int,
             write: bool) -> tuple[HostedMap, Shard]:
    """Resolve a request to a hosted shard that may serve it, or raise
    the protocol exception that repairs the client's table.  A write
    reaching a backup whose primary is dead triggers promotion right
    here — that is the automatic-failover moment."""
    st = _map_state(ctx, map_id)
    sh = st.lookup(sid)
    if write and not sh.is_primary and sh.primary in ctx.world.dead_ranks:
        _promote(ctx, map_id, st, sh)
    sh.require(write)
    if not sh.is_primary:
        ctx.stats.add(kv_replica_reads=1)
    return st, sh


def _mutate(ctx: RankState, map_id: int, sid: int,
            apply: Callable[[Shard], tuple | None]
            ) -> tuple[Shard, tuple | None]:
    """The one owner-side write path, run under the handler lock by the
    AM handlers and by the host's own local fast path: resolve (or
    promote) the shard, ``apply`` the mutation, and log the record it
    produced to the backup before anyone is acked.  Returns the shard
    and the record (``None``: nothing changed, nothing logged)."""
    st, sh = _resolve(ctx, map_id, sid, write=True)
    rec = apply(sh)
    if rec is not None:
        _replicate(ctx, map_id, st, sh, [rec])
    return sh, rec


# ---------------------------------------------------------------------------
# AM handlers
# ---------------------------------------------------------------------------
# Request args are ``(map_id, sid, ...)``; ``sid == -1`` marks a
# batched request whose keys the server groups by shard itself.  They
# end with ``(sid, seen)`` pairs, the epoch the client last saw of each
# shard asked about; a client that sends none holds nothing.  Reply
# args are ``(k, sid0, ep0, n0, ..., key, ..., extra)``: per shard its
# epoch and how many of the keys that follow — the ones changed since
# ``seen``, the request's own among them — are its own (``n < 0``:
# further back than the shard remembers), so clients drop the key that
# changed, not the shard it lives in.  Payloads are plain stream values:
# a put's {key: value}, a get's or delete's key list, a get reply's
# (hit flag bytes, values), replication records, a snapshot tuple.

def _reply_args(seen: list, touched: list, *extra) -> tuple:
    """Reply args for ``touched``, the ``(shard, epoch replied at)``
    pairs, to a request whose args ended with ``seen``."""
    seen = dict(zip(seen[::2], seen[1::2]))
    head = [len(touched)]
    changed: list = []
    for sh, epoch in touched:
        keys = sh.changed_since(seen.get(sh.sid, -1))
        head += (sh.sid, epoch, -1 if keys is None else len(keys))
        changed += keys or ()
    return (*head, *changed, *extra)


@am_handler("kv_put")
def _kv_put_handler(ctx: RankState, am) -> None:
    map_id, sid, *tail = am.args
    items = am.payload
    if sid >= 0:
        groups = {sid: items}
    else:
        nshards = _map_state(ctx, map_id).nshards
        groups = {}
        for k, v in items.items():
            groups.setdefault(shard_of(k, nshards), {})[k] = v
    touched = []
    for s in sorted(groups):
        sh, rec = _mutate(ctx, map_id, s, lambda sh: sh.put(groups[s]))
        touched.append((sh, rec[-1]))
    ctx.reply(am, args=_reply_args(tail, touched))


@am_handler("kv_get")
def _kv_get_handler(ctx: RankState, am) -> None:
    map_id, sid, *tail = am.args
    nshards = _map_state(ctx, map_id).nshards
    hits = bytearray()
    vals = []
    shards: dict[int, Shard] = {}
    for k in am.payload:
        s = sid if sid >= 0 else shard_of(k, nshards)
        _st, shards[s] = _resolve(ctx, map_id, s, write=False)
        hit, val = shards[s].lookup(k)
        hits.append(hit)
        vals.append(val)
    touched = [(sh, sh.epoch) for _s, sh in sorted(shards.items())]
    # flags apart from values: a long list of (hit, value) tuples would
    # leave the stream for pickle
    ctx.reply(am, args=_reply_args(tail, touched),
              payload=(bytes(hits), vals))


@am_handler("kv_del")
def _kv_del_handler(ctx: RankState, am) -> None:
    map_id, sid, *tail = am.args
    keys = am.payload
    if sid >= 0:
        groups = {sid: keys}
    else:
        nshards = _map_state(ctx, map_id).nshards
        groups = {}
        for k in keys:
            groups.setdefault(shard_of(k, nshards), []).append(k)
    touched = []
    total = 0
    for s in sorted(groups):
        sh, rec = _mutate(ctx, map_id, s,
                          lambda sh: sh.delete(groups[s]))
        if rec is not None:
            total += len(rec[1])
        touched.append((sh, sh.epoch if rec is None else rec[-1]))
    ctx.reply(am, args=_reply_args(tail, touched, total))


@am_handler("kv_update")
def _kv_update_handler(ctx: RankState, am) -> None:
    map_id, sid, op_id, *tail = am.args
    key, op, fargs, default, has_default = am.payload
    src = am.src_rank
    fn = _resolve_update(op)
    # The dedup record rides with the data: a retry that lands on the
    # promoted backup still replays the recorded result.
    sh, _rec = _mutate(
        ctx, map_id, sid,
        lambda sh: sh.update(src, op_id, key, fn, fargs, default,
                             has_default))
    epoch, new = sh.result_of(src, op_id)
    ctx.reply(am, args=_reply_args(tail, [(sh, epoch)]),
              payload=new)


@am_handler("kv_repl")
def _kv_repl_handler(ctx: RankState, am) -> None:
    """Backup side of the replication log.  Rejects stale primaries by
    repl_epoch; otherwise replays the records into the local copy."""
    map_id, sid, repl_epoch = am.args
    sh = _map_state(ctx, map_id).replay(sid, repl_epoch, am.payload)
    ctx.reply(am, args=(sh.repl_epoch,))


@am_handler("kv_install")
def _kv_install_handler(ctx: RankState, am) -> None:
    """Install a full shard snapshot: re-replication onto a new backup,
    or (``as_primary``) the receiving half of a live migration."""
    map_id, sid = am.args
    st = _map_state(ctx, map_id)
    sh = st.install(sid, ShardSnapshot(*am.payload), ctx.rank)
    if sh is None:
        # A stale install (an old primary racing a newer promotion).
        if am.token is not None:
            ctx.reply(am, args=(0, sid, st.shards[sid].epoch))
        return
    if sh.is_primary:
        # Migration target: new backup, re-replicate, announce.
        sh.backup = _new_backup(ctx, st)
        if sh.backup is not None:
            _send_install(ctx, map_id, sh, sh.backup)
    _publish_roles(ctx, map_id, st)
    if am.token is not None:
        ctx.reply(am, args=(1, sid, sh.epoch))


@am_handler("kv_migrate")
def _kv_migrate_handler(ctx: RankState, am) -> None:
    """Primary side of rebalance(): freeze, ship, tombstone."""
    map_id, sid, to, *_seen = am.args
    st, sh = _resolve(ctx, map_id, sid, write=True)
    if to == ctx.rank:
        ctx.reply(am, args=(0,))
        return
    if to in ctx.world.dead_ranks:
        raise PgasError(f"rebalance: target rank {to} is dead")
    # Freeze: ops racing the migration are redirected at `to` (the
    # install below precedes their arrival there — tiny retry window
    # covered by the client's redirect chase).
    sh.begin_move(to)
    try:
        _send_install(ctx, map_id, sh, to, as_primary=True,
                      expect_reply=True).get()
    except BaseException:
        sh.abort_move()  # unfreeze; we still own the shard
        raise
    st.retire(sid, to)
    ctx.stats.add(kv_migrations=1)
    ctx.telemetry.flight_event(
        "kv_migrate", src=ctx.rank, dst=to, detail=f"shard {sid}")
    _publish_roles(ctx, map_id, st)
    old_backup = sh.backup
    if old_backup is not None and old_backup != to \
            and old_backup not in ctx.world.dead_ranks:
        ctx.send_am(old_backup, "kv_drop",
                    args=(map_id, sid, sh.repl_epoch + 1, to))
    ctx.reply(am, args=(0,))


@am_handler("kv_drop")
def _kv_drop_handler(ctx: RankState, am) -> None:
    """Drop a stale (pre-migration) shard copy, repl_epoch-guarded."""
    map_id, sid, repl_epoch, new_primary = am.args
    st = _map_state(ctx, map_id)
    if st.drop(sid, repl_epoch, new_primary):
        _publish_roles(ctx, map_id, st)


@am_handler("kv_epoch")
def _kv_epoch_handler(ctx: RankState, am) -> None:
    map_id, _all = am.args
    touched = [(sh, sh.epoch) for sh in _map_state(ctx, map_id).serving()]
    ctx.reply(am, args=_reply_args((), touched))


@am_handler("kv_size")
def _kv_size_handler(ctx: RankState, am) -> None:
    (map_id,) = am.args
    total = sum(len(sh.store)
                for sh in _map_state(ctx, map_id).serving())
    ctx.reply(am, args=(total,))


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------

class DistHashMap:
    """Hash-sharded distributed map; collective constructor.

    >>> m = DistHashMap(replicas=1)  # on every rank
    >>> m.put("user:1", {"n": 1})    # primary + synchronous backup log
    >>> m.multi_get(keys)            # one AM per serving rank

    Parameters
    ----------
    cache:
        Enable the per-rank read-through cache (epoch-invalidated).
    replicas:
        0 (default) for the classic single-copy map; 1 to log every
        mutation synchronously to a backup rank before acking, making
        acknowledged writes survive one rank death (ignored at 1 rank).
    read_replicas:
        Round-robin reads across primary and backup (and serve reads
        from a locally-hosted backup copy without an AM) — spreads a
        hot shard's read load over two ranks at the cost of slightly
        staler reads.  Requires ``replicas=1``.
    """

    def __init__(self, cache: bool = True, replicas: int = 0,
                 read_replicas: bool = False):
        if replicas not in (0, 1):
            raise PgasError("only replicas=0 or replicas=1 is supported")
        ctx = current()
        mid = next(ctx.world._dir_ids) if ctx.rank == 0 else None
        self.map_id = collectives.bcast(mid, root=0)
        self.nranks = ctx.world.n_ranks
        self.nshards = self.nranks
        self.replicas = replicas if self.nranks > 1 else 0
        self.read_replicas = bool(read_replicas) and self.replicas > 0
        self._op_seq = itertools.count(1)
        self._rr = 0
        self._cache_enabled = bool(cache)
        self._cache = {s: ShardCache() for s in range(self.nshards)}
        self.cache_hits = 0
        self.cache_misses = 0
        self.failovers = 0
        self.failover_latencies: list[float] = []
        self._pending_deaths: list[int] = []
        self._dir = Directory()
        with ctx._handler_lock:
            st = _map_state(ctx, self.map_id)
            st.nshards = self.nshards
            st.replicas = self.replicas
            st.dir_id = self._dir.dir_id
            me = ctx.rank
            st.shards.setdefault(me, Shard(
                me, PRIMARY, me,
                (me + 1) % self.nranks if self.replicas else None))
            if self.replicas:
                p = (me - 1) % self.nranks
                st.shards.setdefault(p, Shard(p, BACKUP, p, me))
            roles = st.roles()
        # Construction rendezvous: publish (type, id, roles) and fetch
        # every rank's slot with one concurrent lookup_all.  Catches
        # misordered collective construction (rank A built a map where
        # rank B built a queue — the id bcasts would silently cross)
        # and seeds the shard table + per-shard epoch view.
        self._dir.publish(("DistHashMap", self.map_id, roles))
        collectives.barrier()
        infos = self._dir.lookup_all(cached=False)
        for r, info in enumerate(infos):
            kind, mid_r = info[0], info[1]
            if kind != "DistHashMap" or mid_r != self.map_id:
                raise PgasError(
                    f"rank {r} constructed {kind}#{mid_r} where this rank "
                    f"constructed DistHashMap#{self.map_id}; collective "
                    f"constructors must run in the same order on all ranks"
                )
        # sid -> (primary, backup): every shard has an entry from here
        # on; repairs overwrite, nothing deletes.
        self._table: dict[int, tuple[int, int | None]] = {
            sid: (sid % self.nranks,
                  (sid + 1) % self.nranks if self.replicas else None)
            for sid in range(self.nshards)}
        self._ingest_roles(infos)
        # Failure-notification hook: deaths recorded by the world's
        # failure detector flip this client's table at its next op.
        ctx.world.on_rank_death(self._on_rank_death)

    # -- plumbing ----------------------------------------------------------
    def owner_of(self, key: Any) -> int:
        """The rank currently serving ``key``'s shard as primary (per
        this client's shard table)."""
        return self._table[shard_of(key, self.nshards)][0]

    def _on_rank_death(self, rank: int, exc: BaseException) -> None:
        # Runs on the failure detector's thread: just enqueue; the
        # table flip happens on the owning rank's own thread at its
        # next map operation.
        self._pending_deaths.append(rank)

    def _route(self, sid: int, primary: int, backup: int | None) -> None:
        """The one writer of the shard table.  What is cached from a
        shard was true of its old primary's copy (rule 3)."""
        if self._table[sid][0] != primary:
            self._cache[sid].repoint()
        self._table[sid] = (primary, backup)

    def _repoint(self, sid: int, gone: int, dead=()) -> bool:
        """Drop ``gone`` from ``sid``'s table entry (its live backup
        takes over a lost primary); False when that is not possible."""
        primary, backup = self._table[sid]
        if primary == gone and backup is not None and backup != gone \
                and backup not in dead:
            self._route(sid, backup, None)
        elif backup == gone:
            self._route(sid, primary, None)
        else:
            return False
        return True

    def _drain_deaths(self) -> None:
        while self._pending_deaths:
            r = self._pending_deaths.pop()
            for sid in self._table:
                self._repoint(sid, r)

    def _note_reply(self, args: tuple) -> tuple[dict[int, int], tuple]:
        """Rule 1 for each shard in a reply's ``(k, sid0, ep0, n0, ...,
        key, ..., *extras)`` args; returns the epochs by shard (rule 2
        asks for them) and the extras (e.g. kv_del's deleted-count)."""
        at = end = 1 + 3 * args[0]
        epochs = {}
        for i in range(1, end, 3):
            sid, epoch, n = args[i:i + 3]
            epochs[sid] = epoch
            self._cache[sid].contact(
                epoch, None if n < 0 else args[at:at + n])
            at += max(n, 0)
        return epochs, args[at:]

    def _ingest_roles(self, infos) -> None:
        """Fold published role claims into the shard table: per shard,
        the primary claim with the highest repl_epoch wins."""
        best: dict[int, tuple] = {}
        for r, info in enumerate(infos):
            if not info:
                continue
            for sid, is_primary, repl_epoch, epoch, backup in info[2]:
                if not is_primary:
                    continue
                cur = best.get(sid)
                if cur is None or repl_epoch > cur[0]:
                    best[sid] = (repl_epoch, r,
                                 None if backup < 0 else backup, epoch)
        for sid, (_re, prim, backup, epoch) in best.items():
            self._route(sid, prim, backup if backup != prim else None)
            self._cache[sid].contact(epoch)     # no key list: drop all

    def _ask_peers(self, ctx: RankState, handler: str,
                   *args) -> list[tuple]:
        """One AM to every live peer, all in flight before the first
        reply is awaited; ``(rank, reply_args, payload)`` per answer.  A
        peer that dies or times out meanwhile is skipped — every caller
        is a best-effort survey, repaired by the next one."""
        dead = ctx.world.dead_ranks
        futs = {
            r: ctx.send_am(r, handler, args=args, expect_reply=True)
            for r in range(self.nranks)
            if r != ctx.rank and r not in dead
        }
        answers = []
        for r, fut in futs.items():
            try:
                answers.append((r, *fut.get()))
            except (RankDead, PeerFailure, CommTimeout):
                continue
        return answers

    def _refresh_table(self, ctx: RankState) -> None:
        """Re-read live ranks' Directory slots and rebuild the shard
        table (the post-promotion client repair path)."""
        infos: list = [None] * self.nranks
        infos[ctx.rank] = self._dir.lookup(ctx.rank, cached=False)
        for r, _args, obj in self._ask_peers(ctx, "dir_get",
                                             self._dir.dir_id):
            infos[r] = obj
        self._ingest_roles(infos)

    def _failover(self, ctx: RankState, sid: int, dead_rank: int,
                  what: str, t_fail: float | None) -> float:
        """Repoint ``sid`` away from ``dead_rank``; starts the failover
        clock and counters on the first call of an op."""
        if t_fail is None:
            t_fail = time.perf_counter()
            ctx.stats.add(kv_failovers=1)
            self.failovers += 1
            ctx.telemetry.flight_event(
                "kv_failover_start", src=ctx.rank, dst=dead_rank,
                detail=f"{what} shard {sid}")
        if not self._repoint(sid, dead_rank, ctx.world.dead_ranks):
            ctx.advance()
            self._refresh_table(ctx)
        return t_fail

    def _end_failover(self, ctx: RankState, t_fail: float | None,
                      what: str) -> None:
        if t_fail is None:
            return
        dt = time.perf_counter() - t_fail
        self.failover_latencies.append(dt)
        tel = ctx.telemetry
        tel.record_latency("kv_failover", dt)
        tel.flight_event(
            "kv_failover", src=ctx.rank, dst=-1,
            detail=f"{what} recovered in {dt * 1e6:.0f}us",
        )

    def _follow_redirect(self, ctx: RankState, exc) -> None:
        hint = (exc.hint if isinstance(exc, KvRedirect)
                else exc.new_primary)
        if hint is not None and hint not in ctx.world.dead_ranks:
            backup = self._table[exc.sid][1]
            self._route(exc.sid, hint, backup if backup != hint else None)
        else:
            ctx.advance()
            self._refresh_table(ctx)

    def _request(self, ctx: RankState, handler: str, what: str,
                 pending: dict[int, list],
                 payload: Callable[[list], Any] = lambda keys: keys, *,
                 batched: bool = False, extra: tuple = (),
                 read: bool = False, event: str | None = None) -> list:
        """The one client request engine: send ``handler`` for the keys
        in ``pending`` (shard id -> keys); returns the replies as
        ``(keys, epochs, extras, reply_payload)`` tuples.

        Each round groups what is pending by the rank now serving it —
        one ``(map_id, sid, *extra)`` AM per shard, or with ``batched``
        one ``(map_id, -1)`` AM per rank whose keys the server regroups
        — each ending with the epochs this client last saw of its
        shards — and issues every AM before gathering any reply.  One ladder
        handles the replies: a timeout (the world's ``op_timeout``
        expired) raises, a dead server fails its shards over to their
        backup (:class:`KvOwnerDead` without one), a redirect repoints
        the table; what did not complete is pending for the next round.
        ``update`` stays exactly-once across a failover retry via
        owner-side op-id dedup; put/delete are idempotent.  A
        point op is the one-key case; ``read`` lets it alternate
        primary/backup (``read_replicas``).  ``event`` names the flight
        event recorded when the op first goes to the wire.
        """
        tel = ctx.telemetry
        replies = []
        hops = 0
        t_fail = None
        first_round = True
        while pending:
            self._drain_deaths()
            dead = ctx.world.dead_ranks
            # (target rank, sid arg of the AM) -> {sid: keys}
            groups: dict[tuple[int, int], dict[int, list]] = {}
            for sid, ks in pending.items():
                target, backup = self._table[sid]
                if read and self.read_replicas and backup is not None \
                        and backup not in dead:
                    self._rr += 1
                    if self._rr & 1:
                        target = backup
                groups.setdefault(
                    (target, -1 if batched else sid), {})[sid] = ks
            if first_round:
                first_round = False
                if batched:
                    nkeys = sum(map(len, pending.values()))
                    # One multi-op coalesced nkeys remote keys into
                    # len(groups) owner-targeted active messages.
                    ctx.stats.add(kv_multi_ops=len(groups),
                                  kv_batched_keys=nkeys)
                if event is not None and tel.active:
                    if batched:
                        dst = -1
                        detail = f"{nkeys} keys -> {len(groups)} servers"
                    else:  # a point op: one shard, one key
                        ((dst, sid),) = groups
                        detail = repr(pending[sid][0])[:48]
                    tel.flight_event(event, src=ctx.rank, dst=dst,
                                     detail=detail)
            calls = []
            for (target, arg), shards in groups.items():
                ks = [k for part in shards.values() for k in part]
                seen = () if not self._cache_enabled else [
                    x for sid in shards for x in (sid, self._cache[sid].seen)]
                fut = None if target in dead else ctx.send_am(
                    target, handler,
                    args=(self.map_id, arg, *extra, *seen),
                    payload=payload(ks), expect_reply=True)
                calls.append((target, shards, ks, fut))
            pending = {}
            for target, shards, ks, fut in calls:
                try:
                    if fut is None:
                        raise RankDead(f"rank {target} is dead")
                    args, reply = fut.get()
                except CommTimeout as exc:
                    raise CommTimeout(
                        f"{what}: rank {target} did not answer "
                        f"({len(ks)} keys)") from exc
                except (RankDead, PeerFailure) as exc:
                    hops += 1
                    if not self.replicas or hops > _MAX_HOPS:
                        raise KvOwnerDead(what, target, ks, exc) from exc
                    for sid in shards:
                        t_fail = self._failover(ctx, sid, target, what,
                                                t_fail)
                except (KvRedirect, KvStalePrimary) as exc:
                    hops += 1
                    if hops > _MAX_HOPS:
                        raise
                    self._follow_redirect(ctx, exc)
                else:
                    replies.append((ks, *self._note_reply(args), reply))
                    continue
                pending.update(shards)
        self._end_failover(ctx, t_fail, what)
        return replies

    # -- local fast paths ----------------------------------------------------
    def _hosted(self, shards: dict[int, Shard], sid: int,
                write: bool) -> Shard | None:
        """The copy of ``sid`` in this rank's ``shards`` if it may serve
        the op without the wire: the serving primary, or for a read
        with ``read_replicas`` a backup.  Only trustworthy under the
        handler lock — unlocked, it is a hint that taking the lock is
        worth it."""
        sh = shards.get(sid)
        if sh is not None and sh.serves(write) \
                and (sh.is_primary or self.read_replicas):
            return sh
        return None

    def _mutate_local(self, ctx: RankState, sid: int,
                      apply: Callable[[Shard], tuple | None],
                      nkeys: int = 1) -> tuple[Shard, tuple | None] | None:
        """Run a write through :func:`_mutate` right here when this rank
        is the shard's serving primary — the same owner-side path the
        AM handlers take, under the same lock.  ``None`` means the op
        must go to the wire: the shard is not (or, deposed while
        replicating, no longer) ours."""
        shards = _map_state(ctx, self.map_id).shards
        if self._hosted(shards, sid, write=True) is None:
            return None
        try:
            with ctx._handler_lock:
                if self._hosted(shards, sid, write=True) is None:
                    return None
                sh, rec = _mutate(ctx, self.map_id, sid, apply)
        except KvStalePrimary:
            return None
        ctx.stats.add(local_accesses=nkeys)
        self._cache[sid].contact(sh.epoch)
        return sh, rec

    def _read_near(self, ctx: RankState, sid: int,
                   key: Any) -> tuple[bool, Any] | None:
        """Serve a read without the wire — from a hosted copy, else
        from the cache — as ``(found, private value)``; ``None`` sends
        the caller to the wire."""
        shards = _map_state(ctx, self.map_id).shards
        if self._hosted(shards, sid, write=False) is not None:
            with ctx._handler_lock:
                # Re-validate: a migration, drop or deposition that
                # landed while we waited for the lock retired the copy,
                # and the read must chase the redirect instead.
                sh = self._hosted(shards, sid, write=False)
                if sh is not None:
                    found, val = sh.lookup(key)
                    ctx.stats.add(local_accesses=1,
                                  kv_replica_reads=not sh.is_primary)
                    return found, _copy(val) if found else None
        if self._cache_enabled:
            cached = self._cache[sid].entries
            if key in cached:
                self.cache_hits += 1
                ctx.stats.add(kv_cache_hits=1)
                # Copy on the way out: gets hand back private values
                # everywhere, so a caller mutating its result can never
                # corrupt the cache (or, via the SMP by-reference
                # conduit, the owner's store).
                return True, _copy(cached[key])
            self.cache_misses += 1
            ctx.stats.add(kv_cache_misses=1)
        return None

    def _cache_fetched(self, epochs: dict, key: Any, val: Any) -> Any:
        """Remember a value fetched from its owner in a reply with those
        ``epochs`` (rule 2); returns the value to hand out (a copy when
        caching, so the cached object stays private)."""
        if not self._cache_enabled:
            return val
        sid = shard_of(key, self.nshards)
        self._cache[sid].fill(epochs[sid], key, val)
        return _copy(val)

    # -- point ops ---------------------------------------------------------
    @_traced("kv_put", "kv_put")
    def put(self, key: Any, value: Any) -> None:
        """Store ``key -> value`` at its shard's primary (last writer
        wins); with ``replicas=1`` the write is also logged to the
        backup before this call returns."""
        ctx = current()
        sid = shard_of(key, self.nshards)
        ctx.stats.add(kv_puts=1)
        if self._mutate_local(
                ctx, sid, lambda sh: sh.put({key: _copy(value)})):
            return
        [(_ks, epochs, _x, _pl)] = self._request(
            ctx, "kv_put", f"kv_put({key!r})", {sid: [key]},
            lambda _ks: {key: value}, event="kv_put")
        if self._cache_enabled:     # write-through
            self._cache[sid].fill(epochs[sid], key, _copy(value))

    @_traced("kv_get", "kv_get")
    def get(self, key: Any, default: Any = _MISSING) -> Any:
        """Fetch ``key`` (cache first); KeyError unless ``default``."""
        ctx = current()
        sid = shard_of(key, self.nshards)
        ctx.stats.add(kv_gets=1)
        # A hosted primary — or, with read_replicas, a hosted backup
        # copy — and then the cache serve the read without touching
        # the wire.
        hit = self._read_near(ctx, sid, key)
        if hit is None:
            [(_ks, epochs, _x, ((found,), [val]))] = self._request(
                ctx, "kv_get", f"kv_get({key!r})", {sid: [key]},
                read=True, event="kv_get")
            if found:
                val = self._cache_fetched(epochs, key, val)
        else:
            found, val = hit
        if found:
            return val
        if default is not _MISSING:
            return default
        raise KeyError(key)

    @_traced("kv_del")
    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns whether it was present."""
        ctx = current()
        sid = shard_of(key, self.nshards)
        ctx.stats.add(kv_deletes=1)
        hit = self._mutate_local(ctx, sid, lambda sh: sh.delete([key]))
        if hit:
            return hit[1] is not None
        [(_ks, _eps, (n,), _pl)] = self._request(
            ctx, "kv_del", f"kv_del({key!r})", {sid: [key]},
            event="kv_del")
        return n > 0

    @_traced("kv_update", "kv_put")
    def update(self, key: Any, op, *args, default: Any = _MISSING) -> Any:
        """Atomic read-modify-write at the primary; returns the new
        value.

        ``op`` is a name from :data:`UPDATE_OPS` or a picklable callable
        ``fn(old, *args) -> new``.  ``default`` seeds a missing key.
        Exactly-once even when the reply is lost and the call retries —
        including a retry that lands on a freshly promoted backup: the
        dedup record replicates with the data, so the new primary
        replays the recorded result instead of re-applying.
        """
        ctx = current()
        sid = shard_of(key, self.nshards)
        op_id = next(self._op_seq)
        has_default = default is not _MISSING
        fn = _resolve_update(op)  # fail fast on a bogus name
        ctx.stats.add(kv_updates=1)
        hit = self._mutate_local(
            ctx, sid, lambda sh: sh.update(
                ctx.rank, op_id, key, fn, tuple(_copy(a) for a in args),
                _copy(default) if has_default else None, has_default))
        if hit:
            return _copy(hit[0].result_of(ctx.rank, op_id)[1])
        request = (key, op, args, default if has_default else None,
                   has_default)
        [(_ks, epochs, _x, new)] = self._request(
            ctx, "kv_update", f"kv_update({key!r})#op{op_id}",
            {sid: [key]}, lambda _ks: request, extra=(op_id,),
            event="kv_update")
        return self._cache_fetched(epochs, key, new)

    # -- batched ops -------------------------------------------------------
    @_traced("kv_multi_get", "kv_multi")
    def multi_get(self, keys: Iterable[Any],
                  default: Any = _MISSING) -> list:
        """Fetch many keys with **one AM per serving rank**, issued
        concurrently; returns values aligned with ``keys``.

        Cache hits and locally-hosted keys never touch the wire; only
        the remaining misses are coalesced.  KeyError on any missing
        key unless ``default`` is given.  If a serving rank dies
        mid-op: with replication the affected keys retry against the
        promoted backup; without it the op fails fast with a
        diagnostic naming the dead owner and the keys it held.
        """
        keys = list(keys)
        if not keys:
            return []
        ctx = current()
        out: list = [None if default is _MISSING else default] * len(keys)
        missing: list = []
        key_pos: dict[Any, list[int]] = {}
        pending: dict[int, list] = {}
        for pos, k in enumerate(keys):
            sid = shard_of(k, self.nshards)
            hit = self._read_near(ctx, sid, k)
            if hit is None:
                if k not in key_pos:
                    pending.setdefault(sid, []).append(k)
                key_pos.setdefault(k, []).append(pos)
            elif hit[0]:
                out[pos] = hit[1]
            else:
                missing.append(k)
        ctx.stats.add(kv_gets=len(keys))
        for ks, epochs, _x, (hits, vals) in self._request(
                ctx, "kv_get", "multi_get", pending, batched=True,
                event="kv_multi_get"):
            for k, ok, val in zip(ks, hits, vals):
                if not ok:
                    missing.append(k)
                    continue
                val = self._cache_fetched(epochs, k, val)
                for pos in key_pos[k]:
                    out[pos] = val
        if missing and default is _MISSING:
            raise KeyError(missing[0])
        return out

    @_traced("kv_multi_put", "kv_multi")
    def multi_put(self, items) -> None:
        """Store many pairs with one AM per serving rank (concurrent).

        ``items`` is a mapping or an iterable of ``(key, value)``.
        Observes no write-through (a bulk load would evict the working
        set): the replies name the written keys like any other changed
        key, so their cached values are dropped.
        Under rank death: replicated maps retry the affected chunk
        against the promoted backup (server-side grouping by shard
        keeps the retry idempotent); unreplicated maps fail fast
        naming the dead owner and its keys.
        """
        pairs = list(items.items()) if isinstance(items, Mapping) \
            else list(items)
        if not pairs:
            return
        ctx = current()
        data = dict(pairs)  # within one batch the last write wins
        ctx.stats.add(kv_puts=len(pairs))
        by_sid: dict[int, dict] = {}
        for k, v in data.items():
            by_sid.setdefault(shard_of(k, self.nshards), {})[k] = v
        pending = {
            sid: list(chunk) for sid, chunk in by_sid.items()
            if not self._mutate_local(
                ctx, sid,
                lambda sh: sh.put({k: _copy(v) for k, v in chunk.items()}),
                nkeys=len(chunk))
        }
        self._request(ctx, "kv_put", "multi_put", pending,
                      lambda ks: {k: data[k] for k in ks}, batched=True,
                      event="kv_multi_put")

    # -- rebalancing -------------------------------------------------------
    def rebalance(self, shard: int, to: int) -> None:
        """Migrate ``shard`` to rank ``to`` (live): the current primary
        freezes the shard, ships a snapshot **including the in-flight
        exactly-once update records**, leaves a redirect tombstone, and
        the target re-replicates onto a fresh backup.  Racing ops chase
        the redirect; acknowledged writes are never lost."""
        ctx = current()
        sid = int(shard)
        to = int(to)
        if not 0 <= sid < self.nshards:
            raise PgasError(f"rebalance: no such shard {sid}")
        if not 0 <= to < self.nranks:
            raise PgasError(f"rebalance: no such rank {to}")
        if to in ctx.world.dead_ranks:
            raise PgasError(f"rebalance: target rank {to} is dead")
        ctx.telemetry.flight_event(
            "kv_rebalance", src=ctx.rank, dst=to, detail=f"shard {sid}")
        self._request(
            ctx, "kv_migrate", f"kv_migrate(shard {sid} -> rank {to})",
            {sid: []}, lambda _ks: None, extra=(to,))
        self._route(sid, to, None)

    # -- cache control -----------------------------------------------------
    def refresh(self) -> None:
        """Revalidate this client's view: with replication, re-read the
        shard table from the Directory (post-promotion repair); with
        caching, fetch every live rank's shard epochs with concurrently
        issued AMs and drop stale entries (the explicit fence of the
        relaxed consistency model).  After refresh() returns, reads see
        every write acknowledged before the failover."""
        ctx = current()
        self._drain_deaths()
        if self.replicas:
            self._refresh_table(ctx)
        if not self._cache_enabled:
            return
        for _r, args, _pl in self._ask_peers(ctx, "kv_epoch",
                                             self.map_id, -1):
            self._note_reply(args)
        with ctx._handler_lock:
            for sh in _map_state(ctx, self.map_id).shards.values():
                if sh.is_primary:
                    self._cache[sh.sid].contact(sh.epoch)

    def invalidate_cache(self) -> None:
        """Drop every cached entry unconditionally."""
        for cached in self._cache.values():
            cached.repoint()

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- introspection -----------------------------------------------------
    def __contains__(self, key: Any) -> bool:
        try:
            self.get(key)
        except KeyError:
            return False
        return True

    def local_size(self) -> int:
        """Entries in the primary shards hosted by the calling rank."""
        ctx = current()
        with ctx._handler_lock:
            return sum(len(sh.store) for sh in
                       _map_state(ctx, self.map_id).serving())

    def local_keys(self) -> list:
        ctx = current()
        with ctx._handler_lock:
            return [k for sh in _map_state(ctx, self.map_id).serving()
                    for k in sh.store]

    def local_shards(self) -> dict[int, str]:
        """Shard ids hosted by the calling rank -> role."""
        ctx = current()
        with ctx._handler_lock:
            return {sid: sh.role for sid, sh in sorted(
                _map_state(ctx, self.map_id).shards.items())}

    def size(self) -> int:
        """Global entry count over primary shards (non-collective:
        servers answer AMs concurrently; callers racing with writers
        or failovers see a fuzzy count).  Dead ranks — and, like
        :meth:`refresh`, peers that die or time out while being asked —
        are skipped."""
        ctx = current()
        return self.local_size() + sum(
            count for _r, (count, *_), _pl in
            self._ask_peers(ctx, "kv_size", self.map_id))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DistHashMap(id={self.map_id}, shards={self.nshards}, "
                f"replicas={self.replicas}, "
                f"cache={'on' if self._cache_enabled else 'off'})")
