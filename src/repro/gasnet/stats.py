"""Per-rank communication counters.

Every conduit operation is recorded here.  The counters serve three
purposes:

1. tests can assert *communication patterns* (e.g. one ghost exchange
   issues exactly six messages per rank per timestep);
2. :mod:`repro.sim.calibrate` converts measured per-op software overheads
   into machine-model parameters;
3. the bench spine (``bench/``) turns per-op counter deltas into
   ladder rungs (``gasnet.ams_per_op``, ``containers.hashmap.ams_per_put``,
   ``gasnet.wire.pickle_fallback_share``, ...).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields


@dataclass
class CommStats:
    """Mutable counters for one rank. Thread-safe via an internal lock."""

    puts: int = 0
    put_bytes: int = 0
    gets: int = 0
    get_bytes: int = 0
    atomics: int = 0
    # Batched (indexed) RMA: one conduit op covering many elements.
    puts_indexed: int = 0
    gets_indexed: int = 0
    atomic_batches: int = 0
    batched_elements: int = 0
    ams_sent: int = 0
    am_bytes: int = 0
    ams_handled: int = 0
    replies_sent: int = 0
    barriers: int = 0
    collectives: int = 0
    # Tree-collectives engine (repro.core.coll_engine): point-to-point
    # AMs issued on behalf of collectives (subset of ams_sent).
    coll_msgs: int = 0
    local_accesses: int = 0
    remote_accesses: int = 0
    # Nothing retransmits or acks on a crash-stop transport, so these
    # two always read 0; they stay only because the bench spine's
    # COUNT_KEYS (bench/workloads.py) and its gasnet.reliability.*
    # rungs (bench/ladder.py) index them.
    am_retransmits: int = 0
    acks_sent: int = 0
    # Failure detector (repro.core.world): replies that arrived from a
    # rank already declared dead, liveness probes sent.
    stale_replies: int = 0
    heartbeats_sent: int = 0
    # Distributed containers (repro.containers): per-key op counts and
    # the multi-op coalescing/caching counters.
    kv_gets: int = 0
    kv_puts: int = 0
    kv_deletes: int = 0
    kv_updates: int = 0
    kv_multi_ops: int = 0
    kv_batched_keys: int = 0
    kv_cache_hits: int = 0
    kv_cache_misses: int = 0
    # Replication / failover (repro.containers.hashmap): backup-log
    # records shipped, client-side failovers, owner-side backup
    # promotions, live shard migrations; and sends refused because the
    # peer is already dead (Endpoint.send).
    kv_repl_records: int = 0
    kv_failovers: int = 0
    kv_promotions: int = 0
    kv_migrations: int = 0
    dead_peer_fastfails: int = 0
    # Wire layer (repro.gasnet.wire): frames encoded, how many stayed in
    # the tagged stream (``wire_fixed``) vs. fell back to pickle, and how
    # many carried by-reference (unserializable) objects.
    wire_frames: int = 0
    wire_fixed: int = 0
    pickle_fallbacks: int = 0
    wire_byref: int = 0
    # Shared-memory ring transport (repro.gasnet.proc, ring mode): slots
    # published, messages sent (1 per send), sends that used the OOB
    # spill region, full-ring backoff iterations on the sender, bell
    # bytes sent on the pair's socket, and receive-loop wake-ups that
    # drained a ring.
    wire_ring_slots: int = 0
    wire_ring_frames: int = 0
    wire_ring_spills: int = 0
    wire_ring_full_backoffs: int = 0
    wire_ring_doorbells: int = 0
    wire_ring_wakeups: int = 0
    # Work stealing (repro.core.workqueue) and the straggler watchdog
    # (repro.telemetry.metrics): steal round trips started, those that
    # came back with loot, in-flight AMs flagged ``slow_op``.
    wq_steals_attempted: int = 0
    wq_steals_ok: int = 0
    slow_ops_flagged: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, **deltas: int) -> None:
        """Add each delta to its named counter, all under one lock
        acquisition — the call site says what it counts:
        ``stats.add(puts=1, put_bytes=n, remote_accesses=1)``.  Bools
        add as 0/1.  A name that is not a declared counter raises
        :class:`AttributeError` before anything is changed."""
        if not _COUNTER_SET.issuperset(deltas):
            unknown = sorted(set(deltas) - _COUNTER_SET)
            raise AttributeError(f"CommStats has no counter {unknown}")
        d = self.__dict__
        with self._lock:
            for name, n in deltas.items():
                d[name] += n

    def record_am_handled(self) -> None:
        """One AM dispatched: :meth:`record_am_wire`'s other end, hand-
        written for the same reason."""
        with self._lock:
            self.ams_handled += 1

    def record_am_wire(self, nbytes: int, used_pickle: bool,
                       by_ref: bool, is_reply: bool) -> None:
        """One AM sent as one encoded frame.  Hand-written because it
        runs on every send, where the generic seven-counter :meth:`add`
        measured +3 % ``cpu_s_per_kop`` on the ``rpc_*`` spine
        workloads."""
        with self._lock:
            self.ams_sent += 1
            self.am_bytes += nbytes
            if is_reply:
                self.replies_sent += 1
            self.wire_frames += 1
            if used_pickle:
                self.pickle_fallbacks += 1
            else:
                self.wire_fixed += 1
            if by_ref:
                self.wire_byref += 1

    def record_atomic_batch(self, count: int) -> None:
        """One batched atomic of ``count`` elements on a remote owner's
        segment: one conduit op.  Hand-written like
        :meth:`record_am_wire`: it runs once per remote owner of every
        GUPS window."""
        with self._lock:
            self.atomic_batches += 1
            self.batched_elements += count
            self.remote_accesses += count

    # Derived properties read several counters that a concurrent
    # add() may be mid-update on, so they all go through snapshot()
    # (one consistent locked copy) instead of reading fields directly.
    @property
    def messages(self) -> int:
        """Total injected network operations (RMA + AMs + replies)."""
        s = self.snapshot()
        return (s["puts"] + s["gets"] + s["atomics"] + s["ams_sent"]
                + s["puts_indexed"] + s["gets_indexed"]
                + s["atomic_batches"])

    @property
    def batched_ops(self) -> int:
        """Indexed bulk conduit operations (each covers many elements)."""
        s = self.snapshot()
        return s["puts_indexed"] + s["gets_indexed"] + s["atomic_batches"]

    @property
    def coalescing_ratio(self) -> float:
        """Average elements carried per batched operation (0.0 when no
        batched ops were issued) — how many scalar accesses each batch
        replaced.  Covers both indexed RMA (elements per conduit op) and
        container multi-ops (remote keys per owner-targeted AM)."""
        s = self.snapshot()
        ops = (s["puts_indexed"] + s["gets_indexed"] + s["atomic_batches"]
               + s["kv_multi_ops"])
        if not ops:
            return 0.0
        return (s["batched_elements"] + s["kv_batched_keys"]) / ops

    @property
    def wire_fixed_rate(self) -> float:
        """Fraction of encoded frames that avoided pickle entirely (0.0
        when no frames were encoded)."""
        s = self.snapshot()
        return s["wire_fixed"] / s["wire_frames"] if s["wire_frames"] else 0.0

    @property
    def kv_cache_hit_rate(self) -> float:
        """Fraction of cacheable container reads served locally (0.0
        when the cache saw no traffic)."""
        s = self.snapshot()
        total = s["kv_cache_hits"] + s["kv_cache_misses"]
        return s["kv_cache_hits"] / total if total else 0.0

    @property
    def bytes_moved(self) -> int:
        s = self.snapshot()
        return s["put_bytes"] + s["get_bytes"] + s["am_bytes"]

    def snapshot(self) -> dict:
        """An immutable copy of the counters (plain dict), keyed and
        ordered as the fields are declared above."""
        with self._lock:
            return {name: getattr(self, name) for name in _COUNTERS}

    def reset(self) -> None:
        with self._lock:
            for name in _COUNTERS:
                setattr(self, name, 0)


#: Every counter field of :class:`CommStats`, in declaration order: a new
#: counter is declared once, in the dataclass, and snapshot()/reset()/
#: aggregate() pick it up from here.
_COUNTERS = tuple(f.name for f in fields(CommStats) if f.name != "_lock")
_COUNTER_SET = frozenset(_COUNTERS)


def aggregate(stats: list[CommStats]) -> dict:
    """Sum a list of per-rank snapshots into one dict."""
    total: dict[str, int] = {}
    for s in stats:
        for k, v in s.snapshot().items():
            total[k] = total.get(k, 0) + v
    return total
