"""Reliable delivery over an unreliable conduit.

The UPC++ runtime (paper §IV) assumes GASNet semantics: active messages
are delivered exactly once, in FIFO order per (src, dst) pair, and RMA
either completes or the job dies.  :class:`ReliableConduit` restores that
contract on top of a transport that drops, duplicates, reorders, and
transiently fails — e.g. :class:`~repro.gasnet.chaos.ChaosConduit` — the
way DART-MPI layers PGAS delivery semantics over an imperfect substrate.
``World(reliability=...)`` installs it over a ``caps.lossy`` conduit
only; liveness is the world's failure detector's job.

Mechanisms
----------
* **Sequencing + dedup** — every AM travels in an envelope carrying a
  per-(src, dst) sequence number; the receiver delivers in order,
  buffers early arrivals, and suppresses duplicates.
* **Cumulative, piggy-backed, delayed acks + retransmit** — every
  envelope also carries the cumulative ack for the opposite direction
  ("I have dispatched everything you sent me below N"), so a reply *is*
  the ack of its request, as in GASNet.  A standalone ``__rel_ack__``
  (cumulative too) is sent only by the monitor, for an ack no reverse
  envelope carried within ``ack_timeout / 4``, and at once on a
  duplicate (its sender never saw the ack).  Unacked envelopes are
  retransmitted on a capped exponential backoff with jitter until a
  per-op deadline raises :class:`~repro.errors.CommTimeout` naming the
  stuck op (on the initiator's future when the AM expects a reply).
  Three rules: taking the ack clears "ack owed" *before* reading the
  receive cursor (an envelope landing in between re-arms it); a
  retransmission reuses its memoized frame, so its ack is stale and
  the sender ignores any ``upto`` at or below what it holds; **no
  SACK** — an envelope buffered ahead of a gap is not covered by the
  cumulative ack and is retransmitted until the gap fills.
* **Bounded RMA retry** — ``rma_put``/``rma_get`` and the indexed bulk
  ops are idempotent and retried freely on
  :class:`~repro.errors.TransientCommError`; ``rma_atomic`` and
  ``rma_atomic_batch`` are guarded by op-ids so a retried update applies
  **exactly once** even when the fault fired after the update landed.
* **Rank death** — the layer subscribes to
  :meth:`~repro.core.world.World.on_rank_death`: envelopes the dead
  rank never acked become :class:`~repro.errors.RankDead` error replies
  at once, and later sends to it fail fast instead of retransmitting
  into a black hole.

Retry/dup/timeout counts land in :class:`~repro.gasnet.stats.CommStats`
(``am_retransmits``/``dup_ams``/``acks_sent``/``rma_retries``/
``op_timeouts``) and in an active
:class:`~repro.gasnet.trace.Trace` as control events.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import (
    CommTimeout,
    PeerFailure,
    RankDead,
    TransientCommError,
)
from repro.gasnet.am import ActiveMessage, am_handler, make_reply
from repro.gasnet.atomics import resolve_scalar
from repro.gasnet.conduit import Conduit, ConduitLayer


@dataclass
class ReliabilityConfig:
    """Tuning knobs for :class:`ReliableConduit` and, through
    ``World(reliability=...)``, for the world's peer probes
    (``heartbeat_period``/``peer_timeout``).

    Defaults are sized for the in-process SMP/chaos conduits (sub-ms
    "wire"); a real network would scale them up.
    """

    #: Initial retransmission timeout (seconds) for an unacked AM.
    ack_timeout: float = 0.01
    #: Exponential backoff multiplier per retransmission.
    backoff: float = 2.0
    #: Cap on the backed-off retransmission interval (seconds).
    rto_max: float = 0.25
    #: Jitter fraction added to each backoff interval (decorrelates
    #: retransmission storms).
    jitter: float = 0.25
    #: Give up on an AM/RMA op after this many retries.
    max_retries: int = 64
    #: Per-op deadline (seconds); ``None`` falls back to the world's
    #: ``op_timeout`` (and to 30 s if that is also ``None``).
    op_deadline: float | None = None
    #: Initial backoff between RMA retries (seconds).
    rma_retry_delay: float = 0.002
    #: Interval between the world detector's peer probe rounds (seconds).
    heartbeat_period: float = 0.05
    #: Declare a peer dead after its probes go this long unanswered
    #: (seconds); ``None`` disables the wire signal.
    peer_timeout: float | None = 2.0
    #: Monitor-thread polling granularity (seconds).
    tick: float = 0.002
    #: Seed for the retransmission-jitter RNG.
    seed: int = 0


@dataclass(slots=True)
class _PendingAm:
    """One unacked in-flight envelope on the sender side."""

    env: ActiveMessage
    inner: ActiveMessage
    src: int
    dst: int
    seq: int
    next_at: float
    deadline: float
    attempts: int = 0


_SEQ_MASK = (1 << 32) - 1


def _pack(seq: int, ack: int) -> int:
    """``seq`` and the cumulative ``ack`` as the header's signed 64-bit
    ``aux`` word, 32 bits each."""
    word = (seq & _SEQ_MASK) | (ack & _SEQ_MASK) << 32
    return word - (1 << 64) if word >> 63 else word


def _unwrap(word: int, near: int) -> int:
    """Serial-number arithmetic: the number within 2**31 of the
    receiver's own cursor ``near`` whose low 32 bits are ``word``'s."""
    return near + ((word - near + (1 << 31)) & _SEQ_MASK) - (1 << 31)


class _Link:
    """One rank's end of its conversation with one peer — the send state
    of ``me -> peer`` and the receive state of ``peer -> me`` — with the
    protocol as its methods.  World-free: a config, a clock value per
    call, ``aux`` words in and out, so it is model-checked without
    ``spmd()`` (``tests/gasnet/test_reliability_link.py``)."""

    def __init__(self, me: int, peer: int, cfg: ReliabilityConfig, jitter):
        self.me, self.peer, self.cfg, self.jitter = me, peer, cfg, jitter
        self.lock = threading.Lock()
        self.next_seq = 0       # next sequence number me -> peer
        self.unacked: dict[int, _PendingAm] = {}    # in seq order
        self.acked_upto = 0     # peer dispatched everything below this
        self.rx_next = 0        # next sequence number due peer -> me
        self.rx_buf: dict[int, ActiveMessage] = {}  # ahead of a gap
        self.ack_owed_since: float | None = None

    def wrap(self, am: ActiveMessage, now: float,
             deadline: float) -> ActiveMessage:
        """Envelope ``am`` with the next sequence number and the ack
        owed to the peer, and hold it until the peer acks it."""
        with self.lock:
            seq = self.next_seq
            self.next_seq = seq + 1
            self.ack_owed_since = None  # cleared before rx_next is read
            env = ActiveMessage(handler="__rel_data__", src_rank=self.me,
                                aux=_pack(seq, self.rx_next), payload=am)
            self.unacked[seq] = _PendingAm(
                env, am, self.me, self.peer, seq,
                now + self.cfg.ack_timeout, deadline)
        return env

    def acked(self, aux: int) -> None:
        """Take the cumulative ack an envelope or a ``__rel_ack__``
        carried: the peer dispatched everything below it."""
        with self.lock:
            upto = _unwrap(aux >> 32, self.acked_upto)
            # Stale (reordered, or a retransmission's memoized frame)
            # is at or below acked_upto: an empty range.
            for seq in range(self.acked_upto, upto):
                self.unacked.pop(seq, None)  # None: it expired first
            self.acked_upto = max(upto, self.acked_upto)

    def on_data(self, aux: int, inner: ActiveMessage,
                now: float) -> list[ActiveMessage] | None:
        """Take the piggy-backed ack, then dedup and reorder: the inner
        AMs now due for dispatch, in order (none while a gap is open),
        or ``None`` for a duplicate."""
        self.acked(aux)
        with self.lock:
            seq = _unwrap(aux, self.rx_next)
            if seq < self.rx_next or seq in self.rx_buf:
                return None
            self.rx_buf[seq] = inner
            ready: list[ActiveMessage] = []
            while self.rx_next in self.rx_buf:
                ready.append(self.rx_buf.pop(self.rx_next))
                self.rx_next += 1
            if ready and self.ack_owed_since is None:
                self.ack_owed_since = now
        return ready

    def take_ack(self) -> int:
        """The ``aux`` of a standalone cumulative ack, sent now."""
        with self.lock:
            self.ack_owed_since = None
            return _pack(0, self.rx_next)

    def poll(self, now: float):
        """One monitor tick: ``(aux of the delayed ack now due or None,
        envelopes to retransmit, envelopes that ran out of budget)``."""
        cfg = self.cfg
        ack, resend, expired = None, [], []
        with self.lock:
            since = self.ack_owed_since
            if since is not None and now - since >= cfg.ack_timeout / 4:
                self.ack_owed_since = None
                ack = _pack(0, self.rx_next)
            for seq, e in list(self.unacked.items()):
                if now >= e.deadline or e.attempts >= cfg.max_retries:
                    del self.unacked[seq]
                    expired.append(e)
                elif now >= e.next_at:
                    e.attempts += 1
                    rto = min(cfg.ack_timeout * cfg.backoff ** e.attempts,
                              cfg.rto_max)
                    e.next_at = now + rto * self.jitter()
                    resend.append(e)
        return ack, resend, expired

    def abandon(self) -> list[_PendingAm]:
        """The peer is dead: give up everything it has not acked."""
        with self.lock:
            doomed = list(self.unacked.values())
            self.unacked.clear()
        return doomed


class ReliableConduit(ConduitLayer):
    """Wrap a lossy conduit with sequencing, acks/retransmit, bounded RMA
    retry, exactly-once atomics and per-op deadlines.

    >>> conduit = ReliableConduit(ChaosConduit(seed=0, am_drop_rate=0.1))
    >>> repro.spmd(body, ranks=4, conduit=conduit)

    or, equivalently, via the world knob::

    >>> repro.spmd(body, ranks=4, conduit=ChaosConduit(...),
    ...            reliability={"peer_timeout": 1.0})
    """

    def __init__(self, inner: Conduit,
                 config: ReliabilityConfig | None = None, **overrides):
        super().__init__(inner)
        if config is None:
            config = ReliabilityConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.cfg = config
        self._rng = np.random.default_rng(config.seed)
        self._rng_lock = threading.Lock()
        #: (me, peer) -> rank ``me``'s end of its link with ``peer``.
        self._links: dict[tuple[int, int], _Link] = {}
        # exactly-once bookkeeping / diagnostics
        self._op_ids = itertools.count(1)
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None

    @property
    def caps(self):
        # The contract is restored above this layer.
        return replace(self._inner.caps, lossy=False)

    # -- lifecycle ---------------------------------------------------------
    def attach(self, world) -> None:
        super().attach(world)
        world._reliable = self
        world.on_rank_death(self._abandon_peer)
        self._monitor = threading.Thread(
            target=self._monitor_main,
            name=f"pgas-reliable-{world.id}", daemon=True,
        )
        self._monitor.start()

    def close(self) -> None:
        """Stop the retransmit monitor and close the inner conduit (the
        world is ending)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        self._inner.close()

    # -- helpers -----------------------------------------------------------
    def _deadline_for(self, now: float) -> float:
        limit = self.cfg.op_deadline
        if limit is None:
            limit = self.world.op_timeout
        if limit is None:
            limit = 30.0
        return now + limit

    def _jitter(self) -> float:
        with self._rng_lock:
            return 1.0 + self.cfg.jitter * float(self._rng.random())

    def _link(self, me: int, peer: int) -> _Link:
        try:
            return self._links[me, peer]
        except KeyError:  # setdefault: two threads may race to be first
            return self._links.setdefault(
                (me, peer), _Link(me, peer, self.cfg, self._jitter))

    def _abandon_peer(self, rank: int, exc: BaseException) -> None:
        """Death subscriber: fail every in-flight AM addressed to
        ``rank``.  Retransmitting into a black hole would only stall
        the initiator until its op deadline, so pending token-carrying
        AMs get an immediate RankDead error reply instead."""
        self._emit_control("peer_dead", rank, rank, detail=str(exc))
        for link in list(self._links.values()):
            if link.peer == rank:
                for e in link.abandon():
                    self._fail_pending(e, exc)

    def _reply_error(self, src: int, dst: int, am: ActiveMessage,
                     exc: BaseException) -> None:
        """Fail ``am`` (sent ``src`` -> ``dst``) at its initiator: when
        it expects a reply, hand ``src`` an ``__error__`` reply carrying
        ``exc`` as if ``dst`` had sent it; fire-and-forget AMs and
        replies have nobody waiting and are simply dropped.  Delivered
        directly (never encoded): _handle accepts plain frameless AMs
        alongside thawed wire frames."""
        if am.token is not None and not am.is_reply:
            self.world.ranks[src].deliver(
                make_reply(am, dst, args=("__error__", exc)))

    def _fail_pending(self, e: _PendingAm, exc: BaseException) -> None:
        self.world.ranks[e.src].stats.add(dead_peer_fastfails=1)
        self._emit_control(
            "dead_peer_fastfail", e.src, e.dst,
            detail=f"{e.inner.handler} seq={e.seq}",
        )
        self._reply_error(e.src, e.dst, e.inner, RankDead(
            f"reliable conduit: AM {e.inner.handler!r} "
            f"{e.src}->{e.dst} abandoned: rank {e.dst} is dead "
            f"({exc})"
        ))

    # -- active messages: sequencing + acks --------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        if src == dst:  # loopback is reliable; skip the protocol
            self._inner.send_am(src, dst, am)
            return
        if am.is_reply:
            # Replies are charged where the conduit sees the reply flag;
            # here the inner conduit only ever sees the data envelope,
            # so the counter must be fed before wrapping.
            self.world.ranks[src].stats.add(replies_sent=1)
        if dst in self.world.dead_ranks:
            # Fail fast instead of queueing for a peer that can never
            # ack: token AMs get an immediate RankDead error reply,
            # fire-and-forget AMs are dropped.
            self.world.ranks[src].stats.add(dead_peer_fastfails=1)
            self._emit_control("dead_peer_fastfail", src, dst,
                               detail=am.handler)
            self._reply_error(src, dst, am, RankDead(
                f"reliable conduit: refusing AM {am.handler!r} "
                f"{src}->{dst}: rank {dst} is dead"
            ))
            return
        now = time.monotonic()
        # The inner AM's frame is spliced into the envelope whole, so
        # retransmissions reuse one encode.
        env = self._link(src, dst).wrap(am, now, self._deadline_for(now))
        self._try_send(src, dst, env)

    def _try_send(self, src: int, dst: int, am: ActiveMessage) -> None:
        """Hand ``am`` to the inner conduit; a transient fault counts as
        a drop, which the retransmitter recovers (an envelope, or the
        lost ack a duplicate will ask for again)."""
        try:
            self._inner.send_am(src, dst, am)
        except TransientCommError:
            pass

    def _send_ack(self, link: _Link, aux: int) -> None:
        self.world.ranks[link.me].stats.add(acks_sent=1)
        # control traffic is a bare header and the name: no args
        self._try_send(link.me, link.peer, ActiveMessage(
            handler="__rel_ack__", src_rank=link.me, aux=aux))

    def _on_data(self, ctx, env: ActiveMessage) -> None:
        """Receiver side: take the ack, dedup, reorder into per-pair
        FIFO; the ack owed in return rides the next envelope back."""
        src, dst = env.src_rank, ctx.rank
        link = self._link(dst, src)
        ready = link.on_data(env.aux, env.payload, time.monotonic())
        if ready is None:
            ctx.stats.add(dup_ams=1)
            self._emit_control("dup_suppressed", src, dst,
                               detail=f"seq={env.aux & _SEQ_MASK}")
            self._send_ack(link, link.take_ack())  # never seen
            return
        # Dispatch outside the link lock (a handler's reply takes it);
        # per-dst ordering is preserved because the caller holds the
        # rank's handler lock.
        for inner_am in ready:
            ctx._handle(inner_am)

    def _on_ack(self, ctx, am: ActiveMessage) -> None:
        self._link(ctx.rank, am.src_rank).acked(am.aux)

    # -- monitor: retransmit, deadlines ------------------------------------
    def _monitor_main(self) -> None:
        while not self._stop.wait(self.cfg.tick):
            world = self.world
            if world is not None:
                self._service_links(world, time.monotonic())

    def _service_links(self, world, now: float) -> None:
        for link in list(self._links.values()):
            if link.ack_owed_since is None and not link.unacked:
                continue
            ack, resend, expired = link.poll(now)
            if ack is not None:  # no reverse envelope carried it in time
                self._send_ack(link, ack)
            for e in expired:
                self._expire(world, e)
            for e in resend:
                self._retransmit(world, e)

    def _retransmit(self, world, e: _PendingAm) -> None:
        inner = e.inner
        detail = f"{inner.handler} seq={e.seq} try={e.attempts}"
        world.ranks[e.src].stats.add(am_retransmits=1)
        self._emit_control("retransmit", e.src, e.dst, e.env.wire_bytes,
                           detail=detail)
        if inner.trace_id:
            # Link the retransmit into the originating op's causal
            # trace: a tiny span joins the Perfetto flow chain, and
            # the flight event carries the trace id.
            tel = world.telemetry.rank(e.src)
            tel.flight_event("retransmit_traced", src=e.src, dst=e.dst,
                             nbytes=e.env.wire_bytes, detail=detail,
                             trace_id=inner.trace_id)
            if tel.full:
                tel.record_span(
                    f"retransmit:{inner.handler}", time.perf_counter(),
                    2e-6, detail=f"seq={e.seq} try={e.attempts}",
                    trace_id=inner.trace_id, span_id=tel.new_span_id(),
                    parent_id=inner.span_id)
        self._try_send(e.src, e.dst, e.env)

    def _expire(self, world, e: _PendingAm) -> None:
        """An AM exhausted its deadline/retry budget: surface CommTimeout
        on the initiator (via its reply future when there is one)."""
        world.ranks[e.src].stats.add(op_timeouts=1)
        diag = (
            f"reliable conduit: AM {e.inner.handler!r} "
            f"{e.src}->{e.dst} seq {e.seq} still unacked after "
            f"{e.attempts} retransmits; giving up"
        )
        self._emit_control("op_timeout", e.src, e.dst, detail=diag)
        self._reply_error(e.src, e.dst, e.inner, CommTimeout(diag))

    # -- RMA: bounded retry ------------------------------------------------
    def _retry_rma(self, attempt_fn, *, src: int, dst: int, what: str):
        """Run ``attempt_fn`` retrying TransientCommError with capped
        exponential backoff until ``max_retries``/deadline, then raise
        CommTimeout naming the stuck op."""
        cfg = self.cfg
        now = time.monotonic()
        deadline = self._deadline_for(now)
        attempts = 0
        while True:
            if dst in self.world.dead_ranks:
                raise PeerFailure(dst, RankDead(
                    f"rank {dst} declared dead before {what}"))
            try:
                return attempt_fn()
            except TransientCommError as exc:
                attempts += 1
                self.world.ranks[src].stats.add(rma_retries=1)
                self._emit_control("rma_retry", src, dst,
                                   detail=f"{what} try={attempts}")
                now = time.monotonic()
                if attempts > cfg.max_retries or now >= deadline:
                    self.world.ranks[src].stats.add(op_timeouts=1)
                    raise CommTimeout(
                        f"reliable conduit: {what} {src}->{dst} failed "
                        f"after {attempts} retries "
                        f"(last: {exc})"
                    ) from exc
                delay = min(cfg.rma_retry_delay * cfg.backoff ** attempts,
                            cfg.rto_max)
                time.sleep(delay * self._jitter())

    def _rma(self, kind: str, fn, src: int, dst: int, *args):
        # put/get and their indexed forms are idempotent: retry whole.
        # (``args[0]`` is the op's byte offset/base.)
        return self._retry_rma(
            lambda: fn(src, dst, *args),
            src=src, dst=dst, what=f"rma_{kind}[{args[0]}]",
        )

    # -- atomics: exactly-once under retry ---------------------------------
    #
    # A transient fault can fire *after* the read-modify-write applied at
    # the target (the chaos conduit's "post" faults).  Blind retry would
    # double-apply.  The guard: the scalar update callable we hand the
    # inner conduit records the observed old value under the target's
    # segment lock — atomically with the update itself.  On retry, a
    # recorded old value proves the op already applied, and we return it
    # without touching the target again.

    def rma_atomic(self, src: int, dst: int, offset: int,
                   dtype: np.dtype, op, operand):
        fn = resolve_scalar(op)
        op_id = next(self._op_ids)
        applied: dict[str, object] = {}

        def guarded(old, v):
            applied["old"] = old
            return fn(old, v)

        def attempt():
            if "old" in applied:  # fault fired post-application
                return applied["old"]
            return self._inner.rma_atomic(
                src, dst, offset, dtype, guarded, operand
            )

        return self._retry_rma(
            attempt, src=src, dst=dst,
            what=f"rma_atomic[{offset}]#op{op_id}",
        )

    def rma_atomic_batch(self, src: int, dst: int, base: int,
                         dtype: np.dtype, elem_offsets: np.ndarray,
                         op, operands, return_old: bool = False):
        fn = resolve_scalar(op)
        op_id = next(self._op_ids)
        dtype = np.dtype(dtype)
        n = np.asarray(elem_offsets).size
        olds: list = []

        def guarded(old, v):
            olds.append(old)
            return fn(old, v)

        def attempt():
            # The inner conduit applies the whole batch under one
            # segment-lock acquisition, and faults only fire at the
            # conduit boundary — so the batch either fully applied
            # (len(olds) == n) or not at all.
            if len(olds) != n:
                olds.clear()
                self._inner.rma_atomic_batch(
                    src, dst, base, dtype, elem_offsets, guarded,
                    operands, return_old=False,
                )
            return np.array(olds, dtype=dtype) if return_old else None

        if n == 0:
            return np.empty(0, dtype=dtype) if return_old else None
        return self._retry_rma(
            attempt, src=src, dst=dst,
            what=f"rma_atomic_batch[{base}]x{n}#op{op_id}",
        )


# ---------------------------------------------------------------------------
# protocol AM handlers
# ---------------------------------------------------------------------------

def _protocol_handler(name: str, method) -> None:
    @am_handler(name)
    def _handler(ctx, am) -> None:
        rc = getattr(ctx.world, "_reliable", None)
        if rc is not None:
            method(rc, ctx, am)


_protocol_handler("__rel_data__", ReliableConduit._on_data)
_protocol_handler("__rel_ack__", ReliableConduit._on_ack)
