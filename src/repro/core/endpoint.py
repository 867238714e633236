"""One rank's end of the request/reply protocol (paper §IV), world-free.

An AM names a handler, a request carries a token, exactly one reply
completes the initiator's future, and all of it runs when the target
calls ``advance()``.  :class:`Endpoint` owns the token counter and the
table of requests awaiting their reply — no lock, no thread, no
conduit, no world: ``send(dst, am)``, the dead set and ``dispatch(am)``
are given to it (by :class:`~repro.core.world.RankState`, or by
``tests/gasnet/test_contract_model.py`` over queues it controls).
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable

from repro.errors import PgasError, RankDead, SerializationError
from repro.gasnet.am import PROBES, ActiveMessage, make_reply
from repro.gasnet.trace import context, current_trace_id, new_event
from repro.gasnet.wire.frame import Frame


class Endpoint:
    """Originate, answer, receive and sweep one rank's AMs.

    ``send(dst, am)`` is the conduit's send decision (it may raise);
    ``dead`` the world's dead set, only read here; ``dispatch(am)`` runs
    a request's handler; ``fail(exc)`` records this rank's failure.
    """

    __slots__ = ("rank", "stats", "telemetry", "_send", "_dead",
                 "_dispatch", "_fail", "_tokens", "_pending")

    def __init__(self, rank: int, send: Callable, dead, dispatch: Callable,
                 fail: Callable, stats, telemetry):
        self.rank, self.stats, self.telemetry = rank, stats, telemetry
        self._send, self._dead = send, dead
        self._dispatch, self._fail = dispatch, fail
        self._tokens = itertools.count(1)
        # token -> (future, dst, (t0, handler, trace_id) if telemetry).
        # Its threads (sender, the progress thread's reply dispatch, the
        # death sweep, the metrics sampler) touch it only by single dict
        # operations, atomic under the GIL, and each token is popped by
        # one of them only; a walk over it walks a copy.
        self._pending: dict[int, tuple] = {}

    def send(self, dst: int, am: ActiveMessage, fut=None,
             encode=None) -> None:
        """Send ``am`` — every AM a rank originates but a reply — stamped
        with the thread's bound trace context.  ``fut`` takes the reply
        under a fresh token; ``encode(am, telemetry)`` then runs first,
        so it fails at the call site, and a send that raises takes
        ``fut`` back out.  To a rank known dead, a request fails with
        :class:`~repro.errors.RankDead` at the call; a one-way AM drops."""
        tel = self.telemetry
        if tel.active:
            am.trace_id, am.span_id = context.ids
        if fut is None:
            if dst in self._dead:
                self._refuse(dst, am)  # nobody waits: dropped
                return
            self._send(dst, am)
            return
        am.token = token = next(self._tokens)
        pending = self._pending
        pending[token] = (fut, dst, (time.monotonic(), am.handler,
                                     am.trace_id) if tel.active else None)
        # Checked after the registration: a death declared from here on
        # finds ``fut`` in the sweep, one declared before is in the dead
        # set — either way nothing waits out the op timeout.
        if dst in self._dead:
            swept = pending.pop(token, None) is None
            exc = self._refuse(dst, am)
            if not swept:
                fut.set_exception(exc)
            return
        try:
            if encode is not None:
                encode(am, tel)
            self._send(dst, am)
        except BaseException:
            pending.pop(token, None)
            raise

    def _refuse(self, dst: int, am: ActiveMessage) -> RankDead:
        """Count a send refused because ``dst`` is dead; its error."""
        self.stats.add(dead_peer_fastfails=1)
        self.telemetry.flight_event("dead_peer_fastfail", src=self.rank,
                                    dst=dst, detail=am.handler)
        return RankDead(f"rank {self.rank}: AM {am.handler!r} not sent: "
                        f"rank {dst} is dead")

    def reply(self, am: ActiveMessage, args: tuple = (),
              payload: Any = None) -> None:
        """Answer request ``am`` (from a handler, a task, or a queue that
        held it) in its own trace context, once: the token is cleared, so
        a handler raising after its reply fails its rank.  An answer that
        cannot cross the wire (on proc: does not pickle) becomes a
        SerializationError naming the handler or task and the value's type."""
        try:
            self._send(am.src_rank, make_reply(am, self.rank, args, payload))
        except SerializationError as exc:
            value = payload if payload is not None or not args else args[-1]
            what = am.handler
            if what == "exec_task":  # an async: name its function
                what = getattr(am.payload[0], "__qualname__", what)
            self._send(am.src_rank, make_reply(am, self.rank, (
                "__error__", SerializationError(
                    f"rank {self.rank}: the answer to {what!r} is a "
                    f"{type(value).__name__}, which cannot cross the wire "
                    f"({exc})"))))
        am.token = None

    def raised(self, am: ActiveMessage, exc: Exception) -> None:
        """``am``'s handler or task raised ``exc``: an error reply if its
        sender still waits, else this rank fails and ``exc`` propagates.
        Only an ``Exception`` is an answer: a ``die()`` is no error, and
        unwinds the rank that ran the handler."""
        if am.token is not None:
            self.reply(am, ("__error__", exc))
        else:
            self._fail(exc)
            raise exc

    def receive(self, am: ActiveMessage | Frame) -> None:
        """Handle one arrived message, thawed from its frame (by-value
        delivery): a :class:`~repro.gasnet.wire.Frame` as proc's parse
        queues it, or an :class:`ActiveMessage`, whose frame (if any) is
        thawed.  A reply completes its future, a request is dispatched
        in its sender's trace context.  The caller holds the handler
        lock."""
        tel = self.telemetry
        frame = am if am.__class__ is Frame else am._frame
        if frame is not None:
            t0 = time.perf_counter() if tel.full else 0.0
            am = frame.thaw()
            if t0:
                tel.histogram("deser").record_seconds(
                    time.perf_counter() - t0)
        self.stats.record_am_handled()
        if tel.active and am.handler not in PROBES:
            # (probe chatter would drown out the useful history)
            ev = new_event((time.perf_counter(), self.rank, "am_handled",
                            am.src_rank, self.rank, 0, am.handler,
                            am.trace_id or current_trace_id()))
            for keep in tel.flight.keep:
                keep(ev)
        if am.is_reply:
            entry = self._pending.pop(am.token, None)
            if entry is None:
                # Legal only from a rank declared dead (its waiters got
                # RankDead already) that was merely hung: dropped, counted.
                if am.src_rank in self._dead:
                    self.stats.add(stale_replies=1)
                    return
                raise PgasError(
                    f"rank {self.rank}: reply for unknown token {am.token}")
            args = am.args
            if args and args[0] == "__error__":
                entry[0].set_exception(args[1])
            else:
                entry[0].set_result((args, am.payload))
            return
        prev = None
        if am.trace_id and tel.active:
            prev = context.ids
            context.ids = ids = (am.trace_id, tel.new_span_id())
            t0 = time.perf_counter() if tel.full else 0.0
        try:
            self._dispatch(am)
        except Exception as exc:
            self.raised(am, exc)
        finally:
            if prev is not None:
                context.ids = prev
                if tel.full:
                    tel.record_span(
                        f"am:{am.handler}", t0, time.perf_counter() - t0,
                        detail=f"from rank {am.src_rank}",
                        trace_id=am.trace_id, span_id=ids[1],
                        parent_id=am.span_id)

    def sweep(self, exc: BaseException, dst: int | None = None) -> None:
        """Fail with ``exc`` the requests to ``dst`` (all of them when
        None: this rank died), so no waiter outlives a death."""
        pending = self._pending
        for token, entry in list(pending.items()):
            if (dst is None or entry[1] == dst) \
                    and pending.pop(token, None) is not None:
                entry[0].set_exception(exc)

    def in_flight(self) -> list[tuple]:
        """``(token, dst, meta)`` per request awaiting its reply."""
        return [(token, dst, meta)
                for token, (_fut, dst, meta) in list(self._pending.items())]
