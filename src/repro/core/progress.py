"""A rank's progress engine, world-free: its drain, park and wake.

The paper's §IV runtime is ``advance()`` plus two thread modes; here it
is :class:`Progress` (inbox, task queue, handler lock, doorbell, and the
loops over them) and :func:`serve`, one pass of the ``concurrent``-mode
progress thread.  It owns no thread, world or clock: ``RankState`` is
this engine over a World; ``tests/core/test_progress_model.py`` checks
it over a stub world, a fake bell and a virtual clock.

**The park contract**, stated here once (backends' ``poll``/``wake``):

* A wait turns: drain, test the predicate, park in ``poll(rank,
  timeout)``.  A full drain leaves nothing runnable, so the park may
  block.  Every turn stamps ``last_heartbeat`` from the clock, drain or
  not: the deadline and the failure detector read it.
* A delivery appends, a poke raises ``_poked``; then each rings the
  doorbell (``wake``).  A ring stays pending until a park spends it, so
  none can fall between a check and the wait.
* A park first spends a pending ring (smp: ``acquire(False)`` on the
  bell, a lock held while no ring is pending): a delivery's ring is
  covered by the inbox check, so it cannot end the park with an empty
  inbox.  A raised ``_poked`` is lowered and ends the park at once (a
  poke before the park is not lost), as a non-empty inbox does; else it
  waits for a ring, at most its timeout.  A zero timeout leaves bell and
  flag alone.  proc checks flag and inbox so before its ``select.poll``.
* One ring ends one park: a second thread parked for the rank (the
  progress thread, in a handler's nested wait) comes back at its timeout.
* A poke is a state change that is no message: a failure, a death, a
  finalize (``World.poke_all``); a completion on a thread not acting as
  its owner (``Future._settle``); the progress thread after it ran
  anything for the rank — that may be what the rank waits for, and it
  took the message whose ring would have woken it.  A rank's own thread
  does not poke itself: it retests before it parks, so its poke would
  end its next park for nothing.
* The timeout, :data:`PARK_S` clipped to the deadline, is a safety net:
  for a predicate nobody rings for (one that reads the clock) and for
  the failure detector, which judges a peer only by a prober that
  drained within half a ``peer_timeout``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.core.future import _tls
from repro.errors import CommTimeout, PeerFailure
from repro.gasnet.trace import context

#: The longest one park in :meth:`Progress.wait_until` lasts (seconds).
#: It must exceed a kernel tick (4 ms at ``HZ=250``): on a 2-vCPU
#: Firecracker VM, arming and cancelling a timer shorter than that
#: reprograms the clock event device on every park, 5-10 us a round trip.
PARK_S = 0.02


class _RankKilled(BaseException):
    """Unwinds a rank that called :func:`~repro.core.world.die` without
    reporting a failure (it simulates a crash)."""


class Progress:
    """One rank's arrivals and the loops over them.  ``host`` (a World or
    a stub) gives ``conduit``, whose ``poll`` / ``wake`` are looked up at
    each use, ``op_timeout`` and ``_failure`` / ``_failure_thread`` /
    ``dead_ranks``."""

    def __init__(self, rank: int, host, endpoint, telemetry,
                 clock: Callable[[], float] = time.monotonic):
        self.rank, self.host, self.endpoint = rank, host, endpoint
        self.telemetry, self.clock = telemetry, clock
        self._bell = threading.Lock()
        self._bell.acquire()
        self._poked = False  # raised by poke(): the next park returns
        # Arrived messages: ActiveMessages, or on proc the Frames its
        # poll parsed; ``endpoint.receive`` takes either.
        self._inbox: deque = deque()
        #: Queued async tasks: ``(request, enqueued_at)``, the
        #: ``exec_task`` request whose payload is ``(fn, args, kwargs)``
        #: and the ``perf_counter()`` at enqueue when telemetry is
        #: "full" (the spawn->run wait histogram reads it), else 0.0.
        self.task_queue: deque[tuple] = deque()
        # Serializes handler and task runs between the rank's own drains
        # and the progress thread's (the paper's "concurrent" mode).
        self._handler_lock = threading.RLock()
        # Replies a conduit's poll dispatched itself (proc does, when
        # nothing is queued before one), bumped under the handler lock:
        # advance() counts those dispatched during its poll as its own.
        self._poll_handled = 0
        #: Set when the progress thread ran a die() for this rank.
        self.killed = False
        self.last_heartbeat = clock()  # stamped by every turn and drain

    # -- wake -----------------------------------------------------------
    def poke(self) -> None:
        """End this rank's park, or its next one (state changed)."""
        self._poked = True
        self.host.conduit.wake(self.rank)

    def deliver(self, am) -> None:
        """Enqueue a message from any thread, then ring the doorbell."""
        self._inbox.append(am)
        self.host.conduit.wake(self.rank)

    # -- drain ------------------------------------------------------------
    def advance(self, max_items: int | None = None) -> bool:
        """The paper's ``advance()``: poll the network, then run what
        arrived; returns whether anything ran."""
        before = self._poll_handled
        self.host.conduit.poll(self.rank)
        polled = self._poll_handled - before
        if polled and max_items is not None:
            max_items -= polled
        return self._drain(max_items) or polled > 0

    def _drain(self, max_items: int | None = None) -> bool:
        """Run what the inbox and task queue hold (advance's second half)."""
        self.last_heartbeat = self.clock()
        tel = self.telemetry
        t0 = time.perf_counter() if tel.full else 0.0
        handled = 0
        # The items are taken and dispatched under one hold of the
        # handler lock: with two drainers (the rank and the progress
        # thread) that is what keeps a pair's messages in order.
        inbox, tasks = self._inbox, self.task_queue
        if inbox or tasks:
            receive = self.endpoint.receive
            run = self._run_traced if tel.active else self._run_task
            with self._handler_lock:
                while inbox and (max_items is None or handled < max_items):
                    receive(inbox.popleft())
                    handled += 1
                while tasks and (max_items is None or handled < max_items):
                    run(tasks.popleft())
                    handled += 1
        if tel.full and handled:
            # The progress engine's poll latency: how long one advance()
            # held the rank (p99 here is the paper's attentiveness
            # metric).  Idle polls are skipped — spin-waits call
            # advance() millions of times and a histogram append per
            # empty poll would dominate the very cost being measured.
            tel.histogram("advance").record_seconds(
                time.perf_counter() - t0
            )
        return handled > 0

    def _run_traced(self, task: tuple) -> None:
        """:meth:`_run_task` in the request's trace (telemetry active), so
        the task's span and every AM it sends join the caller's."""
        tel = self.telemetry
        req, enqueued_at = task
        fn = req.payload[0]
        name = getattr(fn, "__name__", None) or repr(fn)
        span_id = tel.new_span_id() if req.trace_id else 0
        prev = context.ids
        context.ids = (req.trace_id, span_id)   # (0, 0): untraced
        t_run = time.perf_counter()
        tel.flight_event("task_run", src=req.src_rank,
                         dst=self.rank, detail=name)
        if tel.full:
            # Spawn -> run wait (time spent queued on this rank).
            tel.histogram("task_queue_wait").record_seconds(
                t_run - enqueued_at
            )
        try:
            self._run_task(task)
        finally:
            dur = time.perf_counter() - t_run
            tel.flight_event("task_done", src=req.src_rank,
                             dst=self.rank, detail=name)
            context.ids = prev
            if tel.full:
                tel.histogram("task_exec").record_seconds(dur)
                tel.record_span(f"task:{name}", t_run, dur,
                                trace_id=req.trace_id, span_id=span_id,
                                parent_id=req.span_id)

    def _run_task(self, task: tuple) -> None:
        """Run one queued async task and answer its request with the result
        or what it raised; the caller holds ``_handler_lock`` and is
        bound to this rank (its own thread, or the progress thread)."""
        req = task[0]
        fn, args, kwargs = req.payload
        try:
            result = fn(*args, **kwargs)
            if req.token is not None:
                # The wire layer serializes the result into the reply
                # frame (by-reference fallback for unencodable values);
                # success is a reply whose args do not say "__error__".
                self.endpoint.reply(req, (), result)
        except Exception as exc:
            # (a die() is no error to reply with: it unwinds the rank)
            self.endpoint.raised(req, exc)

    # -- park -------------------------------------------------------------
    def wait_until(self, pred: Callable[[], bool], what: str = "",
                   timeout: float | None = None) -> None:
        """Turn (drain, test ``pred``, park) until ``pred()``; raises
        :class:`PeerFailure` if another rank fails meanwhile, and
        :class:`CommTimeout` after ``timeout`` (the host's ``op_timeout``)."""
        if pred() and not self.killed:
            return
        host, clock = self.host, self.clock
        if timeout is None:
            timeout = host.op_timeout
        deadline = None if timeout is None else clock() + timeout
        poll, inbox, tasks = host.conduit.poll, self._inbox, self.task_queue
        while True:
            if self.killed:  # a die() the progress thread ran for us
                raise _RankKilled()
            failure = host._failure
            # Our own failure normally unwinds this thread by itself, so
            # it is skipped here — unless peers declared us dead while we
            # keep running (a hung rank that resumed): nothing else will wake
            # us, and waiting would sit out the whole op_timeout.
            if failure is not None:
                if (failure[0] != self.rank
                        or self.rank in host.dead_ranks):
                    raise PeerFailure(failure[0], failure[1])
                if host._failure_thread != threading.get_ident():
                    # Ours, but recorded by the progress thread, which
                    # carries on: this is where the rank unwinds.
                    raise failure[1]
            if inbox or tasks:
                self._drain()
            else:
                self.last_heartbeat = clock()
            if pred():
                return
            # this turn just stamped the heartbeat: that is the time
            if deadline is not None and self.last_heartbeat > deadline:
                self.telemetry.flight_event(
                    "op_timeout", src=self.rank, dst=-1,
                    detail=f"wait_until({what or pred}) expired "
                           f"after {timeout}s",
                )
                raise CommTimeout(
                    f"rank {self.rank}: timed out waiting for {what or pred}"
                )
            left = (PARK_S if deadline is None
                    else deadline - self.last_heartbeat)
            poll(self.rank, left if left < PARK_S else PARK_S)


def serve(ranks, fail: Callable[[int, BaseException], None]) -> bool:
    """One pass of the ``concurrent``-mode progress thread (the paper's
    worker Pthread): advance each of ``ranks`` as it, up to 16 items;
    returns whether any ran.  ``fail(rank, exc)`` records an error."""
    progressed = False
    for rank in ranks:
        _tls.ctx = rank  # its tasks and handlers run as it
        try:
            if rank.advance(max_items=16):
                progressed = True
                rank.poke()  # what ran may be what the rank waits for
        except _RankKilled:
            # A task or handler run here called die(): the rank's own
            # thread unwinds at its next wait, as for a die() there, and
            # nothing more of the rank is served here.
            rank.killed = True
            rank.poke()
        except Exception as exc:
            # Not every dispatch error went through world.fail (unknown
            # handler or token, a decode error): record it — first
            # failure wins — and keep serving.
            fail(rank.rank, exc)
    return progressed
