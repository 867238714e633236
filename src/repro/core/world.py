"""SPMD world and per-rank runtime state.

The execution model follows the paper §IV:

* each UPC++ *rank* is an independent execution unit (here: one thread of
  the launching process, with a private :class:`~repro.gasnet.segment.Segment`
  as its share of the global address space);
* incoming active messages and spawned async tasks are processed when the
  rank calls ``advance()`` — either explicitly or implicitly inside every
  blocking runtime call;
* in ``concurrent`` thread-support mode, an additional progress thread
  drains inboxes of ranks that are busy computing (the paper's "worker
  Pthread").

:func:`spmd` is the launcher: it runs a function on ``n`` ranks and
returns the per-rank results.  If any rank raises, all blocked peers are
released with :class:`~repro.errors.PeerFailure` and the original
exception is re-raised on the launching thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import (
    CommTimeout,
    NotInSpmdRegion,
    PeerFailure,
    PgasError,
    RankDead,
    TransientCommError,
)
from repro.core.coll_engine import CollEngine
from repro.core.endpoint import Endpoint
from repro.core.future import Future, _tls
from repro.core.liveness import Liveness
from repro.gasnet.am import ActiveMessage, am_handler, handler_registry
from repro.gasnet.segment import Segment
from repro.gasnet.smp import SmpConduit
from repro.gasnet.stats import CommStats
from repro.telemetry import (
    MetricsSampler,
    WorldTelemetry,
    resolve_config as _resolve_telemetry,
    tracing,
)
from repro.telemetry.flight import dump_on_failure

#: Default per-rank segment size (16 MiB) — plenty for the test suite,
#: overridable per spmd() call for the benchmarks.
DEFAULT_SEGMENT_SIZE = 16 * 1024 * 1024

_world_ids = itertools.count(1)

#: The longest one park in :meth:`RankState.wait_until` lasts (seconds).
#: A park ends by a ring — every message, self-send and poke rings the
#: rank's doorbell — so this clock is only the safety net for a
#: predicate nobody rings for (one that reads the clock) and for the
#: failure detector, which judges a peer only by a prober that drained
#: within half a ``peer_timeout``.  It must exceed a kernel tick (4 ms
#: at ``HZ=250``): on a 2-vCPU Firecracker VM, arming and cancelling a
#: timer shorter than that reprograms the clock event device on every
#: park, 5-10 us a round trip.
PARK_S = 0.02


def current() -> "RankState":
    """The calling thread's rank state; raises outside an SPMD region."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        raise NotInSpmdRegion(
            "this operation requires a rank context; run it inside "
            "repro.spmd(fn, ranks=N)"
        )
    return ctx


def try_current() -> Optional["RankState"]:
    """Like :func:`current` but returns None outside SPMD regions."""
    return getattr(_tls, "ctx", None)


class RankState:
    """Everything one rank owns: segment, inbox, task queue, and the
    :class:`~repro.core.endpoint.Endpoint` its messages go through."""

    def __init__(self, world: "World", rank: int, segment_size: int):
        self.world = world
        self.rank = rank
        factory = world._segment_factory
        self.segment = (Segment(segment_size, rank=rank)
                        if factory is None else factory(rank, segment_size))
        self.stats = CommStats()
        #: This rank's telemetry state (histograms, flight recorder);
        #: always present — a no-op object when telemetry is "off".
        self.telemetry = world.telemetry.rank(rank)
        # The doorbell smp parks on: held whenever no ring is pending,
        # released by ``conduit.wake`` (see :meth:`Conduit.poll`).
        self._bell = threading.Lock()
        self._bell.acquire()
        #: Raised by :meth:`poke` before it wakes the rank: the next
        #: park returns at once (see :meth:`Conduit.poll`).
        self._poked = False
        # Arrived messages: ActiveMessages, or on proc the Frames its
        # poll parsed; ``endpoint.receive`` takes either.
        self._inbox: deque = deque()
        #: Queued async tasks: ``(request, enqueued_at)``, the
        #: ``exec_task`` request whose payload is ``(fn, args, kwargs)``
        #: and the ``perf_counter()`` at enqueue when telemetry is
        #: "full" (the spawn->run wait histogram reads it), else 0.0.
        self.task_queue: deque[tuple] = deque()
        #: The request/reply protocol; ``reply(am, args, payload)`` is
        #: its answer (see :meth:`Endpoint.reply`).
        self.endpoint = Endpoint(rank,
                                 functools.partial(world.conduit.send_am,
                                                   rank),
                                 world.dead_ranks,
                                 self._dispatch,
                                 functools.partial(world.fail, rank),
                                 self.stats, self.telemetry)
        self.reply = self.endpoint.reply
        # The handler lock serializes AM-handler/task execution between the
        # rank's own advance() and the shared progress thread (paper's
        # "concurrent" thread-support mode).
        self._handler_lock = threading.RLock()
        # Replies a conduit's poll dispatched itself (proc does, when
        # nothing is queued before one), bumped under the handler lock:
        # advance() counts those dispatched during its poll as its own.
        self._poll_handled = 0
        # Finish-scope stack for the RAII finish construct (paper §III-G).
        self.finish_stack: list = []
        # The collectives: sequence numbers, machines in flight and
        # early messages, sent through this rank's endpoint.
        self.coll = CollEngine(rank, world.n_ranks, self.endpoint.send,
                               self._handler_lock, self.stats,
                               self.telemetry, self)
        # Owner-side tables: global locks, directory objects, ...
        self.lock_table: dict[int, dict] = {}
        self.dir_table: dict[int, Any] = {}
        # Free-form per-rank scratch space for applications/benchmarks.
        self.scratch: dict[str, Any] = {}
        #: Set when the rank's SPMD body ended, however it ended (a
        #: remote rank's on proc: when its done notice arrives).
        self.done = False
        #: Set when the rank's SPMD body returned (survivable-death
        #: finalize waits on this instead of a world barrier).
        self.body_done = False
        #: Set when the progress thread ran a die() for this rank.
        self.killed = False
        #: Stamped by every drain: ``wait_until``'s deadline reads it.
        self.last_heartbeat = time.monotonic()

    # -- messaging ------------------------------------------------------
    def poke(self) -> None:
        """End this rank's park, or its next one (state changed)."""
        self._poked = True
        self.world.conduit.wake(self.rank)

    def deliver(self, am: ActiveMessage) -> None:
        """Enqueue an incoming message from any thread and wake the
        rank if it is parked.  The append is atomic by itself; the wake
        after it rings a doorbell that stays rung until a park spends
        it, so it cannot fall between the parker's check and its wait."""
        self._inbox.append(am)
        self.world.conduit.wake(self.rank)

    def send_am(
        self,
        dst: int,
        handler: str,
        args: tuple = (),
        payload: Any = None,
        expect_reply: bool = False,
    ):
        """Send an active message; optionally return a reply future."""
        fut = None
        if expect_reply:
            fut = Future(self)
            if self.telemetry.full:
                # AM round-trip latency: request send -> reply handled.
                tel, t0 = self.telemetry, time.perf_counter()
                fut.add_callback(lambda _f: tel.record_latency(
                    "am_rtt", time.perf_counter() - t0
                ))
        self.endpoint.send(
            dst, ActiveMessage(handler, self.rank, args, payload), fut)
        return fut

    def _dispatch(self, am: ActiveMessage) -> None:
        """The endpoint's dispatch: run ``am``'s handler as this rank."""
        handler = handler_registry.get(am.handler)
        if handler is None:
            raise PgasError(f"unknown AM handler {am.handler!r}")
        handler(self, am)

    # -- progress ---------------------------------------------------------
    def advance(self, max_items: int | None = None) -> bool:
        """Process pending active messages and queued tasks.

        Returns True when any progress was made.  This is the paper's
        ``advance()``: it polls the network, then runs what arrived;
        user code may call it explicitly; every blocking runtime
        operation calls it while waiting.
        """
        before = self._poll_handled
        self.world.conduit.poll(self.rank)
        polled = self._poll_handled - before
        if polled and max_items is not None:
            max_items -= polled
        return self._drain(max_items) or polled > 0

    def _drain(self, max_items: int | None = None) -> bool:
        """Run what is in the inbox and the task queue (the half of
        :meth:`advance` after the poll)."""
        self.last_heartbeat = time.monotonic()
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
        with tracing.bound(req.trace_id, span_id):  # (0, 0): untraced
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

    # -- blocking helper ---------------------------------------------------
    def wait_until(self, pred: Callable[[], bool], what: str = "",
                   timeout: float | None = None) -> None:
        """Poll ``pred`` while making progress; the blocking idiom.

        Each turn drains, tests ``pred``, and parks in the conduit's
        ``poll`` until the rank's doorbell rings (a message, a self-send
        or a :meth:`poke`) — at most :data:`PARK_S`, clipped to
        what is left of the deadline.

        Raises :class:`PeerFailure` if another rank fails while we wait and
        :class:`CommTimeout` after ``timeout`` (default: the world's
        operation timeout) seconds.
        """
        if pred() and not self.killed:
            return
        world = self.world
        if timeout is None:
            timeout = world.op_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        poll, inbox, tasks = world.conduit.poll, self._inbox, self.task_queue
        while True:
            if self.killed:  # a die() the progress thread ran for us
                raise _RankKilled()
            failure = world._failure
            # Our own failure normally unwinds this thread by itself, so
            # it is skipped here — unless peers declared us dead while we
            # keep running (a hung rank that resumed): nothing else will wake
            # us, and waiting would sit out the whole op_timeout.
            if failure is not None:
                if (failure[0] != self.rank
                        or self.rank in world.dead_ranks):
                    raise PeerFailure(failure[0], failure[1])
                if world._failure_thread != threading.get_ident():
                    # Ours, but recorded by the progress thread, which
                    # carries on: this is where the rank unwinds.
                    raise failure[1]
            # Drain, test, park: a full drain leaves nothing runnable
            # here, so the park can block — and it returns at once when
            # the network (or a self-send) already has something.  A
            # turn with nothing queued is a drain that finds nothing:
            # it only stamps the heartbeat.
            if inbox or tasks:
                self._drain()
            else:
                self.last_heartbeat = time.monotonic()
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankState rank={self.rank}/{self.world.n_ranks}>"


class World:
    """One SPMD execution: ``n_ranks`` ranks over a conduit.

    Failure knobs
    -------------
    The fault model is crash-stop: a rank works or dies, and the
    transport loses nothing between live ranks.  The failure detector,
    a step of the housekeeping thread that ``reliability=`` starts,
    records every death in the one dead set, :attr:`dead_ranks`; from
    then on a request to the dead rank fails with
    :class:`~repro.errors.RankDead` at the call:

    ``reliability``:
        ``True``, a dict of :class:`ReliabilityConfig` fields or a
        config: every ``heartbeat_period`` each local rank probes every
        peer, and a peer whose rank thread answers no probe for
        ``peer_timeout`` seconds — it hung — is declared dead.  A rank
        is judged by probe silence only while another live rank of this
        process probes it and has drained within half a
        ``peer_timeout`` (it reads the answers).  A rank that calls
        :func:`die` needs no detector: its launcher declares it at once,
        on every backend.
    ``telemetry``:
        ``None``/``"off"`` (default) records nothing and adds no sink
        to :attr:`sinks`; ``"flight"`` runs only the per-rank flight
        recorder (dumped on failure); ``"full"``/``True`` adds per-op
        latency histograms and spans.  Also accepts a dict of
        :class:`~repro.telemetry.TelemetryConfig` fields or a ready
        config.  See :mod:`repro.telemetry`.
    ``survive_rank_death``:
        ``False`` (default) keeps the historical contract: the first
        :class:`~repro.errors.RankDead` fails the whole world and every
        blocked peer raises :class:`~repro.errors.PeerFailure`.  With
        ``True`` a detected death is *survivable*: the dead rank is
        recorded in :attr:`dead_ranks`, subscribers registered via
        :meth:`on_rank_death` are notified (this is what drives
        DistHashMap backup promotion), in-flight and later requests to
        the dead peer fail fast with ``RankDead``, and the surviving
        ranks keep running.  The implicit finalize barrier degrades to a
        done-or-dead wait so survivors can exit without the dead rank.
    """

    def __init__(
        self,
        n_ranks: int,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        conduit=None,
        thread_mode: str = "serialized",
        op_timeout: float | None = 60.0,
        reliability=None,
        telemetry=None,
        survive_rank_death: bool = False,
        local_ranks=None,
        segment_factory=None,
    ):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if thread_mode not in ("serialized", "concurrent"):
            raise ValueError("thread_mode must be serialized|concurrent")
        self.id = next(_world_ids)
        self.n_ranks = n_ranks
        #: None on in-process backends (every rank is local).  On the
        #: proc backend each rank process holds the full directory of
        #: RankState objects, but only its own rank *executes* here —
        #: the rest are stubs whose segments are shared-memory views.
        #: Liveness machinery (progress thread, failure detector and its
        #: probes, metrics sampler) must only drive the local ranks.
        self.local_ranks = (None if local_ranks is None
                            else frozenset(local_ranks))
        self._segment_factory = segment_factory
        self.thread_mode = thread_mode
        self.op_timeout = op_timeout
        self.survive_rank_death = bool(survive_rank_death)
        #: The one dead set, fed by the detector (and, on proc, the
        #: launcher).  Read freely; written via mark_dead.
        self.dead_ranks: set[int] = set()
        self._death_subs: list[Callable[[int, BaseException], None]] = []
        #: Observability state (histograms, flight recorder, spans) —
        #: see :mod:`repro.telemetry`.  Mode "off" records nothing.
        self.telemetry = WorldTelemetry(n_ranks, _resolve_telemetry(telemetry))
        #: Where every conduit op's CommEvent goes (see
        #: :mod:`repro.gasnet.conduit`): the flight ring's sink when
        #: telemetry is on, plus each open Trace's; empty, and free,
        #: otherwise.  Replaced whole, never mutated.
        self.sinks: tuple = ((self.telemetry.conduit_event,)
                             if self.telemetry.enabled else ())
        #: The backend, for the whole life of the world.
        self.conduit = conduit if conduit is not None else SmpConduit()
        rel = _resolve_reliability(reliability)
        #: The failure detector's decisions; None runs no detector.
        self._liveness = None
        if rel is not None and rel.peer_timeout is not None and n_ranks > 1:
            self._liveness = Liveness(n_ranks, rel.heartbeat_period,
                                      rel.peer_timeout, time.monotonic())
        self._glock = threading.Lock()
        self._failure: tuple[int, BaseException] | None = None
        #: Who recorded it: a rank's own failure unwinds its thread by
        #: itself only when that thread is the one that failed.
        self._failure_thread: int | None = None
        self.ranks = [RankState(self, r, segment_size) for r in range(n_ranks)]
        self.conduit.attach(self)
        self._lock_ids = itertools.count(1)
        self._dir_ids = itertools.count(1)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        # The helper threads start here.  The progress thread drains the
        # busy ranks in concurrent mode; one housekeeping thread runs
        # every periodic step asked for: the detector round, and the
        # metrics sample ("full" only, where its histograms exist) and
        # straggler watchdog of the telemetry.
        if thread_mode == "concurrent":
            self._start_thread("progress", self._progress_main)
        steps = []
        if self._liveness is not None:
            steps.append((self._liveness.heartbeat_period,
                          self._detector_round))
        cfg = self.telemetry.config
        sampler = MetricsSampler(cfg.sample_period, cfg.slow_op_min_s)
        if self.telemetry.full and cfg.sample_period:
            steps.append((cfg.sample_period,
                          lambda: sampler.sample(self._local_live())))
        if self.telemetry.enabled and cfg.watchdog_period:
            steps.append((cfg.watchdog_period,
                          lambda: sampler.watchdog(self._local_live())))
        if steps:
            self._start_thread("housekeeping", self._housekeeping_main,
                               steps)

    # -- observability -------------------------------------------------------
    def add_sink(self, sink: Callable) -> None:
        """Add ``sink`` to :attr:`sinks`: from now on it is called with
        each conduit op's :class:`~repro.gasnet.trace.CommEvent`."""
        with self._glock:
            self.sinks = (*self.sinks, sink)

    def remove_sink(self, sink: Callable) -> None:
        """Take ``sink`` (the object :meth:`add_sink` was given) out of
        :attr:`sinks`; not there, nothing happens."""
        with self._glock:
            self.sinks = tuple(s for s in self.sinks if s is not sink)

    def dump_flight_recorder(self, header: str = "", file=None) -> str:
        """Merge every rank's flight-recorder ring into one time-ordered
        human-readable dump; write it to ``file`` when given (pass
        ``sys.stderr`` for the classic crash dump) and return it.
        Every declared death is in it as one ``rank_dead`` line (see
        :meth:`mark_dead`).
        """
        text = self.telemetry.dump_flight_recorder(header=header)
        if file is not None:
            file.write(text)
        return text

    def metrics_reduce(self, team=None, snapshot: dict | None = None) -> dict:
        """Collective cluster-wide metrics aggregation: every rank's
        histogram/counter snapshot folded over the tree
        collectives engine.  Must be called from rank context by all
        members of ``team``; see :func:`repro.telemetry.metrics_reduce`."""
        from repro.telemetry import metrics as _metrics

        return _metrics.metrics_reduce(team=team, snapshot=snapshot)

    def is_local(self, rank: int) -> bool:
        """Whether ``rank`` executes in this process (always true on
        in-process backends)."""
        return self.local_ranks is None or rank in self.local_ranks

    # -- failure propagation ------------------------------------------------
    @property
    def failure(self) -> tuple[int, BaseException] | None:
        return self._failure

    def fail(self, rank: int, exc: BaseException) -> None:
        """Record the first failure and wake every blocked rank."""
        with self._glock:
            if self._failure is None:
                self._failure = (rank, exc)
                self._failure_thread = threading.get_ident()
        self.poke_all()

    # -- rank-death notification ---------------------------------------------
    def on_rank_death(self, callback: Callable[[int, BaseException], None]
                      ) -> None:
        """Subscribe to rank-death events (RankDead).

        ``callback(rank, exc)`` runs on the housekeeping thread — it must
        be quick and must not block on communication (record the event,
        consume it from a rank thread).  This is the failover hook: the
        replicated containers subscribe to flip their shard tables and
        promote backups.
        """
        with self._glock:
            self._death_subs.append(callback)

    def mark_dead(self, rank: int, exc: BaseException) -> None:
        """Declare ``rank`` dead (idempotent).

        Always records the death in :attr:`dead_ranks`, logs one
        ``rank_dead`` flight event (src and dst the dead rank, detail
        the reason) in the ring of the lowest live local rank, fails
        the futures waiting on it, and notifies
        :meth:`on_rank_death` subscribers.  Then:
        without ``survive_rank_death`` the world fails (the historical
        fatal contract); with it the survivors are merely poked so
        blocked waits re-evaluate.
        """
        with self._glock:
            if rank in self.dead_ranks:
                return
            self.dead_ranks.add(rank)
            subs = list(self._death_subs)
        witness = next(iter(self._local_live()), None)
        if witness is not None:
            witness.telemetry.flight_event(
                "rank_dead", src=rank, dst=rank, detail=str(exc))
        # Sweep orphaned reply futures: waiters on the dead rank get the
        # death as their answer, and the dead rank's own waits unwind so
        # a hung primary that resumes does not sit out its op deadline
        # inside a handler.
        for r in range(self.n_ranks):
            try:
                self.ranks[r].endpoint.sweep(
                    exc, dst=None if r == rank else rank)
            except Exception:
                pass
        for cb in subs:
            try:
                cb(rank, exc)
            except Exception:
                pass  # a broken subscriber must not mask the death
        if self.survive_rank_death:
            self.poke_all()
        else:
            self.fail(rank, exc)

    def finalize(self, ctx: RankState) -> None:
        """The implicit finalize barrier of ``ctx``'s body (cf.
        upcxx::finalize / UPC's implicit barrier at exit): a rank keeps
        servicing active messages until every peer is done issuing work,
        so trailing asyncs/RMA addressed to it are never stranded."""
        ctx.body_done = True
        self.poke_all()
        if not self.survive_rank_death:
            from repro.core.collectives import barrier

            return barrier()
        # A tree barrier would hang on a dead member: the finalize
        # degrades to a done-or-dead wait (serving AMs meanwhile).  A
        # remote rank's done flag only travels by message.
        for d in range(self.n_ranks):
            if not (self.is_local(d) or d in self.dead_ranks):
                try:
                    ctx.send_am(d, "__proc_done__")
                except Exception:
                    pass
        ctx.wait_until(lambda: all(p.body_done or p.rank in self.dead_ranks
                                   for p in self.ranks),
                       what="finalize (done-or-dead)")

    def poke_all(self) -> None:
        """Wake all ranks blocked in wait_until (state changed), and end
        the next park of any rank not parked yet."""
        for rk in self.ranks:
            rk.poke()

    def run_rank(self, ctx: RankState, fn: Callable, args: tuple,
                 kwargs: dict) -> tuple[str, Any]:
        """The rank body of both launchers: run ``fn`` as ``ctx`` on the
        calling thread, then its :meth:`finalize`, and mark it done.
        Returns how the rank ended: ``("result", value)``, ``("error",
        exc)`` or ``("died", None)`` (it called :func:`die`; the
        launcher declares the death).  An error that is not a
        :class:`PeerFailure` is recorded with :meth:`fail`."""
        _tls.ctx = ctx
        try:
            result = fn(*args, **kwargs)
            self.finalize(ctx)
            return ("died", None) if ctx.killed else ("result", result)
        except _RankKilled:
            return "died", None
        except BaseException as exc:
            if not isinstance(exc, PeerFailure):
                self.fail(ctx.rank, exc)
            return "error", exc
        finally:
            ctx.done = True
            _tls.ctx = None

    # -- the helper threads: progress (concurrent mode), housekeeping --------
    def _start_thread(self, name: str, target, *args) -> None:
        t = threading.Thread(target=target, args=args, daemon=True,
                             name=f"pgas-{name}-{self.id}")
        t.start()
        self._threads.append(t)

    def stop_threads(self) -> None:
        """Stop and join the progress and housekeeping threads."""
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads.clear()

    def _local_live(self) -> list[RankState]:
        """The live ranks of this process: the ones that probe, drain on
        the progress thread, witness a death and are sampled (a rank
        must not act on a remote's behalf)."""
        return [rk for rk in self.ranks
                if self.is_local(rk.rank) and not rk.done and not rk.killed
                and rk.rank not in self.dead_ranks]

    def _housekeeping_main(self, steps) -> None:
        """Run each ``(period, step)`` whenever its period has passed."""
        due = [time.monotonic() + period for period, _ in steps]
        while not self._stop.wait(max(0.0, min(due) - time.monotonic())):
            for i, (period, step) in enumerate(steps):
                now = time.monotonic()
                if now >= due[i]:
                    due[i] = now + period
                    try:
                        step()
                    except Exception:
                        pass  # housekeeping must never take the runtime down

    def _detector_round(self) -> None:
        """Ask :class:`Liveness` who probes whom and who died; send the
        probes, declare the deaths."""
        if self._failure is not None:
            return
        probes, deaths = self._liveness.round(
            time.monotonic(), self.ranks,
            [rk.rank for rk in self._local_live()], self.dead_ranks)
        for src, dst in probes:
            self.ranks[src].stats.add(heartbeats_sent=1)
            self._probe(src, dst, "__ping__")
        for r, why in deaths:
            self.mark_dead(r, RankDead(why))

    def _probe(self, src: int, dst: int, handler: str) -> None:
        try:
            self.conduit.send_am(src, dst, ActiveMessage(
                handler=handler, src_rank=src))
        except TransientCommError:
            pass  # a lost probe is what the timeout already allows for

    def _progress_main(self) -> None:
        """Drain inboxes of busy ranks (the paper's worker Pthread)."""
        while not self._stop.is_set():
            progressed = False
            for rank in self._local_live():
                _tls.ctx = rank  # its tasks and handlers run as it
                try:
                    if rank.advance(max_items=16):
                        progressed = True
                        # What ran here may be what the rank's own
                        # thread waits for, and took the message that
                        # rang it: poke, so its park ends (or its next
                        # one does) and it retests.
                        rank.poke()
                except _RankKilled:
                    # A task or handler run here called die(): the rank's
                    # own thread unwinds at its next wait, as for a die()
                    # there, and nothing more of the rank is served here.
                    rank.killed = True
                    rank.poke()
                except Exception as exc:
                    # Not every dispatch error went through world.fail
                    # (unknown handler or token, a decode error): record
                    # it — first failure wins — and keep serving.
                    self.fail(rank.rank, exc)
            if not progressed:
                time.sleep(0.0005)


@am_handler("__ping__")
def _on_ping(ctx, am) -> None:
    # Answered by the rank's own drain: a hung rank stays silent.
    ctx.world._probe(ctx.rank, am.src_rank, "__pong__")


@am_handler("__pong__")
def _on_pong(ctx, am) -> None:
    ctx.world._liveness.heard(am.src_rank, time.monotonic())


@dataclass
class ReliabilityConfig:
    """The failure detector's peer probes, as ``World(reliability=...)``
    sets them."""

    #: Interval between the detector's probe rounds (seconds); > 0.
    heartbeat_period: float = 0.05
    #: Declare a peer dead after its probes go this long unanswered
    #: (seconds); ``None`` runs no detector.  At least 2 ×
    #: (``heartbeat_period`` + :data:`PARK_S`): an answer can be a period
    #: plus two parks late (the peer drains once per park, and so does
    #: the prober that reads it), and a prober judges only if it drained
    #: within ``peer_timeout / 2``.
    peer_timeout: float | None = 2.0

    def __post_init__(self) -> None:
        floor = 2 * (self.heartbeat_period + PARK_S)
        if not self.heartbeat_period > 0 or (
                self.peer_timeout is not None and self.peer_timeout < floor):
            raise ValueError(
                f"reliability needs heartbeat_period > 0 and peer_timeout "
                f"None or >= 2 * (heartbeat_period + {PARK_S}) (got {self})")


def _resolve_reliability(reliability) -> ReliabilityConfig | None:
    """The World ``reliability=`` knob as a config, or None (no probes)."""
    if reliability is None or reliability is False:
        return None
    if reliability is True:
        return ReliabilityConfig()
    if isinstance(reliability, dict):
        return ReliabilityConfig(**reliability)
    if isinstance(reliability, ReliabilityConfig):
        return reliability
    raise PgasError(
        f"reliability= must be True, a dict of ReliabilityConfig "
        f"fields, or a ReliabilityConfig (got {reliability!r})"
    )


class _RankKilled(BaseException):
    """Internal control-flow exception: unwinds a rank that called
    :func:`die` without reporting a failure (it simulates a crash)."""


def _died(rank: int) -> RankDead:
    return RankDead(f"rank {rank} died (simulated crash)")


def die() -> None:
    """Simulate the calling rank crashing: it stops executing *without*
    reporting an error, exactly like a killed process — also from
    inside an async task or an AM handler it runs.  Its launcher
    declares it dead at once, on every backend and with no
    ``reliability=``, and peers then observe
    :class:`~repro.errors.PeerFailure` (or, with
    ``survive_rank_death``, :class:`~repro.errors.RankDead` on requests
    to it), not a hang."""
    current()  # outside an SPMD region, NotInSpmdRegion
    raise _RankKilled()


def spmd(
    fn: Callable,
    ranks: int = 4,
    *,
    args: tuple = (),
    kwargs: dict | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    conduit=None,
    thread_mode: str = "serialized",
    timeout: float | None = 60.0,
    reliability=None,
    telemetry=None,
    survive_rank_death: bool = False,
) -> list:
    """Run ``fn`` in SPMD style on ``ranks`` ranks; return per-rank results.

    ``fn`` is called with ``*args, **kwargs`` on every rank; inside it the
    usual SPMD API (:func:`repro.myrank`, :func:`repro.barrier`, shared
    objects, asyncs, ...) is available.  The first exception raised by any
    rank unblocks all peers and is re-raised here.

    ``conduit`` selects the communication backend: a ready
    :class:`~repro.gasnet.conduit.Conduit` instance, a backend name
    (``"smp"`` for threads-as-ranks, ``"proc"`` for processes-as-ranks
    over shared memory), or ``None`` to honor the ``REPRO_CONDUIT``
    environment variable (default ``"smp"``).

    >>> import repro
    >>> repro.spmd(lambda: repro.myrank(), ranks=3)
    [0, 1, 2]
    """
    if getattr(_tls, "ctx", None) is not None:
        raise PgasError("nested spmd() regions are not supported")
    kwargs = kwargs or {}
    from repro.gasnet import backends as _backends

    conduit, backend = _backends.resolve(conduit)
    if backend is not None and backend.caps.needs_launcher:
        from repro.core.proclaunch import spmd_proc

        return spmd_proc(
            fn, ranks, args=args, kwargs=kwargs,
            segment_size=segment_size, thread_mode=thread_mode,
            timeout=timeout, reliability=reliability, telemetry=telemetry,
            survive_rank_death=survive_rank_death,
            transport=(backend.options or {}).get("transport"),
        )
    world = World(
        ranks, segment_size=segment_size, conduit=conduit,
        thread_mode=thread_mode, op_timeout=timeout,
        reliability=reliability, telemetry=telemetry,
        survive_rank_death=survive_rank_death,
    )
    results: list = [None] * ranks

    def rank_main(r: int) -> None:
        ended, value = world.run_rank(world.ranks[r], fn, args, kwargs)
        if ended == "result":
            results[r] = value
        elif ended == "died":
            world.mark_dead(r, _died(r))

    threads = [
        threading.Thread(
            target=rank_main, args=(r,), name=f"pgas-rank-{r}", daemon=True
        )
        for r in range(ranks)
    ]
    exc = None
    try:
        for t in threads:
            t.start()
        deadline = None if timeout is None else time.monotonic() + timeout + 5.0
        for t in threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.1, deadline - time.monotonic())
            t.join(timeout=remaining)
        stuck = [t for t in threads if t.is_alive()]
        if stuck:
            world.fail(-1, CommTimeout(f"{len(stuck)} rank(s) hung"))
            for t in stuck:
                t.join(timeout=5.0)
            exc = CommTimeout(
                f"spmd: {len(stuck)} of {ranks} ranks did not terminate"
            )
    finally:
        world.stop_threads()
        close = getattr(world.conduit, "close", None)
        if callable(close):
            close()
    if exc is None and world.failure is not None:
        exc = world.failure[1]
    if exc is not None:
        tel = world.telemetry
        dump_on_failure(exc, [rt.flight for rt in tel.ranks]
                        if tel.enabled else [])
        raise exc
    return results
