"""SPMD world and per-rank runtime state (paper §IV).

Each UPC++ *rank* is one thread of the launching process, with a private
:class:`~repro.gasnet.segment.Segment` as its share of the global
address space; what arrives for it runs by its
:class:`~repro.core.progress.Progress` engine.  :func:`spmd` runs a
function on ``n`` ranks and returns the per-rank results.  If any rank
raises, all blocked peers are released with
:class:`~repro.errors.PeerFailure` and the original exception is
re-raised on the launching thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
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
from repro.core.progress import PARK_S, Progress, _RankKilled, serve
from repro.gasnet.am import ActiveMessage, am_handler, handler_registry
from repro.gasnet.segment import Segment
from repro.gasnet.smp import SmpConduit
from repro.gasnet.stats import CommStats
from repro.telemetry import (
    MetricsSampler,
    WorldTelemetry,
    resolve_config as _resolve_telemetry,
)
from repro.telemetry.flight import dump_on_failure

#: Default per-rank segment size (16 MiB) — plenty for the test suite,
#: overridable per spmd() call for the benchmarks.
DEFAULT_SEGMENT_SIZE = 16 * 1024 * 1024

_world_ids = itertools.count(1)


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


class RankState(Progress):
    """Everything one rank owns: segment, the :class:`Endpoint` its
    messages go through, and the progress engine it is."""

    def __init__(self, world: "World", rank: int, segment_size: int):
        self.world = world
        factory = world._segment_factory
        self.segment = (Segment(segment_size, rank=rank)
                        if factory is None else factory(rank, segment_size))
        self.stats = CommStats()
        #: This rank's telemetry state (histograms, flight recorder);
        #: always present — a no-op object when telemetry is "off".
        self.telemetry = world.telemetry.rank(rank)
        #: Where each conduit op it initiates hands its CommEvent: its
        #: flight ring while telemetry is on, then the world's sinks.
        self.sinks = (self.telemetry.flight.keep if self.telemetry.active
                      else ())
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
        Progress.__init__(self, rank, world, self.endpoint, self.telemetry,
                          world.clock)
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

    # -- messaging ------------------------------------------------------
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

    #: The one clock of every rank's heartbeat and wait deadlines, the
    #: detector and the housekeeping due-times (not ``spmd``'s join).
    clock = staticmethod(time.monotonic)

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
        #: Each open Trace's sink, at the end of every rank's ``sinks``
        #: too.  Replaced whole, never mutated.
        self.sinks: tuple = ()
        #: The backend, for the whole life of the world.
        self.conduit = conduit if conduit is not None else SmpConduit()
        rel = _resolve_reliability(reliability)
        #: The failure detector's decisions; None runs no detector.
        self._liveness = None
        if rel is not None and rel.peer_timeout is not None and n_ranks > 1:
            self._liveness = Liveness(n_ranks, rel.heartbeat_period,
                                      rel.peer_timeout, self.clock())
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
            for rk in self.ranks:
                rk.sinks = (*rk.sinks, sink)

    def remove_sink(self, sink: Callable) -> None:
        """Take ``sink`` (the object :meth:`add_sink` was given) out of
        :attr:`sinks`; not there, nothing happens."""
        with self._glock:
            self.sinks = tuple(s for s in self.sinks if s is not sink)
            for rk in self.ranks:
                rk.sinks = tuple(s for s in rk.sinks if s is not sink)

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
        clock = self.clock
        due = [clock() + period for period, _ in steps]
        while not self._stop.wait(max(0.0, min(due) - clock())):
            for i, (period, step) in enumerate(steps):
                now = clock()
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
            self.clock(), self.ranks,
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
        """The progress thread: :func:`~repro.core.progress.serve` the
        busy ranks, resting 0.5 ms after a pass that ran nothing."""
        while not self._stop.is_set():
            if not serve(self._local_live(), self.fail):
                time.sleep(0.0005)


@am_handler("__ping__")
def _on_ping(ctx, am) -> None:
    # Answered by the rank's own drain: a hung rank stays silent.
    ctx.world._probe(ctx.rank, am.src_rank, "__pong__")


@am_handler("__pong__")
def _on_pong(ctx, am) -> None:
    ctx.world._liveness.heard(am.src_rank, ctx.clock())


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
