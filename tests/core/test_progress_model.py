"""The progress engine as a model: the real wait loop, one actor at a
time, its doorbell a fake and its clock virtual.

:class:`~repro.core.progress.Progress` is built over a stub world (no
World): the real :class:`~repro.gasnet.smp.SmpConduit`'s ``poll`` and
``wake``, a fake bell, a model handler lock and a virtual clock.  The
actors are the ranks' own threads, one sender and, in ``concurrent``
mode, the progress thread running :func:`~repro.core.progress.serve`.
Each is a thread, but a baton lets exactly one run at a time, and it
is handed on only at a switch point: every operation on a fake bell,
on a handler lock, and the progress thread's passes.  Hypothesis draws
the sender's script (completions of what the ranks wait for, by
message, by task or directly; bare pokes; pauses; a ``die()``) and at
each switch point which actor runs next; the draws are derandomized, so
a failure replays.  Time moves only when every actor is blocked: it
jumps to the earliest deadline (a park, the progress thread's rest, a
sender's pause), so a park times out only when nothing else could run.
It checks:

1. no park outlasts :data:`~repro.core.progress.PARK_S`, and none times
   out while a message or the completion it waits for is already there
   (no lost wake);
2. no poke outlives the wait it was for: a flag a park finds up, or a
   wait leaves up, was raised by another thread (the rank's own thread
   retests before it parks, so its poke would end its next park for
   nothing);
3. every wait turn stamps the heartbeat from the injected clock: at
   each park, ``last_heartbeat`` is no older than the turn;
4. a ``die()`` the progress thread runs unwinds the rank's own thread
   at its next wait, with no park sat out.
"""

from __future__ import annotations

import functools
import math
import threading

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.endpoint import Endpoint
from repro.core.future import Future, _tls
from repro.core.progress import PARK_S, Progress, _RankKilled, serve
from repro.gasnet.am import ActiveMessage
from repro.gasnet.smp import SmpConduit
from repro.gasnet.stats import CommStats
from repro.telemetry.recorder import RankTelemetry, TelemetryConfig

#: Where the virtual clock starts: far above any ``time.monotonic()``,
#: so a heartbeat stamped from the real clock reads as stale.
EPOCH = 1.0e6
#: Switches one example may take before the model calls it a livelock.
MAX_STEPS = 20_000
#: A drawn choice below this lets the running actor go on: a race
#: needs one actor to take a few steps in a row.
CONTINUE = 3
#: The progress thread's rest after a pass that ran nothing (0.5 ms in
#: ``World``; only its order against a park and a preemption matters).
REST_S = PARK_S / 4


class _Abort(BaseException):
    """Unwinds an actor once the model has failed."""


class _Actor:
    def __init__(self, name: str, fn):
        self.name, self.fn = name, fn
        self.sem = threading.Semaphore(0)
        self.state = "run"          # run | blocked | done
        self.ready = None
        self.deadline = math.inf
        self.early = False          # a block any switch point may end
        self.timed_out = False

    def __repr__(self) -> str:
        return self.name


class _Sched:
    """The baton: one actor runs; at a switch point the next is picked
    by the drawn ``choices``; time jumps only when all are blocked."""

    def __init__(self, choices):
        self.now = EPOCH
        self._choices = choices
        self._i = 0
        self.steps = 0
        self.actors: list[_Actor] = []
        self.current: _Actor | None = None
        self.error: BaseException | None = None
        self._finished = threading.Event()

    def clock(self) -> float:
        return self.now

    def spawn(self, name: str, fn) -> _Actor:
        actor = _Actor(name, fn)
        self.actors.append(actor)
        return actor

    def run(self) -> None:
        for a in self.actors:
            threading.Thread(target=self._main, args=(a,), daemon=True,
                             name=f"model-{a.name}").start()
        self._hand(None, self._pick())
        assert self._finished.wait(20), "the model itself hung"
        if self.error is not None:
            raise self.error

    def _main(self, actor: _Actor) -> None:
        actor.sem.acquire()
        try:
            if self.error is None:
                actor.fn()
        except _Abort:
            pass
        except BaseException as exc:  # the property that failed
            if self.error is None:
                self.error = exc
        actor.state = "done"
        nxt = self._pick()
        if nxt is None:
            self._finished.set()
        else:
            self._hand(None, nxt)

    def _pick(self) -> _Actor | None:
        live = [a for a in self.actors if a.state != "done"]
        if not live:
            return None
        if self.error is not None:
            nxt = live[0]
        else:
            runnable = [a for a in live if a.state == "run"
                        or (a.state == "blocked" and a.ready())]
            if runnable:
                c = (self._choices[self._i]
                     if self._i < len(self._choices) else 0)
                self._i += 1
                # Below CONTINUE the running actor goes on.  Else any
                # runnable actor runs, or one cuts its rest short: its
                # peers' steps take real time that the clock skips.
                me = self.current
                if c < CONTINUE and me is not None and me.state == "run":
                    nxt = me
                else:
                    runnable += [a for a in live if a.state == "blocked"
                                 and a.early and a not in runnable]
                    nxt = runnable[c % len(runnable)]
            else:
                nxt = min(live, key=lambda a: a.deadline)
                if nxt.deadline == math.inf:
                    self.error = AssertionError(f"deadlock: {live}")
                else:
                    self.now = max(self.now, nxt.deadline)
                    nxt.timed_out = True
        nxt.state = "run"
        return nxt

    def _hand(self, me: _Actor | None, nxt: _Actor) -> None:
        """Give the baton to ``nxt``; ``me`` (None: an actor that ended,
        or the model starting) waits until it comes back."""
        if nxt is not me:
            self.current = nxt
            nxt.sem.release()
            if me is None:
                return
            me.sem.acquire()
        if self.error is not None:
            raise _Abort()

    def switch(self) -> None:
        """A switch point: maybe another actor runs first."""
        self.steps += 1
        if self.steps > MAX_STEPS and self.error is None:
            self.error = AssertionError("livelock: no example ends")
        self._hand(self.current, self._pick())

    def block(self, ready, deadline: float) -> bool:
        """Wait until ``ready()`` (True) or the clock reaches
        ``deadline`` (False)."""
        me = self.current
        me.state, me.ready, me.deadline = "blocked", ready, deadline
        me.timed_out = False
        self._hand(me, self._pick())
        me.early = False
        return not me.timed_out

    def preempt(self) -> None:
        """A switch point where the running actor may also lose the CPU
        for longer than the progress thread rests."""
        if self._i < len(self._choices) and self._choices[self._i] >= CONTINUE:
            self._i += 1
            self.rest(2 * REST_S)
        else:
            self.switch()

    def rest(self, seconds: float) -> None:
        """Step out for at most ``seconds``: a sender's pause or the
        progress thread's rest, which any switch point may cut short."""
        self.current.early = True
        self.block(lambda: False, self.now + seconds)


class _Bell:
    """A rank's doorbell as ``threading.Lock`` acts: held while no ring
    is pending; each operation is a switch point."""

    def __init__(self, model, rank):
        self.model, self.rank = model, rank
        self.held = True

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self.model.sched.switch()
        if not blocking:
            self.model.park_begins(self.rank)
        if not self.held:
            self.held = True
            return True
        if not blocking:
            return False
        return self.model.park(self, timeout)

    def release(self) -> None:
        self.model.sched.switch()
        if not self.held:
            raise RuntimeError("release unlocked lock")
        self.held = False

    def locked(self) -> bool:
        self.model.sched.switch()
        return self.held


class _HandlerLock:
    """The handler lock, reentrant; each acquire is a switch point."""

    def __init__(self, sched):
        self.sched, self.owner, self.count = sched, None, 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self.sched.switch()
        me = self.sched.current
        if self.owner not in (None, me):
            if not blocking:
                return False
            self.sched.block(lambda: self.owner is None, math.inf)
        self.owner = me
        self.count += 1
        return True

    def release(self) -> None:
        self.count -= 1
        if not self.count:
            self.owner = None

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self.release()


class _Rank(Progress):
    """The engine, with who raised its poke flag noted."""

    sched: _Sched
    actor: _Actor | None = None
    raised_by: _Actor | None = None
    turn_began = -math.inf
    waits_for = None
    ended = False

    @property
    def _poked(self) -> bool:
        up = self._flag
        if up and self.sched.current is self.actor:
            assert self.raised_by is not self.actor, (
                f"rank {self.rank}'s park found a poke its own thread "
                f"raised: it ends this park for nothing")
        return up

    @_poked.setter
    def _poked(self, up: bool) -> None:
        if up:
            self.raised_by = self.sched.current
        self._flag = up


class _Owned(Future):
    """Completes as an event or a finish scope does: on a thread that
    does not act as its owner, it pokes the owner."""

    __slots__ = ()
    _pokes = True


class _Host:
    """The stub world: the backend and the failure view, no World."""

    def __init__(self, conduit):
        self.conduit = conduit
        self.op_timeout = 10.0
        self._failure = None
        self._failure_thread = None
        self.dead_ranks: set[int] = set()
        self.ranks: list[_Rank] = []


class _Conduit(SmpConduit):
    """The real smp ``poll`` and ``wake``; a park notes when it ended,
    which is when the next wait turn began."""

    def poll(self, rank: int, timeout: float = 0.0) -> bool:
        try:
            return super().poll(rank, timeout)
        finally:
            if timeout > 0.0:
                self.world.ranks[rank].turn_began = self.model.sched.now


class _Model:
    def __init__(self, n_ranks: int, n_waits: int, choices):
        self.sched = sched = _Sched(choices)
        conduit = _Conduit()
        conduit.model = self
        self.host = host = _Host(conduit)
        conduit.attach(host)
        self.failures: list = []
        self.futs = []
        for r in range(n_ranks):
            rk = _Rank.__new__(_Rank)
            rk.sched = sched
            endpoint = Endpoint(r, None, host.dead_ranks,
                                self._dispatch(rk), self.failures.append,
                                CommStats(),
                                RankTelemetry(r, TelemetryConfig()))
            Progress.__init__(rk, r, host, endpoint, endpoint.telemetry,
                              sched.clock)
            rk._bell = _Bell(self, rk)
            rk._handler_lock = _HandlerLock(sched)
            host.ranks.append(rk)
            self.futs.append([_Owned(rk) for _ in range(n_waits)])

    def _dispatch(self, rk: _Rank):
        def task(fn, *args):
            rk.task_queue.append(
                (ActiveMessage("exec_task", 1, (), (fn, args, {})), 0.0))

        def dispatch(am: ActiveMessage) -> None:
            if am.handler == "signal":
                self.futs[rk.rank][am.args[0]]._settle()
            elif am.handler == "spawn":
                task(self.futs[rk.rank][am.args[0]]._settle)
            else:  # "die": an async that calls die() on its target
                task(_die)
        return dispatch

    # -- the properties checked at the bell ---------------------------------
    def park_begins(self, rk: _Rank) -> None:
        assert self.sched.current is rk.actor
        assert rk.last_heartbeat >= rk.turn_began, (
            f"rank {rk.rank} parks with a heartbeat "
            f"{rk.turn_began - rk.last_heartbeat:.4g}s older than its "
            f"wait turn")

    def park(self, bell: _Bell, timeout: float) -> bool:
        rk = bell.rank
        assert 0.0 < timeout <= PARK_S, f"a park of {timeout}s"
        if self.sched.block(lambda: not bell.held, self.sched.now + timeout):
            bell.held = True
            return True
        waits = rk.waits_for
        assert not rk.killed, (
            f"rank {rk.rank} sat out a park after the progress thread ran "
            f"its die()")
        assert not (rk._inbox or rk.task_queue), (
            f"lost wake: rank {rk.rank} sat out its park with "
            f"{len(rk._inbox)} messages and {len(rk.task_queue)} tasks "
            f"queued")
        assert waits is None or not waits(), (
            f"lost wake: rank {rk.rank} sat out its park with what it "
            f"waits for already complete")
        return False

    # -- the actors ---------------------------------------------------------
    def _test(self, fut: Future) -> bool:
        """A wait's predicate, then a switch point where the rank may
        also be preempted for a while: what it read may change before
        it parks."""
        done = fut.done()
        self.sched.preempt()
        return done

    def rank_main(self, rk: _Rank) -> None:
        _tls.ctx = rk
        try:
            for fut in self.futs[rk.rank]:
                rk.turn_began = self.sched.now
                rk.waits_for = fut.done
                rk.wait_until(functools.partial(self._test, fut),
                              "the model's completion")
                rk.waits_for = None
                assert not rk._flag or rk.raised_by is not rk.actor, (
                    f"rank {rk.rank}'s own poke outlived the wait it "
                    f"was for")
            if rk.killed:
                rk.wait_until(lambda: True, "nothing")
        except _RankKilled:
            return
        finally:
            rk.ended = True
            _tls.ctx = None
        assert not rk.killed, (
            f"rank {rk.rank} never unwound from the die() the progress "
            f"thread ran")

    def sender_main(self, script) -> None:
        ranks = self.host.ranks
        for step in script:
            self.sched.switch()
            kind = step[0]
            if kind == "pause":
                self.sched.rest(step[1])
            elif kind == "poke":
                ranks[step[1]].poke()
            elif kind == "set":
                self.futs[step[1]][step[2]]._settle()
            else:   # a message: signal, spawn or die
                ranks[step[1]].deliver(ActiveMessage(kind, 1, step[2:]))

    def progress_main(self) -> None:
        ranks = self.host.ranks
        while not all(rk.ended for rk in ranks):
            live = [rk for rk in ranks if not rk.ended and not rk.killed]
            if serve(live, lambda r, exc: self.failures.append(exc)):
                self.sched.switch()
            else:
                self.sched.rest(REST_S)


def _die():
    raise _RankKilled()


@st.composite
def _scripts(draw, n_ranks: int, n_waits: int):
    """One completion per (rank, wait), by message, task or directly,
    among pauses, bare pokes and maybe one ``die()`` async, in a drawn
    order."""
    steps = [(draw(st.sampled_from(["signal", "spawn", "set"])), r, k)
             for r in range(n_ranks) for k in range(n_waits)]
    rank = st.integers(0, n_ranks - 1)
    steps += draw(st.lists(st.one_of(
        st.tuples(st.just("pause"), st.sampled_from([1e-4, 5e-3, 0.03])),
        st.tuples(st.just("poke"), rank)), max_size=4))
    if draw(st.booleans()):
        steps.append(("die", draw(rank)))
    return draw(st.permutations(steps))


def _check(mode: str, n_ranks: int, n_waits: int, script, choices) -> None:
    """Run one schedule of the model; raise what it breaks."""
    model = _Model(n_ranks, n_waits, choices)
    sched = model.sched
    for rk in model.host.ranks:
        rk.actor = sched.spawn(f"rank{rk.rank}",
                               lambda rk=rk: model.rank_main(rk))
    sched.spawn("sender", lambda: model.sender_main(script))
    if mode == "concurrent":
        sched.spawn("progress", model.progress_main)
    sched.run()
    assert not model.failures, model.failures


@pytest.mark.parametrize("mode", ["serialized", "concurrent"])
@settings(max_examples=150, deadline=None, derandomize=True,
          report_multiple_bugs=False,
          phases=[Phase.explicit, Phase.generate, Phase.shrink])
@given(data=st.data())
def test_the_wait_loop_keeps_the_park_contract(mode, data):
    n_ranks = data.draw(st.integers(1, 2), label="ranks")
    n_waits = data.draw(st.integers(1, 3), label="waits")
    _check(mode, n_ranks, n_waits,
           data.draw(_scripts(n_ranks, n_waits), label="script"),
           data.draw(st.lists(st.integers(0, 5), max_size=400),
                     label="choices"))


#: The wake bugs this loop has had, each as the model shrank it:
#: ``(mode, ranks, waits, script, choices)``.
OLD_BUGS = {
    # poke() rang without raising the flag: a ring the park spent first
    "poke_rings_without_its_flag": (
        "serialized", 2, 1, [("signal", 0, 0), ("set", 1, 0)], [1, 0, 5]),
    # the progress thread ran what a rank waited for and did not poke it
    "progress_thread_runs_without_a_poke": (
        "concurrent", 1, 1, [("signal", 0, 0)], [0, 0, 3]),
    # a completion on the owner's own thread poked the owner
    "owner_pokes_itself": ("serialized", 1, 1, [("signal", 0, 0)], []),
    # a wait turn with nothing queued did not stamp the heartbeat
    "empty_turn_stamps_nothing": (
        "serialized", 1, 1, [("pause", 0.03), ("signal", 0, 0)], []),
}


@pytest.mark.parametrize("case", OLD_BUGS.values(), ids=OLD_BUGS)
def test_an_old_wake_bug_schedule_keeps_the_contract(case):
    _check(*case)
