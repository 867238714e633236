"""The conduit contract as an executable model.

The contract — paper §IV and the docstring of :mod:`repro.gasnet.conduit`
— as the runtime keeps it: an AM names a handler and runs when its
target advances; a request carries a token and exactly one reply
completes its future; each (src, dst) pair is FIFO; a handler runs in
its sender's trace and a reply carries its request's; a request to a
rank known dead fails at the call, and one waiting on a rank when its
death is declared fails with ``RankDead``.

(a) :class:`EndpointModel` checks the request/reply half world-free:
    two or three :class:`~repro.core.endpoint.Endpoint` objects wired by
    per-pair FIFO queues that the state machine delivers from, one
    message per step.  No thread, no ``World``.
(b) :func:`test_programs_keep_the_contract` runs the same op alphabet,
    plus ``advance()`` / ``poll`` and the six RMA ops, as
    hypothesis-generated SPMD programs on every backend and wrapper;
    :func:`test_programs_end_by_a_death_as_the_contract_says` ends
    them by ``die()``.

Both are derandomized, so a failure in CI replays locally.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro
from repro.core.collectives import allgather, barrier
from repro.core.endpoint import Endpoint
from repro.core.future import Future
from repro.errors import (
    PgasError,
    RankDead,
    SerializationError,
    TransientCommError,
)
from repro.gasnet import DelayConduit
from repro.gasnet.am import ActiveMessage, am_handler
from repro.gasnet.stats import CommStats
from repro.telemetry import WorldTelemetry, resolve_config, tracing
from tests.conftest import run_spmd

# ---------------------------------------------------------------------------
# (a) the request/reply protocol, world-free
# ---------------------------------------------------------------------------


class _Unsendable:
    """A value the model's wire refuses, as proc refuses one that does
    not pickle."""


class _Boom(Exception):
    """A handler's own error."""


class _UnsendableBoom(_Boom):
    """A handler error that cannot cross the wire."""


#: What a target's handler does with a request: answer it now, hold it
#: for a later answer (as a lock's waiter queue does), answer then
#: raise, raise before answering, raise what cannot cross the wire, or
#: answer with what cannot cross it.
REQUESTS = ("answer", "hold", "answer_raise", "raise", "raise_unsendable",
            "answer_unsendable")
#: What it does with a one-way AM: nothing, or raise.
ONE_WAY = ("oneway", "oneway_raise")
#: Raises that nobody waits on: they fail the handler's rank.
FAILS_ITS_RANK = ("answer_raise", "oneway_raise")


@dataclass
class _Request:
    """One request the model issued, and every completion it saw."""

    src: int
    dst: int
    kind: str
    seq: int
    trace: int
    fut: Future
    outcomes: list = field(default_factory=list)


class EndpointModel(RuleBasedStateMachine):
    """Two or three endpoints; every message waits in its pair's queue
    until a ``deliver`` step hands it to its target."""

    @initialize(n=st.integers(2, 3))
    def build(self, n):
        self.n = n
        tel = WorldTelemetry(n, resolve_config("flight"))  # stamps traces
        self.dead: set[int] = set()      # declared: what endpoints read
        self.down: set[int] = set()      # died, declared or not
        self.queues = {(s, d): deque() for s in range(n) for d in range(n)}
        self.sent = {pair: [] for pair in self.queues}  # seqs, send order
        self.seen = {pair: [] for pair in self.queues}  # seqs, dispatched
        self.held = [deque() for _ in range(n)]
        self.failed = [[] for _ in range(n)]
        self.fails_expected = [0] * n
        self.break_next: set[int] = set()
        self.requests: dict[tuple, _Request] = {}   # (src, token) ->
        self.trace_of: dict[tuple, int] = {}        # (src, dst, seq) ->
        self.mismatches: list = []
        self.numbers = itertools.count(1)
        self.eps = [Endpoint(r, self._wire(r), self.dead,
                             self._dispatcher(r), self.failed[r].append,
                             CommStats(), tel.rank(r))
                    for r in range(n)]

    # -- the world around the endpoints ------------------------------------
    def _wire(self, src):
        def send(dst, am):
            if src in self.break_next:
                self.break_next.discard(src)
                raise TransientCommError("injected")
            for value in (am.payload, *am.args):
                if isinstance(value, (_Unsendable, _UnsendableBoom)):
                    raise SerializationError(
                        f"{type(value).__name__} does not pickle")
            self.queues[(src, dst)].append(am)
        return send

    def _dispatcher(self, rank):
        def dispatch(am):
            seq, ep = am.args[0], self.eps[rank]
            self.seen[(am.src_rank, rank)].append(seq)
            want = self.trace_of[(am.src_rank, rank, seq)]
            if am.trace_id != want or (
                    want and tracing.current_trace_id() != want):
                self.mismatches.append(("request trace", am, want))
            if am.handler == "hold":
                self.held[rank].append(am)
            elif am.handler in ("answer", "answer_raise"):
                ep.reply(am, args=(seq,))
            elif am.handler == "answer_unsendable":
                ep.reply(am, payload=_Unsendable())
            elif am.handler == "raise_unsendable":
                raise _UnsendableBoom(seq)
            if am.handler in ("answer_raise", "raise", "oneway_raise"):
                raise _Boom(seq)
        return dispatch

    def _live(self):
        return sorted(set(range(self.n)) - self.down)

    def _issue(self, data, kinds, reachable=False):
        src = data.draw(st.sampled_from(self._live()), label="src")
        dst = data.draw(st.sampled_from(
            [r for r in range(self.n) if not (reachable and r in self.dead)]),
            label="dst")
        kind = data.draw(st.sampled_from(kinds), label="kind")
        seq = next(self.numbers)
        traced = data.draw(st.booleans(), label="traced")
        self.trace_of[(src, dst, seq)] = trace = (
            next(self.numbers) if traced else 0)
        return src, dst, ActiveMessage(kind, src, args=(seq,)), trace

    # -- originate -----------------------------------------------------------
    @rule(data=st.data(), encode=st.booleans())
    def request(self, data, encode):
        """A request, as ``send_am`` sends one or, with ``encode``, as an
        async does."""
        src, dst, am, trace = self._issue(data, REQUESTS)
        ep, fut = self.eps[src], Future(None)
        fastfails = ep.stats.dead_peer_fastfails
        with tracing.bound(trace, 1 if trace else 0):
            ep.send(dst, am, fut, (lambda am, tel: None) if encode else None)
        req = _Request(src, dst, am.handler, am.args[0], trace, fut)
        fut.add_callback(lambda f: req.outcomes.append((f._exc, f._value)))
        self.requests[(src, am.token)] = req
        if dst in self.dead:  # fails at the call, naming handler and rank
            exc = fut._exc
            assert isinstance(exc, RankDead), exc
            assert f"'{am.handler}'" in str(exc), exc
            assert f"rank {dst} is dead" in str(exc), exc
            assert ep.stats.dead_peer_fastfails == fastfails + 1
        else:
            self.sent[(src, dst)].append(am.args[0])

    @rule(data=st.data())
    def one_way(self, data):
        src, dst, am, trace = self._issue(data, ONE_WAY)
        ep, queue = self.eps[src], self.queues[(src, dst)]
        fastfails, queued = ep.stats.dead_peer_fastfails, len(queue)
        with tracing.bound(trace, 1 if trace else 0):
            ep.send(dst, am)
        if dst in self.dead:  # dropped, counted
            assert len(queue) == queued
            assert ep.stats.dead_peer_fastfails == fastfails + 1
        else:
            self.sent[(src, dst)].append(am.args[0])

    @rule(data=st.data())
    def request_whose_send_raises(self, data):
        """``fail_next_am``: the send raises at the call, and
        :meth:`pending_is_what_awaits_an_answer` finds nothing left."""
        src, dst, am, trace = self._issue(data, REQUESTS, reachable=True)
        self.break_next.add(src)
        with pytest.raises(TransientCommError), tracing.bound(trace, 1):
            self.eps[src].send(dst, am, Future(None))

    # -- answer ---------------------------------------------------------------
    @precondition(lambda self: any(self.held[r] for r in self._live()))
    @rule(data=st.data())
    def answer_held(self, data):
        """Answer a held request later, from whatever trace the
        answering thread is in."""
        rank = data.draw(st.sampled_from(
            [r for r in self._live() if self.held[r]]))
        am = self.held[rank].popleft()
        with tracing.bound(next(self.numbers), 1):
            self.eps[rank].reply(am, args=(am.args[0],))

    # -- receive --------------------------------------------------------------
    @precondition(lambda self: any(self.queues.values()))
    @rule(data=st.data())
    def deliver(self, data):
        """Hand the next message of one pair to its target."""
        src, dst = data.draw(st.sampled_from(
            sorted(p for p, q in self.queues.items() if q)))
        am = self.queues[(src, dst)].popleft()
        if dst in self.down:
            return  # a dead rank receives nothing
        if am.is_reply:
            req = self.requests[(dst, am.token)]
            if am.trace_id != req.trace:
                self.mismatches.append(("reply trace", am, req.trace))
        elif am.handler in FAILS_ITS_RANK:
            self.fails_expected[dst] += 1
        try:  # drained by a thread inside a trace of its own
            with tracing.bound(next(self.numbers), 1):
                self.eps[dst].receive(am)
        except _Boom as exc:
            assert not am.is_reply and am.handler in FAILS_ITS_RANK, am
            assert self.failed[dst][-1] is exc

    @rule(data=st.data())
    def forged_reply(self, data):
        """A reply for a token nobody issued: stale (dropped, counted)
        from a rank declared dead, a dispatch error from any other."""
        src = data.draw(st.integers(0, self.n - 1))
        ep = self.eps[data.draw(st.sampled_from(self._live()))]
        am = ActiveMessage("__reply__", src, token=10 ** 9, is_reply=True)
        stale = ep.stats.stale_replies
        if src in self.dead:
            ep.receive(am)
            assert ep.stats.stale_replies == stale + 1
        else:
            with pytest.raises(PgasError, match="reply for unknown token"):
                ep.receive(am)

    # -- death ----------------------------------------------------------------
    @precondition(lambda self: len(self.down) < self.n - 1)
    @rule(data=st.data())
    def die(self, data):
        rank = data.draw(st.sampled_from(self._live()))
        self.down.add(rank)
        self.held[rank].clear()

    @precondition(lambda self: self.down - self.dead)
    @rule(data=st.data())
    def declare(self, data):
        """The failure detector's verdict, as ``World.mark_dead``
        delivers it to every endpoint."""
        rank = data.draw(st.sampled_from(sorted(self.down - self.dead)))
        self.dead.add(rank)
        exc = RankDead(f"rank {rank} died")
        for ep in self.eps:
            ep.sweep(exc, dst=None if ep.rank == rank else rank)

    # -- invariants -----------------------------------------------------------
    @invariant()
    def traces_are_inherited(self):
        assert not self.mismatches, self.mismatches[0]

    @invariant()
    def one_answer_per_token(self):
        for req in self.requests.values():
            assert len(req.outcomes) <= 1, req

    @invariant()
    def pending_is_what_awaits_an_answer(self):
        """An answered token is pending no more, a send that raised left
        nothing behind, and every request still waiting is in the
        watchdog's view with its destination, handler and trace."""
        for ep in self.eps:
            flight = {token: (dst, meta)
                      for token, dst, meta in ep.in_flight()}
            waiting = {token: req for (src, token), req
                       in self.requests.items()
                       if src == ep.rank and not req.fut.done()}
            assert flight.keys() == waiting.keys()
            for token, req in waiting.items():
                dst, meta = flight[token]
                assert (dst, meta and meta[1:]) \
                    == (req.dst, (req.kind, req.trace)), (token, meta)

    @invariant()
    def pairs_are_fifo(self):
        for pair, seen in self.seen.items():
            assert seen == self.sent[pair][:len(seen)], pair

    @invariant()
    def the_dead_owe_nothing(self):
        for req in self.requests.values():
            if req.dst in self.dead or req.src in self.dead:
                assert req.fut.done(), req

    @invariant()
    def a_rank_fails_only_by_a_raise_nobody_awaits(self):
        assert [len(f) for f in self.failed] == self.fails_expected

    @invariant()
    def each_answer_is_its_requests(self):
        for req in self.requests.values():
            if not req.outcomes:
                continue
            exc, value = req.outcomes[0]
            if isinstance(exc, RankDead):
                assert req.dst in self.dead or req.src in self.dead, req
            elif req.kind in ("answer", "hold", "answer_raise"):
                assert exc is None and value == ((req.seq,), None), req
            elif req.kind == "raise":
                assert type(exc) is _Boom and exc.args == (req.seq,), req
            else:  # the answer could not cross the wire: the caller
                # hears so, naming the handler and the value's type
                want = ("_Unsendable" if req.kind == "answer_unsendable"
                        else "_UnsendableBoom")
                assert isinstance(exc, SerializationError), req
                assert f"'{req.kind}' is a {want}," in str(exc), exc


EndpointModel.TestCase.settings = settings(
    max_examples=80, stateful_step_count=20, deadline=None,
    derandomize=True)
TestEndpointModel = EndpointModel.TestCase


# ---------------------------------------------------------------------------
# (b) the same alphabet on the real backends
# ---------------------------------------------------------------------------

N = 3
VICTIM = N - 1
#: Death to RankDead at a waiter: the launcher declares a die() at once
#: (smp's spmd marks it dead, proc's launcher broadcasts it).
DETECTION_S = 1.0


def _seen(ctx, am) -> int:
    """Log ``am`` as its handler sees it: (sender, sequence number)."""
    seq = am.args[0]
    ctx.scratch.setdefault("seen", []).append((am.src_rank, seq))
    return seq


@am_handler("cm_mark")
def _cm_mark(ctx, am):
    _seen(ctx, am)


@am_handler("cm_echo")
def _cm_echo(ctx, am):
    ctx.reply(am, args=(_seen(ctx, am), am.trace_id,
                        tracing.current_trace_id()))


@am_handler("cm_mark_then_reply")
def _cm_mark_then_reply(ctx, am):
    seq = _seen(ctx, am)
    ctx.send_am(am.src_rank, "cm_marked", args=(seq,))
    ctx.reply(am, args=(seq,))


@am_handler("cm_marked")
def _cm_marked(ctx, am):
    ctx.scratch.setdefault("marked", set()).add(am.args[0])


@am_handler("cm_hold")
def _cm_hold(ctx, am):
    _seen(ctx, am)
    ctx.scratch.setdefault("held", {}).setdefault(am.src_rank, []).append(am)


@am_handler("cm_flush")
def _cm_flush(ctx, am):
    """Answer what the sender left held here, then this request."""
    seq = _seen(ctx, am)
    for held in ctx.scratch.get("held", {}).pop(am.src_rank, []):
        ctx.reply(held, args=(held.args[0],))
    ctx.reply(am, args=(seq,))


@am_handler("cm_raise")
def _cm_raise(ctx, am):
    raise ValueError(f"cm_raise {_seen(ctx, am)}")


@am_handler("cm_keep")
def _cm_keep(ctx, am):
    ctx.scratch["kept"] = am  # never answered


@am_handler("cm_dying")
def _cm_dying(ctx, am):
    ctx.scratch["dying"] = time.perf_counter()


def _traced(x):
    """An async's body: what it was given and the trace it runs in."""
    return x, tracing.current_trace_id()


class _Client:
    """One rank's side of a program: a sequence number per target (the
    handler logs it, so pair FIFO can be checked) and a model of the
    four elements it owns the writing of on each rank."""

    def __init__(self, ctx, mode, sa):
        self.ctx, self.mode, self.sa = ctx, mode, sa
        self.sent = [0] * N
        self.regions: dict = {}

    def seq(self, dst):
        self.sent[dst] += 1
        return self.sent[dst]

    def request(self, dst, handler, seq):
        return self.ctx.send_am(dst, handler, args=(seq,), expect_reply=True)

    # -- AMs ---------------------------------------------------------------
    def op_mark(self, dst, size):
        for _ in range(size):
            self.ctx.send_am(dst, "cm_mark", args=(self.seq(dst),))

    def op_echo(self, dst, size):
        """The handler runs in this op's trace, which the request
        carries."""
        with tracing.span(self.ctx.telemetry, "cm.echo") as sp:
            seq = self.seq(dst)
            args, _ = self.request(dst, "cm_echo", seq).get()
        assert args == (seq, sp.trace_id, sp.trace_id), (args, sp.trace_id)

    def op_burst(self, dst, size):
        """Requests answered by a one-way mark and then the reply: each
        reply completes its future only after its mark ran, and once."""
        marked = self.ctx.scratch.setdefault("marked", set())
        late, done, futs = [], [], []
        for _ in range(25 * size):
            seq = self.seq(dst)
            fut = self.request(dst, "cm_mark_then_reply", seq)
            fut.add_callback(lambda f, seq=seq: done.append(seq)
                             or seq in marked or late.append(seq))
            futs.append((seq, fut))
        for seq, fut in futs:
            assert fut.get()[0] == (seq,)
        assert not late, f"{len(late)} replies overtook their marks"
        assert sorted(done) == [seq for seq, _ in futs]

    def op_hold(self, dst, size):
        """Requests the target holds and answers later, all at once (a
        lock's waiter queue)."""
        seqs = [self.seq(dst) for _ in range(size)]
        futs = [self.request(dst, "cm_hold", s) for s in seqs]
        flush = self.seq(dst)
        assert self.request(dst, "cm_flush", flush).get()[0] == (flush,)
        assert [f.get()[0] for f in futs] == [(s,) for s in seqs]

    def op_raise(self, dst, size):
        seq = self.seq(dst)
        with pytest.raises(ValueError, match=f"cm_raise {seq}$"):
            self.request(dst, "cm_raise", seq).get()

    def op_async(self, dst, size):
        """Asyncs to several ranks, each answered once, each run in the
        caller's trace."""
        with tracing.span(self.ctx.telemetry, "cm.async") as sp:
            futs = [repro.async_((dst + i) % N)(_traced, i)
                    for i in range(size)]
            got = [f.get() for f in futs]
        assert got == [(i, sp.trace_id) for i in range(size)]

    def op_advance(self, dst, size):
        """The ``advance()`` that completes a future returns True, and
        the reply spends its ``max_items=1``: a task the future's
        callback queues waits for the next call."""
        ctx = self.ctx
        for _ in range(size):
            ran = []
            fut = self.request(dst, "cm_echo", self.seq(dst))
            fut.add_callback(lambda f, ran=ran: ctx.task_queue.append((
                ActiveMessage("cm_local", ctx.rank,
                              payload=(ran.append, (1,), {})), 0.0)))
            progressed = None
            while not fut.done():
                progressed = repro.advance(max_items=1)
            if self.mode == "serialized":  # nobody else drains this rank
                assert (progressed, ran) == (True, [])
            ctx.wait_until(lambda: ran, what="the callback's task")

    def op_poll(self, dst, size):
        assert type(self.ctx.world.conduit.poll(self.ctx.rank)) is bool
        assert type(repro.advance()) is bool

    def op_send_raises(self, dst, size):
        """A send that raises leaves no request pending, and a Team
        async that fails at the call still releases its finish scope and
        its event.  Serialized only: a progress thread answering through
        the same endpoint would meet the broken wire instead."""
        if self.mode != "serialized":
            return
        ep = self.ctx.endpoint
        wire = ep._send

        def broken(d, am):
            ep._send = wire
            raise TransientCommError("injected")

        ep._send = broken
        done = repro.Event()
        with pytest.raises(TransientCommError):
            with repro.finish() as scope:
                repro.async_(repro.Team(sorted({self.ctx.rank, dst})),
                             signal=done)(abs, -3)
        assert (scope.outstanding, done.test(), ep.in_flight()) \
            == (0, True, [])

    # -- the six RMA ops: each visible at its completion ---------------------
    def _region(self, owner):
        """This rank's four elements on ``owner`` (block owner + N*rank)
        and its model of them."""
        if owner not in self.regions:
            self.regions[owner] = ((owner + N * self.ctx.rank) * 4,
                                   np.zeros(4, np.int64))
        return self.regions[owner]

    def _check(self, owner):
        base, model = self._region(owner)
        got = self.sa.gather(np.arange(base, base + 4))
        assert got.tolist() == model.tolist(), (owner, got, model)

    def op_put(self, dst, size):
        base, model = self._region(dst)
        model[size % 4] = 100 * size + self.ctx.rank
        self.sa[base + size % 4] = model[size % 4]
        self._check(dst)

    def op_get(self, dst, size):
        base, model = self._region(dst)
        assert self.sa[base + size % 4] == model[size % 4]

    def op_atomic(self, dst, size):
        base, model = self._region(dst)
        assert self.sa.atomic(base + size % 4, "add", size) \
            == model[size % 4]
        model[size % 4] += size
        self._check(dst)

    def op_put_indexed(self, dst, size):
        base, model = self._region(dst)
        idx = np.array([0, 2]) + size % 2
        model[idx] = [size, -size]
        self.sa.scatter(base + idx, model[idx])
        self._check(dst)

    def op_get_indexed(self, dst, size):
        self._check(dst)

    def op_atomic_batch(self, dst, size):
        base, model = self._region(dst)
        idx = np.array([0, 1, 3])
        old = self.sa.atomic_batch(base + idx, "add", [size, 1, 2],
                                   return_old=True)
        assert old.tolist() == model[idx].tolist()
        model[idx] += [size, 1, 2]
        self._check(dst)

    # -- the end of a program ------------------------------------------------
    def pairs_were_fifo(self):
        """Every AM sent here arrived once, in its pair's order."""
        me = self.ctx.rank
        want = [sent[me] for sent in allgather(self.sent)]
        seen = self.ctx.scratch.setdefault("seen", [])
        self.ctx.wait_until(lambda: len(seen) >= sum(want),
                            what="every numbered AM sent here")
        for src in range(N):
            got = [seq for s, seq in seen if s == src]
            assert got == list(range(1, want[src] + 1)), (src, got)

    def die_or_see_it(self):
        """The victim dies; each survivor's request held there fails
        with RankDead within detection time, and a request sent after
        the declaration fails at the call, leaving nothing pending; a
        one-way AM is dropped.  Both count a fastfail."""
        ctx, world = self.ctx, self.ctx.world
        if ctx.rank == VICTIM:
            for r in range(N - 1):
                ctx.send_am(r, "cm_dying")
            repro.die()
        fut = ctx.send_am(VICTIM, "cm_keep", expect_reply=True)
        ctx.wait_until(lambda: "dying" in ctx.scratch, what="the death")
        with pytest.raises(RankDead):
            fut.get()
        assert time.perf_counter() - ctx.scratch["dying"] < DETECTION_S
        assert VICTIM in world.dead_ranks
        fastfails, t0 = ctx.stats.dead_peer_fastfails, time.perf_counter()
        with pytest.raises(RankDead,
                           match=rf"'exec_task'.*rank {VICTIM} is dead"):
            repro.async_(VICTIM)(abs, -3).get()
        ctx.send_am(VICTIM, "cm_mark", args=(0,))
        assert time.perf_counter() - t0 < 0.5
        assert ctx.endpoint.in_flight() == []
        assert ctx.stats.dead_peer_fastfails - fastfails == 2


def _program(steps, mode, die):
    ctx = repro.current_world().ranks[repro.myrank()]
    client = _Client(ctx, mode,
                     repro.SharedArray(np.int64, size=N * N * 4, block=4))
    barrier()
    for kind, who, dst, size in steps:
        if who == ctx.rank:
            getattr(client, "op_" + kind)(dst, size)
    client.pairs_were_fifo()
    if die:
        client.die_or_see_it()
    return True


#: The op alphabet: one-way and request AMs (answered now, later or by
#: an error), asyncs, advance / poll, a send that raises, the six RMA
#: ops.
OPS = ("mark", "echo", "burst", "hold", "raise", "async", "advance",
       "poll", "send_raises", "put", "get", "atomic", "put_indexed",
       "get_indexed", "atomic_batch")


@st.composite
def programs(draw):
    """Every op at least once, in any order, plus a few more; step ``i``
    names the rank that issues it, its target and a size.  The simplest
    draw, which hypothesis tries first, is no degenerate program: rank
    ``i % N`` sends to the next rank, at the largest size."""
    kinds = list(draw(st.permutations(OPS)))
    kinds += draw(st.lists(st.sampled_from(OPS), max_size=4))
    rank = st.integers(0, N - 1)
    steps = [(k, (i + draw(rank)) % N, (i + 1 + draw(rank)) % N,
              8 - draw(st.integers(0, 7)))
             for i, k in enumerate(kinds)]
    return steps, draw(st.sampled_from(("serialized", "concurrent")))


#: Every backend and wrapper the contract must hold on (``proc+ring``
#: while the ring transport exists).
CONFIGS = {
    "smp": {"conduit": "smp"},
    "smp+delay": {"conduit": lambda: DelayConduit(base_delay=0.0001,
                                                  jitter=0.0004, seed=5)},
    "smp+full": {"conduit": "smp", "telemetry": "full"},
    "proc+socket": {"conduit": "proc+socket"},
    "proc+socket+full": {"conduit": "proc+socket", "telemetry": "full"},
    "proc+ring": {"conduit": "proc+ring"},
}


def _run(config, program, die=False):
    """Run ``program`` under ``config``, its ranks turned by the
    config's place in :data:`CONFIGS` so that the backends do not all
    run one program (derandomized draws repeat across parametrizations)."""
    steps, mode = program
    turn = sorted(CONFIGS).index(config)
    steps = [(k, (who + turn) % N, (dst + 2 * turn) % N, size)
             for k, who, dst, size in steps]
    kw = dict(CONFIGS[config])
    if callable(kw["conduit"]):
        kw["conduit"] = kw["conduit"]()
    if die:
        kw.update(survive_rank_death=True,
                  reliability={"heartbeat_period": 0.02,
                               "peer_timeout": 10.0})
    return run_spmd(_program, ranks=N, args=(steps, mode, die),
                    thread_mode=mode, timeout=10.0, **kw)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=2, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_programs_keep_the_contract(config, program):
    assert _run(config, program) == [True] * N


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=1, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_programs_end_by_a_death_as_the_contract_says(config, program):
    assert _run(config, program, die=True) == [True] * (N - 1) + [None]
