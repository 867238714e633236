"""The collectives engine as a model: P engines in one thread.

One :class:`~repro.core.coll_engine.CollEngine` per rank of a P-rank
world (P from 1 to 16, non-powers of two included), each sending into a
FIFO queue per ordered rank pair.  Every message crosses the real wire
frame (encoded strictly, so nothing can go by reference) and is thawed
at its target, which is how the header and the fan-out encoding are
checked too.  Hypothesis picks the schedule: which rank starts its next
collective, and which pair's head message is delivered next, in any
order that keeps each pair's FIFO; the draws are derandomized, so a
failure replays.  It checks:

* two collectives interleaved on one team (the world or a subset in
  any member order) give every member the sequential fold's answer,
  with string concatenation as the reduction, so a fold out of team
  order shows;
* a barrier completes on no rank before every member has entered it;
* a kind mismatch raises instead of hanging;
* run in arrival order on a unit-latency network, each collective sends
  the messages its algorithm sends and takes the rounds that
  :mod:`repro.sim.collmodel`'s closed forms give.
"""

from __future__ import annotations

import collections
import functools
import heapq
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coll_engine as eng
from repro.core.team import Team
from repro.errors import PgasError
from repro.gasnet.stats import CommStats
from repro.gasnet.wire import encode_am
from repro.sim import collmodel
from repro.sim.loggp import LogGP
from repro.telemetry.recorder import RankTelemetry, TelemetryConfig

#: One unit per message, one message per unit through each rank's
#: send and receive ports, nothing else costs.
UNIT = LogGP(L=1.0, o=0.0, g=1.0, G=0.0)


def _cat(a, b):
    # associative, not commutative: a fold out of team order shows
    return a + b


def _engines(P: int, send) -> list:
    """One engine per rank of a P-rank world, sending ``send(src, dst,
    am)``."""
    return [eng.CollEngine(r, P, functools.partial(send, r),
                           threading.RLock(), CommStats(),
                           RankTelemetry(r, TelemetryConfig()))
            for r in range(P)]


class _World:
    """P engines and a FIFO queue of wire frames per ordered pair."""

    def __init__(self, P: int):
        self.queues: dict[tuple, collections.deque] = {}
        self.engines = _engines(P, self._send)

    def _send(self, src: int, dst: int, am) -> None:
        self.queues.setdefault((src, dst), collections.deque()).append(
            encode_am(am, strict=True))

    def ready(self) -> list[tuple]:
        return [pair for pair, q in self.queues.items() if q]

    def deliver(self, pair: tuple) -> None:
        self.engines[pair[1]].receive(self.queues[pair].popleft().thaw())


def _v(call: int, i: int) -> str:
    return f"c{call}i{i};"


def _call(kind, call: int, n: int, root: int):
    """``(params(i), expected(i))`` for team index ``i`` of an
    ``n``-member team: the arguments each member passes, and what the
    sequential fold says it receives."""
    vs = [_v(call, i) for i in range(n)]
    whole = "".join(vs)
    rooted = (lambda i, got: got if i == root else None)
    return {
        eng.Barrier: (lambda i: {}, lambda i: None),
        eng.Bcast: (lambda i: {"value": vs[i] if i == root else None,
                               "root": root},
                    lambda i: vs[root]),
        eng.Reduce: (lambda i: {"value": vs[i], "op": _cat, "root": root},
                     lambda i: rooted(i, whole)),
        eng.Allreduce: (lambda i: {"value": vs[i], "op": _cat},
                        lambda i: whole),
        eng.Gather: (lambda i: {"value": vs[i], "root": root},
                     lambda i: rooted(i, vs)),
        eng.Gatherv: (lambda i: {"value": np.full(i + 1, 100 * call + i),
                                 "root": root},
                      lambda i: rooted(i, np.concatenate(
                          [np.full(j + 1, 100 * call + j)
                           for j in range(n)]))),
        eng.Scatter: (lambda i: {"value": vs if i == root else None,
                                 "root": root},
                      lambda i: vs[i]),
        eng.Allgather: (lambda i: {"value": vs[i]}, lambda i: vs),
        eng.Scan: (lambda i: {"value": vs[i], "op": _cat},
                   lambda i: "".join(vs[:i + 1])),
        eng.Exscan: (lambda i: {"value": vs[i], "op": _cat, "initial": ""},
                     lambda i: "".join(vs[:i])),
        eng.Alltoall: (lambda i: {"value": [f"{i}>{j}" for j in range(n)]},
                       lambda i: [f"{j}>{i}" for j in range(n)]),
        eng.Alltoallv: (lambda i: {"value": [np.full(2, 10 * i + j)
                                             for j in range(n)]},
                        lambda i: [np.full(2, 10 * j + i)
                                   for j in range(n)]),
    }[kind]


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    if isinstance(want, list) and want and isinstance(want[0], np.ndarray):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


@st.composite
def _teams(draw, P: int, least: int = 1):
    """None (the world) or a Team of at least ``least`` of the P ranks,
    in any order."""
    if draw(st.booleans()):
        return None
    members = draw(st.permutations(range(P)))
    return Team(members[:draw(st.integers(least, P))])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_interleaved_collectives_agree_with_the_sequential_fold(data):
    P = data.draw(st.integers(1, 16), label="P")
    team = data.draw(_teams(P), label="team")
    members = range(P) if team is None else team.members
    n = len(members)
    kinds = data.draw(st.lists(st.sampled_from(eng.KINDS), min_size=2,
                               max_size=2), label="kinds")
    calls = [_call(kind, c, n, data.draw(st.integers(0, n - 1)))
             for c, kind in enumerate(kinds)]
    rnd = data.draw(st.randoms(use_true_random=False), label="schedule")
    world = _World(P)
    entered = [set() for _ in calls]   # team indices that started call c
    futures = {}                       # (call, team index) -> future
    started = [0] * n                  # calls started, per team index

    def barrier_waits_for_all(c, i):
        def check(_fut):
            missing = set(range(n)) - entered[c]
            assert not missing, (
                f"index {i} left barrier {c} before {missing} entered it")
        return check

    while True:
        moves = [("start", i) for i in range(n) if started[i] < len(calls)]
        moves += [("deliver", pair) for pair in world.ready()]
        if not moves:
            break
        what, arg = rnd.choice(moves)
        if what == "deliver":
            world.deliver(arg)
            continue
        i, c = arg, started[arg]
        started[i] += 1
        entered[c].add(i)
        params = calls[c][0](i)
        fut = world.engines[members[i]].start(kinds[c], team, **params)
        if kinds[c] is eng.Barrier:
            fut.add_callback(barrier_waits_for_all(c, i))
        futures[c, i] = fut

    for (c, i), fut in futures.items():
        assert fut.done(), f"{kinds[c].kind} {c} never finished on index {i}"
        want = calls[c][1](i)
        assert _same(fut.get(), want), (kinds[c].kind, c, i, fut.get(), want)
    assert all(e.in_flight == 0 for e in world.engines)


#: Kinds whose start sends on every rank of a team of two or more, so a
#: member that called one of them is heard by a member that did not.
_EAGER = (eng.Barrier, eng.Allgather, eng.Scan, eng.Exscan, eng.Alltoall)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_kind_mismatch_raises(data):
    P = data.draw(st.integers(2, 16), label="P")
    team = data.draw(_teams(P, least=2), label="team")
    members = range(P) if team is None else team.members
    n = len(members)
    odd_kind = data.draw(st.sampled_from(_EAGER), label="odd kind")
    kind = data.draw(st.sampled_from(
        [k for k in eng.KINDS if k is not odd_kind]), label="kind")
    odd = data.draw(st.integers(0, n - 1), label="odd index")
    rnd = data.draw(st.randoms(use_true_random=False), label="schedule")
    world = _World(P)
    todo = list(range(n))
    with pytest.raises(PgasError, match="collective mismatch"):
        while todo or world.ready():
            if todo and (not world.ready() or rnd.random() < 0.3):
                i = todo.pop(rnd.randrange(len(todo)))
                mine = odd_kind if i == odd else kind
                world.engines[members[i]].start(
                    mine, team, **_call(mine, 0, n, 0)[0](i))
            else:
                world.deliver(rnd.choice(world.ready()))


def _timed_run(kind, P: int) -> tuple[int, int]:
    """Run ``kind`` on a P-rank world in arrival order on :data:`UNIT`;
    its ``(messages, rounds)``: every message sent, and when the last
    rank finished.  A send leaves a rank's port one unit after the one
    before it and arrives one unit later; a rank takes one arrival per
    unit."""
    now, out_free, in_free = [0] * P, [0] * P, [0] * P
    events: list[tuple] = []
    order = iter(range(1 << 30))
    sent = 0

    def timed_send(src, dst, am):
        nonlocal sent
        sent += 1
        depart = max(now[src], out_free[src])
        out_free[src] = depart + 1
        heapq.heappush(events, (depart + 1, next(order), src, dst,
                                encode_am(am, strict=True)))

    engines = _engines(P, timed_send)
    finished = [None] * P
    for r, e in enumerate(engines):
        fut = e.start(kind, None, **_call(kind, 0, P, 0)[0](r))
        fut.add_callback(lambda _f, r=r: finished.__setitem__(r, now[r]))
    while events:
        t, n, src, dst, frame = heapq.heappop(events)
        if t < in_free[dst]:
            heapq.heappush(events, (in_free[dst], n, src, dst, frame))
            continue
        in_free[dst] = t + 1
        now[dst] = t
        engines[dst].receive(frame.thaw())
    assert None not in finished, f"{kind.kind} on {P} ranks never finished"
    return sent, max(finished)


#: kind -> (closed form of its rounds, messages in a P-rank run).
_COUNTS = {
    eng.Barrier: (lambda P: collmodel.barrier_time(UNIT, P),
                  lambda P: P * collmodel.ceil_log2(P)),
    eng.Bcast: (lambda P: collmodel.bcast_time(UNIT, P, 1),
                lambda P: P - 1),
    eng.Scatter: (lambda P: collmodel.bcast_time(UNIT, P, 1),
                  lambda P: P - 1),
    eng.Reduce: (lambda P: collmodel.reduce_time(UNIT, P, 1),
                 lambda P: P - 1),
    eng.Gather: (lambda P: collmodel.reduce_time(UNIT, P, 1),
                 lambda P: P - 1),
    eng.Gatherv: (lambda P: collmodel.reduce_time(UNIT, P, 1),
                  lambda P: P - 1),
    eng.Allreduce: (lambda P: collmodel.allreduce_time(UNIT, P, 1),
                    lambda P: 2 * (P - 1)),
    eng.Allgather: (lambda P: collmodel.allgather_time(UNIT, P, 1),
                    lambda P: P * collmodel.ceil_log2(P)),
    eng.Scan: (lambda P: collmodel.allgather_time(UNIT, P, 1),
               lambda P: P * collmodel.ceil_log2(P)),
    eng.Exscan: (lambda P: collmodel.allgather_time(UNIT, P, 1),
                 lambda P: P * collmodel.ceil_log2(P)),
    eng.Alltoall: (lambda P: collmodel.alltoall_time(UNIT, P, 1),
                   lambda P: P * (P - 1)),
    eng.Alltoallv: (lambda P: collmodel.alltoall_time(UNIT, P, 1),
                    lambda P: P * (P - 1)),
}


@pytest.mark.parametrize("kind", eng.KINDS, ids=lambda k: k.kind)
def test_message_and_round_counts_match_the_closed_forms(kind):
    rounds, messages = _COUNTS[kind]
    for P in range(1, 17):
        assert _timed_run(kind, P) == (messages(P), rounds(P)), P
