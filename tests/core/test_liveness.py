"""World-free tests of the failure detector's decisions (core/liveness.py).

No spmd region and no sleep: one :class:`Liveness` per process is driven
on a virtual clock (integer milliseconds) by a hypothesis state machine
over 1–3 processes × 1–3 ranks.  The machine plays what the runtime
plays around the detector: ranks that drain — at least every
``PARK_S`` unless stalled — and answer a probe or stamp an answer only
when they do; the probes, answers and done notices in flight, delivered
or delayed; ``die()``, which the launcher declares in every process at
once; finishing; and the dead set each process declares into.  It
checks the properties of Chandra & Toueg (JACM 1996):

* **accuracy** — a rank that keeps draining is never declared;
* **completeness** — a rank whose last drain was at ``s`` is declared
  by ``s + peer_timeout + heartbeat_period + max(heartbeat_period,
  PARK_S)`` — ``peer_timeout + 2 × heartbeat_period`` when the period
  is at least a park — by every process with an attentive prober (its
  last answer takes up to a park to be read, and then up to a period
  to meet a round);
* **finality** — a declaration is final, and each process makes it
  once; a declared rank is probed no more.

Derandomized, so a failure in CI replays locally.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
)

from repro.core.liveness import Liveness
from repro.core.world import PARK_S

PARK = round(PARK_S * 1000)     # the clock's unit is the millisecond
_which = st.integers(0, 8)      # a rank, modulo the world's size


class _Rank:
    """A rank as ``Liveness.round`` reads it; a process's stub of a
    remote rank is one too, with only ``done`` ever set."""

    def __init__(self, rank: int):
        self.rank = rank
        self.done = self.stalled = False
        self.last_heartbeat = 0     # its last drain
        self.inbox: list = []


class Detectors(RuleBasedStateMachine):
    """One detector per process; every round's decisions are checked
    as they are made, against what the machine knows of each rank."""

    @initialize(shape=st.sampled_from([(1, 2), (1, 3), (2, 1), (2, 2),
                                       (2, 3), (3, 1), (3, 2), (3, 3)]),
                period=st.sampled_from([10, 20, 50]),
                slack=st.sampled_from([0, 15, 60]), data=st.data())
    def setup(self, shape, period, slack, data):
        procs, per = shape
        self.n = n = procs * per
        self.home = [r // per for r in range(n)]
        self.period = period
        # The least peer_timeout ReliabilityConfig accepts, plus slack.
        self.timeout = 2 * (period + PARK) + slack
        self.ranks = [_Rank(r) for r in range(n)]
        self.views = [[rk if self.home[rk.rank] == p else _Rank(rk.rank)
                       for rk in self.ranks] for p in range(procs)]
        born = [data.draw(st.integers(0, period - 1)) for _ in range(procs)]
        self.detectors = [Liveness(n, period, self.timeout, t) for t in born]
        self.next_round = [t + period for t in born]
        self.declared: list[set] = [set() for _ in range(procs)]
        self.silent_since: dict[int, int] = {}
        self.wire: list = []        # (kind, src, dst) in flight
        self.now = 0

    # -- what the runtime does around the detector ----------------------
    def _attentive(self, r: int) -> bool:
        rk = self.ranks[r]
        return not (rk.stalled or rk.done)

    def _drain(self, r: int) -> None:
        rk, p = self.ranks[r], self.home[r]
        rk.last_heartbeat = self.now
        inbox, rk.inbox = rk.inbox, []
        for kind, src in inbox:
            if kind == "ping":          # answered by the rank's own drain
                self.wire.append(("pong", r, src))
            elif kind == "pong":        # stamped by the prober's drain
                self.detectors[p].heard(src, self.now)
            else:                       # World.finalize's __proc_done__
                self.views[p][src].done = True

    def _deliver(self, i: int) -> None:
        kind, src, dst = self.wire.pop(i)
        self.ranks[dst].inbox.append((kind, src))

    def _round(self, p: int) -> None:
        view, declared = self.views[p], self.declared[p]
        local = [r for r in range(self.n) if self.home[r] == p
                 and not view[r].done and r not in declared]
        probes, deaths = self.detectors[p].round(self.now, view, local,
                                                 declared)
        for src, dst in probes:
            assert src in local and dst != src and dst not in declared
            self.wire.append(("ping", src, dst))
        named = [r for r, _why in deaths]
        assert len(set(named)) == len(named), deaths
        assert not declared & set(named), (declared, deaths)
        for r in named:
            assert not self._attentive(r), (
                f"accuracy: process {p} declared rank {r}, which keeps "
                f"draining, at t={self.now}")
            declared.add(r)         # mark_dead
        self._check_completeness(p)

    def _check_completeness(self, p: int) -> None:
        view, declared = self.views[p], self.declared[p]
        listens = any(self.home[a] == p and self._attentive(a)
                      for a in range(self.n))
        bound = self.timeout + self.period + max(self.period, PARK)
        for r, since in self.silent_since.items():
            if r in declared or view[r].done:
                continue
            assert not (listens and self.now > since + bound), (
                f"completeness: rank {r} silent since t={since} is not "
                f"declared by process {p} at t={self.now}")

    # -- rules ------------------------------------------------------------
    @rule(dt=st.integers(1, 250))
    def advance_time(self, dt):
        """Run, in time order up to ``now + dt``, each process's rounds
        and the drains every attentive rank makes at least every
        ``PARK``; whatever is in flight arrives before time moves."""
        target = self.now + dt
        while True:
            while self.wire:
                self._deliver(0)
            drains = [self.ranks[r].last_heartbeat + PARK
                      for r in range(self.n) if self._attentive(r)]
            t = min(self.next_round + drains)
            if t > target:
                break
            self.now = t
            for p, due in enumerate(self.next_round):
                if due == t:
                    self.next_round[p] += self.period
                    self._round(p)
            for r in range(self.n):
                if (self._attentive(r)
                        and self.ranks[r].last_heartbeat + PARK == t):
                    self._drain(r)
        self.now = target

    @rule(i=_which)
    def drain(self, i):
        if self._attentive(i % self.n):
            self._drain(i % self.n)

    @rule(i=st.integers(0, 100))
    def deliver_one(self, i):
        """Deliver one message, in any order; the rest stay delayed
        until the next drain or the next step of the clock."""
        if self.wire:
            self._deliver(i % len(self.wire))

    @rule(i=_which, how=st.sampled_from(["stall", "die", "finish"]))
    def go_silent(self, i, how):
        """The rank drains no more: it hangs; calls ``die()``, and its
        launcher declares it in every process at once; or its body
        returns — done, with a done notice to every rank of another
        process not declared dead here (``World.finalize``)."""
        r = i % self.n
        if not self._attentive(r):
            return
        self.silent_since[r] = self.ranks[r].last_heartbeat
        if how == "stall":
            self.ranks[r].stalled = True
        elif how == "die":
            self.ranks[r].stalled = True
            for declared in self.declared:
                declared.add(r)
        else:
            self.ranks[r].done = True
            p = self.home[r]
            self.wire += [("done", r, d) for d in range(self.n)
                          if self.home[d] != p and d not in self.declared[p]]


Detectors.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None,
    derandomize=True)
TestDetectors = Detectors.TestCase
