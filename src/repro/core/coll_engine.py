"""Tree-based collectives engine over conduit active messages.

The rendezvous-slot exchange this replaces funnelled every rank through
one dict under the world lock — O(N) deep copies at a single point of
serialization, invisible to the conduit stack.  Here every collective is
a small per-rank state machine advanced purely by active messages, so
the traffic is ordinary point-to-point AMs that the fault layers, the
flight recorder and the latency histograms all see for free, and
per-rank work is O(log N) rounds:

===========  ==================================  =======================
collective   algorithm                           per-rank sends
===========  ==================================  =======================
barrier      dissemination (Hensgen et al.)      ceil(log2 P)
bcast        binomial tree from the root         <= ceil(log2 P)
reduce       binomial tree to the root           1 (non-root)
allreduce    binomial reduce + binomial bcast    <= 1 + ceil(log2 P)
gather(v)    binomial tree, coalesced subtrees   1 (non-root)
scatter      binomial tree, coalesced subtrees   <= ceil(log2 P)
allgather    Bruck (works for any P)             ceil(log2 P)
alltoall(v)  pairwise, one coalesced AM/peer     P - 1
===========  ==================================  =======================

Every message carries ``(team_key, seq, kind, tag, src_index)`` in the
AM header: ``team_key`` is the member tuple (``()`` for the world team),
``seq`` the per-team collective sequence number, and ``kind`` the
operation name — so collectives issued out of order across ranks are
detected as a :class:`~repro.errors.PgasError` (kind mismatch on the
same key) instead of deadlocking, exactly like the old rendezvous path.

State transitions happen either at initiation (on the calling thread,
under the rank's handler lock) or inside the AM handler (already under
the handler lock); completion resolves a :class:`~repro.core.future.
Future`, which is what the non-blocking ``*_async`` API hands out.
Handlers are idempotent — a message for a finished collective is
dropped, a keyed update applied twice changes nothing — and messages
that arrive before the local rank has initiated the matching
collective are buffered and replayed.  Values cross rank boundaries
through the wire codec (pre-encoded once per fan-out, spliced into each
frame), which supplies the by-value contract of a real network.
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.errors import PgasError
from repro.gasnet.am import am_handler
from repro.gasnet.wire import preencode
from repro.telemetry import tracing

#: AM handler name for all collective traffic.
COLL_AM = "coll"

#: Completed-collective keys remembered for stray-message filtering
#: (and for naming a kind mismatch that arrives after completion).
_COMPLETED_LRU = 256


def copy_value(value: Any) -> Any:
    """By-value semantics for contributions crossing rank boundaries.

    Immutable builtins (and frozenset, whose elements must themselves
    be hashable-immutable) are returned as-is — a full pickle round
    trip on an int or frozenset buys nothing."""
    if value is None or isinstance(
        value, (int, float, bool, complex, str, bytes, frozenset)
    ):
        return value
    if isinstance(value, np.generic):
        return value  # NumPy scalars are immutable; no copy needed
    if isinstance(value, np.ndarray):
        return value.copy()
    return pickle.loads(pickle.dumps(value, protocol=-1))


def ceil_log2(p: int) -> int:
    """Number of dissemination/Bruck rounds for ``p`` participants."""
    return max(p - 1, 0).bit_length()


def binomial_tree(rel: int, p: int) -> tuple[int | None, list[int]]:
    """Parent and children of relative rank ``rel`` in a binomial tree
    over ``p`` nodes rooted at 0.  Children are returned in increasing
    order (smallest subtree first), which is the fold order reductions
    use."""
    children = []
    step = 1
    while step < p:
        if rel & step:
            return rel - step, children
        if rel + step < p:
            children.append(rel + step)
        step <<= 1
    return None, children


class _Collective:
    """Base class: one in-flight collective on one rank."""

    kind = "?"

    __slots__ = ("eng", "key", "members", "P", "my_index", "future", "done")

    def __init__(self, eng: "CollEngine", key: tuple, members: tuple):
        from repro.core.future import Future

        self.eng = eng
        self.key = key
        self.members = members
        self.P = len(members)
        self.my_index = members.index(eng.ctx.rank)
        self.future = Future(eng.ctx)
        self.done = False

    # -- outgoing traffic ---------------------------------------------------
    def send(self, dst_index: int, tag, data: Any = None) -> None:
        self.send_wire(dst_index, tag, self.pack(data))

    @staticmethod
    def pack(data: Any):
        """Encode once; the resulting :class:`EncodedPayload` is spliced
        into every fan-out frame without re-serializing."""
        return None if data is None else preencode(data)

    def send_wire(self, dst_index: int, tag, payload) -> None:
        ctx = self.eng.ctx
        ctx.stats.add(coll_msgs=1)
        ctx.send_am(
            self.members[dst_index], COLL_AM,
            args=(self.key[0], self.key[1], self.kind, tag, self.my_index),
            payload=payload,
        )

    # -- completion ---------------------------------------------------------
    def complete(self, result: Any = None) -> None:
        if self.done:
            return
        self.done = True
        self.eng.retire(self.key, self.kind)
        self.future.set_result(result)

    # -- subclass protocol --------------------------------------------------
    def start(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def on_msg(self, tag, src_index: int, data: Any) -> None:
        raise NotImplementedError  # pragma: no cover - interface


class _Barrier(_Collective):
    """Dissemination barrier: round k tells (i + 2^k) mod P; completion
    after ceil(log2 P) rounds transitively covers every rank."""

    kind = "barrier"

    __slots__ = ("rounds", "got", "sent")

    def __init__(self, eng, key, members, value=None):
        super().__init__(eng, key, members)
        self.rounds = ceil_log2(self.P)
        self.got: set[int] = set()
        self.sent = 0

    def start(self) -> None:
        if self.P == 1:
            self.complete(None)
            return
        self.send((self.my_index + 1) % self.P, 0)
        self.sent = 1

    def on_msg(self, tag, src_index, data) -> None:
        self.got.add(tag)
        # Enter round k only after finishing round k-1 (the token for
        # round k-1 has arrived) — the dissemination invariant.
        while self.sent < self.rounds and (self.sent - 1) in self.got:
            self.send((self.my_index + (1 << self.sent)) % self.P, self.sent)
            self.sent += 1
        if self.sent == self.rounds and len(self.got) == self.rounds:
            self.complete(None)


class _Bcast(_Collective):
    """Binomial-tree broadcast rooted at team index ``root``."""

    kind = "bcast"

    __slots__ = ("root", "rel", "children", "value")

    def __init__(self, eng, key, members, value=None, root=0):
        super().__init__(eng, key, members)
        self.root = root
        self.rel = (self.my_index - root) % self.P
        _parent, self.children = binomial_tree(self.rel, self.P)
        self.value = value

    def _abs(self, rel: int) -> int:
        return (rel + self.root) % self.P

    def _fan_out(self, data: Any) -> None:
        if self.children:
            wire = self.pack(data)
            for c in reversed(self.children):  # largest subtree first
                self.send_wire(self._abs(c), "v", wire)

    def start(self) -> None:
        if self.rel == 0:
            self._fan_out(self.value)
            self.complete(copy_value(self.value))

    def on_msg(self, tag, src_index, data) -> None:
        self._fan_out(data)
        self.complete(data)


class _Reduce(_Collective):
    """Binomial-tree reduction to team index ``root``.

    Children fold in increasing relative order, so the result is a
    bracketing of the in-order fold — identical to the old sequential
    left fold for associative operators (which all built-in reducers
    are; custom callables must be associative too).
    """

    kind = "reduce"

    __slots__ = ("root", "op", "rel", "parent", "children", "value",
                 "partials", "folded")

    def __init__(self, eng, key, members, value=None, root=0, op=None):
        super().__init__(eng, key, members)
        self.root = root
        self.op = op
        self.rel = (self.my_index - root) % self.P
        self.parent, self.children = binomial_tree(self.rel, self.P)
        self.value = copy_value(value)  # own contribution, snapshotted
        self.partials: dict[int, Any] = {}
        self.folded = False

    def _abs(self, rel: int) -> int:
        return (rel + self.root) % self.P

    def start(self) -> None:
        if self.P == 1:
            self.complete(self.value)
            return
        if not self.children:  # leaf: contribute immediately
            self.send(self._abs(self.parent), "p", self.value)
            self._sent_up()

    def _sent_up(self) -> None:
        self.complete(None)  # non-roots receive None

    def _finish(self, acc: Any) -> None:
        self.complete(acc)

    def on_msg(self, tag, src_index, data) -> None:
        src_rel = (src_index - self.root) % self.P
        self.partials[src_rel] = data
        if self.folded or len(self.partials) < len(self.children):
            return
        self.folded = True
        acc = self.value
        for c in self.children:  # increasing order == fold order
            acc = self.op(acc, self.partials[c])
        if self.rel == 0:
            self._finish(acc)
        else:
            self.send(self._abs(self.parent), "p", acc)
            self._sent_up()


class _Allreduce(_Reduce):
    """Binomial reduce to relative 0 followed by a binomial broadcast
    back down the same tree, in one state machine ("p" up, "d" down)."""

    kind = "allreduce"

    __slots__ = ()

    def __init__(self, eng, key, members, value=None, op=None):
        super().__init__(eng, key, members, value=value, root=0, op=op)

    def _sent_up(self) -> None:
        pass  # stay armed for the "d" broadcast

    def _finish(self, acc: Any) -> None:
        wire = self.pack(acc)
        for c in reversed(self.children):
            self.send_wire(self._abs(c), "d", wire)
        self.complete(acc)

    def on_msg(self, tag, src_index, data) -> None:
        if tag == "d":
            wire = self.pack(data) if self.children else None
            for c in reversed(self.children):
                self.send_wire(self._abs(c), "d", wire)
            self.complete(data)
        else:
            super().on_msg(tag, src_index, data)


class _Gather(_Collective):
    """Binomial-tree gather: each subtree coalesces into one AM."""

    kind = "gather"

    __slots__ = ("root", "rel", "parent", "children", "parts", "arrived")

    def __init__(self, eng, key, members, value=None, root=0):
        super().__init__(eng, key, members)
        self.root = root
        self.rel = (self.my_index - root) % self.P
        self.parent, self.children = binomial_tree(self.rel, self.P)
        #: team index -> contribution, for my whole subtree so far.
        self.parts = {self.my_index: copy_value(value)}
        self.arrived: set[int] = set()

    def _abs(self, rel: int) -> int:
        return (rel + self.root) % self.P

    def start(self) -> None:
        if self.P == 1:
            self._deliver()
            return
        if not self.children:
            self.send(self._abs(self.parent), "g", self.parts)
            self.complete(None)

    def _deliver(self) -> None:
        self.complete([self.parts[i] for i in range(self.P)])

    def on_msg(self, tag, src_index, data) -> None:
        src_rel = (src_index - self.root) % self.P
        if src_rel not in self.arrived:
            self.arrived.add(src_rel)
            self.parts.update(data)
        if self.arrived != set(self.children):
            return
        if self.rel == 0:
            self._deliver()
        else:
            self.send(self._abs(self.parent), "g", self.parts)
            self.complete(None)


class _Scatter(_Collective):
    """Binomial-tree scatter: the root carves its value list into
    subtree slices; each hop forwards one coalesced slice per child."""

    kind = "scatter"

    __slots__ = ("root", "rel", "children", "values")

    def __init__(self, eng, key, members, value=None, root=0):
        super().__init__(eng, key, members)
        self.root = root
        self.rel = (self.my_index - root) % self.P
        _parent, self.children = binomial_tree(self.rel, self.P)
        self.values = value  # root only: one value per team index

    def _abs(self, rel: int) -> int:
        return (rel + self.root) % self.P

    def _fan_out(self, by_rel: dict[int, Any]) -> None:
        # Child c joined the tree at step (c & -c) and owns relative
        # ranks [c, c + (c & -c)) — its coalesced slice.
        for c in reversed(self.children):
            span = c & -c
            self.send(self._abs(c), "s", {
                r: by_rel[r] for r in range(c, min(c + span, self.P))
            })

    def start(self) -> None:
        if self.rel == 0:
            by_rel = {
                (i - self.root) % self.P: v
                for i, v in enumerate(self.values)
            }
            self._fan_out(by_rel)
            self.complete(copy_value(self.values[self.my_index]))

    def on_msg(self, tag, src_index, data) -> None:
        self._fan_out(data)
        self.complete(data[self.rel])


class _Allgather(_Collective):
    """Bruck allgather: works for any P (the test fixture runs 7 ranks),
    round k ships min(2^k, P - 2^k) coalesced blocks to (i - 2^k)."""

    kind = "allgather"

    __slots__ = ("rounds", "held", "stash", "merged")

    def __init__(self, eng, key, members, value=None):
        super().__init__(eng, key, members)
        self.rounds = ceil_log2(self.P)
        #: team index -> block; grows by doubling each merged round.
        self.held = {self.my_index: copy_value(value)}
        self.stash: dict[int, dict] = {}  # round -> early-arrived blocks
        self.merged = 0

    def _send_round(self, k: int) -> None:
        count = min(1 << k, self.P - (1 << k))
        self.send((self.my_index - (1 << k)) % self.P, k, {
            (self.my_index + j) % self.P: self.held[(self.my_index + j) % self.P]
            for j in range(count)
        })

    def start(self) -> None:
        if self.P == 1:
            self._deliver()
            return
        self._send_round(0)

    def _deliver(self) -> None:
        self.complete([self.held[i] for i in range(self.P)])

    def on_msg(self, tag, src_index, data) -> None:
        self.stash[tag] = data
        # Rounds merge in order: round k's outgoing blocks are only
        # complete once rounds < k have merged.
        while self.merged in self.stash:
            self.held.update(self.stash.pop(self.merged))
            self.merged += 1
            if self.merged < self.rounds:
                self._send_round(self.merged)
        if self.merged == self.rounds:
            self._deliver()


class _Scan(_Allgather):
    """Allgather with a distinct kind; the caller folds the prefix
    locally (sequential in-order fold — exact old semantics)."""

    kind = "scan"
    __slots__ = ()


class _Exscan(_Allgather):
    kind = "exscan"
    __slots__ = ()


class _Gatherv(_Gather):
    kind = "gatherv"
    __slots__ = ()


class _Alltoall(_Collective):
    """Pairwise exchange: P-1 coalesced AMs, one per peer, all issued at
    initiation (every peer needs a distinct value, so there is nothing a
    tree could combine)."""

    kind = "alltoall"

    __slots__ = ("inbound", "_outgoing")

    def __init__(self, eng, key, members, value=None):
        super().__init__(eng, key, members)
        #: source team index -> the value it sent me.
        self.inbound = {self.my_index: copy_value(value[self.my_index])}
        self._outgoing = value

    def start(self) -> None:
        values = self._outgoing
        self._outgoing = None
        for shift in range(1, self.P):
            dst = (self.my_index + shift) % self.P
            self.send(dst, "a", values[dst])
        if len(self.inbound) == self.P:
            self.complete([self.inbound[i] for i in range(self.P)])

    def on_msg(self, tag, src_index, data) -> None:
        self.inbound[src_index] = data
        if len(self.inbound) == self.P:
            self.complete([self.inbound[i] for i in range(self.P)])


class _Alltoallv(_Alltoall):
    kind = "alltoallv"
    __slots__ = ()


class CollEngine:
    """Per-rank collectives engine: owns the in-flight state machines,
    buffers early messages, and filters strays for finished keys."""

    __slots__ = ("ctx", "states", "pending", "completed")

    def __init__(self, ctx):
        self.ctx = ctx
        #: (team_key, seq) -> in-flight _Collective.
        self.states: dict[tuple, _Collective] = {}
        #: (team_key, seq) -> buffered (kind, tag, src_index, payload)
        #: that arrived before this rank initiated the collective.
        self.pending: dict[tuple, list] = {}
        #: (team_key, seq) -> kind, for completed collectives (LRU).
        self.completed: OrderedDict[tuple, str] = OrderedDict()

    # -- observability ------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Live bookkeeping entries (leak guard for tests)."""
        return len(self.states) + len(self.pending)

    # -- sequence numbers ---------------------------------------------------
    def next_seq(self, team_key: tuple) -> int:
        ctx = self.ctx
        if team_key:
            seq = ctx.team_seq.get(team_key, 0)
            ctx.team_seq[team_key] = seq + 1
        else:
            seq = ctx.coll_seq
            ctx.coll_seq += 1
        return seq

    # -- initiation ---------------------------------------------------------
    def initiate(self, coll_cls, team_key: tuple, members: tuple,
                 **params):
        """Start a collective; returns its completion future.

        Runs under the rank's handler lock so initiation is atomic with
        respect to concurrently delivered collective AMs (progress
        thread / nested advance).
        """
        ctx = self.ctx
        with ctx._handler_lock:
            seq = self.next_seq(team_key)
            key = (team_key, seq)
            st = coll_cls(self, key, members, **params)
            ctx.stats.add(collectives=1)
            tel = ctx.telemetry
            if tel.active:
                tel.flight_event(
                    "coll", src=ctx.rank, dst=-1,
                    detail=f"{st.kind}#{seq}" + (
                        f" team{team_key}" if team_key else ""
                    ),
                )
                if tel.full:
                    t0 = time.perf_counter()
                    st.future.add_callback(
                        lambda _f, _k=st.kind, _t=t0: tel.record_latency(
                            f"coll_{_k}", time.perf_counter() - _t
                        )
                    )
            self.states[key] = st
            # Trace the fan-out: AMs the state machine sends from
            # start() carry this span (or the caller's, when the
            # collective runs inside an already-traced client op), so
            # tree hops on other ranks join one causal trace.
            with tracing.span(tel, f"coll:{st.kind}"):
                st.start()
            for kind, tag, src_index, payload in self.pending.pop(key, ()):
                self._dispatch(st, key, kind, tag, src_index, payload)
            return st.future

    # -- completion bookkeeping ---------------------------------------------
    def retire(self, key: tuple, kind: str) -> None:
        self.states.pop(key, None)
        self.completed[key] = kind
        if len(self.completed) > _COMPLETED_LRU:
            self.completed.popitem(last=False)

    # -- incoming traffic ---------------------------------------------------
    def handle(self, am) -> None:
        team_key, seq, kind, tag, src_index = am.args
        key = (team_key, seq)
        st = self.states.get(key)
        if st is not None:
            self._dispatch(st, key, kind, tag, src_index, am.payload)
            return
        done_kind = self.completed.get(key)
        if done_kind is not None:
            if done_kind != kind:
                self._mismatch(key, done_kind, kind, src_index)
            return  # stray message for a finished collective: drop
        # Arrived before this rank initiated (team_key, seq): buffer.
        self.pending.setdefault(key, []).append(
            (kind, tag, src_index, am.payload)
        )

    def _dispatch(self, st, key, kind, tag, src_index, payload) -> None:
        if kind != st.kind:
            self._mismatch(key, st.kind, kind, src_index)
        if st.done:
            return  # late message racing completion
        # The wire layer already decoded the payload to a fresh value.
        st.on_msg(tag, src_index, payload)

    def _mismatch(self, key, my_kind, their_kind, src_index) -> None:
        raise PgasError(
            f"collective mismatch at sequence {key[1]}: rank "
            f"{self.ctx.rank} called {my_kind!r} but another rank "
            f"(team index {src_index}) called {their_kind!r}"
        )


@am_handler(COLL_AM)
def _coll_handler(ctx, am) -> None:
    ctx.coll.handle(am)
