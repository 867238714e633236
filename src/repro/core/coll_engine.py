"""Tree collectives: world-free state machines, and the engine that
runs them over active messages.

A collective is a small per-rank state machine that knows its team's
size ``P``, its team index ``me`` and its arguments — no world, no rank
context, no future.  ``start()`` and ``on_msg(tag, src_index, data)``
each return ``(sends, result)``: the ``(dst_index, tag, data)`` messages
to send, and the result, or :data:`PENDING` while there is none.

===========  ==================================  =======================
collective   algorithm                           per-rank sends
===========  ==================================  =======================
barrier      dissemination (Hensgen et al.)      ceil(log2 P)
bcast        binomial tree from the root         <= ceil(log2 P)
reduce       binomial tree to index 0 (+1 hop)   1 (non-root)
allreduce    binomial reduce + binomial bcast    <= 1 + ceil(log2 P)
gather(v)    binomial tree, coalesced subtrees   1 (non-root)
scatter      binomial tree, coalesced subtrees   <= ceil(log2 P)
allgather    Bruck (works for any P)             ceil(log2 P)
scan/exscan  Bruck allgather, folded locally     ceil(log2 P)
alltoall(v)  pairwise, one coalesced AM/peer     P - 1
===========  ==================================  =======================

:class:`CollEngine`, one per rank, is the runtime side: sequence
numbers, machines in flight, early messages, futures, stats and
telemetry.  A message is one ``COLL_AM`` whose args are a fixed-width
:data:`HEADER` — ``(seq, kind, tag, src_index)`` — and, for a team other
than the world, the team's members.  Members and ``seq`` key the
collective, so collectives called in different orders on different
ranks raise a :class:`~repro.errors.PgasError` (two kinds on one key)
instead of deadlocking.  Values cross through the wire codec — a
fan-out's value encoded once for all its sends — which gives the
by-value contract of a real network.  ``tests/core/test_coll_model.py``
checks the engines against the sequential fold and
:mod:`repro.sim.collmodel`.
"""

from __future__ import annotations

import functools
import pickle
import struct
import time
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.core.future import Future
from repro.errors import PgasError
from repro.gasnet.am import ActiveMessage, am_handler
from repro.gasnet.wire import preencode
from repro.telemetry import tracing

#: AM handler name for all collective traffic.
COLL_AM = "coll"

#: ``(seq, kind, tag, src_index)``: the fixed-width part of every
#: collective message's args.
HEADER = struct.Struct("<QBBI")

#: The result of a machine's step that has not finished the collective.
PENDING = object()

#: Completed-collective keys remembered for stray-message filtering
#: (and for naming a kind mismatch that arrives after completion).
_COMPLETED_LRU = 256

_REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "xor": lambda a, b: a ^ b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
}


def reducer(op) -> Callable[[Any, Any], Any]:
    """``op`` if callable, else the named built-in reduction."""
    if callable(op):
        return op
    try:
        return _REDUCERS[op]
    except KeyError:
        raise PgasError(
            f"unknown reduction {op!r}; known: {sorted(_REDUCERS)}"
        ) from None


#: The immutable builtins :func:`copy_value` returns as-is, by exact
#: type: one set lookup (0.07 µs on a 64 B ``bytes``) before the
#: ``isinstance`` chain (0.22 µs) that subclasses still take.
_IMMUTABLE = frozenset((type(None), int, float, bool, complex, str, bytes,
                        frozenset))


def copy_value(value: Any) -> Any:
    """By-value semantics for contributions crossing rank boundaries.

    Immutable builtins (and frozenset, whose elements must themselves
    be hashable-immutable) are returned as-is — a full pickle round
    trip on an int or frozenset buys nothing."""
    if type(value) in _IMMUTABLE:
        return value
    if isinstance(value, (int, float, complex, str, bytes, frozenset)):
        return value    # a subclass of one
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


class _Machine:
    """One collective on one rank: team size ``P``, team index ``me``;
    ``kind_id``, its index in :data:`KINDS`, is its messages' kind."""

    __slots__ = ("P", "me")


class Barrier(_Machine):
    """Dissemination barrier: round k tells (i + 2^k) mod P; completion
    after ceil(log2 P) rounds transitively covers every rank."""

    kind = "barrier"

    __slots__ = ("rounds", "got", "sent")

    def __init__(self, P, me):
        self.P, self.me = P, me
        self.rounds = ceil_log2(P)
        self.got: set[int] = set()
        self.sent = 0

    def start(self):
        if self.P == 1:
            return (), None
        self.sent = 1
        return [((self.me + 1) % self.P, 0, None)], PENDING

    def on_msg(self, tag, src_index, data):
        self.got.add(tag)
        # Enter round k only after finishing round k-1 (the token for
        # round k-1 has arrived) — the dissemination invariant.
        sends = []
        while self.sent < self.rounds and (self.sent - 1) in self.got:
            sends.append(((self.me + (1 << self.sent)) % self.P,
                          self.sent, None))
            self.sent += 1
        if self.sent == self.rounds and len(self.got) == self.rounds:
            return sends, None
        return sends, PENDING


def _check_root(kind: str, root: int, P: int) -> None:
    if not 0 <= root < P:
        raise PgasError(f"{kind} root {root} out of range")


class _Tree(_Machine):
    """A binomial tree over the team, rooted at team index ``root``;
    ``rel`` is this rank's index relative to the root."""

    __slots__ = ("root", "rel", "parent", "children")

    def __init__(self, P, me, root):
        _check_root(self.kind, root, P)
        self.P, self.me, self.root = P, me, root
        self.rel = (me - root) % P
        self.parent, self.children = binomial_tree(self.rel, P)


class Bcast(_Tree):
    """Binomial-tree broadcast, largest subtree first."""

    kind = "bcast"

    __slots__ = ("value",)

    def __init__(self, P, me, value=None, root=0):
        _Tree.__init__(self, P, me, root)
        self.value = value

    def _fan_out(self, data):
        root, P = self.root, self.P
        return [((c + root) % P, 0, data) for c in reversed(self.children)]

    def start(self):
        if self.rel:
            return (), PENDING
        return self._fan_out(self.value), copy_value(self.value)

    def on_msg(self, tag, src_index, data):
        return self._fan_out(data), data


#: Reduction tags: a partial going up, the result coming down.
_UP, _DOWN = 0, 1


class Reduce(_Machine):
    """Binomial-tree reduction, then the result to team index ``root``.

    The tree is rooted at team index 0 whatever the root, and children
    fold in increasing order, so the result is a bracketing of the
    sequential left fold in team order: operators must be associative
    (all built-in reducers are), not commutative.  A root other than 0
    gets the result in one more message.
    """

    kind = "reduce"

    __slots__ = ("root", "parent", "children", "op", "value", "partials")

    def __init__(self, P, me, value=None, op="sum", root=0):
        _check_root(self.kind, root, P)
        self.P, self.me, self.root = P, me, root
        self.parent, self.children = binomial_tree(me, P)
        self.op = reducer(op)
        self.value = copy_value(value)  # own contribution, snapshotted
        self.partials: dict[int, Any] = {}

    def on_msg(self, tag, src_index, data):
        if tag == _DOWN:
            return (), data
        self.partials[src_index] = data
        return self.start()

    def start(self):
        """Fold once every child's partial is in (a leaf: at once), and
        send it up or, at the top of the tree, finish."""
        if len(self.partials) < len(self.children):
            return (), PENDING
        acc = self.value
        for c in self.children:  # increasing order == fold order
            acc = self.op(acc, self.partials[c])
        if self.me:
            return [(self.parent, _UP, acc)], self._sent_up()
        return self._at_top(acc)

    def _sent_up(self):
        """The result of a rank whose partial has gone up."""
        return PENDING if self.me == self.root else None

    def _at_top(self, acc):
        if self.root == 0:
            return (), acc
        return [(self.root, _DOWN, acc)], None


class Allreduce(Reduce):
    """Binomial reduce to team index 0, then a binomial broadcast back
    down the same tree, in one machine."""

    kind = "allreduce"

    __slots__ = ()

    def __init__(self, P, me, value=None, op="sum"):
        Reduce.__init__(self, P, me, value, op, 0)

    def on_msg(self, tag, src_index, data):
        if tag == _DOWN:
            return self._at_top(data)
        return Reduce.on_msg(self, tag, src_index, data)

    def _sent_up(self):
        return PENDING  # it waits for the result to come down

    def _at_top(self, acc):
        return [(c, _DOWN, acc) for c in reversed(self.children)], acc


class Gather(_Tree):
    """Binomial-tree gather: each subtree coalesces into one AM."""

    kind = "gather"

    __slots__ = ("parts", "arrived")

    def __init__(self, P, me, value=None, root=0):
        _Tree.__init__(self, P, me, root)
        #: team index -> contribution, for my whole subtree so far.
        self.parts = {me: copy_value(value)}
        self.arrived = 0

    def on_msg(self, tag, src_index, data):
        self.parts.update(data)
        self.arrived += 1
        return self.start()

    def start(self):
        """Send my subtree's parts up once they are all in (a leaf: at
        once); the root delivers them."""
        if self.arrived < len(self.children):
            return (), PENDING
        if self.rel:
            return [((self.parent + self.root) % self.P, 0, self.parts)], None
        return (), self._deliver()

    def _deliver(self):
        return [self.parts[i] for i in range(self.P)]


class Gatherv(Gather):
    """Gather of 1-D arrays, delivered at the root as one array."""

    kind = "gatherv"

    __slots__ = ()

    def __init__(self, P, me, value=None, root=0):
        arr = np.ascontiguousarray(value)
        if arr.ndim != 1:
            raise PgasError("gatherv expects 1-D arrays; ravel first")
        Gather.__init__(self, P, me, arr, root)

    def _deliver(self):
        return np.concatenate([self.parts[i] for i in range(self.P)])


class Scatter(_Tree):
    """Binomial-tree scatter: the root carves its value list into
    subtree slices; each hop forwards one coalesced slice per child."""

    kind = "scatter"

    __slots__ = ("by_rel",)

    def __init__(self, P, me, value=None, root=0):
        _Tree.__init__(self, P, me, root)
        self.by_rel = None
        if self.rel == 0:
            if value is None or len(value) != P:
                raise PgasError(f"scatter root must supply {P} values")
            self.by_rel = {(i - root) % P: v for i, v in enumerate(value)}

    def _fan_out(self, by_rel):
        # Child c joined the tree at step (c & -c) and owns relative
        # ranks [c, c + (c & -c)) — its coalesced slice.
        root, P = self.root, self.P
        return [((c + root) % P, 0,
                 {r: by_rel[r] for r in range(c, min(c + (c & -c), P))})
                for c in reversed(self.children)]

    def start(self):
        if self.rel:
            return (), PENDING
        return self._fan_out(self.by_rel), copy_value(self.by_rel[0])

    def on_msg(self, tag, src_index, data):
        return self._fan_out(data), data[self.rel]


class Allgather(_Machine):
    """Bruck allgather: works for any P; round k ships min(2^k, P - 2^k)
    coalesced blocks to (i - 2^k)."""

    kind = "allgather"

    __slots__ = ("rounds", "held", "stash", "merged")

    def __init__(self, P, me, value=None):
        self.P, self.me = P, me
        self.rounds = ceil_log2(P)
        #: team index -> block; grows by doubling each merged round.
        self.held = {me: copy_value(value)}
        self.stash: dict[int, dict] = {}  # round -> early-arrived blocks
        self.merged = 0

    def _round(self, k):
        me, P, held = self.me, self.P, self.held
        blocks = [(me + j) % P for j in range(min(1 << k, P - (1 << k)))]
        return (me - (1 << k)) % P, k, {i: held[i] for i in blocks}

    def start(self):
        if self.P == 1:
            return (), self._deliver()
        return [self._round(0)], PENDING

    def on_msg(self, tag, src_index, data):
        self.stash[tag] = data
        # Rounds merge in order: round k's outgoing blocks are only
        # complete once rounds < k have merged.
        sends = []
        while self.merged in self.stash:
            self.held.update(self.stash.pop(self.merged))
            self.merged += 1
            if self.merged < self.rounds:
                sends.append(self._round(self.merged))
        if self.merged == self.rounds:
            return sends, self._deliver()
        return sends, PENDING

    def _deliver(self):
        return [self.held[i] for i in range(self.P)]


class Scan(Allgather):
    """Allgather delivered as this rank's prefix, inclusive (or exclusive
    from ``initial``: :class:`Exscan`), folded in team order."""

    kind = "scan"

    __slots__ = ("op", "initial")

    def __init__(self, P, me, value=None, op="sum", initial=None):
        Allgather.__init__(self, P, me, value)
        self.op, self.initial = reducer(op), copy_value(initial)

    def _deliver(self):
        return functools.reduce(self.op, [self.held[r]
                                          for r in range(self.me + 1)])


class Exscan(Scan):
    kind = "exscan"

    __slots__ = ()

    def _deliver(self):
        return functools.reduce(self.op, [self.held[r]
                                          for r in range(self.me)],
                                self.initial)


class Alltoall(_Machine):
    """Pairwise exchange: P-1 coalesced AMs, one per peer, all issued at
    start (every peer needs a distinct value, so there is nothing a
    tree could combine)."""

    kind = "alltoall"

    __slots__ = ("values", "inbound")

    def __init__(self, P, me, value=()):
        if len(value) != P:
            raise PgasError(
                f"alltoall needs exactly {P} values, one per rank")
        self.P, self.me = P, me
        self.values = list(value)
        #: source team index -> the value it sent me.
        self.inbound = {me: copy_value(value[me])}

    def start(self):
        values, self.values = self.values, None
        dsts = [(self.me + shift) % self.P for shift in range(1, self.P)]
        return [(d, 0, values[d]) for d in dsts], self._result()

    def on_msg(self, tag, src_index, data):
        self.inbound[src_index] = data
        return (), self._result()

    def _result(self):
        if len(self.inbound) < self.P:
            return PENDING
        return [self.inbound[i] for i in range(self.P)]


class Alltoallv(Alltoall):
    """alltoall of NumPy arrays (made contiguous before they ship)."""

    kind = "alltoallv"

    __slots__ = ()

    def __init__(self, P, me, value=()):
        Alltoall.__init__(self, P, me,
                          [np.ascontiguousarray(a) for a in value])


#: Every machine, by the kind byte of its messages.
KINDS = (Barrier, Bcast, Reduce, Allreduce, Gather, Gatherv, Scatter,
         Allgather, Scan, Exscan, Alltoall, Alltoallv)
for _i, _cls in enumerate(KINDS):
    _cls.kind_id = _i


class _CollFuture(Future):
    __slots__ = ()
    _what = "collective"


class CollEngine:
    """One rank's collectives: sequence numbers, the machines in flight,
    early messages, mismatch detection, and the runtime side of each
    step (header, fan-out encoding, futures, stats, telemetry).

    World-free, like :class:`~repro.core.endpoint.Endpoint`:
    ``send(dst_rank, am)`` sends an AM, ``lock`` serializes a start
    with the handler of an arriving message, and futures wait on
    ``owner`` (the :class:`~repro.core.world.RankState`, or None where
    nothing waits)."""

    __slots__ = ("rank", "world", "_send", "_lock", "stats", "telemetry",
                 "owner", "seqs", "states", "pending", "completed")

    def __init__(self, rank: int, n_ranks: int, send: Callable, lock,
                 stats, telemetry, owner=None):
        self.rank = rank
        #: The world team's members: team index == rank.
        self.world = tuple(range(n_ranks))
        self._send, self._lock = send, lock
        self.stats, self.telemetry, self.owner = stats, telemetry, owner
        #: team key (``()`` for the world) -> next sequence number.
        self.seqs: dict[tuple, int] = {}
        #: (team_key, seq) -> in-flight (machine, future, members).
        self.states: dict[tuple, tuple] = {}
        #: (team_key, seq) -> buffered (kind, tag, src_index, data)
        #: that arrived before this rank started the collective.
        self.pending: dict[tuple, list] = {}
        #: (team_key, seq) -> kind id, for completed collectives (LRU).
        self.completed: OrderedDict[tuple, int] = OrderedDict()

    @property
    def in_flight(self) -> int:
        """Live bookkeeping entries (leak guard for tests)."""
        return len(self.states) + len(self.pending)

    def start(self, cls, team=None, **params) -> Future:
        """Start machine ``cls`` on ``team`` (None: the world); returns
        the collective's future.  The machine is built first, so a bad
        argument raises before the collective takes a sequence number.
        """
        if team is None:
            key, members, me = (), self.world, self.rank
        else:
            key = members = team.members
            me = team.index_of(self.rank)
        st = cls(len(members), me, **params)
        fut = _CollFuture(self.owner)
        tel = self.telemetry
        with self._lock:
            seq = self.seqs.get(key, 0)
            self.seqs[key] = seq + 1
            k = (key, seq)
            entry = self.states[k] = (st, fut, members)
            self.stats.record_collective(cls is Barrier)
            if tel.active:
                self._traced_start(k, entry)
            else:
                self._step(k, entry, *st.start())
            for msg in self.pending.pop(k, ()):
                self._route(k, *msg)
        return fut

    def _traced_start(self, k, entry) -> None:
        """:meth:`start`'s first step with telemetry on: the latency in
        ``full``, and a span (a child of the caller's, inside a traced
        op) that the ``coll`` flight event and the AMs the step sends
        carry, so tree hops on other ranks join one causal trace."""
        tel, (st, fut, _members) = self.telemetry, entry
        (team_key, seq), kind = k, st.kind
        if tel.full:
            t0 = time.perf_counter()
            fut.add_callback(lambda _f: tel.record_latency(
                f"coll_{kind}", time.perf_counter() - t0))
        opened = tracing.open_span(tel)
        try:
            tel.flight_event("coll", src=self.rank, dst=-1,
                             detail=f"{kind}#{seq}" + (
                                 f" team{team_key}" if team_key else ""))
            self._step(k, entry, *st.start())
        finally:
            tracing.close_span(tel, opened, f"coll:{kind}")

    def receive(self, am: ActiveMessage) -> None:
        """The AM handler's half: one arrived collective message (the
        caller holds the handler lock)."""
        args = am.args
        seq, kind, tag, src = HEADER.unpack(args[0])
        self._route((args[1] if len(args) > 1 else (), seq),
                    kind, tag, src, am.payload)

    def _route(self, k, kind, tag, src, data) -> None:
        """Step the machine of collective ``k``; buffer the message if
        this rank has not started it, drop it if it has finished."""
        entry = self.states.get(k)
        if entry is not None:
            st = entry[0]
            if kind != st.kind_id:
                self._mismatch(k, st.kind_id, kind, src)
            self._step(k, entry, *st.on_msg(tag, src, data))
            return
        done = self.completed.get(k)
        if done is None:
            self.pending.setdefault(k, []).append((kind, tag, src, data))
        elif done != kind:
            self._mismatch(k, done, kind, src)

    def _step(self, k, entry, sends, result) -> None:
        """Send what a machine's step returned; complete its future if
        the step returned a result."""
        if sends:
            st, _fut, members = entry
            team_key, seq = k
            self.stats.record_coll_msgs(len(sends))
            data = sends[0][2]
            wire = None
            if (data is not None and len(sends) > 1
                    and all(s[2] is data for s in sends)):
                wire = preencode(data)  # a fan-out: encode once
            pack, send, rank = HEADER.pack, self._send, self.rank
            for dst, tag, data in sends:
                hdr = pack(seq, st.kind_id, tag, st.me)
                send(members[dst], ActiveMessage(
                    COLL_AM, rank,
                    (hdr, team_key) if team_key else (hdr,),
                    data if wire is None else wire))
        if result is not PENDING:
            del self.states[k]
            self.completed[k] = entry[0].kind_id
            if len(self.completed) > _COMPLETED_LRU:
                self.completed.popitem(last=False)
            entry[1].set_result(result)

    def _mismatch(self, k, mine: int, theirs: int, src_index) -> None:
        raise PgasError(
            f"collective mismatch at sequence {k[1]}: rank {self.rank} "
            f"called {KINDS[mine].kind!r} but another rank (team index "
            f"{src_index}) called {KINDS[theirs].kind!r}"
        )


@am_handler(COLL_AM)
def _coll_handler(ctx, am) -> None:
    ctx.coll.receive(am)
