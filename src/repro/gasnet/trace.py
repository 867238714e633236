"""Communication events: the record, and a trace that collects them.

Every conduit op is one :class:`CommEvent`, built where the op is
charged to :class:`~repro.gasnet.stats.CommStats` — in
:meth:`Conduit.send_am <repro.gasnet.conduit.Conduit.send_am>` for an
AM, in the ``rma_*`` op itself for RMA — and handed to each of the
world's sinks, ``world.sinks``, when the op returns or raises.  The
record has three consumers and one spelling:

* :class:`Trace` (below) appends it to a list, for debugging patterns
  ("which rank is hammering rank 0?") and asserting *pattern shapes*
  in tests beyond what the aggregate counters in
  :mod:`repro.gasnet.stats` can express ("every rank sent exactly its
  6 face neighbours, nothing else");
* the flight ring (:mod:`repro.telemetry.flight`) keeps the most
  recent ones per rank for the failure dump;
* :func:`repro.telemetry.to_perfetto` draws them as instants.

This is the lowest layer that emits events, so the record and the trace
context that tags it live here (bound by :mod:`repro.telemetry.tracing`)
and :mod:`repro.gasnet` imports nothing from :mod:`repro.telemetry`.
"""

from __future__ import annotations

import functools
import threading
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.world import World


class CommEvent(NamedTuple):
    """One recorded event: a conduit op or (from the runtime, via the
    flight ring) a task/lock/container milestone or a rank's death.

    A tuple, so building one per AM costs a tuple's build and it is
    immutable: derive a changed copy with ``ev._replace(...)``."""

    t: float          # time.perf_counter() at record time
    rank: int         # the rank that recorded the event
    kind: str         # the conduit contract's op names — "put" | "get"
                      # | "atomic" | "put_indexed" | "get_indexed"
                      # | "atomic_batch" | "am" | "reply" — plus runtime
                      # kinds ("task_run" | "slow_op" | "kv_failover" |
                      # "dead_peer_fastfail" | "rank_dead" | ...)
    src: int = -1     # initiator (-1: not a point-to-point event)
    dst: int = -1     # target (-1: not a point-to-point event)
    nbytes: int = 0
    detail: str = ""  # AM handler name, element count, diagnostics
    trace_id: int = 0  # causal trace (repro.telemetry.tracing); 0 = untraced


#: ``new_event(fields)``: a :class:`CommEvent` built in C, not in Python.
new_event = functools.partial(tuple.__new__, CommEvent)


class _Context(threading.local):
    ids: tuple = (0, 0)     # the class's: for a thread that bound none


#: ``context.ids``: the calling thread's bound ``(trace_id, span_id)``.
#: A binder saves it, assigns its own pair and restores the saved one.
context = _Context()


def current_trace_id() -> int:
    """The calling thread's bound trace id (0 when untraced)."""
    return context.ids[0]


class Trace:
    """Context manager recording a world's communication.

    Entering adds the trace's ``events.append`` to the world's sinks
    and exiting removes it, so inside the block every op any rank of
    this process initiates is appended, liveness probes aside.
    Collective discipline is the caller's business: for meaningful
    traces bracket the region with barriers (see tests).  Recording is
    one list append per op — cheap, not free; keep it out of timed
    regions.

    >>> trace = Trace(repro.current_world())
    >>> with trace:
    ...     sa[remote_index] = 1
    >>> trace.count(kind="put")
    1
    """

    def __init__(self, world: World):
        self.world = world
        self.events: list[CommEvent] = []
        self._sink = None

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "Trace":
        if self._sink is not None:
            raise RuntimeError("trace already active")
        self._sink = self.events.append
        self.world.add_sink(self._sink)
        return self

    def __exit__(self, *exc) -> None:
        # Idempotent: exiting twice (e.g. after an exception already
        # triggered cleanup) is a no-op.
        sink, self._sink = self._sink, None
        if sink is not None:
            self.world.remove_sink(sink)

    # -- queries ---------------------------------------------------------------
    def select(self, kind: str | None = None, src: int | None = None,
               dst: int | None = None) -> Iterator[CommEvent]:
        for ev in self.events:
            if kind is not None and ev.kind != kind:
                continue
            if src is not None and ev.src != src:
                continue
            if dst is not None and ev.dst != dst:
                continue
            yield ev

    def count(self, **kw) -> int:
        return sum(1 for _ in self.select(**kw))

    def bytes(self, **kw) -> int:
        return sum(ev.nbytes for ev in self.select(**kw))

    def matrix(self, kind: str | None = None) -> np.ndarray:
        """The (src, dst) message-count matrix — the classic comm heatmap."""
        n = self.world.n_ranks
        m = np.zeros((n, n), dtype=np.int64)
        for ev in self.select(kind=kind):
            m[ev.src, ev.dst] += 1
        return m

    def partners(self, rank: int) -> set[int]:
        """Every rank this rank initiated an operation towards."""
        return {ev.dst for ev in self.select(src=rank)}
