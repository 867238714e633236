"""Communication events: the record, the layer that emits it, a trace.

Every conduit operation that crosses a :class:`TelemetryConduit`
becomes one :class:`CommEvent`, handed to that layer's sink.  The
record has three consumers and one spelling:

* :class:`Trace` (below) appends it to a list, for debugging patterns
  ("which rank is hammering rank 0?") and asserting *pattern shapes*
  in tests beyond what the aggregate counters in
  :mod:`repro.gasnet.stats` can express ("every rank sent exactly its
  6 face neighbours, nothing else");
* the flight ring (:mod:`repro.telemetry.flight`) keeps the most
  recent ones per rank for the failure dump;
* :func:`repro.telemetry.to_perfetto` draws them as instants.

This is the lowest layer that emits events, so the record lives here
and :mod:`repro.gasnet` imports nothing from :mod:`repro.telemetry`.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

from repro.gasnet.am import ActiveMessage
from repro.gasnet.conduit import ConduitLayer, rma_extent

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


class TelemetryConduit(ConduitLayer):
    """The one observing layer: every op crossing it is reported as
    ``sink(event, seconds)``, charged to its initiator.

    ``seconds`` is the op's duration when ``timed``, else ``None``.  The event is recorded when the op
    returns *or raises*, so a failure dump shows the op that gave up.

    :class:`~repro.core.world.World` installs one — outermost, so
    durations are what the application experienced — when telemetry is
    on; :class:`Trace` splices one in for the length
    of a ``with`` block.
    """

    def __init__(self, inner, sink: Callable[[CommEvent, float | None], None],
                 timed: bool = False):
        super().__init__(inner)
        self._sink = sink
        self._timed = timed

    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        t0 = perf_counter() if self._timed else None
        try:
            self._inner.send_am(src, dst, am)
        finally:
            t = perf_counter()
            self._sink(
                CommEvent(t, src, "reply" if am.is_reply else "am", src,
                          dst, am.wire_bytes, am.handler, am.trace_id),
                None if t0 is None else t - t0)

    def _rma(self, kind: str, fn, src: int, dst: int, *args):
        t0 = perf_counter() if self._timed else None
        try:
            return fn(src, dst, *args)
        finally:
            t = perf_counter()
            nbytes, elems = rma_extent(kind, args)
            self._sink(
                CommEvent(t, src, kind, src, dst, nbytes,
                          "" if elems is None else f"{elems} elems"),
                None if t0 is None else t - t0)


class Trace:
    """Context manager recording a world's communication.

    Collective discipline is the caller's business: installing/removing
    the layer swaps one attribute and is safe while other ranks
    communicate, but for meaningful traces bracket the region with
    barriers (see tests).  Recording is one list append per op — cheap,
    not free; keep it out of timed regions.

    >>> trace = Trace(repro.current_world())
    >>> with trace:
    ...     sa[remote_index] = 1
    >>> trace.count(kind="put")
    1
    """

    def __init__(self, world: World):
        self.world = world
        self.events: list[CommEvent] = []
        self._layer: TelemetryConduit | None = None

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "Trace":
        if self._layer is not None:
            raise RuntimeError("trace already active")
        events = self.events
        self._layer = TelemetryConduit(
            self.world.conduit, lambda ev, seconds: events.append(ev))
        self.world.conduit = self._layer
        return self

    def __exit__(self, *exc) -> None:
        # Splice out *our* layer, wherever it now sits.  Popping
        # ``world.conduit._inner`` unconditionally would unwind whatever
        # decorator happens to be outermost — wrong if another layer was
        # installed inside the ``with`` block.  Idempotent: exiting twice
        # (e.g. after an exception already triggered cleanup) is a no-op.
        layer, self._layer = self._layer, None
        if layer is None:
            return
        node = self.world.conduit
        if node is layer:
            self.world.conduit = layer._inner
            return
        while node is not None:
            inner = getattr(node, "_inner", None)
            if inner is layer:
                node._inner = layer._inner
                return
            node = inner
        # Layer no longer in the chain (someone else removed it): done.

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
