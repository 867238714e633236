"""Communication tracing.

A :class:`Trace` records every conduit operation of a world —
(wall time, initiator, kind, target, bytes) — while active.  Uses:

* debugging communication patterns ("which rank is hammering rank 0?");
* asserting *pattern shapes* in tests beyond what the aggregate
  counters in :mod:`repro.gasnet.stats` can express (e.g. "every rank
  sent exactly its 6 face neighbours, nothing else");
* feeding per-benchmark traces to the DES for replay.

Implementation: a :class:`~repro.gasnet.conduit.ConduitLayer` installed
around the world's conduit for the duration of a ``with`` block.
Tracing is cooperative and cheap (one list append per op), but not
free — keep it out of timed regions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.gasnet.am import ActiveMessage
from repro.gasnet.conduit import ConduitLayer, rma_extent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.world import World


@dataclass(frozen=True)
class TraceEvent:
    """One recorded communication operation."""

    t: float          # seconds since trace start
    kind: str         # "put" | "get" | "atomic" | "put_indexed"
                      # | "get_indexed" | "atomic_batch" | "am" | "reply"
                      # — plus reliability/chaos control events:
                      # "retransmit" | "ack"-less "dup_suppressed"
                      # | "rma_retry" | "op_timeout" | "peer_dead"
                      # | "chaos_drop" | "chaos_dup" | "chaos_reorder"
                      # | "chaos_fault"
    src: int
    dst: int
    nbytes: int
    detail: str = ""  # AM handler name, dtype, ...


class _TracingConduit(ConduitLayer):
    """Layer recording every op that crosses it into its :class:`Trace`."""

    def __init__(self, inner, trace: "Trace"):
        super().__init__(inner)
        self._trace = trace

    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        self._trace._record(
            "reply" if am.is_reply else "am", src, dst, am.wire_bytes,
            detail=am.handler,
        )
        self._inner.send_am(src, dst, am)

    def _rma(self, kind: str, fn, src: int, dst: int, *args):
        nbytes, elems = rma_extent(kind, args)
        self._trace._record(
            kind, src, dst, nbytes,
            detail="" if elems is None else f"{elems} elems")
        return fn(src, dst, *args)

    def _on_control(self, kind: str, src: int, dst: int, nbytes: int,
                    detail: str) -> None:
        self._trace._record(kind, src, dst, nbytes, detail=detail)


class Trace:
    """Context manager recording a world's communication.

    Collective discipline is the caller's business: installing/removing
    the tracing conduit swaps one attribute and is safe while other
    ranks communicate, but for meaningful traces bracket the region
    with barriers (see tests).

    >>> trace = Trace(repro.current_world())
    >>> with trace:
    ...     sa[remote_index] = 1
    >>> trace.count(kind="put")
    1
    """

    def __init__(self, world: World):
        self.world = world
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._t0 = 0.0
        self._installed = False
        self._wrapper: _TracingConduit | None = None

    def _record(self, kind: str, src: int, dst: int, nbytes: int,
                detail: str = "") -> None:
        ev = TraceEvent(
            t=time.perf_counter() - self._t0, kind=kind, src=src,
            dst=dst, nbytes=nbytes, detail=detail,
        )
        with self._lock:
            self.events.append(ev)

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "Trace":
        if self._installed:
            raise RuntimeError("trace already active")
        self._t0 = time.perf_counter()
        self._wrapper = _TracingConduit(self.world.conduit, self)
        self.world.conduit = self._wrapper
        self._installed = True
        return self

    def __exit__(self, *exc) -> None:
        # Splice out *our* wrapper, wherever it now sits.  Popping
        # ``world.conduit._inner`` unconditionally would unwind whatever
        # decorator happens to be outermost — wrong if another layer was
        # installed inside the ``with`` block.  Idempotent: exiting twice
        # (e.g. after an exception already triggered cleanup) is a no-op.
        wrapper, self._wrapper = self._wrapper, None
        self._installed = False
        if wrapper is None:
            return
        node = self.world.conduit
        if node is wrapper:
            self.world.conduit = wrapper._inner
            return
        while node is not None:
            inner = getattr(node, "_inner", None)
            if inner is wrapper:
                node._inner = wrapper._inner
                return
            node = inner
        # Wrapper no longer in the chain (someone else removed it): done.

    # -- queries ---------------------------------------------------------------
    def select(self, kind: str | None = None, src: int | None = None,
               dst: int | None = None) -> Iterator[TraceEvent]:
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
