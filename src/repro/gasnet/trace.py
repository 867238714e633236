"""Communication tracing.

A :class:`Trace` records every conduit operation of a world —
(wall time, initiator, kind, target, bytes) — while active.  Uses:

* debugging communication patterns ("which rank is hammering rank 0?");
* asserting *pattern shapes* in tests beyond what the aggregate
  counters in :mod:`repro.gasnet.stats` can express (e.g. "every rank
  sent exactly its 6 face neighbours, nothing else");
* feeding per-benchmark traces to the DES for replay.

Implementation: a decorating conduit installed around the world's
conduit for the duration of a ``with`` block.  Tracing is cooperative
and cheap (one list append per op), but not free — keep it out of
timed regions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.gasnet.am import ActiveMessage

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


class _TracingConduit:
    """Decorator around the world's real conduit."""

    def __init__(self, inner, trace: "Trace"):
        self._inner = inner
        self._trace = trace
        self.world = inner.world

    def attach(self, world) -> None:  # pragma: no cover - defensive
        self._inner.attach(world)
        self.world = world

    # conduit surface ------------------------------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        self._trace._record(
            "reply" if am.is_reply else "am", src, dst, am.wire_bytes,
            detail=am.handler,
        )
        self._inner.send_am(src, dst, am)

    def rma_put(self, src: int, dst: int, offset: int, data) -> None:
        nbytes = np.asarray(data).nbytes
        self._trace._record("put", src, dst, nbytes)
        self._inner.rma_put(src, dst, offset, data)

    def rma_get(self, src: int, dst: int, offset: int, dtype, count,
                out=None):
        nbytes = np.dtype(dtype).itemsize * count
        self._trace._record("get", src, dst, nbytes)
        return self._inner.rma_get(src, dst, offset, dtype, count, out=out)

    def rma_atomic(self, src: int, dst: int, offset: int, dtype, op,
                   operand):
        self._trace._record("atomic", src, dst,
                            np.dtype(dtype).itemsize)
        return self._inner.rma_atomic(src, dst, offset, dtype, op,
                                      operand)

    def rma_put_indexed(self, src: int, dst: int, base: int,
                        elem_offsets, data) -> None:
        arr = np.asarray(data)
        self._trace._record("put_indexed", src, dst, arr.nbytes,
                            detail=f"{np.asarray(elem_offsets).size} elems")
        self._inner.rma_put_indexed(src, dst, base, elem_offsets, data)

    def rma_get_indexed(self, src: int, dst: int, base: int, dtype,
                        elem_offsets):
        n = np.asarray(elem_offsets).size
        self._trace._record("get_indexed", src, dst,
                            np.dtype(dtype).itemsize * n,
                            detail=f"{n} elems")
        return self._inner.rma_get_indexed(src, dst, base, dtype,
                                           elem_offsets)

    def rma_atomic_batch(self, src: int, dst: int, base: int, dtype,
                         elem_offsets, op, operands,
                         return_old: bool = False):
        n = np.asarray(elem_offsets).size
        self._trace._record("atomic_batch", src, dst,
                            np.dtype(dtype).itemsize * n,
                            detail=f"{n} elems")
        return self._inner.rma_atomic_batch(
            src, dst, base, dtype, elem_offsets, op, operands, return_old
        )

    def trace_control(self, kind: str, src: int, dst: int,
                      nbytes: int = 0, detail: str = "") -> None:
        """Record a reliability/chaos control event (retransmission, dup
        suppression, injected drop, ...).  Inner conduits discover this
        hook via ``getattr(world.conduit, "trace_control", None)`` so
        control traffic shows up in traces even though it never crosses
        the decorated surface.  Forwarded down the decorator chain so a
        stacked consumer (another Trace, the telemetry flight recorder)
        sees the event too."""
        self._trace._record(kind, src, dst, nbytes, detail=detail)
        fwd = getattr(self._inner, "trace_control", None)
        if fwd is not None:
            try:
                fwd(kind, src, dst, nbytes, detail)
            except Exception:  # tracing must never break the transport
                pass

    def __getattr__(self, name):  # delegate the rest (fail_next_am, ...)
        return getattr(self._inner, name)


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
