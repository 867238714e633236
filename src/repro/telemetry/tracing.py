"""Cross-rank causal tracing — distributed trace-context propagation.

A *trace* is the causal closure of one client-visible operation: the
client op span is the root, and every AM sent while it is open carries
the pair ``(trace_id, span_id)`` in a 16-byte wire-frame trailer (see
``repro.gasnet.wire.frame.F_HAS_TRACE``).  The receiving rank's handler
dispatch rebinds that context for the duration of the handler, so
handler spans, replication hops (``kv_repl``), failover retries and replies
all join the originating trace — exactly the "context propagation" half
of Dapper-style tracing, scaled down to one process full of rank
threads.

Binding is **thread-local**: handlers run either on a rank's own thread
or on a shared progress thread, and a thread acts for exactly one rank
at a time, so a plain ``threading.local`` is both correct and cheap.
When telemetry is off, nothing ever binds and every outgoing AM keeps
``trace_id == 0`` — zero wire bytes, zero branches beyond one falsy
attribute test.

Trace/span ids are generated from a **rank-salted counter**
(``(rank + 1) << 40 | n``) rather than random bits so fixed-seed tests
reproduce identical ids run-to-run.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Tuple

_UNBOUND: Tuple[int, int] = (0, 0)
_tls = threading.local()


def current_ids() -> Tuple[int, int]:
    """The calling thread's bound ``(trace_id, span_id)``; (0, 0) when
    no trace context is active."""
    return getattr(_tls, "ids", _UNBOUND)


def current_trace_id() -> int:
    """The calling thread's bound trace id (0 when untraced)."""
    return getattr(_tls, "ids", _UNBOUND)[0]


class bound:
    """Context manager binding an explicit ``(trace_id, span_id)`` pair
    to the calling thread — the handler-dispatch side of propagation."""

    __slots__ = ("_ids", "_prev")

    def __init__(self, trace_id: int, span_id: int):
        self._ids = (trace_id, span_id)

    def __enter__(self) -> "bound":
        self._prev = getattr(_tls, "ids", _UNBOUND)
        _tls.ids = self._ids
        return self

    def __exit__(self, *exc) -> None:
        _tls.ids = self._prev


class span:
    """Open a traced span on ``tel`` (a :class:`RankTelemetry`).

    * If no trace is bound on this thread, a fresh ``trace_id`` is
      minted — this span is the trace **root** (a client op).
    * If a trace is already bound (e.g. we are inside an AM handler
      whose message carried context), the span joins it as a child.

    While the span is open the context is bound thread-locally, so any
    AM the body sends is stamped with this span as parent.  The span is
    recorded (mode ``full`` only) on exit; flight events emitted inside
    pick up the trace id automatically.  When telemetry is inactive the
    whole object is a no-op and ``trace_id`` stays 0.
    """

    __slots__ = ("tel", "name", "detail", "trace_id", "span_id",
                 "parent_id", "_t0", "_bound")

    def __init__(self, tel, name: str, detail: str = ""):
        self.tel = tel
        self.name = name
        self.detail = detail
        self.trace_id = 0
        self.span_id = 0
        self.parent_id = 0
        self._t0 = 0.0
        self._bound: Optional[bound] = None

    def __enter__(self) -> "span":
        tel = self.tel
        if tel is None or not tel.active:
            return self
        cur_trace, cur_span = current_ids()
        self.trace_id = cur_trace or tel.new_trace_id()
        self.parent_id = cur_span
        self.span_id = tel.new_span_id()
        self._bound = bound(self.trace_id, self.span_id)
        self._bound.__enter__()
        if tel.full:
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._bound is None:
            return
        self._bound.__exit__()
        self._bound = None
        tel = self.tel
        if tel.full and self._t0:
            tel.record_span(
                self.name, self._t0, time.perf_counter() - self._t0,
                detail=self.detail, trace_id=self.trace_id,
                span_id=self.span_id, parent_id=self.parent_id)


__all__ = ["bound", "span", "current_ids", "current_trace_id"]
