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

import time
from typing import Optional, Tuple

from repro.gasnet.trace import context, current_trace_id


def current_ids() -> Tuple[int, int]:
    """The calling thread's bound ``(trace_id, span_id)``; (0, 0) when
    no trace context is active."""
    return context.ids


class bound:
    """Context manager binding an explicit ``(trace_id, span_id)`` pair
    to the calling thread."""

    __slots__ = ("_ids", "_prev")

    def __init__(self, trace_id: int, span_id: int):
        self._ids = (trace_id, span_id)

    def __enter__(self) -> "bound":
        self._prev = context.ids
        context.ids = self._ids
        return self

    def __exit__(self, *exc) -> None:
        context.ids = self._prev


def open_span(tel) -> tuple:
    """Bind a fresh span on ``tel`` (an active :class:`RankTelemetry`)
    to the calling thread: the root of a new trace when none is bound,
    else a child of the bound one.  Returns what :func:`close_span`
    takes, ``(previous ids, this span's ids, start time)``; only
    ``full`` reads the clock."""
    prev = context.ids
    context.ids = ids = (prev[0] or tel.new_trace_id(), tel.new_span_id())
    return prev, ids, time.perf_counter() if tel.full else 0.0


def close_span(tel, opened: tuple, name: str, detail: str = "",
               hist: Optional[str] = None) -> None:
    """Restore the ids :func:`open_span` replaced and, in ``full``,
    record the span — its duration also into the ``hist`` latency
    histogram when one is named."""
    prev, (trace_id, span_id), t0 = opened
    context.ids = prev
    if tel.full:
        dur = time.perf_counter() - t0
        if hist is not None:
            tel.histogram(hist).record_seconds(dur)
        tel.record_span(name, t0, dur, detail, trace_id, span_id, prev[1])


class span:
    """Open a traced span on ``tel`` (a :class:`RankTelemetry`) for the
    length of a ``with`` block: :func:`open_span` on entry,
    :func:`close_span` on exit.

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

    __slots__ = ("tel", "name", "detail", "_opened")

    def __init__(self, tel, name: str, detail: str = ""):
        self.tel = tel
        self.name = name
        self.detail = detail
        self._opened = None

    def __enter__(self) -> "span":
        tel = self.tel
        if tel is not None and tel.active:
            self._opened = open_span(tel)
        return self

    def __exit__(self, *exc) -> None:
        if self._opened is not None:
            close_span(self.tel, self._opened, self.name, self.detail)

    @property
    def trace_id(self) -> int:
        return self._opened[1][0] if self._opened else 0


__all__ = ["bound", "span", "open_span", "close_span", "current_ids",
           "current_trace_id"]
