"""Conduit-boundary instrumentation.

:class:`TelemetryConduit` is a decorating conduit (same pattern as
:class:`repro.gasnet.trace._TracingConduit`) installed by the world when
telemetry is enabled.  It is the **outermost** layer of the conduit
stack — outside :class:`~repro.gasnet.reliability.ReliableConduit` — so
the latencies it records are what the *application* experienced,
retries and backoff included.

Per operation it records:

* a latency histogram sample (``rma_put``/``rma_get``/``rma_atomic``/
  ``rma_put_indexed``/``rma_get_indexed``/``rma_atomic_batch``/
  ``send_am``) in ``"full"`` mode;
* a flight-recorder event in ``"flight"``/``"full"`` modes, charged to
  the initiating rank.

It also exposes the ``trace_control`` hook the reliability/chaos layers
discover via ``getattr(world.conduit, "trace_control", None)``: control
events (retransmits, duplicate suppression, injected chaos, peer
death) land in the initiator's flight ring and are forwarded to any
inner ``trace_control`` so stacking with :class:`~repro.gasnet.trace.
Trace` loses nothing.
"""

from __future__ import annotations

import time

import numpy as np

from repro.gasnet.am import ActiveMessage


class TelemetryConduit:
    """Decorator timing every conduit operation into telemetry."""

    def __init__(self, inner, telemetry):
        self._inner = inner
        self._telemetry = telemetry
        self.world = getattr(inner, "world", None)

    # -- lifecycle ---------------------------------------------------------
    def attach(self, world) -> None:
        self._inner.attach(world)
        self.world = world

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name):
        # Delegate extras (fail_next_am, kill_rank, cfg, ...) so test
        # hooks and inner-layer knobs keep working through the wrapper.
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.__dict__["_inner"], name)

    # -- helpers -----------------------------------------------------------
    def _rank_tel(self, rank: int):
        return self._telemetry.ranks[rank]

    # -- active messages ----------------------------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        tel = self._rank_tel(src)
        t0 = time.perf_counter()
        try:
            self._inner.send_am(src, dst, am)
        finally:
            dt = time.perf_counter() - t0
            if tel.full:
                tel.histogram("send_am").record_seconds(dt)
            tel.flight_event("reply" if am.is_reply else "am", src, dst,
                             am.wire_bytes, detail=am.handler)

    # -- one-sided RMA -------------------------------------------------------
    def rma_put(self, src: int, dst: int, offset: int, data) -> None:
        tel = self._rank_tel(src)
        t0 = time.perf_counter()
        try:
            self._inner.rma_put(src, dst, offset, data)
        finally:
            dt = time.perf_counter() - t0
            if tel.full:
                tel.histogram("rma_put").record_seconds(dt)
            tel.flight_event("rma_put", src, dst,
                             np.asarray(data).nbytes)

    def rma_get(self, src: int, dst: int, offset: int, dtype, count,
                out=None):
        tel = self._rank_tel(src)
        t0 = time.perf_counter()
        try:
            return self._inner.rma_get(src, dst, offset, dtype, count,
                                       out=out)
        finally:
            dt = time.perf_counter() - t0
            if tel.full:
                tel.histogram("rma_get").record_seconds(dt)
            tel.flight_event("rma_get", src, dst,
                             np.dtype(dtype).itemsize * count)

    def rma_atomic(self, src: int, dst: int, offset: int, dtype, op,
                   operand):
        tel = self._rank_tel(src)
        t0 = time.perf_counter()
        try:
            return self._inner.rma_atomic(src, dst, offset, dtype, op,
                                          operand)
        finally:
            dt = time.perf_counter() - t0
            if tel.full:
                tel.histogram("rma_atomic").record_seconds(dt)
            tel.flight_event("rma_atomic", src, dst,
                             np.dtype(dtype).itemsize)

    # -- indexed bulk RMA ----------------------------------------------------
    def rma_put_indexed(self, src: int, dst: int, base: int,
                        elem_offsets, data) -> None:
        tel = self._rank_tel(src)
        n = np.asarray(elem_offsets).size
        t0 = time.perf_counter()
        try:
            self._inner.rma_put_indexed(src, dst, base, elem_offsets, data)
        finally:
            dt = time.perf_counter() - t0
            if tel.full:
                tel.histogram("rma_put_indexed").record_seconds(dt)
            tel.flight_event("rma_put_indexed", src, dst,
                             np.asarray(data).nbytes,
                             detail=f"{n} elems")

    def rma_get_indexed(self, src: int, dst: int, base: int, dtype,
                        elem_offsets):
        tel = self._rank_tel(src)
        n = np.asarray(elem_offsets).size
        t0 = time.perf_counter()
        try:
            return self._inner.rma_get_indexed(src, dst, base, dtype,
                                               elem_offsets)
        finally:
            dt = time.perf_counter() - t0
            if tel.full:
                tel.histogram("rma_get_indexed").record_seconds(dt)
            tel.flight_event("rma_get_indexed", src, dst,
                             np.dtype(dtype).itemsize * n,
                             detail=f"{n} elems")

    def rma_atomic_batch(self, src: int, dst: int, base: int, dtype,
                         elem_offsets, op, operands,
                         return_old: bool = False):
        tel = self._rank_tel(src)
        n = np.asarray(elem_offsets).size
        t0 = time.perf_counter()
        try:
            return self._inner.rma_atomic_batch(
                src, dst, base, dtype, elem_offsets, op, operands,
                return_old,
            )
        finally:
            dt = time.perf_counter() - t0
            if tel.full:
                tel.histogram("rma_atomic_batch").record_seconds(dt)
            tel.flight_event("rma_atomic_batch", src, dst,
                             np.dtype(dtype).itemsize * n,
                             detail=f"{n} elems")

    # -- control events ------------------------------------------------------
    def trace_control(self, kind: str, src: int, dst: int,
                      nbytes: int = 0, detail: str = "") -> None:
        """Receive reliability/chaos control events; flight-record them
        on the initiator and forward down the chain."""
        if 0 <= src < len(self._telemetry.ranks):
            self._rank_tel(src).flight_event(kind, src, dst, nbytes, detail)
        fwd = getattr(self._inner, "trace_control", None)
        if fwd is not None:
            try:
                fwd(kind, src, dst, nbytes, detail)
            except Exception:  # telemetry must never break the transport
                pass
