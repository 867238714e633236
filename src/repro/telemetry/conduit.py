"""Conduit-boundary instrumentation.

:class:`TelemetryConduit` is a :class:`~repro.gasnet.conduit.
ConduitLayer` (like :class:`repro.gasnet.trace._TracingConduit`)
installed by the world when telemetry is enabled.  It is the
**outermost** layer of the conduit stack — outside
:class:`~repro.gasnet.reliability.ReliableConduit` — so the latencies
it records are what the *application* experienced, retries and backoff
included.

Per operation it records:

* a latency histogram sample (``rma_put``/``rma_get``/``rma_atomic``/
  ``rma_put_indexed``/``rma_get_indexed``/``rma_atomic_batch``/
  ``send_am``) in ``"full"`` mode;
* a flight-recorder event in ``"flight"``/``"full"`` modes, charged to
  the initiating rank.

Control events reported by the reliability/chaos layers (retransmits,
duplicate suppression, injected chaos, peer death) land in the
initiator's flight ring (:meth:`TelemetryConduit._on_control`) and
travel on down the chain, so stacking with :class:`~repro.gasnet.trace.
Trace` loses nothing.
"""

from __future__ import annotations

import time

from repro.gasnet.am import ActiveMessage
from repro.gasnet.conduit import ConduitLayer, rma_extent


class TelemetryConduit(ConduitLayer):
    """Layer timing every conduit operation into telemetry."""

    def __init__(self, inner, telemetry):
        super().__init__(inner)
        self._telemetry = telemetry

    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        tel = self._telemetry.ranks[src]
        t0 = time.perf_counter()
        try:
            self._inner.send_am(src, dst, am)
        finally:
            dt = time.perf_counter() - t0
            if tel.full:
                tel.histogram("send_am").record_seconds(dt)
            tel.flight_event("reply" if am.is_reply else "am", src, dst,
                             am.wire_bytes, detail=am.handler)

    def _rma(self, kind: str, fn, src: int, dst: int, *args):
        tel = self._telemetry.ranks[src]
        t0 = time.perf_counter()
        try:
            return fn(src, dst, *args)
        finally:
            dt = time.perf_counter() - t0
            name = "rma_" + kind
            if tel.full:
                tel.histogram(name).record_seconds(dt)
            nbytes, elems = rma_extent(kind, args)
            tel.flight_event(
                name, src, dst, nbytes,
                detail="" if elems is None else f"{elems} elems")

    def _on_control(self, kind: str, src: int, dst: int, nbytes: int,
                    detail: str) -> None:
        """Flight-record a control event on its initiator."""
        if 0 <= src < len(self._telemetry.ranks):
            self._telemetry.ranks[src].flight_event(
                kind, src, dst, nbytes, detail)
