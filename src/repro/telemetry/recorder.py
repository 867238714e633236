"""Per-rank and per-world telemetry state.

Three modes, resolved from the ``telemetry=`` knob on
:class:`~repro.core.world.World` / :func:`repro.spmd`:

``"off"`` (default)
    Nothing is recorded and **no conduit wrapper is installed** — the
    communication fast path is byte-identical to a world built before
    this subsystem existed.  Runtime call sites guard on a single
    attribute read (``tel.full``).
``"flight"``
    Only the :class:`~repro.telemetry.flight.FlightRecorder` ring runs:
    one bounded append per conduit op / task event.  This is the mode
    for long-running jobs that want a black box but no histograms.
``"full"``
    Flight recorder **plus** per-op latency histograms
    (:class:`~repro.telemetry.histogram.LogHistogram`) and bounded span
    records for Perfetto export.

All state hangs off ``world.telemetry`` (a :class:`WorldTelemetry`) and
``ctx.telemetry`` (the rank's :class:`RankTelemetry`); both exist even
in ``"off"`` mode so call sites never need existence checks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

from repro.gasnet.trace import CommEvent
from repro.telemetry import tracing
from repro.telemetry.flight import DEFAULT_CAPACITY, FlightRecorder, merge_dump
from repro.telemetry.histogram import LogHistogram

MODES = ("off", "flight", "full")

#: Conduit-op kind -> the latency histogram its duration lands in.
_OP_HISTOGRAM = {
    "am": "send_am", "reply": "send_am",
    "put": "rma_put", "get": "rma_get", "atomic": "rma_atomic",
    "put_indexed": "rma_put_indexed", "get_indexed": "rma_get_indexed",
    "atomic_batch": "rma_atomic_batch",
}


@dataclass
class TelemetryConfig:
    """Tuning knobs for the telemetry subsystem."""

    #: "off" | "flight" | "full" (see module docstring).
    mode: str = "off"
    #: Flight-recorder ring capacity (events kept per rank).
    flight_capacity: int = DEFAULT_CAPACITY
    #: Upper bound on retained spans per rank (Perfetto export size).
    max_spans: int = 20000
    #: Background sampler period in seconds (task queue depth, pending
    #: replies, segment bytes, steal rate, each into a ``sampled_*``
    #: histogram); ``None`` leaves the sampling
    #: unstarted, and so does any mode but ``"full"`` — the only one
    #: that keeps histograms, so the only one it could record into.
    sample_period: float | None = None
    #: Straggler-watchdog scan period in seconds; ``None`` disables it.
    watchdog_period: float | None = None
    #: An in-flight AM is flagged ``slow_op`` once older than
    #: ``max(slow_op_min_s, slow_op_factor * p99(am_rtt))``.
    slow_op_factor: float = 8.0
    slow_op_min_s: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"telemetry mode must be one of {MODES} (got {self.mode!r})"
            )


def resolve_config(telemetry) -> TelemetryConfig:
    """Resolve the World ``telemetry=`` knob into a config.

    Accepts ``None``/``False`` (off), ``True`` (full), a mode string,
    a dict of :class:`TelemetryConfig` fields, or a ready config.
    """
    if telemetry is None or telemetry is False:
        return TelemetryConfig(mode="off")
    if telemetry is True:
        return TelemetryConfig(mode="full")
    if isinstance(telemetry, TelemetryConfig):
        return telemetry
    if isinstance(telemetry, str):
        return TelemetryConfig(mode=telemetry)
    if isinstance(telemetry, dict):
        return TelemetryConfig(**telemetry)
    raise ValueError(
        f"telemetry= must be None, bool, a mode string {MODES}, a dict of "
        f"TelemetryConfig fields, or a TelemetryConfig (got {telemetry!r})"
    )


@dataclass(frozen=True)
class Span:
    """One completed timed region (Perfetto "complete" event)."""

    name: str
    t0: float        # time.perf_counter() at start
    dur: float       # seconds
    rank: int
    tid: int         # OS thread ident (for physically correct nesting)
    detail: str = ""
    # causal linkage (repro.telemetry.tracing); all 0 for untraced spans
    trace_id: int = 0
    span_id: int = 0
    parent_id: int = 0


class RankTelemetry:
    """Telemetry state owned by one rank.

    The two gate attributes are plain bools read on hot paths:
    ``active`` (any recording at all) and ``full`` (histograms + spans).
    """

    __slots__ = ("rank", "mode", "active", "full", "flight",
                 "_hist", "_hist_lock", "_spans", "_span_lock",
                 "spans_dropped", "max_spans", "_id_counter", "_id_lock")

    def __init__(self, rank: int, config: TelemetryConfig):
        self.rank = rank
        self.mode = config.mode
        self.active = config.mode != "off"
        self.full = config.mode == "full"
        self.flight = FlightRecorder(rank, config.flight_capacity)
        self._hist: dict[str, LogHistogram] = {}
        self._hist_lock = threading.Lock()
        self._spans: list[Span] = []
        self._span_lock = threading.Lock()
        self.spans_dropped = 0
        self.max_spans = config.max_spans
        # Trace/span ids are rank-salted counter values, not random
        # bits, so fixed-seed runs reproduce identical ids.
        self._id_counter = 0
        self._id_lock = threading.Lock()

    # -- trace/span id generation -----------------------------------------
    def _next_id(self) -> int:
        with self._id_lock:
            self._id_counter += 1
            return ((self.rank + 1) << 40) | self._id_counter

    def new_trace_id(self) -> int:
        """A fresh, deterministic, rank-unique trace id (never 0)."""
        return self._next_id()

    def new_span_id(self) -> int:
        """A fresh span id (same sequence as trace ids; never 0)."""
        return self._next_id()

    # -- histograms -------------------------------------------------------
    def histogram(self, name: str, unit: str = "ns") -> LogHistogram:
        """Get-or-create the named histogram (stable across calls)."""
        h = self._hist.get(name)
        if h is None:
            with self._hist_lock:
                h = self._hist.setdefault(name, LogHistogram(name, unit))
        return h

    def record_latency(self, name: str, seconds: float) -> None:
        """Record a latency sample (no-op unless mode == "full")."""
        if self.full:
            self.histogram(name).record_seconds(seconds)

    def record_value(self, name: str, value: int, unit: str) -> None:
        """Record a non-latency sample, e.g. a queue depth."""
        if self.full:
            self.histogram(name, unit=unit).record(value)

    def histograms(self) -> dict[str, LogHistogram]:
        with self._hist_lock:
            return dict(self._hist)

    # -- flight recorder --------------------------------------------------
    def flight_event(self, kind: str, src: int = -1, dst: int = -1,
                     nbytes: int = 0, detail: str = "",
                     trace_id: int = 0) -> None:
        if self.active:
            if trace_id == 0:
                # inherit the thread's bound trace context, so e.g.
                # kv_failover/kv_promote events inside a traced client
                # op or handler are tagged without caller changes
                trace_id = tracing.current_trace_id()
            self.flight.record(kind, src, dst, nbytes, detail, trace_id)

    # -- spans ------------------------------------------------------------
    def record_span(self, name: str, t0: float, dur: float,
                    detail: str = "", trace_id: int = 0,
                    span_id: int = 0, parent_id: int = 0) -> None:
        """Retain a completed span for export (no-op unless "full")."""
        if not self.full:
            return
        span = Span(name=name, t0=t0, dur=dur, rank=self.rank,
                    tid=threading.get_ident(), detail=detail,
                    trace_id=trace_id, span_id=span_id,
                    parent_id=parent_id)
        with self._span_lock:
            if len(self._spans) >= self.max_spans:
                self.spans_dropped += 1
                return
            self._spans.append(span)

    def spans(self) -> list[Span]:
        with self._span_lock:
            return list(self._spans)


class WorldTelemetry:
    """The world-level aggregate: one :class:`RankTelemetry` per rank."""

    def __init__(self, n_ranks: int, config: TelemetryConfig):
        self.config = config
        self.mode = config.mode
        self.enabled = config.mode != "off"
        self.full = config.mode == "full"
        self.ranks = [RankTelemetry(r, config) for r in range(n_ranks)]
        #: Stamped once at construction; spans/flight timestamps are
        #: perf_counter values rebased against this for export.
        self.t0 = time.perf_counter()

    def rank(self, r: int) -> RankTelemetry:
        return self.ranks[r]

    # -- aggregation ------------------------------------------------------
    def merged_histograms(self) -> dict[str, LogHistogram]:
        """Cross-rank fold of every named histogram."""
        merged: dict[str, LogHistogram] = {}
        for rt in self.ranks:
            for name, h in rt.histograms().items():
                agg = merged.get(name)
                if agg is None:
                    agg = merged[name] = LogHistogram(name, h.unit)
                agg.merge(h)
        return merged

    def all_spans(self) -> list[Span]:
        return [s for rt in self.ranks for s in rt.spans()]

    # -- the conduit layer's sink ------------------------------------------
    def conduit_event(self, ev: CommEvent, seconds: float | None) -> None:
        """What the world's :class:`~repro.gasnet.trace.TelemetryConduit`
        reports to: the event goes into its initiator's flight ring
        (tagged with the thread's bound trace, as
        :meth:`RankTelemetry.flight_event` does) and, in ``"full"`` (the
        layer is timed), the op's duration into its latency histogram."""
        if not 0 <= ev.rank < len(self.ranks):
            return  # a control event charged to no rank
        tel = self.ranks[ev.rank]
        if seconds is not None:
            tel.histogram(_OP_HISTOGRAM[ev.kind]).record_seconds(seconds)
        if not ev.trace_id:
            trace_id = tracing.current_trace_id()
            if trace_id:
                ev = replace(ev, trace_id=trace_id)
        tel.flight.append(ev)

    # -- flight recorder --------------------------------------------------
    def dump_flight_recorder(self, header: str = "",
                             limit_per_rank: int | None = None,
                             extra_events=None) -> str:
        """The merged, human-readable black-box read-out.

        ``extra_events`` splices out-of-band events
        (e.g. the chaos conduit's injected-fault schedule) into the
        merged timeline.
        """
        if not self.enabled:
            return ("(flight recorder inactive: telemetry mode is 'off'; "
                    "run with telemetry='flight' or 'full')\n")
        return merge_dump((rt.flight for rt in self.ranks),
                          header=header, limit_per_rank=limit_per_rank,
                          extra_events=extra_events)
