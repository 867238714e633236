"""The failure-time flight recorder.

PGAS bugs are *pattern* bugs: by the time a ``CommTimeout`` or
``PeerFailure`` surfaces, the interesting part — what every rank was
doing in the moments before — is gone.  Each rank therefore keeps a
bounded ring buffer of recent runtime events (conduit ops, AM handling,
task lifecycle, injected faults, failures); when a failure
propagates out of :func:`repro.spmd`, all rings are merged into one
time-ordered, human-readable dump — the black box read-out.

Recording one event is a timestamp plus a bounded ``deque.append``;
cheap enough for the ``"flight"`` telemetry mode to ride along on every
conduit operation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterable

from repro.gasnet.trace import CommEvent

#: Default ring capacity (events kept per rank).
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """A bounded per-rank ring of :class:`~repro.gasnet.trace.CommEvent`."""

    __slots__ = ("rank", "capacity", "_ring", "_lock", "dropped")

    def __init__(self, rank: int, capacity: int = DEFAULT_CAPACITY):
        self.rank = rank
        self.capacity = capacity
        self._ring: deque[CommEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Events evicted by the ring bound (how much history was lost).
        self.dropped = 0

    def record(self, kind: str, src: int = -1, dst: int = -1,
               nbytes: int = 0, detail: str = "",
               trace_id: int = 0) -> None:
        self.append(CommEvent(time.perf_counter(), self.rank, kind, src,
                              dst, nbytes, detail, trace_id))

    def append(self, ev: CommEvent) -> None:
        """Keep an event built elsewhere (the conduit layer's, or a
        ring shipped from a rank process)."""
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(ev)

    def snapshot(self) -> list[CommEvent]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def merge_dump(recorders: Iterable[FlightRecorder],
               header: str = "", limit_per_rank: int | None = None,
               extra_events: Iterable[CommEvent] | None = None) -> str:
    """Merge per-rank rings into one human-readable, time-ordered dump.

    ``header`` names the triggering failure (e.g. the ``CommTimeout``
    message — which itself names the stuck op).  Timestamps are printed
    relative to the earliest merged event so the dump reads as a
    countdown to the failure.  ``extra_events`` lets out-of-band sources
    (e.g. the chaos conduit's injected-fault schedule) splice instants
    into the same timeline.
    """
    per_rank: list[tuple[FlightRecorder, list[CommEvent]]] = []
    for rec in recorders:
        evs = rec.snapshot()
        if limit_per_rank is not None:
            evs = evs[-limit_per_rank:]
        per_rank.append((rec, evs))
    pool: list[CommEvent] = [ev for _, evs in per_rank for ev in evs]
    if extra_events is not None:
        pool.extend(extra_events)
    merged = sorted(pool, key=lambda ev: ev.t)
    lines = ["=" * 72, "FLIGHT RECORDER DUMP"]
    if header:
        lines.append(f"trigger: {header}")
    for rec, evs in per_rank:
        note = f" ({rec.dropped} older events evicted)" if rec.dropped else ""
        lines.append(f"rank {rec.rank}: {len(evs)} events{note}")
    lines.append("-" * 72)
    if not merged:
        lines.append("(no events recorded)")
    else:
        t0 = merged[0].t
        for ev in merged:
            route = ""
            if ev.src >= 0 or ev.dst >= 0:
                route = f" {ev.src}->{ev.dst}"
            size = f" {ev.nbytes}B" if ev.nbytes else ""
            detail = f"  {ev.detail}" if ev.detail else ""
            trace = f" [trace {ev.trace_id:#x}]" if ev.trace_id else ""
            lines.append(
                f"[{(ev.t - t0) * 1e3:10.3f} ms] rank {ev.rank}: "
                f"{ev.kind}{route}{size}{detail}{trace}"
            )
    lines.append("=" * 72)
    return "\n".join(lines) + "\n"
