"""The failure-time flight recorder.

PGAS bugs are *pattern* bugs: by the time a ``CommTimeout`` or
``PeerFailure`` surfaces, the interesting part — what every rank was
doing in the moments before — is gone.  Each rank therefore keeps a
bounded ring buffer of recent runtime events (conduit ops, AM handling,
task lifecycle, rank deaths, failures); when a failure
propagates out of :func:`repro.spmd`, on either launcher,
:func:`dump_on_failure` merges all rings into one time-ordered,
human-readable dump — the black box read-out.

Keeping one event is a tuple built in C, a bounded ``deque.append`` and
``next`` on the append count — no lock: each, and the ring's copy, is
atomic under the GIL — and no Python frame, so the ``"flight"``
telemetry mode rides along on every conduit operation.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import deque
from time import perf_counter
from typing import Iterable

from repro.errors import CommTimeout, PeerFailure, RankDead
from repro.gasnet.trace import CommEvent, current_trace_id, new_event

#: Default ring capacity (events kept per rank).
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """A bounded per-rank ring of :class:`~repro.gasnet.trace.CommEvent`.

    ``keep``: the two C calls that keep an event built elsewhere (the
    ring's append, the count's tick).  ``events`` and ``dropped`` seed
    the ring and its eviction count: a ring shipped from a rank process
    keeps what it was shipped with."""

    __slots__ = ("rank", "capacity", "keep", "_ring", "_appends",
                 "_cleared", "_shipped")

    def __init__(self, rank: int, capacity: int = DEFAULT_CAPACITY,
                 events: Iterable[CommEvent] = (), dropped: int = 0):
        self.rank = rank
        self.capacity = capacity
        self._ring: deque[CommEvent] = deque(events, maxlen=capacity)
        self._appends = itertools.count(len(self._ring))
        # next(count, ev) ticks the count: ev is a default it never needs
        self.keep = (self._ring.append,
                     functools.partial(next, self._appends))
        self._cleared = 0       # the append count at the last clear()
        self._shipped = dropped

    def record(self, kind: str, src: int = -1, dst: int = -1,
               nbytes: int = 0, detail: str = "",
               trace_id: int = 0) -> None:
        self._ring.append(new_event((
            perf_counter(), self.rank, kind, src, dst, nbytes, detail,
            trace_id or current_trace_id())))
        next(self._appends)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (how much history was lost);
        exact once appends stop."""
        # A count's repr is its next value, read without advancing it.
        appends = int(repr(self._appends)[6:-1])
        return self._shipped + max(0, appends - self._cleared - self.capacity)

    def snapshot(self) -> list[CommEvent]:
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self._cleared = int(repr(self._appends)[6:-1])
        self._shipped = 0

    def __len__(self) -> int:
        return len(self._ring)


def merge_dump(recorders: Iterable[FlightRecorder],
               header: str = "", limit_per_rank: int | None = None) -> str:
    """Merge per-rank rings into one human-readable, time-ordered dump.

    ``header`` names the triggering failure (e.g. the ``CommTimeout``
    message — which itself names the stuck op).  Timestamps are printed
    relative to the earliest merged event so the dump reads as a
    countdown to the failure.
    """
    per_rank: list[tuple[FlightRecorder, list[CommEvent]]] = []
    for rec in recorders:
        evs = rec.snapshot()
        if limit_per_rank is not None:
            evs = evs[-limit_per_rank:]
        per_rank.append((rec, evs))
    merged = sorted((ev for _, evs in per_rank for ev in evs),
                    key=lambda ev: ev.t)
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


def dump_on_failure(exc: BaseException,
                    recorders: list[FlightRecorder]) -> None:
    """The flight recorder's trigger, on both launchers: ``exc`` is about
    to propagate out of :func:`repro.spmd`.  When it is a communication
    failure (``CommTimeout``, ``PeerFailure``, ``RankDead``), write every
    rank's ring, merged, to stderr first: the exception says *what* gave
    up, the rings what every rank was *doing*.  ``recorders`` is empty
    when telemetry is off."""
    if recorders and isinstance(exc, (CommTimeout, PeerFailure, RankDead)):
        try:
            sys.stderr.write(merge_dump(
                recorders, header=f"{type(exc).__name__}: {exc}"))
        except Exception:  # a broken dump must never mask the real failure
            pass
