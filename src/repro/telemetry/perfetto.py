"""Chrome/Perfetto ``trace_event`` JSON export.

Converts a :class:`~repro.gasnet.trace.Trace` (per-op communication
events) and/or telemetry spans (finish blocks, task execution, waits)
into the Trace Event Format that ``ui.perfetto.dev`` and
``chrome://tracing`` load directly:

* each **rank is a process** (``pid = rank``) with a ``process_name``
  metadata record;
* spans are ``"X"`` (complete) events placed on the recording OS
  thread's track, so nested runtime regions (a task running inside a
  finish block) nest correctly in the UI;
* conduit operations are ``"i"`` (instant) events on a dedicated
  ``comm`` track of the initiating rank;
* timestamps are microseconds rebased to the earliest exported event.

>>> data = to_perfetto(trace=trace, telemetry=world.telemetry)
>>> write_perfetto("run.perfetto.json", trace=trace)
"""

from __future__ import annotations

import json

#: tid reserved for the per-rank conduit-operation (instant-event) track.
COMM_TID = 0


def _sec_to_us(seconds: float) -> float:
    return seconds * 1e6


def to_perfetto(trace=None, telemetry=None) -> dict:
    """Build a trace_event JSON object (a plain dict, ready to dump).

    ``trace`` is a :class:`~repro.gasnet.trace.Trace` (or None);
    ``telemetry`` is a :class:`~repro.telemetry.recorder.WorldTelemetry`
    (or None).
    """
    spans = telemetry.all_spans() if telemetry is not None else []
    trace_events = list(trace.events) if trace is not None else []

    # Spans and events both carry absolute perf_counter timestamps, so
    # the two sources share one timeline; rebase to the earliest.
    base = min([s.t0 for s in spans] + [ev.t for ev in trace_events],
               default=0.0)

    events: list[dict] = []
    pids: set[int] = set()
    # Map each (rank, OS thread ident) to a small stable tid (>= 1;
    # COMM_TID = 0 is reserved for the conduit track).
    tid_map: dict[tuple[int, int], int] = {}

    def tid_for(rank: int, raw_tid: int) -> int:
        key = (rank, raw_tid)
        tid = tid_map.get(key)
        if tid is None:
            tid = tid_map[key] = 1 + sum(
                1 for (r, _t) in tid_map if r == rank
            )
        return tid

    # Canonical order: by start time, longest span first on ties, so an
    # enclosing region always precedes the sub-spans that start with it.
    # Spans sharing a non-zero trace_id are one causal chain; collect
    # them (in time order) to emit flow events below.
    flows: dict[int, list] = {}
    for s in sorted(spans, key=lambda s: (s.t0, -s.dur)):
        pids.add(s.rank)
        ev = {
            "name": s.name,
            "ph": "X",
            "pid": s.rank,
            "tid": tid_for(s.rank, s.tid),
            "ts": _sec_to_us(s.t0 - base),
            "dur": _sec_to_us(s.dur),
            "cat": "runtime",
        }
        args = {}
        if s.detail:
            args["detail"] = s.detail
        if s.trace_id:
            args["trace_id"] = f"{s.trace_id:#x}"
            args["span_id"] = f"{s.span_id:#x}"
            if s.parent_id:
                args["parent_id"] = f"{s.parent_id:#x}"
            flows.setdefault(s.trace_id, []).append((ev, s))
        if args:
            ev["args"] = args
        events.append(ev)

    # Flow events ("s" start / "t" step / "f" finish, matched by id)
    # draw the causal arrows between the slices of one trace — e.g.
    # client kv_put -> handler -> kv_repl hop -> reply across rank
    # tracks.  Each flow event is bound to its slice by emitting it at
    # the slice's pid/tid just inside the slice's time range.
    for trace_id, chain in flows.items():
        if len(chain) < 2:
            continue
        root_name = chain[0][1].name
        last = len(chain) - 1
        for i, (slice_ev, _s) in enumerate(chain):
            ph = "s" if i == 0 else ("f" if i == last else "t")
            flow = {
                "name": root_name,
                "cat": "trace",
                "id": trace_id,
                "ph": ph,
                "pid": slice_ev["pid"],
                "tid": slice_ev["tid"],
                "ts": slice_ev["ts"],
            }
            if ph == "f":
                flow["bp"] = "e"
            events.append(flow)

    for ev in trace_events:
        pids.add(ev.rank)
        rec = {
            "name": ev.kind,
            "ph": "i",
            "s": "t",
            "pid": ev.rank,
            "tid": COMM_TID,
            "ts": _sec_to_us(ev.t - base),
            "cat": "comm",
            "args": {"dst": ev.dst, "nbytes": ev.nbytes},
        }
        if ev.detail:
            rec["args"]["detail"] = ev.detail
        events.append(rec)

    meta: list[dict] = []
    for pid in sorted(pids):
        meta.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"rank {pid}"},
        })
        meta.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": COMM_TID,
            "args": {"name": "comm (conduit ops)"},
        })
    for (rank, _raw), tid in sorted(tid_map.items(), key=lambda kv: kv[1]):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": rank, "tid": tid,
            "args": {"name": f"runtime-{tid}"},
        })

    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.telemetry.perfetto"},
    }


def write_perfetto(path: str, trace=None, telemetry=None) -> dict:
    """Export to ``path`` (conventionally ``*.perfetto.json``) and
    return the written object."""
    data = to_perfetto(trace=trace, telemetry=telemetry)
    with open(path, "w") as f:
        json.dump(data, f)
    return data
