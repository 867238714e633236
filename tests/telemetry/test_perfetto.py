"""Chrome/Perfetto trace_event export tests."""

import itertools
import json
import types

import numpy as np

import repro
from repro.gasnet.trace import Trace
from repro.telemetry import to_perfetto, write_perfetto
from tests.conftest import run_spmd


def _traced_run(ranks=4):
    """A small traced + telemetered workload; returns (trace, world)."""
    holder = {}

    def body():
        me = repro.myrank()
        if me == 0:
            trace = Trace(repro.current_world())
            trace.__enter__()
            holder["trace"] = trace
            holder["world"] = repro.current_world()
        repro.barrier()
        sa = repro.SharedArray(np.int64, size=2 * repro.ranks(), block=2)
        repro.barrier()
        with repro.finish():
            repro.async_((me + 1) % repro.ranks())(abs, -me)
        sa[(2 * me + 2) % len(sa)] = me  # one remote put per rank
        repro.barrier()
        if me == 0:
            holder["trace"].__exit__(None, None, None)
        return True

    assert all(run_spmd(body, ranks=ranks, telemetry="full"))
    return holder["trace"], holder["world"]


def test_export_is_valid_trace_event_json(tmp_path):
    trace, world = _traced_run()
    path = tmp_path / "run.perfetto.json"
    write_perfetto(str(path), trace=trace, telemetry=world.telemetry)
    data = json.loads(path.read_text())  # round-trips as strict JSON
    evs = data["traceEvents"]
    assert data["displayTimeUnit"] == "ms"
    assert evs, "no events exported"
    phases = {e["ph"] for e in evs}
    # X/i/M plus the flow-event triplet (s/t/f) linking causal traces
    assert phases <= {"X", "i", "M", "s", "t", "f"}
    for e in evs:
        assert isinstance(e["pid"], int)
        assert isinstance(e["tid"], int)
        if e["ph"] != "M":
            assert e["ts"] >= 0
    for e in evs:
        if e["ph"] in ("s", "t", "f"):
            assert "id" in e and e["cat"] == "trace"


def test_ranks_are_processes_with_names():
    trace, world = _traced_run()
    data = to_perfetto(trace=trace, telemetry=world.telemetry)
    evs = data["traceEvents"]
    pids = {e["pid"] for e in evs if e["ph"] != "M"}
    assert pids <= set(range(world.n_ranks))
    names = {e["pid"]: e["args"]["name"] for e in evs
             if e["ph"] == "M" and e["name"] == "process_name"}
    for pid in pids:
        assert names[pid] == f"rank {pid}"


def test_spans_are_complete_events_and_nest():
    trace, world = _traced_run()
    data = to_perfetto(trace=trace, telemetry=world.telemetry)
    xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert xs, "expected finish/task spans from the workload"
    assert any(e["name"] == "finish" for e in xs)
    for e in xs:
        assert e["dur"] >= 0
    # Well-formed nesting per (pid, tid): spans overlap only by
    # containment (ties broken parent-first by the exporter's ordering).
    key = lambda e: (e["pid"], e["tid"])
    for _, group in itertools.groupby(sorted(xs, key=key), key=key):
        stack = []  # end timestamps of open spans
        for e in sorted(group, key=lambda e: (e["ts"], -e["dur"])):
            while stack and e["ts"] >= stack[-1]:
                stack.pop()
            if stack:  # strictly inside the enclosing span
                assert e["ts"] + e["dur"] <= stack[-1] + 1e-6
            stack.append(e["ts"] + e["dur"])


def test_conduit_ops_are_instants_on_comm_track():
    trace, world = _traced_run()
    data = to_perfetto(trace=trace, telemetry=world.telemetry)
    instants = [e for e in data["traceEvents"] if e["ph"] == "i"]
    assert instants
    puts = [e for e in instants if e["name"] == "put"]
    assert puts, "each rank's remote put should be in the trace"
    for e in instants:
        assert e["tid"] == 0          # the reserved comm track
        assert e["s"] == "t"
        assert "nbytes" in e["args"]


def test_trace_only_and_telemetry_only_exports():
    trace, world = _traced_run()
    only_trace = to_perfetto(trace=trace)
    assert any(e["ph"] == "i" for e in only_trace["traceEvents"])
    assert not any(e["ph"] == "X" for e in only_trace["traceEvents"])
    only_tel = to_perfetto(telemetry=world.telemetry)
    assert any(e["ph"] == "X" for e in only_tel["traceEvents"])
    assert not any(e["ph"] == "i" for e in only_tel["traceEvents"])
    empty = to_perfetto()
    assert empty["traceEvents"] == []


def test_instants_and_spans_share_one_timeline():
    """Events carry absolute timestamps like spans do, so the exporter
    needs nothing of a Trace but its public ``events``: rank 0's
    ``async_`` AM, sent inside its ``finish`` block, lands inside that
    block's span."""
    trace, world = _traced_run()
    events_only = types.SimpleNamespace(events=list(trace.events))
    data = to_perfetto(trace=events_only, telemetry=world.telemetry)
    assert data == to_perfetto(trace=trace, telemetry=world.telemetry)
    mine = [e for e in data["traceEvents"] if e["pid"] == 0]
    finishes = [e for e in mine if e["ph"] == "X" and e["name"] == "finish"]
    tasks = [e for e in mine if e["ph"] == "i" and e["name"] == "am"
             and e["args"].get("detail") == "exec_task"]
    assert finishes and tasks
    assert any(f["ts"] <= t["ts"] <= f["ts"] + f["dur"]
               for f in finishes for t in tasks)
