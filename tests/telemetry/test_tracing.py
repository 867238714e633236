"""Cross-rank causal tracing: wire propagation, handler restoration,
Perfetto flow events, and the fault-log bridge.

The contract under test is the tentpole of the tracing plane: a client
op (``kv_put`` etc.) opens a root span, every AM it issues carries the
(trace_id, span_id) pair in the wire frame's 16-byte trailer, the
target rank's handler dispatch rebinds the context, and everything the
handler does — replication hops, replies — lands in the
*same* trace.  Untraced messages must cost zero wire bytes.
"""

from __future__ import annotations

import re

import repro
from repro.containers import DistHashMap
from repro.gasnet import ChaosConduit
from repro.gasnet.am import ActiveMessage, make_reply
from repro.gasnet.wire.frame import (
    F_HAS_TRACE, HEADER, TRACE_TRAILER, encode_am,
)
from repro.telemetry import to_perfetto, tracing
from tests.conftest import run_spmd


RELIABILITY = {"peer_timeout": 1.0, "heartbeat_period": 0.05}


# ------------------------------------------------------------- wire layer

def test_untraced_frame_has_no_trailer():
    am = ActiveMessage(handler="noop", src_rank=0, args=(1, 2))
    f = encode_am(am)
    flags = HEADER.unpack_from(f.ctrl, 0)[1]
    assert not flags & F_HAS_TRACE
    assert f.thaw().trace_id == 0


def test_traced_frame_roundtrips_ids_in_16_extra_bytes():
    plain = ActiveMessage(handler="noop", src_rank=0, args=(1, 2))
    traced = ActiveMessage(handler="noop", src_rank=0, args=(1, 2),
                           trace_id=0xDEAD_BEEF_01, span_id=0x42)
    fp, ft = encode_am(plain), encode_am(traced)
    # the trailer is the whole cost: header layout is unchanged
    assert len(ft.ctrl) == len(fp.ctrl) + TRACE_TRAILER.size
    out = ft.thaw()
    assert out.trace_id == 0xDEAD_BEEF_01
    assert out.span_id == 0x42


def test_make_reply_inherits_trace_context():
    req = ActiveMessage(handler="h", src_rank=0, token=9,
                        trace_id=123, span_id=456)
    rep = make_reply(req, 1, args=("ok",))
    assert rep.trace_id == 123
    assert rep.span_id == 456


# -------------------------------------------------- thread-local context

def test_tracing_context_binding_is_scoped():
    assert tracing.current_ids() == (0, 0)
    with tracing.bound(10, 20):
        assert tracing.current_ids() == (10, 20)
        with tracing.bound(30, 40):
            assert tracing.current_ids() == (30, 40)
        assert tracing.current_ids() == (10, 20)
    assert tracing.current_ids() == (0, 0)


def test_span_noop_without_telemetry():
    with tracing.span(None, "anything"):
        assert tracing.current_ids() == (0, 0)


# -------------------------------------------- cross-rank causal chains

def _traced_kv_run(ranks=4, conduit=None, reliability=None, puts=8):
    """Every rank does remote kv puts/gets under full telemetry;
    returns the (still-live) world for span/flow inspection."""
    holder: dict = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        if me == 0:
            holder["world"] = repro.current_world()
        m = DistHashMap(replicas=1 if reliability else 0)
        repro.barrier()
        for i in range(puts):
            m.put(f"t{me}:{i}", (me, i))   # keys hash across all shards
        repro.barrier()
        for i in range(puts):
            assert m.get(f"t{(me + 1) % n}:{i}") == ((me + 1) % n, i)
        repro.barrier()
        return True

    kwargs = {}
    if conduit is not None:
        kwargs["conduit"] = conduit
    if reliability is not None:
        kwargs["reliability"] = reliability
    assert all(run_spmd(body, ranks=ranks, telemetry="full", **kwargs))
    return holder["world"]


def test_kv_op_spans_one_trace_across_ranks():
    world = _traced_kv_run()
    spans = world.telemetry.all_spans()
    roots = [s for s in spans if s.name == "kv_put" and s.trace_id]
    assert roots, "kv_put client ops should open traced root spans"
    # At least one root's trace reaches a handler span on ANOTHER rank:
    # the 16-byte trailer did its job and dispatch rebound the context.
    linked = 0
    by_trace: dict[int, list] = {}
    for s in spans:
        if s.trace_id:
            by_trace.setdefault(s.trace_id, []).append(s)
    for root in roots:
        chain = by_trace[root.trace_id]
        handlers = [s for s in chain if s.name == "am:kv_put"]
        if any(s.rank != root.rank for s in handlers):
            linked += 1
            # the handler span is parented on the client's root span
            assert any(s.parent_id == root.span_id for s in handlers)
    assert linked, "no kv_put trace crossed a rank boundary"


def test_replication_hop_joins_client_trace():
    world = _traced_kv_run(reliability=RELIABILITY,
                           conduit=ChaosConduit())
    spans = world.telemetry.all_spans()
    by_trace: dict[int, set] = {}
    for s in spans:
        if s.trace_id:
            by_trace.setdefault(s.trace_id, set()).add(s.name)
    chains = [names for names in by_trace.values() if "kv_put" in names]
    assert any("am:kv_repl" in names for names in chains), \
        "replication hop should inherit the client op's trace id"


def test_perfetto_emits_cross_rank_flows_for_kv_ops():
    world = _traced_kv_run()
    data = to_perfetto(telemetry=world.telemetry)
    evs = data["traceEvents"]
    flows = [e for e in evs if e["ph"] in ("s", "t", "f")]
    assert flows, "traced run should emit flow events"
    for e in flows:
        assert e["cat"] == "trace"
    pids_by_flow: dict[int, set] = {}
    names_by_flow: dict[int, str] = {}
    for e in flows:
        pids_by_flow.setdefault(e["id"], set()).add(e["pid"])
        names_by_flow[e["id"]] = e["name"]
    cross = [fid for fid, pids in pids_by_flow.items() if len(pids) >= 2]
    assert cross, "expected at least one flow spanning two rank tracks"
    assert any(names_by_flow[fid].startswith("kv_")
               for fid in cross), "cross-rank flows should be kv ops"
    # every flow sequence is terminated ("s" ... "f" with bp=e)
    by_id: dict[int, list] = {}
    for e in flows:
        by_id.setdefault(e["id"], []).append(e)
    for fid, seq in by_id.items():
        phases = [e["ph"] for e in seq]
        assert phases.count("s") == 1 and phases.count("f") == 1, fid
        assert all(e["bp"] == "e" for e in seq if e["ph"] == "f")


def test_trace_ids_are_rank_salted_and_unique():
    """Ids are rank-salted counters, not clocks/randomness: the minting
    rank is recoverable from the high bits and no two spans collide."""
    world = _traced_kv_run(ranks=4, puts=4)
    spans = [s for s in world.telemetry.all_spans() if s.span_id]
    assert spans
    ids = [s.span_id for s in spans]
    assert len(ids) == len(set(ids)), "span ids must be globally unique"
    for s in spans:
        assert 1 <= (s.span_id >> 40) <= 4  # salt = minting rank + 1
    for s in spans:
        if s.name == "kv_put" and s.trace_id:
            assert (s.trace_id >> 40) == s.rank + 1


# ------------------------------------------------------------ async tasks

def _bound_trace_id():
    return tracing.current_trace_id()


def test_async_runs_in_the_callers_trace():
    """An async is stamped like any AM: rank 1 handles the
    ``exec_task`` in rank 0's trace, and runs the task in it, so the
    ``task:`` span and anything the task does join that trace."""
    holder: dict = {}

    def body():
        me = repro.myrank()
        ctx = repro.current_world().ranks[me]
        if me == 0:
            holder["world"] = ctx.world
        repro.barrier()
        out = None
        if me == 0:
            with tracing.span(ctx.telemetry, "client_op") as sp:
                out = (sp.trace_id, repro.async_(1)(_bound_trace_id).get())
        repro.barrier()
        return out

    trace_id, seen = run_spmd(body, ranks=2, telemetry="full")[0]
    assert trace_id and seen == trace_id
    world = holder["world"]
    handled = [ev for ev in world.telemetry.ranks[1].flight.snapshot()
               if ev.kind == "am_handled" and ev.detail == "exec_task"]
    assert [ev.trace_id for ev in handled] == [trace_id]
    tasks = [s for s in world.telemetry.all_spans()
             if s.name == "task:_bound_trace_id"]
    assert [(s.rank, s.trace_id) for s in tasks] == [(1, trace_id)]


def _mark_ran():
    repro.current_world().ranks[repro.myrank()].scratch["ran"] = True
    return 7


def test_reply_carries_its_requests_trace_not_the_drainers():
    """Rank 1 runs an untraced async from rank 0 while it is inside a
    span of its own; the reply answers an untraced request, so it must
    reach rank 0 untraced, not stamped with rank 1's unrelated trace."""
    holder: dict = {}

    def body():
        me = repro.myrank()
        ctx = repro.current_world().ranks[me]
        if me == 0:
            holder["world"] = ctx.world
        if me == 1:
            with tracing.span(ctx.telemetry, "unrelated") as sp:
                repro.barrier()
                ctx.wait_until(lambda: ctx.scratch.get("ran"),
                               what="the async from rank 0")
            holder["unrelated"] = sp.trace_id
        else:
            repro.barrier()
            assert repro.async_(1)(_mark_ran).get() == 7
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, telemetry="full"))
    replies = [ev for ev in holder["world"].telemetry.ranks[0]
               .flight.snapshot()
               if ev.kind == "am_handled" and ev.detail == "__reply__"]
    assert holder["unrelated"] and replies
    assert [ev.trace_id for ev in replies] == [0] * len(replies)


# ------------------------------------------------- chaos flight bridge

def test_chaos_faults_appear_in_flight_dump():
    """Injected faults bridge into the merged flight dump as inline
    ``chaos_*`` instants, time-ordered with the rank events."""
    holder: dict = {}
    conduit = ChaosConduit()

    def body():
        me = repro.myrank()
        if me == 0:
            holder["world"] = repro.current_world()
        m = DistHashMap()
        repro.barrier()
        for i in range(24):
            m.put(f"c{me}:{i}", i)
        repro.barrier()
        if me == 0:
            conduit.kill_rank(1)   # rank 1 has nothing left to send
        return True

    # survive mode: the finalize is a done-or-dead wait, which needs no
    # message to the partitioned rank.
    assert all(run_spmd(body, ranks=2, conduit=conduit,
                        survive_rank_death=True, telemetry="flight"))
    events = conduit.fault_events()
    assert [e.kind for e in events] == ["chaos_kill"]
    text = holder["world"].dump_flight_recorder(header="test")
    assert "chaos_kill" in text
    # bridged instants share the merged, time-ordered timeline
    times = [float(m.group(1)) for m in
             re.finditer(r"^\[\s*(-?[0-9.]+) ms\]", text, re.M)]
    assert times == sorted(times)
    assert len(times) > len(events)  # interleaved with rank events
