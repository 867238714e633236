"""Observability of the failover path: a failover chain is ONE causal
trace, and the RankDead auto-dump includes the victim's final events.

Same deterministic-kill recipe as ``test_failover.py``: the
only injected fault is the ``kill_rank`` partition, the victim parks as
a zombie, and post-kill rendezvous uses shared-memory flags.
"""

from __future__ import annotations

import re
import time

import pytest

import repro
from repro.containers import DistHashMap
from repro.containers.hashmap import shard_of
from repro.errors import PgasError
from repro.gasnet import ChaosConduit


RELIABILITY = {"peer_timeout": 0.3, "heartbeat_period": 0.01}


def _key_on_shard(sid: int, nshards: int, prefix: str = "k") -> str:
    return next(f"{prefix}{i}" for i in range(10_000)
                if shard_of(f"{prefix}{i}", nshards) == sid)


def _sync_shared(ctx, ready, n):
    ready[ctx.rank] = True
    ctx.world.poke_all()
    ctx.wait_until(lambda: all(ready[r] for r in range(n)),
                   what="test: past-the-barrier rendezvous")


def test_failover_chain_is_one_causal_trace():
    """kill primary -> client put blocks -> RankDead -> failover ->
    retry -> promotion on the backup: every link must carry the trace
    id of the *triggering client op*, across rank boundaries."""
    victim = 1
    flags = {"killed": False, "recovered": False}
    done = {r: False for r in range(4)}
    ready = {r: False for r in range(4)}
    holder: dict = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        if me == 0:
            holder["world"] = repro.current_world()
        m = DistHashMap(replicas=1)
        for i in range(8):
            m.put((me, i), i)
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == victim:
            holder["conduit"].kill_rank(me)
            flags["killed"] = True
            ctx.wait_until(
                lambda: all(done[r] for r in range(n) if r != victim),
                what="test: partitioned victim parks",
            )
            return None
        ctx.wait_until(lambda: flags["killed"], what="wait kill")
        if me == 0:
            # The one triggering client op: a put whose primary is dead.
            # Only rank 0 drives recovery, so the promotion on the
            # backup is unambiguously attributable to THIS op's trace.
            key = _key_on_shard(victim, n, prefix="fo")
            m.put(key, "recovered")
            assert m.get(key) == "recovered"
            flags["recovered"] = True
        ctx.wait_until(lambda: flags["recovered"], what="wait recovery")
        done[me] = True
        ctx.world.poke_all()
        ctx.wait_until(lambda: all(done[r] for r in range(n)
                                   if r != victim), what="rendezvous")
        return True

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    res = repro.spmd(body, ranks=4, conduit=conduit,
                     reliability=RELIABILITY,
                     survive_rank_death=True, telemetry="full",
                     timeout=30.0)
    assert all(r for r in res if r is not None)

    world = holder["world"]
    by_kind: dict[str, list] = {}
    for rt in world.telemetry.ranks:
        for ev in rt.flight.snapshot():
            by_kind.setdefault(ev.kind, []).append(ev)
    for kind in ("kv_failover_start", "kv_failover", "kv_promote"):
        assert by_kind.get(kind), f"missing {kind} flight event"
        assert any(ev.trace_id for ev in by_kind[kind]), \
            f"{kind} should carry the client op's trace id"
    # one trace id threads the whole chain
    chains = (
        {ev.trace_id for ev in by_kind["kv_failover_start"] if ev.trace_id}
        & {ev.trace_id for ev in by_kind["kv_failover"] if ev.trace_id}
        & {ev.trace_id for ev in by_kind["kv_promote"] if ev.trace_id}
    )
    assert chains, "failover chain fragmented across trace ids"
    # ... and that trace really crossed ranks: the client's root span
    # on rank 0 plus handler work on the promoted backup.
    trace = next(iter(chains))
    span_ranks = {s.rank for s in world.telemetry.all_spans()
                  if s.trace_id == trace}
    assert 0 in span_ranks and len(span_ranks) >= 2
    root = [s for s in world.telemetry.all_spans()
            if s.trace_id == trace and s.name == "kv_put"
            and s.parent_id == 0]
    assert root and root[0].rank == 0


def test_rankdead_mid_multi_put_dump_includes_victims_final_events(capsys):
    """Unreplicated map, primary killed while batched multi_puts are in
    flight: the RankDead that propagates out of spmd must auto-dump a
    merged flight recorder that (a) contains the victim's last recorded
    events, (b) splices the ``chaos_kill`` instant inline, and (c) is
    globally time-ordered."""
    victim = 1
    flags = {"killed": False}
    ready = {r: False for r in range(4)}
    holder: dict = {}

    def body():
        me, n = repro.myrank(), repro.ranks()
        ctx = repro.current_world().ranks[me]
        m = DistHashMap(replicas=0)
        repro.barrier()
        for i in range(4):
            m.put(f"pre{me}:{i}", i)
        repro.barrier()
        _sync_shared(ctx, ready, n)
        if me == victim:
            holder["conduit"].kill_rank(me)
            # the victim's final ring entry, written right before it
            # goes dark — the merged dump must still show it
            ctx.telemetry.flight_event(
                "victim_last_words", src=me, dst=-1,
                detail="partitioned mid-batch")
            flags["killed"] = True
            try:
                ctx.wait_until(lambda: False, what="victim parks")
            except BaseException:
                return None
        ctx.wait_until(lambda: flags["killed"], what="wait kill")
        # batches span every shard, including the dead primary's
        for round_ in range(4):
            m.multi_put({f"mid{me}:{round_}:{i}": i for i in range(16)})
        return True

    conduit = ChaosConduit()
    holder["conduit"] = conduit
    t0 = time.monotonic()
    with pytest.raises(PgasError):
        repro.spmd(body, ranks=4, conduit=conduit,
                   reliability=RELIABILITY,
                   telemetry="flight", timeout=30.0)
    # Prompt failure: the parked victim must unwind once it is declared
    # dead (peer_timeout), not sit out its op_timeout.
    elapsed = time.monotonic() - t0
    assert elapsed < RELIABILITY["peer_timeout"] + 3.0, elapsed
    err = capsys.readouterr().err
    assert "FLIGHT RECORDER DUMP" in err
    assert f"rank {victim}" in err
    assert "victim_last_words" in err          # (a) victim's final event
    assert "chaos_kill" in err                 # (b) bridged fault instant
    times = [float(m.group(1)) for m in
             re.finditer(r"^\[\s*(-?[0-9.]+) ms\]", err, re.M)]
    assert len(times) > 4
    assert times == sorted(times)              # (c) one merged timeline
    # the kill instant precedes the victim's last words in the timeline
    lines = [ln for ln in err.splitlines() if ln.startswith("[")]
    k = next(i for i, ln in enumerate(lines) if "chaos_kill" in ln)
    w = next(i for i, ln in enumerate(lines) if "victim_last_words" in ln)
    assert k < w
