"""The cluster metrics plane: order-independent snapshot merging, the
``metrics_reduce`` collective, and the sampler and straggler watchdog
steps of the housekeeping thread.

The load-bearing property is *bit-identical aggregation*: the merge
operates on raw integer histogram/counter state (associative and
commutative), with derived floats computed only at finalization — so a
tree reduction over any bracketing equals offline folding of the
per-rank snapshots, byte for byte.
"""

from __future__ import annotations

import functools
import threading
import time

from hypothesis import given, settings, strategies as st

import repro
from repro.core.world import current
from repro.gasnet.am import am_handler
from repro.gasnet.stats import CommStats, aggregate
from repro.telemetry import (
    LogHistogram, finalize_snapshot, merge_snapshots, rank_snapshot,
)
from tests.conftest import run_spmd


# ---------------------------------------- histogram merge (hypothesis)

_samples = st.lists(st.integers(min_value=0, max_value=1 << 40),
                    min_size=0, max_size=200)


@settings(max_examples=60, deadline=None)
@given(_samples, _samples)
def test_merge_then_quantile_equals_concat_then_quantile(xs, ys):
    """``a.merge(b)`` must be indistinguishable from having recorded
    both sample sets into one histogram — same buckets, same count/sum/
    extrema, and therefore the *same* interpolated quantiles."""
    a, b, both = (LogHistogram("t") for _ in range(3))
    for v in xs:
        a.record(v)
        both.record(v)
    for v in ys:
        b.record(v)
        both.record(v)
    a.merge(b)
    assert list(a.buckets) == list(both.buckets)
    assert a.count == both.count
    assert a.total == both.total
    assert a.min_value == both.min_value
    assert a.max_value == both.max_value
    for q in (50, 90, 99):
        assert a.percentile(q) == both.percentile(q)


@settings(max_examples=40, deadline=None)
@given(_samples, _samples, _samples)
def test_snapshot_merge_is_associative_and_commutative(xs, ys, zs):
    hists = []
    for i, vals in enumerate((xs, ys, zs)):
        h = LogHistogram("lat", unit="ns")
        for v in vals:
            h.record(v)
        hists.append(h)

    def snap(h):
        s = h.snapshot()
        return {"ranks": [0], "histograms": {"lat": {
            "unit": s["unit"], "count": s["count"], "sum": s["sum"],
            "min": s["min"], "max": s["max"], "buckets": s["buckets"],
        }}, "counters": {}}

    a, b, c = (snap(h) for h in hists)
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    flipped = merge_snapshots(c, merge_snapshots(b, a))
    for other in (right, flipped):
        assert left["histograms"] == other["histograms"]
        assert left["counters"] == other["counters"]


# --------------------------------------- CommStats.aggregate coverage

def test_aggregate_sums_wire_and_failover_counters():
    """The PR 6 wire counters and PR 7 failover counters must all fold
    through ``aggregate`` — a regression net for the metrics plane's
    counter source."""
    a, b = CommStats(), CommStats()
    a.add(wire_frames=1, pickle_fallbacks=False, wire_fixed=True,
          wire_byref=True)
    a.add(wire_frames=1, pickle_fallbacks=True, wire_fixed=False,
          wire_byref=False)
    b.add(wire_frames=1, pickle_fallbacks=False, wire_fixed=True,
          wire_byref=False)
    a.add(kv_repl_records=3)
    b.add(kv_repl_records=2)
    a.add(kv_failovers=1)
    b.add(kv_promotions=1)
    b.add(kv_migrations=1)
    a.add(am_retransmits=1)
    b.add(stale_replies=1)
    total = aggregate([a, b])
    assert total["wire_frames"] == 3
    assert total["wire_fixed"] == 2
    assert total["pickle_fallbacks"] == 1
    assert total["wire_byref"] == 1
    assert total["kv_repl_records"] == 5
    assert total["kv_failovers"] == 1
    assert total["kv_promotions"] == 1
    assert total["kv_migrations"] == 1
    assert total["am_retransmits"] == 1
    assert total["stale_replies"] == 1


# ------------------------------------------------ the reduce collective

def test_metrics_reduce_bit_identical_to_offline_merge():
    """``world.metrics_reduce()`` (a tree allreduce over raw snapshots)
    must equal folding the stashed per-rank snapshots offline — the
    same dict, bit for bit, on every rank — for histograms (a sampled
    one included) and counters (the steal and watchdog ones included)
    alike."""
    stash: dict = {}

    def body():
        me = repro.myrank()
        sa_ctx = current()
        m = repro.DistHashMap()
        wq = repro.DistWorkQueue(seed=3)
        repro.barrier()
        for i in range(10 + me):          # rank-skewed load
            m.put(f"mr{me}:{i}", i)
            m.get(f"mr{me}:{i}")
        if me == 0:
            wq.add_local(range(64))       # every other rank must steal
        repro.barrier()
        while me == 0 and wq.local_size() == 64:
            repro.advance()               # ... and one has, before we pop
        while wq.get() is not None:
            wq.task_done()
        sa_ctx.stats.add(slow_ops_flagged=1 + me)
        sa_ctx.telemetry.record_value("sampled_task_queue_depth",
                                      3 * me, "items")
        repro.barrier()
        # Stash the raw per-rank snapshot BEFORE the reduce; the
        # histograms keep filling with AM traffic during the collective
        # itself, so the collective must reduce over frozen snapshots.
        stash[me] = rank_snapshot(sa_ctx)
        merged = repro.current_world().metrics_reduce(
            snapshot=stash[me])
        repro.barrier()
        return merged

    results = run_spmd(body, ranks=4, telemetry="full")
    offline = finalize_snapshot(functools.reduce(
        merge_snapshots, (stash[r] for r in range(4))))
    for r, merged in enumerate(results):
        assert merged == offline, f"rank {r} diverged from offline fold"
    assert results[0]["ranks"] == [0, 1, 2, 3]
    counters = results[0]["counters"]
    assert counters["slow_ops_flagged"] == sum(1 + r for r in range(4))
    assert counters["wq_steals_ok"] >= 1
    assert counters["wq_steals_ok"] == sum(
        s["counters"]["wq_steals_ok"] for s in stash.values())
    assert counters["wq_steals_attempted"] >= counters["wq_steals_ok"]
    depth = results[0]["histograms"]["sampled_task_queue_depth"]
    assert (depth["min"], depth["max"], depth["count"], depth["sum"]) \
        == (0, 9, 4, 18)
    # derived stats exist and are plain floats (JSON-ready)
    am_rtt = results[0]["histograms"].get("am_rtt")
    assert am_rtt and isinstance(am_rtt["p99"], float)
    assert am_rtt["count"] == sum(
        s["histograms"]["am_rtt"]["count"] for s in stash.values())


def test_metrics_reduce_default_snapshot_and_harness_shape():
    def body():
        repro.barrier()
        _ = repro.ranks()
        merged = repro.current_world().metrics_reduce()
        repro.barrier()
        assert set(merged) == {"ranks", "histograms", "counters"}
        assert merged["ranks"] == list(range(repro.ranks()))
        return True

    assert all(run_spmd(body, ranks=4, telemetry="full"))


# ------------------------------------------------- sampler + watchdog

def test_sampler_records_runtime_gauges():
    def body():
        me = repro.myrank()
        m = repro.DistHashMap()
        repro.barrier()
        deadline = time.monotonic() + 0.5
        i = 0
        while time.monotonic() < deadline:
            m.put(f"s{me}:{i}", i)
            i += 1
        repro.barrier()
        return True

    holder: dict = {}

    def wrapped():
        if repro.myrank() == 0:
            holder["world"] = repro.current_world()
            # live while the workload runs; stopped at spmd teardown
            holder["threads"] = _helper_threads()
        return body()

    assert all(run_spmd(
        wrapped, ranks=2,
        telemetry={"mode": "full", "sample_period": 0.02},
    ))
    world = holder["world"]
    assert holder["threads"] == [f"pgas-housekeeping-{world.id}"]
    assert _helper_threads() == []  # teardown joined it
    tel0 = world.telemetry.rank(0)
    hists = tel0.histograms()
    assert hists["sampled_task_queue_depth"].count > 0
    assert hists["sampled_pending_replies"].count > 0
    assert hists["sampled_segment_bytes"].count > 0
    assert hists["sampled_steal_rate"].count > 0


def test_sampler_not_started_without_period():
    def body():
        repro.barrier()
        time.sleep(0.05)
        threads = _helper_threads()
        repro.barrier()
        return threads, [name for name in current().telemetry.histograms()
                         if name.startswith("sampled_")]

    assert run_spmd(body, ranks=2, telemetry="full") == [([], [])] * 2


def _helper_threads() -> list[str]:
    """The runtime's threads other than the rank threads."""
    return [t.name for t in threading.enumerate()
            if t.name.startswith("pgas-")
            and not t.name.startswith("pgas-rank-")]


def test_watchdog_flags_slow_op_before_timeout():
    """An op exceeding the percentile-derived deadline must land in the
    flight ring as a ``slow_op`` event — carrying the client trace id —
    *while still outstanding* (the pre-timeout straggler warning)."""
    @am_handler("tar_pit")
    def _tar_pit(ctx, am):
        time.sleep(0.4)
        ctx.reply(am, args=("ok",))

    holder: dict = {}

    def body():
        me = repro.myrank()
        if me == 0:
            holder["world"] = repro.current_world()
        repro.barrier()
        if me == 0:
            from repro.telemetry import tracing
            tel = current().telemetry
            with tracing.span(tel, "slow_client_op"):
                fut = current().send_am(1, "tar_pit", args=(),
                                        expect_reply=True)
                (ok, *_), _ = fut.get(timeout=10.0)
                assert ok == "ok"
        repro.barrier()
        return True

    assert all(run_spmd(
        body, ranks=2,
        telemetry={"mode": "full", "watchdog_period": 0.02,
                   "slow_op_min_s": 0.05},
    ))
    world = holder["world"]
    slow = [ev for rt in world.telemetry.ranks
            for ev in rt.flight.snapshot() if ev.kind == "slow_op"]
    assert slow, "the watchdog should flag the tar-pit op"
    assert any("tar_pit" in ev.detail for ev in slow)
    assert any(ev.trace_id for ev in slow), \
        "slow_op events should carry the client op's trace id"
    assert world.ranks[0].stats.snapshot()["slow_ops_flagged"] >= 1


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def test_watchdog_flags_a_slow_async():
    """An async is a request like any other: while its task runs longer
    than the deadline, the watchdog flags its ``exec_task``."""
    holder: dict = {}

    def body():
        me = repro.myrank()
        if me == 0:
            holder["world"] = repro.current_world()
        repro.barrier()
        if me == 0:
            assert repro.async_(1)(_nap, 0.3).get(timeout=10.0) == 0.3
        repro.barrier()
        return True

    assert all(run_spmd(
        body, ranks=2,
        telemetry={"mode": "full", "watchdog_period": 0.01,
                   "slow_op_min_s": 0.05},
    ))
    world = holder["world"]
    slow = [ev for ev in world.telemetry.ranks[0].flight.snapshot()
            if ev.kind == "slow_op"]
    assert any(ev.detail.startswith("exec_task ") and ev.dst == 1
               for ev in slow), slow
