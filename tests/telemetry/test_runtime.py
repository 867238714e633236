"""Telemetry wiring through the world, runtime constructs, and the
failure-time flight dump."""

import numpy as np
import pytest

import repro
from repro.core.world import current
from repro.errors import CommTimeout
from repro.gasnet import TelemetryConduit
from repro.gasnet.am import am_handler
from repro.telemetry import TelemetryConfig, resolve_config
from tests.conftest import run_spmd


# ------------------------------------------------------------ config knob

def test_resolve_config_forms():
    assert resolve_config(None).mode == "off"
    assert resolve_config(False).mode == "off"
    assert resolve_config(True).mode == "full"
    assert resolve_config("flight").mode == "flight"
    assert resolve_config({"mode": "full", "flight_capacity": 16}) \
        .flight_capacity == 16
    cfg = TelemetryConfig(mode="flight")
    assert resolve_config(cfg) is cfg
    with pytest.raises(ValueError):
        resolve_config("loud")
    with pytest.raises(ValueError):
        resolve_config(3.14)


def test_off_mode_installs_no_wrapper():
    """The zero-overhead guarantee is structural: with telemetry off the
    conduit stack is byte-identical to a pre-telemetry world."""
    def body():
        world = repro.current_world()
        assert not isinstance(world.conduit, TelemetryConduit)
        assert not world.telemetry.enabled
        ctx = current()
        assert not ctx.telemetry.active and not ctx.telemetry.full
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def _echo(x):
    return x


class _Nameless:
    """A task callable with no ``__name__``: naming it means repr()."""

    reprs: list = []

    def __call__(self, x):
        return x

    def __repr__(self):
        self.reprs.append(1)
        return "<nameless>"


def test_off_mode_reads_no_clock_and_formats_no_name_for_a_task(
        monkeypatch):
    """Structurally free includes the task path: with telemetry off an
    async costs no ``perf_counter()`` anywhere in the runtime (the
    enqueue stamp and the run/done pair used to be read regardless)."""
    import time

    real, reads = time.perf_counter, []

    def counting():
        reads.append(1)
        return real()

    def body():
        out = None
        repro.barrier()
        if repro.myrank() == 0:
            # ``repro.core.world.time`` is the time module itself: every
            # ``time.perf_counter()`` in the process is counted, rank 1's
            # (it serves the tasks from inside the barrier below) too.
            monkeypatch.setattr(repro.core.world.time, "perf_counter",
                                counting)
            try:
                got = [repro.async_(1)(_echo, i).get() for i in range(100)]
                assert repro.async_(1)(_Nameless(), 7).get() == 7
            finally:
                monkeypatch.undo()
            out = (got, len(reads))
        repro.barrier()
        return out

    got, n_reads = run_spmd(body, ranks=2, conduit="smp")[0]
    assert got == list(range(100))
    assert n_reads == 0
    assert _Nameless.reprs == []


# ------------------------------------------------- conduit-op histograms

def test_rma_histograms_populated_and_agree_with_stats():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=4, block=1)
        repro.barrier()
        if me == 0:
            sa[1] = 7            # remote put
            _ = sa[1]            # remote get
            sa.atomic(1, "add", 1)
        repro.barrier()
        out = None
        if me == 0:
            tel = current().telemetry
            hists = tel.histograms()
            stats = current().stats.snapshot()
            out = {
                "put": (hists["rma_put"].count, stats["puts"]),
                "get": (hists["rma_get"].count, stats["gets"]),
                "atomic": (hists["rma_atomic"].count, stats["atomics"]),
            }
            assert hists["rma_put"].max_value > 0  # timed in ns
        repro.barrier()
        return out

    out = run_spmd(body, ranks=2, telemetry="full")[0]
    for kind, (hist_count, stat_count) in out.items():
        assert hist_count == stat_count, kind
        assert hist_count >= 1, kind


def test_indexed_ops_and_am_rtt_histograms():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.uint64, size=8, block=4)
        repro.barrier()
        if me == 0:
            idx = np.array([4, 5, 6], dtype=np.int64)  # rank 1's block
            sa.atomic_batch(idx, "xor", np.ones(3, dtype=np.uint64))
            fut = current().send_am(1, "noop_rtt", args=(),
                                    expect_reply=True)
            fut.get()
        repro.barrier()
        out = None
        if me == 0:
            hists = current().telemetry.histograms()
            out = ("rma_atomic_batch" in hists, "am_rtt" in hists)
        repro.barrier()
        return out

    @am_handler("noop_rtt")
    def _noop(ctx, am):
        ctx.reply(am, args=("ok",))

    has_batch, has_rtt = run_spmd(body, ranks=2, telemetry="full")[0]
    assert has_batch and has_rtt


# -------------------------------------------- runtime construct latencies

def test_lock_copy_finish_and_task_instrumentation():
    def body():
        me = repro.myrank()
        lk = repro.GlobalLock(owner=0)
        repro.barrier()
        with lk:
            pass
        if me == 0:
            src = repro.allocate(0, 16, np.float64)
            dst = repro.allocate(1, 16, np.float64)
            src.put(np.arange(16.0))
            repro.async_copy(src, dst, 16).wait()
        with repro.finish():
            repro.async_((me + 1) % repro.ranks())(abs, -1)
        repro.barrier()
        tel = current().telemetry
        hists = tel.histograms()
        names = set(hists)
        span_names = {s.name for s in tel.spans()}
        flight_kinds = {ev.kind for ev in tel.flight.snapshot()}
        repro.barrier()
        return names, span_names, flight_kinds

    results = run_spmd(body, ranks=2, telemetry="full")
    names0, spans0, flight0 = results[0]
    assert "lock_wait" in names0
    assert "copy_wait" in names0
    assert "finish_block" in names0
    # The async target ran a task: queue-wait + exec histograms and a
    # task span on whichever rank executed it.
    all_names = names0 | results[1][0]
    assert "task_queue_wait" in all_names
    assert "task_exec" in all_names
    all_spans = spans0 | results[1][1]
    assert "finish" in all_spans
    assert any(s.startswith("task:") for s in all_spans)
    # Task lifecycle lands in the flight ring too.
    all_flight = flight0 | results[1][2]
    assert {"task_spawn", "task_run", "task_done"} <= all_flight


def test_workqueue_telemetry():
    def body():
        me = repro.myrank()
        wq = repro.DistWorkQueue()
        if me == 0:
            wq.add_local(range(40))  # all work on rank 0: forces steals
        repro.barrier()
        done = 0
        while wq.get(max_steal_rounds=200) is not None:
            wq.task_done()
            done += 1
        repro.barrier()
        hists = set(current().telemetry.histograms())
        stole = wq.steals_successful
        repro.barrier()
        return done, hists, stole

    results = run_spmd(body, ranks=2, telemetry="full")
    assert sum(r[0] for r in results) == 40
    all_hists = results[0][1] | results[1][1]
    assert "wq_depth" in all_hists
    # The idle rank measured its steal round trips.
    if any(r[2] for r in results):
        assert "wq_steal_rtt" in all_hists


# ------------------------------------------------------ flight recorder

def test_dump_on_demand():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        if me == 0:
            sa[1] = 5
        repro.barrier()
        text = repro.current_world().dump_flight_recorder(header="manual")
        assert "FLIGHT RECORDER DUMP" in text
        assert "trigger: manual" in text
        if me == 0:
            assert "rank 0: put 0->1 8B" in text
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, telemetry="flight"))


def test_dump_inactive_when_off():
    def body():
        text = repro.current_world().dump_flight_recorder()
        assert "inactive" in text
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_comm_timeout_dumps_flight_recorder(capsys):
    """A request whose handler never replies: the CommTimeout that
    propagates out of spmd must carry a merged flight dump naming the
    stuck op on stderr."""
    @am_handler("blackhole_probe")
    def _probe(ctx, am):
        pass  # takes the request, never answers it

    def body():
        if repro.myrank() == 0:
            fut = current().send_am(1, "blackhole_probe", args=(),
                                    expect_reply=True)
            fut.get(timeout=0.5)
        return True

    with pytest.raises(CommTimeout):
        repro.spmd(body, ranks=2, telemetry="flight", timeout=15.0)
    err = capsys.readouterr().err
    assert "FLIGHT RECORDER DUMP" in err
    assert "trigger: CommTimeout" in err
    # The stuck op: the timed-out wait and the AM nobody answered.
    assert "op_timeout" in err
    assert "blackhole_probe" in err
    assert "rank 0:" in err and "rank 1:" in err


def test_no_dump_when_telemetry_off(capsys):
    @am_handler("blackhole_probe2")
    def _probe(ctx, am):
        pass  # takes the request, never answers it

    def body():
        if repro.myrank() == 0:
            fut = current().send_am(1, "blackhole_probe2", args=(),
                                    expect_reply=True)
            fut.get(timeout=0.5)
        return True

    with pytest.raises(CommTimeout):
        repro.spmd(body, ranks=2, timeout=15.0)
    assert "FLIGHT RECORDER DUMP" not in capsys.readouterr().err


def test_flight_ring_stays_bounded_in_world():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        if me == 0:
            for i in range(50):
                sa[1] = i
        repro.barrier()
        tel = current().telemetry
        assert len(tel.flight) <= 8
        repro.barrier()
        return True

    assert all(run_spmd(
        body, ranks=2,
        telemetry={"mode": "flight", "flight_capacity": 8},
    ))


def test_collective_latency_histograms_recorded():
    """Full mode times every collective kind into a ``coll_<kind>``
    histogram (completion-callback on the collective's future) and the
    flight recorder logs initiations."""
    def body():
        me = repro.myrank()
        repro.barrier()
        repro.collectives.allreduce(me)
        repro.collectives.allgather(me)
        repro.collectives.bcast(1 if me == 0 else None, root=0)
        repro.barrier()
        out = None
        if me == 0:
            hists = current().telemetry.histograms()
            stats = current().stats.snapshot()
            out = {
                "kinds": sorted(k for k in hists if k.startswith("coll_")),
                "barriers": hists["coll_barrier"].count,
                "coll_msgs": stats["coll_msgs"],
                "timed": hists["coll_allreduce"].max_value > 0,
                "flight": sum(
                    1 for e in current().telemetry.flight.snapshot()
                    if e.kind == "coll"),
            }
        repro.barrier()
        return out

    out = run_spmd(body, ranks=2, telemetry="full")[0]
    assert {"coll_allgather", "coll_allreduce", "coll_barrier",
            "coll_bcast"} <= set(out["kinds"])
    assert out["barriers"] >= 2
    assert out["timed"]
    assert out["coll_msgs"] > 0
    assert out["flight"] >= 4
