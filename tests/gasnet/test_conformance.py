"""Conduit conformance: one behavioural contract, every backend.

The same SPMD bodies run over the thread-backed SMP conduit and the
process-backed proc conduit; both must satisfy the full conduit
contract — all six RMA ops, AM roundtrips with out-of-band ndarray
payloads, atomics under concurrent mutation, collectives, telemetry —
and the proc backend must additionally honour its own guarantees
(zero-copy RMA with no frames and no pickle, clean shutdown with no
leaked shared memory or zombie processes, clear errors for payloads
that cannot cross a process boundary).
"""

import glob
import json
import multiprocessing
import os
import re
import signal
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.collectives import allreduce, barrier
from repro.errors import (
    PeerFailure,
    PgasError,
    RankDead,
    SerializationError,
    TransientCommError,
)
from repro.gasnet import backends
from repro.gasnet.am import ActiveMessage, am_handler, handler_registry
from tests.conftest import run_spmd

# "proc" resolves to the socket transport; the pinned variants run the
# same contract over each AM transport explicitly, so a ring regression
# cannot hide behind the socketpair default or vice versa.
CONDUITS = ("smp", "proc+ring", "proc+socket")


@pytest.fixture(params=CONDUITS)
def conduit(request):
    return request.param


def _no_leaked_shm() -> list:
    """Shared-memory blocks left behind by the proc fabric, if any."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return glob.glob("/dev/shm/repro_*")


# -- process model ----------------------------------------------------------
def test_rank_isolation_matches_backend(conduit):
    """smp ranks share a process; proc ranks each get their own."""
    def body():
        return os.getpid()

    pids = run_spmd(body, ranks=3, conduit=conduit)
    if conduit == "smp":
        assert len(set(pids)) == 1
    else:
        assert len(set(pids)) == 3
        assert os.getpid() not in pids


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(backends.ENV_VAR, "proc")

    def body():
        return os.getpid()

    pids = run_spmd(body, ranks=2)  # no explicit conduit: env decides
    assert len(set(pids)) == 2 and os.getpid() not in pids


# -- the six RMA ops --------------------------------------------------------
def test_all_six_rma_ops(conduit):
    def body():
        me = repro.myrank()
        n = repro.ranks()
        sa = repro.SharedArray(np.int64, size=4 * n, block=4)
        peer = (me + 1) % n
        base = 4 * peer
        barrier()
        # scalar put / get
        sa[base] = 100 + me
        assert sa[base] == 100 + me
        # scalar atomic (fetch-add on the peer's stripe)
        old = sa.atomic(base + 1, "add", 5)
        assert old == 0 and sa[base + 1] == 5
        # indexed put (scatter) / indexed get (gather)
        sa.scatter([base + 2, base + 3], [7, 9])
        got = sa.gather([base + 2, base + 3])
        assert list(got) == [7, 9]
        # batched atomics
        olds = sa.atomic_batch([base + 2, base + 2], "add", [1, 1],
                               return_old=True)
        assert list(olds) == [7, 8] and sa[base + 2] == 9
        barrier()
        # after the barrier this rank's own stripe holds its peer's writes
        prev = (me - 1) % n
        assert sa[4 * me] == 100 + prev
        return True

    assert all(run_spmd(body, ranks=3, conduit=conduit))


def test_atomics_under_concurrent_mutation(conduit):
    """Every rank hammers one shared counter; no update may be lost."""
    def body():
        n = repro.ranks()
        sa = repro.SharedArray(np.int64, size=1, block=1)
        barrier()
        for _ in range(50):
            sa.atomic(0, "add", 1)
        barrier()
        total = int(sa[0])
        barrier()
        return total

    res = run_spmd(body, ranks=3, conduit=conduit, timeout=60.0)
    assert res == [150, 150, 150]


# -- active messages --------------------------------------------------------
def _work(v):
    # module-level: remote-task functions travel by reference (pickled
    # by qualified name), so they must be importable in the peer process
    return int(v.sum()), v.dtype.str


def _bounce(x):
    return x * 2


def test_am_roundtrip_with_oob_ndarray_payload(conduit):
    """A remote task carries an ndarray out-of-band and replies."""
    work = _work

    def body():
        me = repro.myrank()
        n = repro.ranks()
        v = np.arange(64, dtype=np.int64) + me
        fut = repro.async_((me + 1) % n)(work, v)
        total, dtype = fut.get()
        assert total == int(v.sum()) and dtype == v.dtype.str
        barrier()
        return True

    assert all(run_spmd(body, ranks=3, conduit=conduit, timeout=60.0))


@am_handler("conformance_reply_then_raise")
def _reply_then_raise(ctx, am):
    ctx.reply(am, args=("ok",))
    raise ValueError("raised after replying")


def test_handler_raising_after_its_reply_fails_with_its_own_error(conduit):
    """One reply per token: the request is answered, so the exception
    is the handler's rank's failure — not a second (error) reply that
    kills the initiator with ``reply for unknown token``."""
    def body():
        if repro.myrank() == 0:
            ctx = repro.current_world().ranks[0]
            fut = ctx.send_am(1, "conformance_reply_then_raise",
                              expect_reply=True)
            assert fut.get()[0] == ("ok",)
        barrier()

    with pytest.raises(ValueError, match="raised after replying"):
        run_spmd(body, ranks=2, conduit=conduit)


def test_a_dispatch_error_fails_the_rank_promptly(conduit):
    """A reply nobody waits for is a dispatch error, not a broken
    stream: it reaches the receiving rank as the error it is, at once."""
    def body():
        if repro.myrank() == 1:
            repro.current_world().conduit.send_am(1, 0, ActiveMessage(
                "__reply__", 1, token=999_999, is_reply=True))
        barrier()

    t0 = time.monotonic()
    with pytest.raises(PgasError, match="reply for unknown token 999999"):
        run_spmd(body, ranks=2, conduit=conduit)
    assert time.monotonic() - t0 < 1.0


def _make_lock():
    return threading.Lock()


class _LockedBoom(Exception):
    """An error that does not pickle: it holds a lock."""

    def __init__(self):
        super().__init__("boom")
        self.lock = threading.Lock()


def _raise_locked_boom():
    raise _LockedBoom()


@pytest.mark.parametrize("shape", ("result", "exception"))
@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_an_answer_that_cannot_cross_the_wire_fails_the_call(conduit,
                                                             shape):
    """A task whose return value, or whose exception, cannot cross the
    wire: smp hands it over by reference; proc answers the call once
    with a SerializationError naming the task and the value's type, and
    the target keeps serving — it answers the next request."""
    task = _make_lock if shape == "result" else _raise_locked_boom

    def body():
        out = None
        if repro.myrank() == 0:
            try:
                got = repro.async_(1)(task).get()
            except Exception as exc:
                got = exc
            out = (type(got).__name__, str(got),
                   repro.async_(1)(_bounce, 4).get())
        barrier()
        return out

    kind, message, later = run_spmd(body, ranks=2, conduit=conduit)[0]
    assert later == 8
    if conduit == "smp":
        assert kind == ("lock" if shape == "result" else "_LockedBoom")
    else:
        assert kind == "SerializationError"
        value = "lock" if shape == "result" else "_LockedBoom"
        assert f"the answer to '{task.__name__}' is a {value}," in message


# -- progress: poll / wake ----------------------------------------------------
#
# An AM arrives when its target polls; nothing receives on a rank's
# behalf.  What that buys (no thread, a bounded inbox) and what it owes
# (a blocked sender polls; a parked rank is woken by what changes in
# its own process) is checked here on every backend that has the
# property.

PROC_TRANSPORTS = ("proc+socket", "proc+ring")


def _busy_until(stop_at: float) -> None:
    """Compute without touching the runtime until the deadline."""
    while time.perf_counter() < stop_at:
        pass


@am_handler("conformance_numbered")
def _numbered(ctx, am):
    """Record ``(seq, payload is exactly what seq implies)``."""
    (seq,) = am.args
    ok = am.payload is None or (
        am.payload.dtype == np.int64
        and bool((am.payload == seq * 2 + am.src_rank).all()))
    ctx.scratch.setdefault("numbered", []).append(
        (seq, ok, 0 if am.payload is None else am.payload.nbytes))


def _send_numbered(ctx, dst: int, count: int, nbytes: int = 0) -> None:
    for seq in range(count):
        payload = None
        if nbytes:
            payload = np.full(nbytes // 8, seq * 2 + ctx.rank,
                              dtype=np.int64)
        ctx.send_am(dst, "conformance_numbered", args=(seq,),
                    payload=payload)


def _await_numbered(ctx, count: int) -> list:
    got = ctx.scratch.setdefault("numbered", [])
    ctx.wait_until(lambda: len(got) >= count, what="numbered AMs")
    return got


@pytest.mark.parametrize("conduit", PROC_TRANSPORTS)
def test_proc_rank_runs_no_receive_thread(conduit):
    """A serialized proc rank is its main thread plus the launcher's
    control thread: receiving is done by whoever waits."""
    def body():
        barrier()
        return sorted(t.name for t in threading.enumerate())

    for names in run_spmd(body, ranks=2, conduit=conduit):
        assert names == ["MainThread", "proc-control"]


def test_two_ranks_flooding_each_other_do_not_deadlock(conduit):
    """Both ranks send 200 x 256 KiB at each other before either polls.
    With no receive thread this deadlocks in ``sendmsg`` unless a
    blocked sender keeps receiving."""
    count, nbytes = 200, 256 << 10

    def body():
        me = repro.myrank()
        ctx = repro.current_world().ranks[me]
        barrier()
        _send_numbered(ctx, 1 - me, count, nbytes)
        got = list(_await_numbered(ctx, count))
        barrier()
        return got

    expect = [(seq, True, nbytes) for seq in range(count)]
    assert run_spmd(body, ranks=2, conduit=conduit) == [expect, expect]


@pytest.mark.parametrize("conduit", PROC_TRANSPORTS)
def test_busy_receiver_throttles_its_sender(conduit):
    """Back-pressure replaces the unbounded inbox: 300 MiB sent at a
    rank that computes without polling stay on the sender's side of
    the transport, then arrive whole and in order."""
    count, nbytes = 300, 1 << 20

    def body():
        me = repro.myrank()
        ctx = repro.current_world().ranks[me]
        barrier()
        if me == 0:
            _send_numbered(ctx, 1, count, nbytes)
            barrier()
            return None
        _busy_until(time.perf_counter() + 1.5)
        queued = len(ctx._inbox)
        got = list(_await_numbered(ctx, count))
        barrier()
        return queued, got

    queued, got = run_spmd(body, ranks=2, conduit=conduit, timeout=60.0)[1]
    assert queued == 0
    assert got == [(seq, True, nbytes) for seq in range(count)]


def test_one_way_burst_into_a_busy_rank_arrives_in_order(conduit):
    count = 20_000

    def body():
        me = repro.myrank()
        ctx = repro.current_world().ranks[me]
        barrier()
        got = None
        if me == 0:
            _send_numbered(ctx, 1, count)
        else:
            _busy_until(time.perf_counter() + 0.3)
            got = [seq for seq, _ok, _n in _await_numbered(ctx, count)]
        barrier()
        return got

    res = run_spmd(body, ranks=2, conduit=conduit, timeout=60.0)
    assert res[1] == list(range(count))


@pytest.mark.parametrize("conduit", PROC_TRANSPORTS)
def test_sender_blocked_on_a_rank_that_never_polls_gives_up(conduit,
                                                            tmp_path):
    """The blocked sender's own guard: ``TransientCommError`` after the
    op timeout, with no lock left held."""
    report = tmp_path / "report.json"

    def body():
        me = repro.myrank()
        world = repro.current_world()
        ctx = world.ranks[me]
        barrier()
        if me == 1:
            _busy_until(time.perf_counter() + 3.0)
            barrier()
            return
        t0 = time.perf_counter()
        try:
            _send_numbered(ctx, 1, 300, 1 << 20)
        finally:
            cond = world.conduit
            report.write_text(json.dumps({
                "elapsed": time.perf_counter() - t0,
                "send_locked": cond._send_locks[1].locked(),
                "recv_locked": cond._recv_lock.locked(),
            }))

    with pytest.raises(TransientCommError, match="receiver stalled"):
        run_spmd(body, ranks=2, conduit=conduit, timeout=1.0)
    got = json.loads(report.read_text())
    assert got["elapsed"] < 2.0
    assert not got["send_locked"] and not got["recv_locked"]


def test_peer_failure_wakes_a_parked_rank(conduit, tmp_path):
    """A rank parked in ``wait_until`` hears of its peer's failure
    within a second of the raise, on any backend."""
    def body():
        me = repro.myrank()
        ctx = repro.current_world().ranks[me]
        barrier()
        if me == 1:
            time.sleep(0.2)
            (tmp_path / "raised").write_text(repr(time.time()))
            raise ValueError("deliberate")
        try:
            ctx.wait_until(lambda: False, what="nothing")
        finally:
            (tmp_path / "woken").write_text(repr(time.time()))

    with pytest.raises(ValueError, match="deliberate"):
        run_spmd(body, ranks=2, conduit=conduit)
    raised = float((tmp_path / "raised").read_text())
    woken = float((tmp_path / "woken").read_text())
    assert 0.0 <= woken - raised < 1.0


def test_killed_peer_fails_the_reply_it_owes_promptly():
    """proc+socket with the failure detector on: the death reaches the
    waiter as an error reply delivered by another thread of its own
    process, which has to wake it out of its poll."""
    peer_timeout = 0.5

    def body():
        me = repro.myrank()
        barrier()
        if me == 1:
            time.sleep(0.3)             # never serves rank 0's request
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.1)                 # rank 1 has left the barrier
        t0 = time.perf_counter()
        fut = repro.async_(1)(_bounce, 1)
        try:
            fut.get()
        except (RankDead, PeerFailure) as exc:
            return type(exc).__name__, time.perf_counter() - t0
        return "no error", time.perf_counter() - t0

    res = run_spmd(body, ranks=2, conduit="proc+socket",
                   reliability={"peer_timeout": peer_timeout},
                   survive_rank_death=True)
    kind, elapsed = res[0]
    assert kind == "RankDead"
    assert elapsed < 0.2 + peer_timeout + 1.0


@am_handler("conformance_spinning")
def _spinning(ctx, am):
    ctx.scratch["spinning"] = True


def test_hung_peer_fails_the_reply_it_owes_by_wire_silence():
    """proc, failure detector on: rank 1 computes in pure Python, calling
    nothing in the runtime, for longer than ``peer_timeout``.  Its
    process is alive and its socket open, so only the missing answers
    to rank 0's liveness probes can tell: rank 0's pending request
    fails with RankDead within ``peer_timeout + 1 s`` and the job tears
    down with no leaked shared memory and no children."""
    peer_timeout = 0.5

    def body():
        me = repro.myrank()
        ctx = repro.current_world().ranks[me]
        barrier()
        if me == 1:
            ctx.send_am(0, "conformance_spinning")
            _busy_until(time.perf_counter() + peer_timeout + 1.5)
            return None
        ctx.wait_until(lambda: ctx.scratch.get("spinning"),
                       what="test: rank 1 computes")
        t0 = time.perf_counter()
        fut = repro.async_(1)(_bounce, 1)
        try:
            fut.get()
        except (RankDead, PeerFailure) as exc:
            return type(exc).__name__, time.perf_counter() - t0
        return "no error", time.perf_counter() - t0

    res = run_spmd(body, ranks=2, conduit="proc",
                   reliability={"peer_timeout": peer_timeout},
                   survive_rank_death=True)
    kind, elapsed = res[0]
    assert kind == "RankDead"
    assert elapsed < peer_timeout + 1.0
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert _no_leaked_shm() == []


@am_handler("conformance_echo")
def _echo(ctx, am):
    ctx.reply(am, args=am.args)


@pytest.mark.parametrize("conduit", ("smp", "proc"))
def test_reliability_over_a_lossless_conduit_is_liveness_only(conduit):
    """smp and proc keep the FIFO, exactly-once contract themselves, so
    ``reliability=True`` adds no delivery protocol: a 200-AM echo sends
    no ack and its conduit is the bare backend, telemetry on or off.
    What it does turn on is the world's failure detector — a step of
    one housekeeping thread, sending probes, which a telemetry watchdog
    shares — and nothing it started outlives ``spmd()``."""
    n = 200

    def body():
        me = repro.myrank()
        ctx = repro.current_world().ranks[me]
        barrier()
        before = ctx.stats.snapshot()
        if me == 0:
            for i in range(n):
                args, _ = ctx.send_am(1, "conformance_echo", args=(i,),
                                      expect_reply=True).get()
                assert args == (i,)
        ctx.wait_until(lambda: ctx.stats.heartbeats_sent > 0,
                       what="test: a probe round")
        barrier()
        after = ctx.stats.snapshot()
        threads = [t.name for t in threading.enumerate()
                   if t.name.startswith("pgas-")
                   and not t.name.startswith("pgas-rank-")]
        return (after["acks_sent"] - before["acks_sent"],
                after["heartbeats_sent"],
                type(repro.current_world().conduit).__name__, threads)

    bare = "SmpConduit" if conduit == "smp" else "ProcConduit"
    for telemetry in (None, {"mode": "flight", "watchdog_period": 0.05}):
        res = run_spmd(body, ranks=2, conduit=conduit, reliability=True,
                       telemetry=telemetry)
        for acks, probes, stack, threads in res:
            assert acks == 0
            assert stack == bare
            assert probes > 0
            assert len(threads) == 1 and threads[0].startswith(
                "pgas-housekeeping-"), threads
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("pgas-")]
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


# -- collectives + telemetry ------------------------------------------------
def test_collectives_and_metrics_reduce(conduit):
    def body():
        me = repro.myrank()
        total = allreduce(me + 1, op="sum")
        snap = repro.current_world().metrics_reduce()
        return total, sorted(snap["ranks"])

    res = run_spmd(body, ranks=3, conduit=conduit, telemetry="full",
                   timeout=60.0)
    for total, ranks_seen in res:
        assert total == 6
        assert ranks_seen == [0, 1, 2]


# -- shutdown hygiene -------------------------------------------------------
def test_clean_shutdown_no_leaked_shm_or_children():
    def body():
        sa = repro.SharedArray(np.int64, size=8, block=4)
        sa[repro.myrank()] = 1
        barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit="proc"))
    # the launcher reaps its children and unlinks every segment block
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert _no_leaked_shm() == []


def test_shutdown_cleans_up_after_failure_too():
    def body():
        raise ValueError("deliberate")

    with pytest.raises(ValueError):
        run_spmd(body, ranks=2, conduit="proc")
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert _no_leaked_shm() == []


# -- proc-specific guarantees ----------------------------------------------
def test_proc_rma_is_zero_copy_no_frames_no_pickle():
    """Pure RMA crosses process boundaries through shared memory alone:
    no wire frame is sent and nothing is pickled."""
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=8, block=4)
        barrier()
        cond = repro.current_world().conduit
        frames0 = cond.frames_sent
        stats = repro.current_world().ranks[me].stats
        s0 = stats.snapshot()
        peer_base = 4 * ((me + 1) % repro.ranks())
        for i in range(20):
            sa[peer_base + (i % 4)] = i
            _ = sa[peer_base + (i % 4)]
            sa.atomic(peer_base, "add", 1)
        s1 = stats.snapshot()
        frames = cond.frames_sent - frames0
        barrier()
        return (frames, s1["puts"] - s0["puts"], s1["gets"] - s0["gets"],
                s1["pickle_fallbacks"] - s0["pickle_fallbacks"])

    for frames, puts, gets, pickles in run_spmd(body, ranks=2,
                                                conduit="proc"):
        assert frames == 0       # not one AM frame for 60 RMA ops
        assert puts == 20 and gets == 20
        assert pickles == 0      # nothing fell back to pickle


_ROUTE_SIZE = 41
_ROUTE_COUNTS = ("atomic_batches", "gets_indexed", "puts_indexed", "puts",
                 "gets", "batched_elements", "remote_accesses",
                 "local_accesses")


def _route_inputs(rank: int):
    rng = np.random.default_rng(7 + rank)
    return (rng.integers(-_ROUTE_SIZE, _ROUTE_SIZE, 96),
            rng.integers(1, 1 << 63, 96, dtype=np.uint64))


def _route_body():
    """Both ranks at once: an xor atomic_batch window (negatives and
    duplicates), a scatter into [0, 20), remote element writes into
    [30, 41), then a gather and remote element reads of everything."""
    me = repro.myrank()
    sa = repro.SharedArray(np.uint64, size=_ROUTE_SIZE, block=3)
    barrier()
    stats = repro.current_world().ranks[me].stats
    idx, vals = _route_inputs(me)
    s0 = stats.snapshot()
    sa.atomic_batch(idx, "xor", vals)
    barrier()
    mine = np.arange(me, 20, 2)
    sa.scatter(mine, mine * 7 + 1)
    for i in range(30, _ROUTE_SIZE):
        if sa.where(i) != me:
            sa[i] = i * 1000 + me
    barrier()
    table = sa.gather(np.arange(_ROUTE_SIZE)).tolist()
    reads = [int(sa[i]) for i in range(_ROUTE_SIZE) if sa.where(i) != me]
    s1 = stats.snapshot()
    barrier()
    return table, reads, {k: s1[k] - s0[k] for k in _ROUTE_COUNTS}


def test_shared_array_route_is_the_same_across_processes():
    """The batched engine and remote element access give the same table,
    the same reads and the same counts on two rank processes as on two
    rank threads — and the table is the NumPy model's."""
    smp = run_spmd(_route_body, ranks=2, conduit="smp")
    assert run_spmd(_route_body, ranks=2, conduit="proc") == smp
    model = np.zeros(_ROUTE_SIZE, dtype=np.uint64)
    for rank in (0, 1):
        idx, vals = _route_inputs(rank)
        np.bitwise_xor.at(model, idx % _ROUTE_SIZE, vals)
    model[:20] = np.arange(20) * 7 + 1
    owner = (np.arange(_ROUTE_SIZE) // 3) % 2
    for i in range(30, _ROUTE_SIZE):
        model[i] = i * 1000 + (1 - owner[i])
    for rank, (table, reads, counts) in enumerate(smp):
        assert table == model.tolist()
        assert reads == model[owner != rank].tolist()
        # one indexed op per batched call (each spans both owners), one
        # put per remote element write, one get per remote element read
        assert counts["atomic_batches"] == 1
        assert counts["puts_indexed"] == counts["gets_indexed"] == 1
        assert counts["puts"] == np.count_nonzero(owner[30:] != rank)
        assert counts["gets"] == np.count_nonzero(owner != rank)


def _pf_alpha(ctx, am):
    ctx.reply(am, args=("pf_alpha", am.src_rank))


def _pf_beta(ctx, am):
    ctx.reply(am, args=("pf_beta", am.src_rank))


@pytest.mark.parametrize("conduit", PROC_TRANSPORTS)
def test_handlers_registered_after_the_fork_in_any_order(conduit):
    """Each rank process registers two handlers in its body, in the
    opposite order to its peer's; every call is answered by the handler
    it names."""
    def body():
        me = repro.myrank()
        order = [("pf_alpha", _pf_alpha), ("pf_beta", _pf_beta)]
        if me == 1:
            order.reverse()
        for name, fn in order:
            am_handler(name)(fn)
        barrier()
        ctx = repro.current_world().ranks[me]
        got = [ctx.send_am(1 - me, name, expect_reply=True).get()[0]
               for name, _fn in order]
        barrier()
        return got

    assert run_spmd(body, ranks=2, conduit=conduit) == [
        [("pf_alpha", 0), ("pf_beta", 0)],
        [("pf_beta", 1), ("pf_alpha", 1)],
    ]
    assert "pf_alpha" not in handler_registry  # registered in the ranks


def test_handler_registered_only_on_the_sender_fails_the_call():
    def body():
        me = repro.myrank()
        if me == 0:
            am_handler("pf_only_rank0")(_pf_alpha)
        barrier()
        if me == 0:
            ctx = repro.current_world().ranks[0]
            ctx.send_am(1, "pf_only_rank0", expect_reply=True).get()
        barrier()

    t0 = time.monotonic()
    with pytest.raises(PgasError,
                       match="unknown AM handler 'pf_only_rank0'"):
        run_spmd(body, ranks=2, conduit="proc")
    assert time.monotonic() - t0 < 1.0


def test_proc_byref_payload_raises_serialization_error():
    """A payload that only works by reference (an unpicklable closure)
    must fail loudly at the sender, not corrupt the wire."""
    def body():
        me = repro.myrank()
        n = repro.ranks()
        lock = __import__("threading").Lock()
        try:
            repro.async_((me + 1) % n)(lambda: lock)
        except SerializationError:
            caught = True
        else:
            caught = False
        barrier()
        return caught

    assert all(run_spmd(body, ranks=2, conduit="proc"))


def test_proc_unpicklable_return_value_raises():
    def body():
        return __import__("threading").Lock()

    with pytest.raises(SerializationError):
        run_spmd(body, ranks=2, conduit="proc")


@pytest.mark.parametrize("conduit", ("smp", "proc"))
def test_proc_die_produces_dump_with_all_ranks_events(conduit, capsys):
    """A simulated crash surfaces as RankDead and the launcher merges
    every rank's flight ring — including the dead rank's — into one
    dump (on proc, shipped across processes), each with its count of
    evicted events.  No ``reliability=``: the launcher declares it."""
    def body():
        me = repro.myrank()
        for _ in range(3):      # everyone records some traffic first:
            allreduce(1, op="sum")          # more than its ring holds
        if me == 1:
            repro.die()
        allreduce(1, op="sum")
        return me

    with pytest.raises(RankDead, match=r"rank 1 died \(simulated crash\)"):
        run_spmd(body, ranks=3, conduit=conduit, timeout=60.0,
                 telemetry={"mode": "flight", "flight_capacity": 2})
    dump = capsys.readouterr().err
    assert "FLIGHT RECORDER DUMP" in dump
    for r in range(3):
        assert re.search(
            rf"rank {r}: 2 events \(\d+ older events evicted\)", dump), dump


@pytest.mark.parametrize("conduit", ("smp", "proc"))
def test_proc_survive_rank_death(conduit):
    """The survivors of a die() learn it from the launcher, with no
    ``reliability=``, and complete."""
    def body():
        me, world = repro.myrank(), repro.current_world()
        if me == 1:
            repro.die()
        world.ranks[me].wait_until(lambda: 1 in world.dead_ranks,
                                   what="test: rank 1 declared",
                                   timeout=5.0)
        return me * 10

    res = run_spmd(body, ranks=3, conduit=conduit,
                   survive_rank_death=True, timeout=60.0)
    assert res[0] == 0 and res[1] is None and res[2] == 20


def _die_stamped(path: str) -> None:
    with open(path, "w") as f:
        f.write(repr(time.monotonic()))
    repro.die()


@am_handler("die_stamped")
def _die_stamped_handler(ctx, am):
    _die_stamped(am.payload)


@pytest.mark.parametrize("where", ("body", "async", "handler"))
@pytest.mark.parametrize("thread_mode", ("serialized", "concurrent"))
@pytest.mark.parametrize("conduit", ("smp", "proc+socket"))
def test_die_ends_the_rank_that_calls_it(conduit, thread_mode, where,
                                         tmp_path):
    """Rank 1 calls die() in its body, in an async rank 0 waits on, or
    in an AM handler rank 0 waits on: rank 1 is the one that ends — a
    die() is no error to reply with — its launcher declares it with no
    ``reliability=``, and spmd raises RankDead naming it within a
    second of the die()."""
    stamp = str(tmp_path / "died_at")

    def body():
        me, ctx = repro.myrank(), repro.current_world().ranks[0]
        if me == 1 and where == "body":
            _die_stamped(stamp)
        if me == 0 and where == "async":
            repro.async_(1)(_die_stamped, stamp).get()
        if me == 0 and where == "handler":
            ctx.send_am(1, "die_stamped", payload=stamp,
                        expect_reply=True).get()
        barrier()

    with pytest.raises(RankDead, match=r"rank 1 died \(simulated crash\)"):
        run_spmd(body, ranks=2, conduit=conduit, thread_mode=thread_mode)
    with open(stamp) as f:
        assert time.monotonic() - float(f.read()) < 1.0


def _die_now() -> None:
    repro.die()


@pytest.mark.parametrize("survive", (True, False))
@pytest.mark.parametrize("conduit", ("smp", "proc+socket"))
def test_die_on_the_progress_thread_is_a_rank_death(conduit, survive):
    """Rank 1 computes for 0.3 s without calling the runtime, so the
    concurrent-mode progress thread runs rank 0's async for it, and the
    async calls die(): rank 1 ends as if its own thread had called it.
    With ``survive_rank_death`` rank 0 gets RankDead for its request
    and completes; without it spmd raises RankDead naming rank 1."""
    def body():
        if repro.myrank() == 1:
            end = time.monotonic() + 0.3
            while time.monotonic() < end:
                pass
            return "rank 1 lived"
        try:
            repro.async_(1)(_die_now).get()
        except RankDead as exc:
            return type(exc).__name__
        return "no death"

    if survive:
        res = run_spmd(body, ranks=2, conduit=conduit,
                       thread_mode="concurrent", survive_rank_death=True)
        assert res == ["RankDead", None]
    else:
        with pytest.raises(RankDead,
                           match=r"rank 1 died \(simulated crash\)"):
            run_spmd(body, ranks=2, conduit=conduit,
                     thread_mode="concurrent")


def test_backend_registry_capabilities():
    smp = backends.backend("smp").caps
    proc = backends.backend("proc").caps
    assert not smp.cross_process and proc.cross_process
    assert proc.needs_launcher
    assert not smp.needs_launcher
    assert set(backends.backend_names()) >= {
        "smp", "proc", "proc+ring", "proc+socket"}
    # the pinned transport variants: same conduit contract and
    # capability set, different AM transport — the launcher option is
    # the only thing that tells them apart
    ring = backends.backend("proc+ring")
    sock = backends.backend("proc+socket")
    assert ring.options == {"transport": "ring"}
    assert sock.options == {"transport": "socket"}
    assert backends.backend("proc").options is None  # launcher default
    assert proc == ring.caps == sock.caps
