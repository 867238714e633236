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
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

import repro
from repro.core import proclaunch
from repro.core.collectives import allreduce, barrier
from repro.errors import PgasError, RankDead, SerializationError
from repro.gasnet import backends
from repro.gasnet.am import am_handler
from repro.gasnet.chaos import ChaosConduit
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


def test_am_replies_cross_ranks_many_times(conduit):
    bounce = _bounce

    def body():
        me = repro.myrank()
        n = repro.ranks()
        acc = 0
        for i in range(10):
            acc += repro.async_((me + 1 + i) % n)(bounce, i).get()
        barrier()
        return acc

    res = run_spmd(body, ranks=3, conduit=conduit, timeout=60.0)
    assert res == [sum(i * 2 for i in range(10))] * 3


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


def test_proc_die_produces_dump_with_all_ranks_events():
    """A simulated crash surfaces as RankDead and the launcher merges
    every rank's flight ring — including the dead rank's — into one
    cross-process dump, each with its count of evicted events."""
    def body():
        me = repro.myrank()
        for _ in range(3):      # everyone records some traffic first:
            allreduce(1, op="sum")          # more than its ring holds
        if me == 1:
            repro.die()
        allreduce(1, op="sum")
        return me

    proclaunch.LAST_DUMP = None
    with pytest.raises(RankDead):
        run_spmd(body, ranks=3, conduit="proc", timeout=60.0,
                 telemetry={"mode": "flight", "flight_capacity": 2})
    dump = proclaunch.LAST_DUMP
    assert dump is not None and "FLIGHT RECORDER DUMP" in dump
    for r in range(3):
        assert re.search(
            rf"rank {r}: 2 events \(\d+ older events evicted\)", dump), dump


def test_proc_survive_rank_death():
    def body():
        me = repro.myrank()
        if me == 1:
            repro.die()
        return me * 10

    res = run_spmd(body, ranks=3, conduit="proc",
                   survive_rank_death=True, timeout=60.0)
    assert res[0] == 0 and res[1] is None and res[2] == 20


def test_chaos_requires_in_process_hooks():
    """Capability gate: the chaos wrapper needs same-process delivery
    hooks, which a cross-process conduit cannot offer."""
    caps = backends.backend("proc").caps
    assert not caps.in_process_hooks

    class _ProcLike:
        pass

    stub = _ProcLike()
    stub.caps = caps
    with pytest.raises(PgasError):
        ChaosConduit(inner=stub)


def test_backend_registry_capabilities():
    smp = backends.backend("smp").caps
    proc = backends.backend("proc").caps
    assert not smp.cross_process and proc.cross_process
    assert smp.in_process_hooks and not proc.in_process_hooks
    assert proc.zero_copy_rma and proc.needs_launcher
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
