"""Where the reliable layer's acknowledgements travel.

``tests/gasnet/test_reliability_link.py`` model-checks the protocol
world-free; here the message counts it promises are pinned in a running
world — a reply *is* the ack of its request, a one-way stream costs a
delayed ack per window rather than one per message — together with the
two places a still-owed ack could hurt: teardown and rank death.  The
protocol is installed only over a conduit that can lose, so every leg
runs it over a fault-free ChaosConduit.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.core.world import current
from repro.errors import PeerFailure, RankDead
from repro.gasnet import ChaosConduit, backends
from repro.gasnet.am import ActiveMessage, am_handler
from repro.gasnet.reliability import ReliabilityConfig
from tests.conftest import run_spmd

CONDUITS = ("smp",)
COUNTS = ("acks_sent", "am_retransmits", "dup_ams")

_seen: list = []      # per process: what acks_sink handled, in order
_seen_at: list = []   # ... and when (CLOCK_MONOTONIC is host-wide)


@am_handler("acks_echo")
def _echo(ctx, am):
    ctx.reply(am, args=am.args)


@am_handler("acks_sink")
def _sink(ctx, am):
    _seen.append(am.args[0])
    _seen_at.append(time.monotonic())


def _link(me: int, peer: int):
    return current().world._reliable._link(me, peer)


def _lossy(backend: str) -> ChaosConduit:
    """The named backend under a ChaosConduit with every fault rate at
    zero: ``caps.lossy`` is the wrapper's, not its rates'."""
    return ChaosConduit(backends.backend(backend).factory(), seed=0)


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in COUNTS}


def _total(deltas) -> dict:
    return {k: sum(d[k] for d in deltas) for k in COUNTS}


# ------------------------------------------------------- message counts

@pytest.mark.parametrize("conduit", CONDUITS)
def test_request_reply_loop_sends_no_standalone_acks(conduit):
    """200 closed-loop round trips: each reply carries the ack of its
    request and each request the ack of the previous reply, so the only
    ``__rel_ack__`` frames are the few delayed ones around the two
    barriers (one per message, 400, at the parent)."""
    n = 200

    def body():
        ctx = current()
        repro.barrier()
        before = ctx.stats.snapshot()
        if ctx.rank == 0:
            for i in range(n):
                args, _ = ctx.send_am(1, "acks_echo", args=(i,),
                                      expect_reply=True).get()
                assert args == (i,)
        repro.barrier()
        return _delta(before, ctx.stats.snapshot())

    total = _total(run_spmd(body, ranks=2, conduit=_lossy(conduit),
                            reliability=True))
    assert total["acks_sent"] <= 4, total
    assert total["am_retransmits"] == 0, total
    assert total["dup_ams"] == 0, total


@pytest.mark.parametrize("conduit", CONDUITS)
def test_one_way_stream_is_acked_once_per_window(conduit):
    """1000 fire-and-forget AMs one way, nothing coming back: handled in
    order, acknowledged by the monitor's delayed cumulative acks alone
    (a handful, not 1000), never retransmitted, and the sender's
    ``unacked`` is empty within four windows of the last dispatch."""
    n = 1000
    cfg = ReliabilityConfig(ack_timeout=0.2)   # robust on a loaded box
    window = cfg.ack_timeout / 4

    def body():
        ctx = current()
        del _seen[:], _seen_at[:]
        repro.barrier()
        before = ctx.stats.snapshot()
        drained_at = None
        if ctx.rank == 0:
            for i in range(n):
                ctx.send_am(1, "acks_sink", args=(i,))
                if i % 100 == 99:
                    ctx.advance()   # an attentive sender sees its acks
            unacked = _link(0, 1).unacked
            ctx.wait_until(lambda: not unacked, timeout=10.0,
                           what="test: one-way stream acked")
            drained_at = time.monotonic()
        else:
            link = _link(1, 0)
            ctx.wait_until(lambda: (len(_seen) == n
                                    and link.ack_owed_since is None),
                           timeout=10.0,
                           what="test: one-way stream handled and acked")
        delta = _delta(before, ctx.stats.snapshot())
        repro.barrier()
        return delta, drained_at, list(_seen), _seen_at[-1:]

    (d0, drained_at, _, _), (d1, _, seen, last_at) = run_spmd(
        body, ranks=2, conduit=_lossy(conduit), reliability=cfg)
    assert seen == list(range(n))
    assert d0["acks_sent"] == 0 and 1 <= d1["acks_sent"] <= 50, (d0, d1)
    assert d0["am_retransmits"] == 0 and d1["dup_ams"] == 0, (d0, d1)
    assert drained_at - last_at[0] <= 4 * window, drained_at - last_at[0]


# ------------------------------------------- teardown with acks still owed

@pytest.mark.parametrize("conduit", CONDUITS)
def test_teardown_after_a_one_way_burst_is_clean(conduit, capfd):
    """The last act of the body is a burst nothing answers: ``spmd()``
    returns promptly with the burst dispatched, the monitor gone, no
    retransmission from a stopped conduit and nothing on stderr."""
    n = 300
    holder: dict = {}

    def body():
        ctx = current()
        del _seen[:]
        repro.barrier()
        holder["world"] = ctx.world
        if ctx.rank == 0:
            for i in range(n):
                ctx.send_am(1, "acks_sink", args=(i,))
            return None
        # rank 1 returns at once: the implicit finalize keeps it
        # servicing AMs until rank 0 is done sending
        return _seen

    t0 = time.monotonic()
    _, seen = run_spmd(body, ranks=2, conduit=_lossy(conduit),
                       reliability=True)
    assert time.monotonic() - t0 < 5.0
    assert seen == list(range(n))
    world = holder["world"]

    def retransmits():
        return sum(r.stats.snapshot()["am_retransmits"]
                   for r in world.ranks)

    at_close = retransmits()
    time.sleep(5 * world.conduit.cfg.ack_timeout)
    assert retransmits() == at_close
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("pgas-reliable-")]
    assert capfd.readouterr().err == ""


# ---------------------------------------------- death with acks still owed

def test_peer_death_fails_envelopes_delivered_but_not_yet_acked():
    """Rank 1 dispatches seven envelopes from rank 0 and is partitioned
    inside the delayed-ack window, before any ack for them left.  One of
    the requests was meanwhile answered by rank 2, so its future is
    complete although its envelope is still unacked.  On detection all
    seven fail with RankDead at once: the fire-and-forget ones are
    dropped, the open request's future raises, and the error reply for
    the already-completed token is counted as stale, not raised."""
    chaos = ChaosConduit(seed=0)
    peer_timeout = 0.5
    done = {r: False for r in range(3)}
    out: dict = {}

    @am_handler("acks_hold")
    def _hold(ctx, am):
        pass   # never answered: only rank 1's death completes it

    @am_handler("acks_forward")
    def _forward(ctx, am):
        ctx.send_am(2, "acks_answer", args=(am.src_rank, am.token))
        chaos.kill_rank(ctx.rank)   # partitioned, still running

    @am_handler("acks_answer")
    def _answer(ctx, am):
        origin, token = am.args   # answer the forwarded request for rank 1
        ctx.reply(ActiveMessage("acks_forward", origin, token=token),
                  args=("from 2",))

    def body():
        ctx = current()
        me = ctx.rank
        del _seen[:]
        repro.barrier()
        if me == 0:
            link = _link(0, 1)
            ctx.wait_until(lambda: not link.unacked, timeout=5.0,
                           what="test: the barrier's envelopes acked")
            for i in range(5):
                ctx.send_am(1, "acks_sink", args=(i,))
            held = ctx.send_am(1, "acks_hold", expect_reply=True)
            fwd = ctx.send_am(1, "acks_forward", expect_reply=True)
            assert fwd.get(timeout=5.0)[0] == ("from 2",)
            assert len(link.unacked) == 7   # delivered, not yet acked
            t0 = time.monotonic()
            with pytest.raises((RankDead, PeerFailure)):
                held.get(timeout=10.0)
            out["detect_s"] = time.monotonic() - t0
            ctx.wait_until(
                lambda: ctx.stats.snapshot()["stale_replies"] >= 1,
                timeout=5.0, what="test: stale error reply counted")
            assert not link.unacked
            ctx.send_am(1, "acks_sink", args=(99,))   # dropped, no raise
            out["stats"] = ctx.stats.snapshot()
        elif me == 1:
            ctx.wait_until(lambda: done[0] and done[2], timeout=20.0,
                           what="test: partitioned victim parks")
            out["seen"] = list(_seen)
        done[me] = True
        ctx.world.poke_all()
        if me != 1:
            ctx.wait_until(lambda: done[0] and done[2], timeout=20.0,
                           what="test: survivors rendezvous")
        return True

    t0 = time.monotonic()
    assert all(repro.spmd(
        body, ranks=3, conduit=chaos, survive_rank_death=True,
        timeout=30.0,
        reliability={"seed": 0, "ack_timeout": 0.4, "rto_max": 0.4,
                     "peer_timeout": peer_timeout,
                     "heartbeat_period": 0.02}))
    assert time.monotonic() - t0 < peer_timeout + 3.0
    assert out["detect_s"] < peer_timeout + 3.0
    assert out["seen"] == list(range(5))   # dispatched exactly once
    stats = out["stats"]
    # seven abandoned envelopes, then the refused send after the death
    assert stats["dead_peer_fastfails"] == 8
    assert 1 <= stats["stale_replies"] <= 2
    assert stats["op_timeouts"] == 0
