"""The partitioning fault layer: what ``ChaosConduit.kill_rank`` does.

A killed rank keeps running but is cut off: AMs to and from it are
dropped, RMA touching it raises, and the world's failure detector finds
it by probe silence.  Every kill lands in the fault log.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.world import current
from repro.errors import CommTimeout, RankDead, TransientCommError
from repro.gasnet import ChaosConduit, SmpConduit


def test_takes_only_the_conduit_it_wraps():
    smp = SmpConduit()
    assert ChaosConduit(smp)._inner is smp
    assert isinstance(ChaosConduit()._inner, SmpConduit)
    with pytest.raises(TypeError):
        ChaosConduit(seed=0)


def test_kill_rank_cuts_ams_and_rma_but_not_the_rank():
    """After ``kill_rank(1)``: rank 0's request to rank 1 is dropped and
    fails with RankDead once the detector declares rank 1 dead; RMA to
    rank 1 raises at once; rank 1 itself keeps running and still
    reaches its own segment.  (Three ranks: with two, a partition cuts
    each off from the only rank that probes it.)"""
    chaos = ChaosConduit()
    shared = {"killed": False}

    def body():
        me, ctx = repro.myrank(), current()
        sa = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        if me == 2:
            return None
        if me == 1:
            chaos.kill_rank(1)
            shared["killed"] = True
            sa[1] = 7                      # local: no conduit op
            ctx.wait_until(lambda: shared.get("checked"),
                           what="test: rank 0 checks")
            return int(sa[1])
        ctx.wait_until(lambda: shared["killed"], what="test: kill")
        assert chaos.is_killed(1) and not chaos.is_killed(0)
        with pytest.raises(TransientCommError, match="rank 1 unreachable"):
            sa[1] = 5
        with pytest.raises(RankDead):
            repro.async_(1)(abs, -1).get()
        shared["checked"] = True
        return sorted(ctx.world.dead_ranks)

    res = repro.spmd(body, ranks=3, conduit=chaos, survive_rank_death=True,
                     reliability={"peer_timeout": 0.3,
                                  "heartbeat_period": 0.01},
                     timeout=30.0)
    assert res == [[1], 7, None]


def test_every_kill_is_in_the_fault_schedule():
    chaos = ChaosConduit()
    chaos.kill_rank(2)
    chaos.kill_rank(0)
    faults = chaos.fault_schedule()["faults"]
    assert [(kind, src, dst, detail) for _t, kind, src, dst, detail
            in faults] == [("chaos_kill", 2, 2, "partitioned"),
                           ("chaos_kill", 0, 0, "partitioned")]
    events = chaos.fault_events()
    assert [(e.kind, e.rank) for e in events] == [("chaos_kill", 2),
                                                  ("chaos_kill", 0)]
    assert events[0].t <= events[1].t


def test_chaos_without_reliability_times_out():
    """A partitioned peer with no failure detector (no ``reliability=``,
    no ``heartbeat_timeout=``) is never declared dead: a request to it
    surfaces as a CommTimeout at its deadline, not a hang."""
    chaos = ChaosConduit()

    def body():
        if repro.myrank() == 0:
            chaos.kill_rank(1)
            with pytest.raises(CommTimeout):
                repro.async_(1)(abs, -1).get(timeout=0.5)
        return True

    # survive mode: the finalize is a done-or-dead wait, which needs no
    # message to the partitioned rank.
    assert all(repro.spmd(body, ranks=2, conduit=chaos,
                          survive_rank_death=True, timeout=30.0))
