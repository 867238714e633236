"""Tree collectives when a participant crashes.

The engine's AM traffic rides whatever conduit the world uses, the
fault layer included: a participant's death must convert into a clean
failure on the survivors rather than a hang."""

from __future__ import annotations

import time

import pytest

import repro
from repro.core import collectives as coll
from repro.core.world import die
from repro.errors import PeerFailure, RankDead
from repro.gasnet import ChaosConduit


def test_rank_death_mid_collective_raises_rankdead():
    """A participant dying between initiating and completing an
    allreduce must surface as PeerFailure on survivors (heartbeat
    detector) and RankDead from spmd — not a silent hang."""
    observed: dict = {}

    def body():
        r = repro.myrank()
        if r == 2:
            coll.allreduce_async(r)   # initiate, then die mid-flight
            die()
        time.sleep(0.1)
        try:
            coll.allreduce(r)
        except PeerFailure as e:
            observed[r] = e.failed_rank
            raise
        pytest.fail("allreduce completed despite dead participant")

    with pytest.raises(RankDead):
        repro.spmd(body, ranks=4, conduit=ChaosConduit(),
                   heartbeat_timeout=1.0, timeout=30.0)
    assert set(observed) == {0, 1, 3}
    assert all(f == 2 for f in observed.values())
