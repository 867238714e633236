"""Tree collectives when a participant crashes.

The engine's AM traffic rides whatever conduit the world uses: a
participant's death must convert into a clean failure on the survivors
rather than a hang."""

from __future__ import annotations

import time

import pytest

import repro
from repro.core import collectives as coll
from repro.core.world import die
from repro.errors import PeerFailure, RankDead


def test_rank_death_mid_collective_raises_rankdead(tmp_path):
    """A participant dying between initiating and completing an
    allreduce must surface as PeerFailure on survivors (failure
    detector) and RankDead from spmd — not a silent hang.  Each
    survivor notes the rank it saw fail in a file, so the check holds
    when the ranks are processes."""
    def body():
        r = repro.myrank()
        if r == 2:
            coll.allreduce_async(r)   # initiate, then die mid-flight
            die()
        time.sleep(0.1)
        try:
            coll.allreduce(r)
        except PeerFailure as e:
            (tmp_path / str(r)).write_text(str(e.failed_rank))
            raise
        pytest.fail("allreduce completed despite dead participant")

    with pytest.raises(RankDead):
        repro.spmd(body, ranks=4, reliability={"peer_timeout": 1.0}, timeout=30.0)
    observed = {int(f.name): int(f.read_text())
                for f in tmp_path.iterdir()}
    assert observed == {0: 2, 1: 2, 3: 2}
